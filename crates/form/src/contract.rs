//! The analysis backend: replays a derived program's instrumented event
//! stream on the canonical fixture and folds it into a
//! [`KernelContract`] — flop totals, per-region global traffic, workspace
//! discipline, and the register story. The derived contract must equal
//! the hand-maintained one in `alya_core::variant` field-for-field;
//! analyzer pass 10 enforces that on every audit, so the hand-maintained
//! table can never drift from what the form actually implies.

use alya_core::layout::{self, Layout};
use alya_core::{KernelContract, CONTRACT_F64_BUDGET};
use alya_machine::trace::TraceCounts;
use alya_machine::{Event, RegisterAllocator, Space};

use crate::exec::trace_generated;
use crate::fixture::Fixture;
use crate::ir::Program;

/// Derives the kernel contract implied by `prog`, by tracing one fixture
/// element under the GPU launch layout. The counts are structural (the
/// contract checker proves element invariance separately), so one element
/// suffices.
pub fn derive_contract(prog: &Program) -> KernelContract {
    let fx = Fixture::new();
    let input = fx.input();
    let lay = Layout::gpu(0, fx.mesh.num_elements(), fx.mesh.num_nodes());
    let rec = trace_generated(prog, &input, 0, &lay);
    contract_of_events(prog, &rec.events)
}

/// Folds one recorded event stream into a contract. The modelled layout
/// gives every logical array a disjoint address region, so each global
/// access classifies itself.
pub fn contract_of_events(prog: &Program, events: &[Event]) -> KernelContract {
    let counts = TraceCounts::from_events(events);
    let mut input_loads = 0u64;
    let mut rhs_loads = 0u64;
    let mut rhs_stores = 0u64;
    let mut ws_loads = 0u64;
    let mut ws_stores = 0u64;
    for e in events {
        match *e {
            Event::GLoad(a) => {
                if a >= layout::WS_BASE {
                    ws_loads += 1;
                } else if (layout::RHS_BASE..layout::NUT_BASE).contains(&a) {
                    rhs_loads += 1;
                } else {
                    input_loads += 1;
                }
            }
            Event::GStore(a) => {
                if a >= layout::WS_BASE {
                    ws_stores += 1;
                } else if (layout::RHS_BASE..layout::NUT_BASE).contains(&a) {
                    rhs_stores += 1;
                } else {
                    panic!(
                        "{}: generated kernel stored into an input region",
                        prog.name
                    );
                }
            }
            _ => {}
        }
    }
    let (workspace_loads, workspace_stores) = match prog.space {
        Some(Space::Global) => {
            debug_assert_eq!(counts.local_loads + counts.local_stores, 0);
            (
                Some((Space::Global, ws_loads)),
                Some((Space::Global, ws_stores)),
            )
        }
        Some(Space::Local) => {
            debug_assert_eq!(ws_loads + ws_stores, 0);
            (
                Some((Space::Local, counts.local_loads)),
                Some((Space::Local, counts.local_stores)),
            )
        }
        None => {
            debug_assert_eq!(ws_loads + ws_stores, 0);
            debug_assert_eq!(counts.local_loads + counts.local_stores, 0);
            (None, None)
        }
    };
    let uses_private_scalars = counts.defs > 0;
    let (max_pressure, spills_at_contract_budget) = if uses_private_scalars {
        let unbounded = RegisterAllocator::new(4096).allocate(events);
        let budgeted = RegisterAllocator::new(CONTRACT_F64_BUDGET).allocate(events);
        (
            Some(unbounded.max_pressure),
            Some(budgeted.spilled_values > 0),
        )
    } else {
        (None, None)
    };
    KernelContract {
        flops: counts.flops(),
        input_loads,
        rhs_loads,
        rhs_stores,
        workspace_loads,
        workspace_stores,
        uses_private_scalars,
        max_pressure,
        spills_at_contract_budget,
    }
}
