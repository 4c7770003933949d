//! Pass 1 — the kernel-contract checker.
//!
//! Replays each variant's instrumented per-element event stream (see
//! [`alya_core::drivers::trace_element`]) and verifies it against the
//! declarative [`KernelContract`] pinned in `alya-core::variant`:
//!
//! * exact FP-operation totals;
//! * exact global traffic per address-space region (the modelled layout
//!   gives every logical array a disjoint region, so a store address
//!   *classifies itself*) — in particular, the scalar-private variants
//!   RSP/RSPR must perform **zero** intermediate stores to global memory
//!   besides the final RHS scatter;
//! * the baseline's workspace traffic against the closed-form
//!   phase-by-phase formulas in `kernels::baseline`;
//! * the register story: peak live-value pressure from the linear-scan
//!   allocator, and spill behaviour at the contract's 128-register budget
//!   (RSPR must not spill; RSP must — that spill is RSPR's raison d'être);
//! * element invariance: the counts must be identical for every sampled
//!   element (they are structural, not data-dependent).

use alya_core::drivers::{trace_element, trace_pack, CPU_VECTOR_DIM};
use alya_core::layout::{self, Layout};
use alya_core::{AssemblyInput, KernelContract, Variant, CONTRACT_F64_BUDGET};
use alya_machine::trace::TraceCounts;
use alya_machine::{Event, RegisterAllocator, Space};

/// One contract breach, with enough context to act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The variant whose contract was breached.
    pub variant: &'static str,
    /// What was breached and by how much.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.variant, self.message)
    }
}

/// Which modelled array region a global byte address falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Nodal/elemental kernel inputs (connectivity, coordinates, velocity,
    /// pressure, temperature, ν_t).
    Input,
    /// The assembled RHS — the only region a scatter may write.
    Rhs,
    /// The staged intermediate workspace.
    Workspace,
}

/// Classifies a global byte address by the layout's region bases.
pub fn classify(addr: u64) -> Region {
    if addr >= layout::WS_BASE {
        Region::Workspace
    } else if (layout::RHS_BASE..layout::NUT_BASE).contains(&addr) {
        Region::Rhs
    } else {
        Region::Input
    }
}

/// Region-resolved traffic totals of one event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionCounts {
    /// Loads from [`Region::Input`].
    pub input_loads: u64,
    /// Stores into [`Region::Input`] — always forbidden.
    pub input_stores: u64,
    /// Loads from the RHS region (read-modify-write scatter).
    pub rhs_loads: u64,
    /// Stores into the RHS region (the scatter itself).
    pub rhs_stores: u64,
    /// Loads from the global workspace region.
    pub ws_loads: u64,
    /// Stores into the global workspace region.
    pub ws_stores: u64,
}

impl RegionCounts {
    /// Scans an event stream.
    pub fn from_events(events: &[Event]) -> Self {
        let mut c = Self::default();
        for e in events {
            match *e {
                Event::GLoad(a) => match classify(a) {
                    Region::Input => c.input_loads += 1,
                    Region::Rhs => c.rhs_loads += 1,
                    Region::Workspace => c.ws_loads += 1,
                },
                Event::GStore(a) => match classify(a) {
                    Region::Input => c.input_stores += 1,
                    Region::Rhs => c.rhs_stores += 1,
                    Region::Workspace => c.ws_stores += 1,
                },
                _ => {}
            }
        }
        c
    }
}

fn fail(v: Variant, out: &mut Vec<Violation>, message: String) {
    out.push(Violation {
        variant: v.name(),
        message,
    });
}

fn expect(v: Variant, out: &mut Vec<Violation>, what: &str, got: u64, want: u64) {
    if got != want {
        fail(v, out, format!("{what}: got {got}, contract says {want}"));
    }
}

/// Checks one recorded event stream against a contract. Pure — the audit
/// binary's seeded-violation modes feed forged streams through here.
pub fn check_trace(
    variant: Variant,
    contract: &KernelContract,
    events: &[Event],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let counts = TraceCounts::from_events(events);
    let regions = RegionCounts::from_events(events);

    // FP-operation total, with the paper's 1-FMA-=-2 convention.
    expect(
        variant,
        &mut out,
        "fp-op total",
        counts.flops(),
        contract.flops,
    );

    // Global traffic, region by region. Stores into input arrays are
    // forbidden unconditionally — a kernel never writes its inputs.
    expect(
        variant,
        &mut out,
        "input-region loads",
        regions.input_loads,
        contract.input_loads,
    );
    expect(
        variant,
        &mut out,
        "input-region stores",
        regions.input_stores,
        0,
    );
    expect(
        variant,
        &mut out,
        "rhs loads",
        regions.rhs_loads,
        contract.rhs_loads,
    );
    expect(
        variant,
        &mut out,
        "rhs stores",
        regions.rhs_stores,
        contract.rhs_stores,
    );

    // Workspace discipline per space.
    let (want_gl, want_ll) = match contract.workspace_loads {
        Some((Space::Global, n)) => (n, 0),
        Some((Space::Local, n)) => (0, n),
        None => (0, 0),
    };
    let (want_gs, want_ls) = match contract.workspace_stores {
        Some((Space::Global, n)) => (n, 0),
        Some((Space::Local, n)) => (0, n),
        None => (0, 0),
    };
    expect(
        variant,
        &mut out,
        "global intermediate (workspace) loads",
        regions.ws_loads,
        want_gl,
    );
    expect(
        variant,
        &mut out,
        "global intermediate (workspace) stores — only the RHS scatter may store globally beyond this",
        regions.ws_stores,
        want_gs,
    );
    expect(
        variant,
        &mut out,
        "local loads",
        counts.local_loads,
        want_ll,
    );
    expect(
        variant,
        &mut out,
        "local stores",
        counts.local_stores,
        want_ls,
    );

    // Private-scalar and register story.
    if contract.uses_private_scalars {
        if counts.defs == 0 {
            fail(
                variant,
                &mut out,
                "contract expects private-scalar Def/Use events, trace has none".into(),
            );
        }
        // Peak pressure, measured with an effectively unbounded allocator.
        let unbounded = RegisterAllocator::new(4096).allocate(events);
        if let Some(cap) = contract.max_pressure {
            if unbounded.max_pressure != cap {
                fail(
                    variant,
                    &mut out,
                    format!(
                        "peak register pressure: got {} live f64 values, contract pins {}",
                        unbounded.max_pressure, cap
                    ),
                );
            }
        }
        // Spill behaviour at the 128-register contract budget.
        if let Some(must_spill) = contract.spills_at_contract_budget {
            let budgeted = RegisterAllocator::new(CONTRACT_F64_BUDGET).allocate(events);
            let spilled = budgeted.spilled_values > 0;
            if spilled != must_spill {
                fail(
                    variant,
                    &mut out,
                    format!(
                        "at the {CONTRACT_F64_BUDGET}-value (128-register) budget: {} values spilled, contract says spilling is {}",
                        budgeted.spilled_values,
                        if must_spill { "required" } else { "forbidden" },
                    ),
                );
            }
        }
    } else if counts.defs + counts.uses != 0 {
        fail(
            variant,
            &mut out,
            format!(
                "array-style contract forbids private-scalar events, trace has {} defs / {} uses",
                counts.defs, counts.uses
            ),
        );
    }

    out
}

/// Checks one recorded **pack** event stream ([`trace_pack`]: `lanes`
/// consecutive elements through one interleaved workspace) against `lanes`
/// times the per-element contract. Traffic and flop totals scale exactly —
/// the counts are structural — but the register story is *not* checked
/// here: `Def` ids restart at zero for every lane of a pack, so live
/// ranges of different lanes alias and any pressure measurement on the
/// merged stream would be meaningless.
pub fn check_pack_trace(
    variant: Variant,
    contract: &KernelContract,
    events: &[Event],
    lanes: u64,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let counts = TraceCounts::from_events(events);
    let regions = RegionCounts::from_events(events);

    expect(
        variant,
        &mut out,
        "pack fp-op total",
        counts.flops(),
        lanes * contract.flops,
    );
    expect(
        variant,
        &mut out,
        "pack input-region loads",
        regions.input_loads,
        lanes * contract.input_loads,
    );
    expect(
        variant,
        &mut out,
        "pack input-region stores",
        regions.input_stores,
        0,
    );
    expect(
        variant,
        &mut out,
        "pack rhs loads",
        regions.rhs_loads,
        lanes * contract.rhs_loads,
    );
    expect(
        variant,
        &mut out,
        "pack rhs stores",
        regions.rhs_stores,
        lanes * contract.rhs_stores,
    );
    let (want_gl, want_ll) = match contract.workspace_loads {
        Some((Space::Global, n)) => (lanes * n, 0),
        Some((Space::Local, n)) => (0, lanes * n),
        None => (0, 0),
    };
    let (want_gs, want_ls) = match contract.workspace_stores {
        Some((Space::Global, n)) => (lanes * n, 0),
        Some((Space::Local, n)) => (0, lanes * n),
        None => (0, 0),
    };
    expect(
        variant,
        &mut out,
        "pack global intermediate (workspace) loads",
        regions.ws_loads,
        want_gl,
    );
    expect(
        variant,
        &mut out,
        "pack global intermediate (workspace) stores",
        regions.ws_stores,
        want_gs,
    );
    expect(
        variant,
        &mut out,
        "pack local loads",
        counts.local_loads,
        want_ll,
    );
    expect(
        variant,
        &mut out,
        "pack local stores",
        counts.local_stores,
        want_ls,
    );

    if contract.uses_private_scalars {
        if counts.defs == 0 {
            fail(
                variant,
                &mut out,
                "pack contract expects private-scalar Def/Use events, trace has none".into(),
            );
        }
    } else if counts.defs + counts.uses != 0 {
        fail(
            variant,
            &mut out,
            format!(
                "array-style contract forbids private-scalar events, pack trace has {} defs / {} uses",
                counts.defs, counts.uses
            ),
        );
    }
    out
}

fn check_variant_in(
    variant: Variant,
    input: &AssemblyInput,
    elements: &[usize],
    mk_lay: impl Fn(usize) -> Layout,
    convention: &str,
) -> Vec<Violation> {
    let contract = variant.contract();
    let mut out = Vec::new();
    let mut first: Option<TraceCounts> = None;
    for &e in elements {
        let lay = mk_lay(e);
        let rec = trace_element(variant, input, e, &lay);
        out.extend(check_trace(variant, &contract, &rec.events));
        let c = rec.counts();
        match first {
            None => first = Some(c),
            Some(f) if f != c => fail(
                variant,
                &mut out,
                format!("element {e} ({convention} layout) has different operation counts than element {}: the contract is structural, counts may not depend on data", elements[0]),
            ),
            Some(_) => {}
        }
    }
    out
}

/// Traces `elements` of `input` under `variant` with the **GPU** launch
/// layout and checks every trace, including cross-element invariance of
/// the counts.
pub fn check_variant(
    variant: Variant,
    input: &AssemblyInput,
    elements: &[usize],
) -> Vec<Violation> {
    let ne = input.mesh.num_elements();
    let nn = input.mesh.num_nodes();
    check_variant_in(variant, input, elements, |e| Layout::gpu(e, ne, nn), "gpu")
}

/// Same as [`check_variant`] but with the **CPU** pack addressing
/// convention — the contracts are layout-invariant, and this proves it.
pub fn check_variant_cpu(
    variant: Variant,
    input: &AssemblyInput,
    elements: &[usize],
) -> Vec<Violation> {
    let nn = input.mesh.num_nodes();
    check_variant_in(
        variant,
        input,
        elements,
        |e| Layout::cpu(e, CPU_VECTOR_DIM, nn),
        "cpu",
    )
}

/// Traces whole CPU packs of `input` under `variant` and checks each
/// against the ×[`CPU_VECTOR_DIM`] scaled contract.
pub fn check_variant_packs(
    variant: Variant,
    input: &AssemblyInput,
    packs: &[usize],
) -> Vec<Violation> {
    let contract = variant.contract();
    let mut out = Vec::new();
    for &p in packs {
        let rec = trace_pack(variant, input, p);
        out.extend(check_pack_trace(
            variant,
            &contract,
            &rec.events,
            CPU_VECTOR_DIM as u64,
        ));
    }
    out
}

/// Checks every variant on a sample of the fixture's elements, under both
/// addressing conventions, plus a sample of whole CPU packs.
pub fn check_all(input: &AssemblyInput) -> Vec<Violation> {
    let ne = input.mesh.num_elements();
    let elements = [0, ne / 3, ne - 1];
    let packs = [0, (ne / CPU_VECTOR_DIM).saturating_sub(1)];
    Variant::ALL
        .iter()
        .flat_map(|&v| {
            let mut out = check_variant(v, input, &elements);
            out.extend(check_variant_cpu(v, input, &elements));
            out.extend(check_variant_packs(v, input, &packs));
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fixture;

    #[test]
    fn real_kernels_satisfy_their_contracts() {
        let fx = Fixture::new();
        let violations = check_all(&fx.input());
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn forged_global_intermediate_store_is_caught() {
        let fx = Fixture::new();
        let input = fx.input();
        let lay = Layout::gpu(0, fx.mesh.num_elements(), fx.mesh.num_nodes());
        let mut rec = trace_element(Variant::Rspr, &input, 0, &lay);
        // Sneak one store into the workspace region — the exact mutation a
        // regression reintroducing staged intermediates would produce.
        rec.events.push(Event::GStore(layout::WS_BASE + 64));
        let violations = check_trace(Variant::Rspr, &Variant::Rspr.contract(), &rec.events);
        assert!(violations
            .iter()
            .any(|v| v.message.contains("workspace) stores")));
    }

    #[test]
    fn forged_register_pressure_is_caught() {
        let fx = Fixture::new();
        let input = fx.input();
        let lay = Layout::gpu(0, fx.mesh.num_elements(), fx.mesh.num_nodes());
        let mut rec = trace_element(Variant::Rspr, &input, 0, &lay);
        // Define 80 fresh values and hold them all live to the end: the
        // peak pressure blows past the contract pin and the budgeted
        // allocation must now spill.
        for v in 0..80 {
            rec.events.push(Event::Def(10_000 + v));
        }
        for v in 0..80 {
            rec.events.push(Event::Use(10_000 + v));
        }
        let violations = check_trace(Variant::Rspr, &Variant::Rspr.contract(), &rec.events);
        assert!(violations.iter().any(|v| v.message.contains("pressure")));
        assert!(violations.iter().any(|v| v.message.contains("spilled")));
    }

    #[test]
    fn forged_flop_count_is_caught() {
        let fx = Fixture::new();
        let input = fx.input();
        let lay = Layout::gpu(0, fx.mesh.num_elements(), fx.mesh.num_nodes());
        let mut rec = trace_element(Variant::B, &input, 0, &lay);
        rec.events.push(Event::Fma(1));
        let violations = check_trace(Variant::B, &Variant::B.contract(), &rec.events);
        assert!(violations.iter().any(|v| v.message.contains("fp-op")));
    }

    #[test]
    fn cpu_layout_and_pack_traces_satisfy_the_contracts() {
        let fx = Fixture::new();
        let input = fx.input();
        for v in Variant::ALL {
            let cpu = check_variant_cpu(v, &input, &[0, 3]);
            assert!(cpu.is_empty(), "{cpu:#?}");
            let packs = check_variant_packs(v, &input, &[0]);
            assert!(packs.is_empty(), "{packs:#?}");
        }
    }

    #[test]
    fn forged_pack_traffic_is_caught_without_a_register_story() {
        let fx = Fixture::new();
        let input = fx.input();
        let mut rec = trace_pack(Variant::Rsp, &input, 0);
        rec.events.push(Event::GStore(layout::WS_BASE + 8));
        let violations = check_pack_trace(
            Variant::Rsp,
            &Variant::Rsp.contract(),
            &rec.events,
            CPU_VECTOR_DIM as u64,
        );
        assert!(violations
            .iter()
            .any(|v| v.message.contains("workspace) stores")));
        // Def ids restart per lane in a pack, so no pressure/spill verdicts
        // may be emitted from a pack stream.
        assert!(violations
            .iter()
            .all(|v| !v.message.contains("pressure") && !v.message.contains("spill")));
    }

    #[test]
    fn address_classification_matches_the_layout() {
        assert_eq!(classify(layout::CONN_BASE), Region::Input);
        assert_eq!(classify(layout::TEMP_BASE + 8), Region::Input);
        assert_eq!(classify(layout::RHS_BASE), Region::Rhs);
        assert_eq!(classify(layout::NUT_BASE), Region::Input);
        assert_eq!(classify(layout::WS_BASE), Region::Workspace);
        assert_eq!(classify(layout::WS_BASE + (1 << 40)), Region::Workspace);
    }
}
