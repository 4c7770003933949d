//! Integration parity between `alya-form` and the handwritten kernels:
//! every variant's executable Gauss loop and contract are *derived* from
//! the one symbolic base description, and this suite pins both backends to
//! the handwritten truth — per-element event streams under both addressing
//! conventions, the contract table field-for-field, and bitwise assembled
//! output through every parallel strategy at 1/2/8 worker caps.

use alya_analyze::Fixture;
use alya_core::drivers::{trace_element, CPU_VECTOR_DIM};
use alya_core::layout::Layout;
use alya_core::{
    assemble_parallel_with, assemble_serial, assemble_serial_with, ExecMode, KernelImpl,
    ParallelStrategy, Variant,
};
use alya_form::exec::trace_generated;
use alya_form::{derive, derive_contract, CompiledKernel};
use alya_machine::par;

/// Every hand-maintained contract in `alya_core::variant` equals its
/// IR-derived twin — all nine fields, every variant. The derivation goes
/// through the full trace → classify → register-allocate path, so a drift
/// in either the table or a rewrite pass fails here.
#[test]
fn handwritten_contracts_equal_their_derived_twins() {
    for v in Variant::ALL {
        let derived = derive_contract(&derive(v));
        assert_eq!(
            derived,
            v.contract(),
            "{v}: derived contract diverged from the hand-maintained table"
        );
    }
}

/// Per-element event streams of the generated kernels equal the
/// handwritten kernels' under **both** addressing conventions — the same
/// loads, stores, flops and register events in the same order.
#[test]
fn generated_event_streams_match_handwritten_under_both_layouts() {
    let fx = Fixture::new();
    let input = fx.input();
    let ne = input.mesh.num_elements();
    let nn = input.mesh.num_nodes();
    for v in Variant::ALL {
        let prog = derive(v);
        for e in [0, ne / 2, ne - 1] {
            for lay in [Layout::gpu(e, ne, nn), Layout::cpu(e, CPU_VECTOR_DIM, nn)] {
                let hand = trace_element(v, &input, e, &lay);
                let generated = trace_generated(&prog, &input, e, &lay);
                assert_eq!(
                    hand.events, generated.events,
                    "{v} element {e}: generated stream diverged"
                );
            }
        }
    }
}

/// Whole-mesh serial assembly through `KernelImpl::Generated` is bitwise
/// identical to the handwritten variant.
#[test]
fn generated_serial_output_is_bitwise_identical() {
    let fx = Fixture::new();
    let input = fx.input();
    for v in Variant::ALL {
        let kernel = CompiledKernel::new(derive(v));
        let hand = assemble_serial(v, &input);
        let generated =
            assemble_serial_with(KernelImpl::Generated(&kernel), &input, ExecMode::Scalar);
        assert_eq!(
            generated.max_abs_diff(&hand),
            0.0,
            "{v}: generated serial assembly diverged from handwritten"
        );
    }
}

/// Bitwise output parity across every parallel strategy × 1/2/8 worker
/// caps: a generated kernel dropped into `assemble_parallel_with` visits
/// elements in the same deterministic order as the handwritten one, so the
/// assembled RHS must match bit for bit — not merely within tolerance.
#[test]
fn generated_parallel_output_is_bitwise_identical_across_strategies_and_caps() {
    let fx = Fixture::new();
    let input = fx.input();
    let strategies = [
        ParallelStrategy::colored(&fx.mesh),
        ParallelStrategy::partitioned(&fx.mesh, 8),
        ParallelStrategy::sharded(&fx.mesh, 8),
    ];
    for v in Variant::ALL {
        let kernel = CompiledKernel::new(derive(v));
        for cap in [1, 2, 8] {
            par::set_thread_cap(Some(cap));
            for strategy in &strategies {
                let hand = assemble_parallel_with(v, &input, strategy, ExecMode::Scalar);
                let generated = assemble_parallel_with(
                    KernelImpl::Generated(&kernel),
                    &input,
                    strategy,
                    ExecMode::Scalar,
                );
                assert_eq!(
                    generated.max_abs_diff(&hand),
                    0.0,
                    "{v} × {} at cap {cap}: generated assembly diverged",
                    strategy.name()
                );
            }
        }
    }
    par::set_thread_cap(None);
}

/// The derivation chain is really a chain: each pass's output feeds the
/// next, and the derived programs carry the right variant tags and
/// workspace footprints (the paper's 441 → 103 → 0 trajectory).
#[test]
fn derivation_chain_carries_the_paper_footprint_trajectory() {
    for v in Variant::ALL {
        let prog = derive(v);
        assert_eq!(prog.variant, v);
        assert_eq!(
            prog.nvalues(),
            v.nvalues(),
            "{v}: derived workspace footprint diverged"
        );
    }
}
