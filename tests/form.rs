//! Integration parity between `alya-form` and the handwritten kernels:
//! every variant's Gauss loop and contract are *derived* from the one
//! symbolic base description, and the handwritten kernels are held to that
//! oracle by analyzer pass 10 — the contract table field-for-field,
//! per-element event streams under both addressing conventions, and a
//! bitwise whole-mesh serial RHS. Each of the three checks is also pinned
//! on its own below, so a failure names the check that broke.

use alya_analyze::form::check_form;
use alya_analyze::Fixture;
use alya_core::drivers::{trace_element, CPU_VECTOR_DIM};
use alya_core::layout::Layout;
use alya_core::{assemble_serial, Variant};
use alya_form::exec::{assemble_generated, trace_generated};
use alya_form::{derive, derive_contract};

/// Pass 10 comes back clean on the audit fixture: contract parity, stream
/// parity and whole-mesh bitwise output parity, for every variant.
#[test]
fn the_derivation_pass_is_clean_on_the_fixture() {
    let fx = Fixture::new();
    let report = check_form(&fx.input());
    assert!(report.is_clean(), "{report:#?}");
    assert_eq!(report.variants_checked, Variant::ALL.len());
}

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

/// Per-element event streams of the derived programs equal the
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

/// The serial whole-mesh run of each derived program is bitwise identical
/// to the handwritten variant through `assemble_serial`.
#[test]
fn generated_serial_output_is_bitwise_identical() {
    let fx = Fixture::new();
    let input = fx.input();
    for v in Variant::ALL {
        let hand = assemble_serial(v, &input);
        let generated = assemble_generated(&derive(v), &input);
        assert_eq!(
            generated.max_abs_diff(&hand),
            0.0,
            "{v}: generated serial assembly diverged from handwritten"
        );
    }
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
