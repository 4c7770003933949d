//! Pass 10 — the IR-derivation checker.
//!
//! `alya-form` describes the Navier-Stokes assembly *once* and derives
//! every variant — its Gauss loop and its contract — by rewriting. The
//! derivation is an oracle: no driver runs it, and this pass holds the
//! handwritten kernels and contract table to it, per variant:
//!
//! * **Contract parity**: the contract derived from the generated program's
//!   trace must equal the hand-maintained [`alya_core::KernelContract`]
//!   field-for-field — so the table in `alya_core::variant` can never
//!   drift from what the form actually implies (and vice versa).
//! * **Stream parity**: the generated per-element event stream must equal
//!   the handwritten kernel's event-for-event (sampled elements, both
//!   addressing conventions).
//! * **Output parity**: [`assemble_generated`]'s serial whole-mesh run
//!   must be **bitwise** identical to [`assemble_serial`].
//!
//! Its tamper test perturbs a derived contract and feeds it back through
//! [`check_derived_contract`] to prove the parity check bites.

use alya_core::drivers::{assemble_serial, trace_element, CPU_VECTOR_DIM};
use alya_core::layout::Layout;
use alya_core::{AssemblyInput, KernelContract, Variant};
use alya_form::exec::{assemble_generated, trace_generated};
use alya_form::{derive, derive_contract};

use crate::contracts::Violation;

/// Result of the IR-derivation pass.
#[derive(Debug, Default)]
pub struct FormReport {
    /// Everything that diverged between derived and handwritten.
    pub violations: Vec<Violation>,
    /// Variants whose derivation was exercised (all of [`Variant::ALL`]).
    pub variants_checked: usize,
    /// Per-element event streams compared (variants × elements × layouts).
    pub streams_compared: usize,
}

impl FormReport {
    /// Whether the pass came back clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn fail(v: Variant, out: &mut Vec<Violation>, message: String) {
    out.push(Violation {
        variant: v.name(),
        message,
    });
}

/// Checks a derived contract field-for-field against the hand-maintained
/// one. Pure, so a test can feed a perturbed derived contract through it.
pub fn check_derived_contract(variant: Variant, derived: &KernelContract) -> Vec<Violation> {
    let hand = variant.contract();
    let mut out = Vec::new();
    macro_rules! field {
        ($name:ident) => {
            if derived.$name != hand.$name {
                fail(
                    variant,
                    &mut out,
                    format!(
                        "derived contract drifted from alya_core::variant: {}: derived {:?}, hand-maintained {:?}",
                        stringify!($name),
                        derived.$name,
                        hand.$name
                    ),
                );
            }
        };
    }
    field!(flops);
    field!(input_loads);
    field!(rhs_loads);
    field!(rhs_stores);
    field!(workspace_loads);
    field!(workspace_stores);
    field!(uses_private_scalars);
    field!(max_pressure);
    field!(spills_at_contract_budget);
    out
}

/// Compares one generated event stream against the handwritten one,
/// reporting the first divergence with surrounding context.
fn check_stream_parity(
    variant: Variant,
    input: &AssemblyInput,
    e: usize,
    lay: &Layout,
    prog: &alya_form::Program,
    convention: &str,
    out: &mut Vec<Violation>,
) {
    let hand = trace_element(variant, input, e, lay);
    let generated = trace_generated(prog, input, e, lay);
    let n = hand.events.len().min(generated.events.len());
    for i in 0..n {
        if hand.events[i] != generated.events[i] {
            fail(
                variant,
                out,
                format!(
                    "element {e} ({convention} layout): generated event stream diverges from handwritten at event {i}: handwritten {:?}, generated {:?}",
                    hand.events[i], generated.events[i]
                ),
            );
            return;
        }
    }
    if hand.events.len() != generated.events.len() {
        fail(
            variant,
            out,
            format!(
                "element {e} ({convention} layout): streams agree for {n} events, then lengths diverge: handwritten {}, generated {}",
                hand.events.len(),
                generated.events.len()
            ),
        );
    }
}

/// Runs the full pass on `input`: derivation, contract parity, stream
/// parity on the elements `{0, ne/3, ne/2, ne−1}` under both layouts, and
/// whole-mesh bitwise output parity for every variant.
pub fn check_form(input: &AssemblyInput) -> FormReport {
    let ne = input.mesh.num_elements();
    let nn = input.mesh.num_nodes();
    let elements = [0, ne / 3, ne / 2, ne - 1];
    let mut report = FormReport::default();
    for v in Variant::ALL {
        let prog = derive(v);
        report.variants_checked += 1;

        // Contract parity, field for field.
        let derived = derive_contract(&prog);
        report
            .violations
            .extend(check_derived_contract(v, &derived));

        // Event-stream parity under both addressing conventions.
        for &e in &elements {
            for (lay, convention) in [
                (Layout::gpu(e, ne, nn), "gpu"),
                (Layout::cpu(e, CPU_VECTOR_DIM, nn), "cpu"),
            ] {
                check_stream_parity(v, input, e, &lay, &prog, convention, &mut report.violations);
                report.streams_compared += 1;
            }
        }

        // Whole-mesh bitwise output parity against the driver entry point.
        let hand = assemble_serial(v, input);
        let generated = assemble_generated(&prog, input);
        let mismatched = hand
            .as_slice()
            .iter()
            .zip(generated.as_slice().iter())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        if mismatched != 0 {
            fail(
                v,
                &mut report.violations,
                format!(
                    "generated whole-mesh run is not bitwise identical to assemble_serial: {mismatched} of {} RHS entries differ",
                    hand.as_slice().len()
                ),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fixture;

    #[test]
    fn derivation_pass_is_clean_on_the_fixture() {
        let fx = Fixture::new();
        let report = check_form(&fx.input());
        assert!(report.is_clean(), "{report:#?}");
        assert_eq!(report.variants_checked, Variant::ALL.len());
        assert_eq!(report.streams_compared, Variant::ALL.len() * 4 * 2);
    }

    #[test]
    fn drifted_contract_is_caught_field_by_field() {
        let mut derived = derive_contract(&derive(Variant::Rspr));
        derived.flops += 1;
        derived.max_pressure = derived.max_pressure.map(|p| p + 3);
        let violations = check_derived_contract(Variant::Rspr, &derived);
        assert_eq!(violations.len(), 2, "{violations:#?}");
        assert!(violations.iter().all(|v| v.message.contains("drifted")));
        assert!(violations.iter().any(|v| v.message.contains("flops")));
        assert!(violations
            .iter()
            .any(|v| v.message.contains("max_pressure")));
    }
}
