//! Pass 8 — the SIMD-contract (packed-vs-scalar) checker.
//!
//! The lane-packed execution mode ([`alya_core::ExecMode::Packed`]: the
//! kernels at [`alya_core::DEFAULT_LANES`] lanes instead of one) exists for
//! one reason: cross-element SIMD must actually be faster than the
//! scalar path, and by roughly the amount the CPU machine model predicts
//! from the instruction mix. This pass holds the committed
//! `BENCH_drivers.json` measurements against both claims:
//!
//! * **monotonicity** — for every variant with a measured
//!   `serial-packed` row at one thread, the packed throughput must beat
//!   the scalar `serial` row. A packed path slower than scalar is a
//!   regression no matter what the model says;
//! * **model agreement** — the measured packed/scalar speedup must land
//!   within a generous band of [`alya_machine::cpu::CpuModel::packed_speedup`]'s
//!   prediction for the same variant at [`alya_core::DEFAULT_LANES`]
//!   lanes. The model is an issue/port/transfer bound, not a cycle
//!   simulator, so the band ([`AGREEMENT_MIN`]..[`AGREEMENT_MAX`] of
//!   predicted) is wide — but a packed path that collapses to scalar
//!   speed, or a model that drifts away from what the code does, both
//!   fall out of it.
//!
//! Like the source passes, this one is workspace-gated: no workspace root
//! or no committed bench report means the pass reports clean-skipped (an
//! installed binary cannot audit a file it does not have). A present
//! report with no packed rows is a violation — the repo commits packed
//! measurements, so their absence is a stale or regressed bench.

use std::path::Path;

use alya_core::drivers::{trace_element, ThroughputDb, CPU_VECTOR_DIM};
use alya_core::layout::Layout;
use alya_core::{AssemblyInput, Variant, DEFAULT_LANES};
use alya_machine::cpu::CpuModel;
use alya_machine::spec::CpuSpec;
use alya_machine::RegisterAllocator;

use crate::Fixture;

/// Lower bound of measured/predicted packed speedup. The model charges
/// every instruction to the issue/port bound; real scalar code already
/// enjoys out-of-order overlap the model does not credit, so measured
/// speedups sit well below the idealized prediction.
pub const AGREEMENT_MIN: f64 = 0.10;

/// Upper bound of measured/predicted packed speedup: measuring *more*
/// than the model's idealized lane division means the measurement or the
/// model is broken.
pub const AGREEMENT_MAX: f64 = 1.50;

/// f64 private values an AVX-512 core keeps vector-register-resident when
/// lowering RSP/RSPR traces (mirrors the bench profiler's budget).
const CPU_PRIVATE_F64_BUDGET: u32 = 24;

/// One checked packed-vs-scalar cell of the bench report.
#[derive(Debug, Clone)]
pub struct SimdCell {
    /// The kernel variant.
    pub variant: Variant,
    /// Measured scalar `serial` Melem/s at one thread.
    pub scalar_melem: f64,
    /// Measured `serial-packed` Melem/s at one thread.
    pub packed_melem: f64,
    /// `packed_melem / scalar_melem`.
    pub measured_speedup: f64,
    /// The CPU model's predicted packed speedup at [`DEFAULT_LANES`].
    pub predicted_speedup: f64,
}

impl SimdCell {
    /// measured / predicted — the number the agreement band constrains.
    pub fn agreement(&self) -> f64 {
        self.measured_speedup / self.predicted_speedup
    }
}

/// Outcome of checking a bench report against the SIMD contract.
#[derive(Debug, Clone, Default)]
pub struct SimdContractReport {
    /// Whether the pass ran at all (false: no root / no bench report).
    pub checked: bool,
    /// Every packed-vs-scalar cell the report carried.
    pub cells: Vec<SimdCell>,
    /// Every contract breach found (empty when clean).
    pub violations: Vec<String>,
}

impl SimdContractReport {
    /// Whether the measurements honored the SIMD contract (a skipped pass
    /// is vacuously clean, like the workspace-gated source passes).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for SimdContractReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.checked {
            return write!(f, "simd-skipped: no committed bench report to audit");
        }
        if self.is_clean() {
            write!(f, "simd-clean:")?;
            for c in &self.cells {
                write!(
                    f,
                    " {} packed ×{:.2} measured vs ×{:.2} modeled ({:.0}%);",
                    c.variant,
                    c.measured_speedup,
                    c.predicted_speedup,
                    100.0 * c.agreement()
                )?;
            }
            Ok(())
        } else {
            write!(f, "SIMD VIOLATION: {}", self.violations.join("; "))
        }
    }
}

/// Lowered CPU pack trace of `variant` (mirrors the bench profiler:
/// `CPU_VECTOR_DIM` lanes, RSP/RSPR spilled against the AVX-512 budget).
fn pack_trace(variant: Variant, input: &AssemblyInput, pack: usize) -> Vec<alya_machine::Event> {
    let ne = input.mesh.num_elements();
    let nn = input.mesh.num_nodes();
    let alloc = RegisterAllocator::new(CPU_PRIVATE_F64_BUDGET);
    let mut out = Vec::new();
    for lane in 0..CPU_VECTOR_DIM {
        let e = (pack * CPU_VECTOR_DIM + lane) % ne;
        let lay = Layout::cpu(e, CPU_VECTOR_DIM, nn);
        let rec = trace_element(variant, input, e, &lay);
        match variant {
            Variant::Rsp | Variant::Rspr => out.extend(alloc.allocate(&rec.events).events),
            _ => out.extend(rec.events),
        }
    }
    out
}

/// The CPU model's predicted packed speedup for every variant, traced on
/// `input` and evaluated at [`DEFAULT_LANES`] lanes.
pub fn predicted_speedups(input: &AssemblyInput) -> Vec<(Variant, f64)> {
    let mut model = CpuModel::new(CpuSpec::icelake_8360y());
    model.sample_packs = 8;
    Variant::ALL
        .into_iter()
        .map(|v| {
            let report = model.execute(v.name(), input.mesh.num_elements(), CPU_VECTOR_DIM, |p| {
                pack_trace(v, input, p)
            });
            (v, model.packed_speedup(&report, DEFAULT_LANES))
        })
        .collect()
}

/// Predictions on the canonical audit fixture — what the workspace check
/// and the seeded-violation audit both evaluate against.
pub fn fixture_predictions() -> Vec<(Variant, f64)> {
    let fx = Fixture::new();
    predicted_speedups(&fx.input())
}

/// Checks a parsed bench report against `predictions`. Pure — the seeded
/// audit mode skews a report and re-runs this to prove the checker
/// catches divergence.
pub fn check_db(db: &ThroughputDb, predictions: &[(Variant, f64)]) -> SimdContractReport {
    let mut cells = Vec::new();
    let mut violations = Vec::new();
    for &(variant, predicted) in predictions {
        let name = variant.name();
        let (Some(scalar), Some(packed)) = (
            db.melem_per_s("serial", name, 1),
            db.melem_per_s("serial-packed", name, 1),
        ) else {
            continue;
        };
        let cell = SimdCell {
            variant,
            scalar_melem: scalar,
            packed_melem: packed,
            measured_speedup: packed / scalar,
            predicted_speedup: predicted,
        };
        if cell.measured_speedup <= 1.0 {
            violations.push(format!(
                "{variant}: packed serial path measured no faster than scalar \
                 ({packed:.2} vs {scalar:.2} Melem/s) — the lane-packed path regressed"
            ));
        }
        let agreement = cell.agreement();
        if !(AGREEMENT_MIN..=AGREEMENT_MAX).contains(&agreement) {
            violations.push(format!(
                "{variant}: measured packed speedup ×{:.2} is {:.0}% of the model's \
                 ×{:.2} prediction, outside the {:.0}%..{:.0}% agreement band — \
                 measurement and model have diverged",
                cell.measured_speedup,
                100.0 * agreement,
                predicted,
                100.0 * AGREEMENT_MIN,
                100.0 * AGREEMENT_MAX,
            ));
        }
        cells.push(cell);
    }
    if cells.is_empty() {
        violations.push(
            "BENCH_drivers.json carries no packed-vs-scalar serial pair at one thread — \
             the packed execution path is unmeasured"
                .into(),
        );
    }
    SimdContractReport {
        checked: true,
        cells,
        violations,
    }
}

/// Runs the pass against the workspace's committed `BENCH_drivers.json`.
/// `None`, or a root without the report, reports clean-skipped.
pub fn check_workspace_simd(workspace_root: Option<&Path>) -> SimdContractReport {
    let Some(root) = workspace_root else {
        return SimdContractReport::default();
    };
    let path = root.join("BENCH_drivers.json");
    if !path.is_file() {
        return SimdContractReport::default();
    }
    let Some(db) = ThroughputDb::load(&path) else {
        return SimdContractReport {
            checked: true,
            cells: Vec::new(),
            violations: vec![format!(
                "{} exists but holds no well-formed throughput rows",
                path.display()
            )],
        };
    };
    check_db(&db, &fixture_predictions())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(rows: &str) -> ThroughputDb {
        ThroughputDb::parse(rows).expect("well-formed rows")
    }

    #[test]
    fn predictions_are_superlinear_in_nothing_and_bounded_by_the_lanes() {
        let preds = fixture_predictions();
        // Every variant, each predicting a real speedup in
        // (1, DEFAULT_LANES].
        assert_eq!(preds.len(), Variant::ALL.len());
        for (v, s) in preds {
            assert!(s > 1.0, "{v}: predicted {s}");
            assert!(s <= DEFAULT_LANES as f64 + 1e-9, "{v}: predicted {s}");
        }
    }

    #[test]
    fn a_healthy_report_is_clean_and_a_collapsed_packed_path_is_flagged() {
        let preds = vec![(Variant::Rsp, 4.0)];
        let healthy = db(r#"[
            {"strategy": "serial", "variant": "RSP", "threads": 1, "melem_per_s": 5.0},
            {"strategy": "serial-packed", "variant": "RSP", "threads": 1, "melem_per_s": 7.5}]"#);
        let report = check_db(&healthy, &preds);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.cells.len(), 1);
        assert!((report.cells[0].measured_speedup - 1.5).abs() < 1e-12);

        // Packed slower than scalar: both the monotonicity check and the
        // agreement band fire (0.8/4.0 = 20%, inside the band — so the
        // regression is caught by monotonicity alone).
        let collapsed = db(r#"[
            {"strategy": "serial", "variant": "RSP", "threads": 1, "melem_per_s": 5.0},
            {"strategy": "serial-packed", "variant": "RSP", "threads": 1, "melem_per_s": 4.0}]"#);
        let report = check_db(&collapsed, &preds);
        assert!(!report.is_clean());
        assert!(
            report.violations.iter().any(|v| v.contains("regressed")),
            "{report}"
        );
    }

    #[test]
    fn model_divergence_and_missing_pairs_are_flagged() {
        // Measured wildly above the model's prediction: agreement band.
        let preds = vec![(Variant::Rspr, 2.0)];
        let implausible = db(r#"[
            {"strategy": "serial", "variant": "RSPR", "threads": 1, "melem_per_s": 5.0},
            {"strategy": "serial-packed", "variant": "RSPR", "threads": 1, "melem_per_s": 50.0}]"#);
        let report = check_db(&implausible, &preds);
        assert!(!report.is_clean());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("agreement band")),
            "{report}"
        );

        // No packed rows at all: the path is unmeasured.
        let unmeasured = db(r#"[
            {"strategy": "serial", "variant": "RSPR", "threads": 1, "melem_per_s": 5.0}]"#);
        let report = check_db(&unmeasured, &preds);
        assert!(!report.is_clean());
        assert!(
            report.violations.iter().any(|v| v.contains("unmeasured")),
            "{report}"
        );
    }

    #[test]
    fn the_pass_is_workspace_gated() {
        let skipped = check_workspace_simd(None);
        assert!(!skipped.checked);
        assert!(skipped.is_clean());
        let missing = std::env::temp_dir().join("alya-simd-no-bench-3b71");
        std::fs::create_dir_all(&missing).unwrap();
        let skipped = check_workspace_simd(Some(&missing));
        assert!(!skipped.checked);
        assert!(skipped.is_clean());
        let _ = std::fs::remove_dir_all(&missing);
    }

    #[test]
    fn the_committed_bench_report_honors_the_simd_contract() {
        let root = crate::sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
        let report = check_workspace_simd(Some(&root));
        assert!(report.checked, "workspace bench report missing");
        assert!(report.is_clean(), "{report}");
        assert!(!report.cells.is_empty());
    }
}
