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
//! A missing report, or one with no packed rows, is a violation — the
//! repo commits packed measurements, so their absence is a stale or
//! regressed bench.

use std::path::Path;

use alya_core::drivers::{trace_element, CPU_VECTOR_DIM};
use alya_core::layout::Layout;
use alya_core::{AssemblyInput, Variant, DEFAULT_LANES};
use alya_machine::cpu::CpuModel;
use alya_machine::spec::CpuSpec;
use alya_machine::RegisterAllocator;

use crate::bench::{BenchFile, Row};
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
    /// Every packed-vs-scalar cell the report carried.
    pub cells: Vec<SimdCell>,
    /// Every contract breach found (empty when clean).
    pub violations: Vec<String>,
}

impl SimdContractReport {
    /// Whether the measurements honored the SIMD contract.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for SimdContractReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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
/// evaluates against.
pub fn fixture_predictions() -> Vec<(Variant, f64)> {
    let fx = Fixture::new();
    predicted_speedups(&fx.input())
}

/// Measured Melem/s of one exact `(strategy, variant, threads)` cell of
/// `BENCH_drivers.json` rows (max over duplicate rows); `None` when no row
/// matches. The match is exact: no nearest-thread fallback.
pub fn melem_per_s(rows: &[Row], strategy: &str, variant: &str, threads: usize) -> Option<f64> {
    rows.iter()
        .filter(|r| {
            r.str("strategy") == Some(strategy)
                && r.str("variant") == Some(variant)
                && r.num("threads") == Some(threads as f64)
        })
        .filter_map(|r| r.num("melem_per_s"))
        .max_by(f64::total_cmp)
}

/// Checks `BENCH_drivers.json` rows against `predictions`. Pure, so a
/// test can skew the rows and re-run it.
pub fn check_rows(rows: &[Row], predictions: &[(Variant, f64)]) -> SimdContractReport {
    let mut cells = Vec::new();
    let mut violations = Vec::new();
    for &(variant, predicted) in predictions {
        let name = variant.name();
        let (Some(scalar), Some(packed)) = (
            melem_per_s(rows, "serial", name, 1),
            melem_per_s(rows, "serial-packed", name, 1),
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
    SimdContractReport { cells, violations }
}

/// Runs the pass against the workspace's committed `BENCH_drivers.json`;
/// a file the reader rejects is the one violation.
pub fn check_workspace_simd(workspace_root: &Path) -> SimdContractReport {
    match BenchFile::read(&workspace_root.join("BENCH_drivers.json")) {
        Ok(bench) => check_rows(bench.rows(), &fixture_predictions()),
        Err(e) => SimdContractReport {
            cells: Vec::new(),
            violations: vec![e],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(rows: &str) -> BenchFile {
        let doc = format!("{{\"results\": {rows}}}");
        BenchFile::parse("fixture", &doc).expect("well-formed rows")
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
        let report = check_rows(healthy.rows(), &preds);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.cells.len(), 1);
        assert!((report.cells[0].measured_speedup - 1.5).abs() < 1e-12);

        // Packed slower than scalar: both the monotonicity check and the
        // agreement band fire (0.8/4.0 = 20%, inside the band — so the
        // regression is caught by monotonicity alone).
        let collapsed = db(r#"[
            {"strategy": "serial", "variant": "RSP", "threads": 1, "melem_per_s": 5.0},
            {"strategy": "serial-packed", "variant": "RSP", "threads": 1, "melem_per_s": 4.0}]"#);
        let report = check_rows(collapsed.rows(), &preds);
        assert!(!report.is_clean());
        assert!(
            report.violations.iter().any(|v| v.contains("regressed")),
            "{report}"
        );

        // Skew every committed packed serial row to half its scalar row —
        // a broken pack gather, or scalar fallback everywhere: every
        // measured cell must be flagged as a packed regression.
        let root = crate::sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
        let committed =
            BenchFile::read(&root.join("BENCH_drivers.json")).unwrap_or_else(|e| panic!("{e}"));
        let row = |strategy: &str, v: Variant, melem: f64| {
            format!(
                "{{\"strategy\": \"{strategy}\", \"variant\": \"{v}\", \
                 \"threads\": 1, \"melem_per_s\": {melem}}}"
            )
        };
        let mut rows = Vec::new();
        for v in Variant::ALL {
            let scalar = melem_per_s(committed.rows(), "serial", v.name(), 1);
            let packed = melem_per_s(committed.rows(), "serial-packed", v.name(), 1);
            if let (Some(scalar), Some(_)) = (scalar, packed) {
                rows.push(row("serial", v, scalar));
                rows.push(row("serial-packed", v, 0.5 * scalar));
            }
        }
        let cells = rows.len() / 2;
        assert!(cells > 0, "no committed packed-vs-scalar pair");
        let all: Vec<_> = Variant::ALL.into_iter().map(|v| (v, 4.0)).collect();
        let report = check_rows(db(&format!("[{}]", rows.join(","))).rows(), &all);
        assert_eq!(report.cells.len(), cells, "{report}");
        let regressed = report.violations.iter().filter(|v| v.contains("regressed"));
        assert_eq!(regressed.count(), cells, "{report}");
    }

    #[test]
    fn model_divergence_and_missing_pairs_are_flagged() {
        // Measured wildly above the model's prediction: agreement band.
        let preds = vec![(Variant::Rspr, 2.0)];
        let implausible = db(r#"[
            {"strategy": "serial", "variant": "RSPR", "threads": 1, "melem_per_s": 5.0},
            {"strategy": "serial-packed", "variant": "RSPR", "threads": 1, "melem_per_s": 50.0}]"#);
        let report = check_rows(implausible.rows(), &preds);
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
        let report = check_rows(unmeasured.rows(), &preds);
        assert!(!report.is_clean());
        assert!(
            report.violations.iter().any(|v| v.contains("unmeasured")),
            "{report}"
        );
    }

    #[test]
    fn the_committed_bench_report_honors_the_simd_contract() {
        let root = crate::sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
        let report = check_workspace_simd(&root);
        assert!(report.is_clean(), "{report}");
        assert!(!report.cells.is_empty());
    }
}
