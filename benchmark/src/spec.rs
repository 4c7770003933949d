//! The benchmark's declared surface: workloads and metrics by name.
//!
//! `BENCHMARK.json` at the repository root carries the same tables for the
//! driver; a unit test holds the two equal, so a metric cannot be printed
//! without being declared or declared without being printed.

/// One workload: a set of inputs the benchmark runs, in its own process.
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
}

/// One declared metric.
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression; 0 for per-layer
    /// metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// The workloads. All are closed loop and generate their load from one
/// process; see README.md for the full rationale of each.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "step-small",
        why: "1536-element FractionalStep::step, ForwardEuler, serial: cache-resident and latency-bound, pressure CG does ~90% of the work, so solver changes and per-call overheads show here",
    },
    Workload {
        name: "step-large",
        why: "24000-element step, SspRk3, parallel assembly: 3 sweeps and more CG iterations of a 16x larger operator; catches a step-small gain bought with work that grows with the mesh",
    },
    Workload {
        name: "assemble-large",
        why: "98304 elements, 3 RHS sweeps per op through assemble_parallel(auto): the paper's workload; alya-core does all the work and solver/serve none, so solver PRs must leave it flat",
    },
    Workload {
        name: "serve-steps",
        why: "alya_serve::Service, capacity 8, 4 tenants, 4 step items per session: dispatch -> step end to end; item time is the step, so it isolates what the service adds to step-small",
    },
    Workload {
        name: "serve-churn",
        why: "same service at capacity 64 with 1 assemble-only item per session: admit/bind/retire per 0.25 ms item, so pool, DRR, quota and telemetry-scope overhead dominate and the solver does nothing",
    },
];

/// Metrics a user of the system sees; every workload reports every one.
/// An *op* is the workload's unit of work: one time step, one 3-sweep
/// assembly, or one served work item.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_ms_p50", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.15),
];

/// Metrics of single layers (layer = crate), measured from outside by
/// timing public calls in the traced pass. A metric reads 0 on a workload
/// whose path does not touch that layer.
pub const PER_LAYER: &[Metric] = &[
    layer("op.samples", "count", "higher"),
    layer("op.tail_percentile", "%", "higher"),
    layer("op.tail_ms", "ms", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.driver_self_frac", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("machine.hw_threads", "count", "higher"),
    layer("machine.fork_join_us", "us", "lower"),
    layer("machine.triad_gb_per_s", "GB/s", "higher"),
    layer("telemetry.span_ns", "ns", "lower"),
    layer("probe.note_ns", "ns", "lower"),
    layer("probe.recorder_overhead_frac", "ratio", "lower"),
    layer("mesh.build_s", "s", "lower"),
    layer("mesh.coloring_s", "s", "lower"),
    layer("mesh.partition_s", "s", "lower"),
    layer("mesh.shardset_build_s", "s", "lower"),
    layer("mesh.num_colors", "count", "lower"),
    layer("mesh.boundary_slot_frac", "ratio", "lower"),
    layer("fem.bc_apply_us", "us", "lower"),
    layer("core.serial_scalar_melem_per_s", "Melem/s", "higher"),
    layer("core.serial_packed_melem_per_s", "Melem/s", "higher"),
    layer("core.colored_melem_per_s", "Melem/s", "higher"),
    layer("core.auto_melem_per_s", "Melem/s", "higher"),
    layer("core.auto_packed_melem_per_s", "Melem/s", "higher"),
    layer("core.auto_vs_serial_ratio", "ratio", "higher"),
    layer("core.parallel_efficiency", "ratio", "higher"),
    layer("core.small_mesh_melem_per_s", "Melem/s", "higher"),
    layer("core.dist_melem_per_s", "Melem/s", "higher"),
    layer("core.dist_vs_auto_ratio", "ratio", "higher"),
    layer("core.flops_per_elem", "count", "lower"),
    layer("core.ldst_per_elem", "count", "lower"),
    layer("core.gflops", "GFLOP/s", "higher"),
    layer("core.rhs_rel_err_max", "ratio", "lower"),
    layer("comm.halo_bytes", "B", "lower"),
    layer("comm.predicted_halo_bytes", "B", "lower"),
    layer("comm.messages", "count", "lower"),
    layer("comm.max_message_bytes", "B", "lower"),
    layer("comm.blocked_wait_frac", "ratio", "lower"),
    layer("comm.run_spawn_us", "us", "lower"),
    layer("sched.overlap_win", "ratio", "higher"),
    layer("solver.case_parts_build_s", "s", "lower"),
    layer("solver.cg_iters_per_step", "count", "lower"),
    layer("solver.cg_unconverged_steps", "count", "lower"),
    layer("solver.divergence_reduction", "ratio", "higher"),
    layer("solver.step_ref_ms", "ms", "lower"),
    layer("solver.projop_apply_ms", "ms", "lower"),
    layer("solver.projop_share", "ratio", "lower"),
    layer("solver.cg_solve_ms", "ms", "lower"),
    layer("solver.cg_vecops_share", "ratio", "lower"),
    layer("solver.assembly_ms", "ms", "lower"),
    layer("solver.assembly_share", "ratio", "lower"),
    layer("solver.weak_div_ms", "ms", "lower"),
    layer("solver.weak_div_share", "ratio", "lower"),
    layer("solver.grad_adjoint_ms", "ms", "lower"),
    layer("solver.grad_adjoint_share", "ratio", "lower"),
    layer("solver.bc_share", "ratio", "lower"),
    layer("solver.unattributed_frac", "ratio", "lower"),
    layer("solver.projop_bytes_per_apply", "B", "lower"),
    layer("solver.projop_gb_per_s", "GB/s", "higher"),
    layer("solver.projop_bw_frac", "ratio", "higher"),
    layer("serve.overhead_frac", "ratio", "lower"),
    layer("serve.worker_utilisation", "ratio", "higher"),
    layer("serve.churn_overhead_us_per_item", "us", "lower"),
    layer("serve.admit_us_p50", "us", "lower"),
    layer("serve.drr_ns_per_item", "ns", "lower"),
    layer("serve.pool_ns_per_cycle", "ns", "lower"),
    layer("serve.warm_bind_ratio", "ratio", "higher"),
    layer("serve.cold_builds_steady", "count", "lower"),
    layer("serve.admit_accept_ratio", "ratio", "higher"),
    layer("serve.fairness_spread", "ratio", "lower"),
];

/// Per-layer metrics that count work and so must repeat exactly between
/// two runs of the same code with the same seed (`compare` enforces it).
pub const EXACT: &[&str] = &[
    "machine.hw_threads",
    "mesh.num_colors",
    "mesh.boundary_slot_frac",
    "core.flops_per_elem",
    "core.ldst_per_elem",
    "comm.halo_bytes",
    "comm.predicted_halo_bytes",
    "comm.messages",
    "comm.max_message_bytes",
    "solver.cg_iters_per_step",
    "solver.cg_unconverged_steps",
    "solver.projop_bytes_per_apply",
    "serve.warm_bind_ratio",
    "serve.cold_builds_steady",
];

/// Default `--seconds`: the `run_seconds` the driver measures each run for.
pub const RUN_SECONDS: f64 = 15.0;

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String, f64)> {
        let text = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        doc.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| {
                let text = |k| w.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (text("name"), text("why"))
            })
            .collect();
        let ours: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        let table = |ms: &[Metric]| -> Vec<_> {
            ms.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
        // Per-layer entries carry no bound at all.
        let per_layer = doc.get("per_layer").expect("per_layer").items();
        assert!(per_layer.iter().all(|m| m.members().len() == 3));
        let paths = doc.get("paths").expect("paths").items();
        assert_eq!(paths, [Value::Str("benchmark".into())]);
        let seconds = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("run_seconds");
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        assert_eq!(seconds, RUN_SECONDS);
    }
}
