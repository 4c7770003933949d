//! Pass 9 — the serve isolation + fairness contract checker.
//!
//! The pooled simulation service (`alya-serve`) recycles session slots:
//! the whole point is that a reused slot is *indistinguishable* from a
//! fresh one. This pass audits that contract three ways:
//!
//! * **isolation** — sessions of the same case, kind and step count must
//!   produce bitwise-identical state digests, no matter which slot they
//!   ran in, which tenant owned them, or how many sessions the slot saw
//!   before. A leaked slot (state surviving a release) breaks the group;
//! * **conservation** — each tenant's merged telemetry must account for
//!   exactly `Σ steps × rhs_evals × elements` over that tenant's retired
//!   sessions (the closed-form element total), and the pool's bind
//!   counters must balance its outcome ledger;
//! * **fairness** — when equally-weighted tenants retire the same
//!   workload, the weight-normalized work spread must sit inside
//!   [`FAIRNESS_BAND`] — the deficit-round-robin scheduler's no-starvation
//!   promise.
//!
//! The live half runs a deterministic pooled scenario (three tenants,
//! three admission waves over fewer slots than sessions, so every slot is
//! reused warm) and checks the resulting [`ServeReport`]. The audit's
//! `--seed-violation slot-leak` mode re-runs the same scenario with the
//! pool's hidden leak fault injected — a released slot keeps its solver
//! state and the warm rewind is skipped — and demands the isolation check
//! catch it. The workspace half holds the committed `BENCH_serve.json`
//! against the service-level acceptance floor: a measured level of at
//! least [`MIN_BENCH_SESSIONS`] concurrent sessions, zero steady-state
//! cold builds, ordered latency quantiles, and in-band fairness.

use std::path::Path;
use std::sync::Arc;

use alya_core::Variant;
use alya_mesh::BoxMeshBuilder;
use alya_serve::{
    PoolConfig, ServeReport, Service, ServiceConfig, SessionSpec, SharedCase, WorkKind,
};
use alya_solver::StepConfig;

/// Widest acceptable weight-normalized work spread `(max−min)/mean` for
/// equally-loaded tenants — beyond this, somebody starved.
pub const FAIRNESS_BAND: f64 = 0.25;

/// The committed serve bench must demonstrate at least this many
/// concurrent sessions over the shared worker pool.
pub const MIN_BENCH_SESSIONS: u64 = 512;

/// Outcome of the serve-contract pass.
#[derive(Debug, Clone, Default)]
pub struct ServeContractReport {
    /// Sessions the live pooled scenario retired and checked.
    pub sessions_checked: usize,
    /// Whether the committed `BENCH_serve.json` was present and audited.
    pub bench_checked: bool,
    /// Concurrency levels the bench file measured.
    pub bench_levels: Vec<u64>,
    /// Every contract breach found (empty when clean).
    pub violations: Vec<String>,
}

impl ServeContractReport {
    /// Whether the service honored the isolation + fairness contract.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for ServeContractReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "serve-clean: {} pooled sessions isolated + conserved",
                self.sessions_checked
            )?;
            if self.bench_checked {
                write!(f, "; bench levels {:?} in contract", self.bench_levels)?;
            } else {
                write!(f, "; no committed serve bench to audit")?;
            }
            Ok(())
        } else {
            write!(f, "SERVE VIOLATION: {}", self.violations.join("; "))
        }
    }
}

/// Runs the deterministic pooled scenario: three equally-weighted tenants,
/// three admission waves of the same case over a three-slot pool with one
/// free-list stripe — so every wave past the first reuses every slot warm,
/// and sessions of every (tenant, slot, generation) combination exist for
/// the isolation check to compare. `leak` injects the pool's audit-only
/// slot-leak fault (skipped warm rewind).
pub fn run_pool_scenario(leak: bool) -> ServeReport {
    let mut cfg = StepConfig::default();
    cfg.dt = 5e-4;
    let case = Arc::new(SharedCase::new(
        "audit-cavity",
        BoxMeshBuilder::new(3, 3, 3).build(),
        cfg,
        Variant::Rsp,
        |p| {
            [
                (2.0 * std::f64::consts::PI * p[0]).sin() * 0.1,
                0.0,
                0.05 * p[1],
            ]
        },
    ));
    let service = Service::new(ServiceConfig {
        pool: PoolConfig {
            capacity: 3,
            stripes: 1,
            leak_slot_state_for_audit: leak,
        },
        ..ServiceConfig::default()
    });
    let tenants: Vec<u32> = ["t0", "t1", "t2"]
        .iter()
        .map(|n| service.add_tenant(n, 1, 1))
        .collect();
    for _wave in 0..3 {
        for &t in &tenants {
            service
                .admit(t, &SessionSpec::new(Arc::clone(&case), 2))
                .expect("scenario admission cannot fail");
        }
        service.run_to_idle();
    }
    service.report()
}

/// Checks a [`ServeReport`] against the isolation, conservation and
/// fairness contracts. Pure — the seeded audit runs the leaked scenario
/// through this same function and demands it object.
pub fn check_report(report: &ServeReport) -> ServeContractReport {
    let mut violations = Vec::new();

    // Isolation: identical work ⇒ identical digest, across slots/tenants.
    let mut groups: Vec<(&str, WorkKind, u32, u64, &alya_serve::SessionOutcome)> = Vec::new();
    for o in &report.outcomes {
        match groups.iter().find(|(case, kind, steps, _, _)| {
            *case == o.case && *kind == o.kind && *steps == o.steps
        }) {
            Some(&(_, _, _, digest, first)) => {
                if digest != o.digest {
                    violations.push(format!(
                        "isolation: case '{}' ({:?}, {} steps) digest {:016x} in slot {} \
                         gen {} != {:016x} in slot {} gen {} — a reused slot is not \
                         bitwise identical to a fresh one",
                        o.case,
                        o.kind,
                        o.steps,
                        o.digest,
                        o.slot,
                        o.generation,
                        digest,
                        first.slot,
                        first.generation,
                    ));
                }
            }
            None => groups.push((&o.case, o.kind, o.steps, o.digest, o)),
        }
    }

    // Conservation: per-tenant telemetry matches the closed-form element
    // total of that tenant's retired sessions.
    for (ti, t) in report.tenants.iter().enumerate() {
        let expected: u64 = report
            .outcomes
            .iter()
            .filter(|o| o.tenant as usize == ti)
            .map(|o| u64::from(o.steps) * o.rhs_evals * o.elements)
            .sum();
        let got = t.usage.total_elements();
        if got != expected {
            violations.push(format!(
                "conservation: tenant '{}' telemetry counts {got} elements assembled, \
                 closed form over its {} retired sessions demands {expected}",
                t.name, t.sessions,
            ));
        }
        let steps: u64 = report
            .outcomes
            .iter()
            .filter(|o| o.tenant as usize == ti)
            .map(|o| u64::from(o.steps))
            .sum();
        if t.steps < steps {
            violations.push(format!(
                "conservation: tenant '{}' charged {} work items but its retired \
                 sessions ran {steps}",
                t.name, t.steps,
            ));
        }
    }

    // Pool accounting: every retired or live session is exactly one bind.
    let binds = report.cold_builds + report.warm_binds;
    let admitted = report.outcomes.len() as u64 + report.live as u64;
    if binds != admitted {
        violations.push(format!(
            "accounting: {} cold + {} warm binds for {admitted} admitted sessions",
            report.cold_builds, report.warm_binds,
        ));
    }
    if report.peak_live > report.capacity {
        violations.push(format!(
            "accounting: peak {} live sessions exceeds pool capacity {}",
            report.peak_live, report.capacity,
        ));
    }
    for o in &report.outcomes {
        if o.slot as usize >= report.capacity {
            violations.push(format!(
                "accounting: outcome in slot {} outside pool capacity {}",
                o.slot, report.capacity,
            ));
        }
    }

    // Fairness: equally weighted tenants that all completed work must sit
    // inside the band.
    let finished = report.tenants.iter().filter(|t| t.sessions > 0).count();
    let equal_weights = report
        .tenants
        .iter()
        .filter(|t| t.sessions > 0)
        .map(|t| t.weight)
        .collect::<std::collections::BTreeSet<_>>()
        .len()
        <= 1;
    if finished >= 2 && equal_weights {
        let spread = report.fairness_spread();
        if spread > FAIRNESS_BAND {
            violations.push(format!(
                "fairness: weight-normalized work spread {spread:.3} exceeds the \
                 {FAIRNESS_BAND} no-starvation band",
            ));
        }
    }

    ServeContractReport {
        sessions_checked: report.outcomes.len(),
        bench_checked: false,
        bench_levels: Vec::new(),
        violations,
    }
}

fn num_field(row: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = row.find(&pat)? + pat.len();
    let rest = row[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Checks the serialized serve bench rows (the contents of
/// `BENCH_serve.json`) against the service acceptance floor. Pure.
pub fn check_bench_rows(text: &str) -> ServeContractReport {
    let mut violations = Vec::new();
    let mut levels = Vec::new();
    for row in text.split('{').filter(|r| r.contains("\"sessions\"")) {
        let Some(sessions) = num_field(row, "sessions") else {
            continue;
        };
        let sessions = sessions as u64;
        levels.push(sessions);
        let p50 = num_field(row, "p50_step_ms").unwrap_or(f64::NAN);
        let p99 = num_field(row, "p99_step_ms").unwrap_or(f64::NAN);
        if !(p50 > 0.0 && p99 > 0.0 && p50 <= p99) {
            violations.push(format!(
                "bench: level {sessions} latency quantiles disordered or missing \
                 (p50 {p50} ms, p99 {p99} ms)"
            ));
        }
        match num_field(row, "cold_builds_steady") {
            Some(c) => {
                if c != 0.0 {
                    violations.push(format!(
                        "bench: level {sessions} performed {c} cold builds in steady state — \
                         the pool is not reusing slots"
                    ));
                }
            }
            None => violations.push(format!(
                "bench: level {sessions} does not report steady-state cold builds"
            )),
        }
        if let Some(spread) = num_field(row, "fairness_spread") {
            if spread > FAIRNESS_BAND {
                violations.push(format!(
                    "bench: level {sessions} fairness spread {spread:.3} exceeds the \
                     {FAIRNESS_BAND} band"
                ));
            }
        }
        if !num_field(row, "sessions_per_s").is_some_and(|s| s > 0.0) {
            violations.push(format!("bench: level {sessions} reports no throughput"));
        }
    }
    if levels.is_empty() {
        violations.push("bench: no measured serve levels found".into());
    } else if levels.iter().max().copied().unwrap_or(0) < MIN_BENCH_SESSIONS {
        violations.push(format!(
            "bench: max measured level {:?} sessions is below the {MIN_BENCH_SESSIONS} \
             concurrent-session floor",
            levels.iter().max().copied().unwrap_or(0)
        ));
    }
    ServeContractReport {
        sessions_checked: 0,
        bench_checked: true,
        bench_levels: levels,
        violations,
    }
}

/// Runs the full pass: the live pooled scenario, plus the committed
/// `BENCH_serve.json` when a workspace root carries one (clean-skipped
/// otherwise, like the other workspace-gated passes).
pub fn check_serve(workspace_root: Option<&Path>) -> ServeContractReport {
    let mut report = check_report(&run_pool_scenario(false));
    if let Some(root) = workspace_root {
        let path = root.join("BENCH_serve.json");
        if let Ok(text) = std::fs::read_to_string(&path) {
            let bench = check_bench_rows(&text);
            report.bench_checked = true;
            report.bench_levels = bench.bench_levels;
            report.violations.extend(bench.violations);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clean_scenario_passes_and_the_leaked_one_is_caught() {
        let clean = check_report(&run_pool_scenario(false));
        assert!(clean.is_clean(), "{clean}");
        assert_eq!(clean.sessions_checked, 9);

        let leaked = check_report(&run_pool_scenario(true));
        assert!(!leaked.is_clean(), "leak went unnoticed");
        assert!(
            leaked.violations.iter().any(|v| v.contains("isolation")),
            "{leaked}"
        );
    }

    #[test]
    fn tampered_reports_are_flagged() {
        let mut report = run_pool_scenario(false);
        // Forge a tenant's telemetry: conservation must object.
        let sc = alya_core::metrics::scope(Variant::Rsp);
        let forged = report.tenants[0].usage.elements(sc) + 7;
        report.tenants[0].usage.set_elements(sc, forged);
        let checked = check_report(&report);
        assert!(checked
            .violations
            .iter()
            .any(|v| v.contains("conservation")));

        // Forge the bind ledger: accounting must object.
        let mut report = run_pool_scenario(false);
        report.warm_binds += 1;
        let checked = check_report(&report);
        assert!(checked.violations.iter().any(|v| v.contains("accounting")));

        // Starve a tenant on paper: fairness must object.
        let mut report = run_pool_scenario(false);
        report.tenants[0].work_done *= 10;
        let checked = check_report(&report);
        assert!(checked.violations.iter().any(|v| v.contains("fairness")));
    }

    #[test]
    fn bench_rows_are_held_to_the_floor() {
        let good = r#"{"bench":"serve","rows":[
            {"sessions": 1, "sessions_per_s": 10.0, "p50_step_ms": 0.5, "p99_step_ms": 0.9, "fairness_spread": 0.0, "cold_builds_steady": 0},
            {"sessions": 512, "sessions_per_s": 100.0, "p50_step_ms": 0.6, "p99_step_ms": 2.0, "fairness_spread": 0.05, "cold_builds_steady": 0}]}"#;
        let report = check_bench_rows(good);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.bench_levels, vec![1, 512]);

        // Too few sessions at the top level.
        let shallow = good.replace("\"sessions\": 512", "\"sessions\": 64");
        assert!(check_bench_rows(&shallow)
            .violations
            .iter()
            .any(|v| v.contains("floor")));

        // Steady-state cold builds: the pool is not pooling.
        let colder = good.replace("\"cold_builds_steady\": 0}]", "\"cold_builds_steady\": 3}]");
        assert!(check_bench_rows(&colder)
            .violations
            .iter()
            .any(|v| v.contains("cold builds")));

        // Disordered quantiles.
        let weird = good.replace("\"p99_step_ms\": 2.0", "\"p99_step_ms\": 0.1");
        assert!(check_bench_rows(&weird)
            .violations
            .iter()
            .any(|v| v.contains("disordered")));

        // Unfair split.
        let unfair = good.replace("\"fairness_spread\": 0.05", "\"fairness_spread\": 0.9");
        assert!(check_bench_rows(&unfair)
            .violations
            .iter()
            .any(|v| v.contains("fairness")));

        assert!(!check_bench_rows("[]").is_clean());
    }

    #[test]
    fn the_workspace_bench_report_honors_the_contract() {
        let root = crate::sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
        let report = check_serve(Some(&root));
        assert!(report.is_clean(), "{report}");
        assert!(
            report.bench_checked,
            "committed BENCH_serve.json missing from the workspace"
        );
    }
}
