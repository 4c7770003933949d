//! Pass 6 — the telemetry contract checker.
//!
//! The telemetry layer is only trustworthy if it cannot silently drift
//! from the machinery it observes. This pass runs one distributed
//! assembly inside a telemetry session and holds the emitted report
//! against what the driver and the mesh say must have happened:
//!
//! * **element count** — the elements the session counted for the run's
//!   variant equal the mesh's element count (Table I is derived from
//!   this count, so it is the one number the counters must get right);
//! * **span tree** — every parent link resolves to a recorded span on
//!   the same thread whose interval encloses the child's;
//! * **timeline** — each rank's trace process carries all five phase
//!   spans, and every rank span's phases run in program order, each
//!   closing before the next opens — so `halo-post` closes before
//!   `assemble-overlap` opens: the sends are out before the interior is
//!   assembled, which is the compute/exchange overlap;
//! * **export** — the chrome `trace_event` JSON actually parses.
//!
//! Halo bytes and blocked wait are recorded only in the run's
//! `CommReport`; pass 4 holds its bytes to the `ExchangePlan` budget.

use alya_core::metrics;
use alya_core::{AssemblyInput, DistributedDriver, Variant};
use alya_telemetry::export::validate_json;
use alya_telemetry::TelemetryReport;

/// The five phases of the distributed driver's rank body, in program
/// order — pass 6 requires a span for each on every rank, in this order.
pub const RANK_PHASES: [&str; 5] = [
    "assemble-pre",
    "halo-post",
    "assemble-overlap",
    "halo-drain",
    "combine",
];

/// What the checked run was supposed to produce — recomputed from the
/// driver and the mesh, never from the telemetry under test.
#[derive(Debug, Clone)]
pub struct TelemetryExpectation {
    /// Ranks that assembled.
    pub num_ranks: usize,
    /// The kernel variant the run used.
    pub variant: Variant,
    /// Elements the mesh holds (= elements the run must have counted).
    pub elements: u64,
}

/// Outcome of checking one session's telemetry against the contracts.
#[derive(Debug, Clone)]
pub struct TelemetryContractReport {
    /// Ranks the expectation covered.
    pub num_ranks: usize,
    /// Elements the session counted for the checked variant.
    pub observed_elements: u64,
    /// Spans the session recorded.
    pub spans_checked: usize,
    /// Every contract breach found (empty when clean).
    pub violations: Vec<String>,
}

impl TelemetryContractReport {
    /// Whether the telemetry honored the contracts.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for TelemetryContractReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "telemetry-clean: {} rank(s) counted {} element(s), {} span(s) nest, \
                 keep program order and export",
                self.num_ranks, self.observed_elements, self.spans_checked
            )
        } else {
            write!(f, "TELEMETRY VIOLATION: {}", self.violations.join("; "))
        }
    }
}

/// Checks a finished session's report against `exp`. Pure — self-tests
/// tamper the report and re-run this to prove the checker catches skew.
pub fn check_report(
    report: &TelemetryReport,
    exp: &TelemetryExpectation,
) -> TelemetryContractReport {
    let mut violations = Vec::new();

    let observed_elements = report.elements(metrics::scope(exp.variant));
    if observed_elements != exp.elements {
        violations.push(format!(
            "elements counted for {} diverge: counter has {observed_elements}, \
             the mesh holds {}",
            exp.variant, exp.elements
        ));
    }

    // Span-tree nesting: every parent link resolves, same thread,
    // enclosing interval.
    for s in &report.spans {
        if s.end_ns < s.start_ns {
            violations.push(format!("span '{}' ends before it starts", s.name));
        }
        let Some(pid) = s.parent else {
            continue;
        };
        match report.spans.iter().find(|p| p.id == pid) {
            None => violations.push(format!(
                "span '{}' links to parent {pid}, which was never recorded",
                s.name
            )),
            Some(p) => {
                if (p.pid, p.tid) != (s.pid, s.tid) {
                    violations.push(format!(
                        "span '{}' and its parent '{}' live on different threads",
                        s.name, p.name
                    ));
                } else if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    violations.push(format!(
                        "span '{}' is not enclosed by its parent '{}'",
                        s.name, p.name
                    ));
                }
            }
        }
    }

    // Timeline: all five phase spans on every rank's trace process, and
    // under each rank span the phases in program order.
    for rank in 0..exp.num_ranks {
        let pid = rank as u32 + 1;
        for phase in RANK_PHASES {
            if !report.spans.iter().any(|s| s.pid == pid && s.name == phase) {
                violations.push(format!("rank {rank} recorded no '{phase}' span"));
            }
        }
    }
    for body in report.spans.iter().filter(|s| s.name.starts_with("rank-")) {
        let mut phases: Vec<_> = report
            .spans
            .iter()
            .filter(|s| s.parent == Some(body.id) && RANK_PHASES.contains(&s.name.as_str()))
            .collect();
        phases.sort_by_key(|s| (s.start_ns, s.id));
        for w in phases.windows(2) {
            let (a, b) = (w[0], w[1]);
            let rank_of = |name: &str| RANK_PHASES.iter().position(|p| *p == name);
            if rank_of(&a.name) >= rank_of(&b.name) || a.end_ns > b.start_ns {
                violations.push(format!(
                    "{} on trace process {}: '{}' does not close before '{}' opens — \
                     the rank body left program order",
                    body.name, body.pid, a.name, b.name
                ));
            }
        }
    }

    // The chrome export must be well-formed JSON.
    if let Err(e) = validate_json(&report.chrome_trace()) {
        violations.push(format!("chrome-trace export does not parse: {e}"));
    }

    TelemetryContractReport {
        num_ranks: exp.num_ranks,
        observed_elements,
        spans_checked: report.spans.len(),
        violations,
    }
}

/// Runs one distributed assembly of `input` at `ranks` ranks inside a
/// telemetry session and checks the emitted telemetry against the closed
/// forms. Returns the expectation and the live report too, so self-tests
/// can tamper the report and re-check.
pub fn check_distributed_telemetry(
    input: &AssemblyInput,
    ranks: usize,
) -> (
    TelemetryContractReport,
    TelemetryExpectation,
    TelemetryReport,
) {
    let variant = Variant::Rsp;
    let driver = DistributedDriver::new(input.mesh, ranks);
    let session = alya_telemetry::session();
    let _ = driver.assemble(variant, input);
    let report = session.finish();
    let exp = expectation(&driver, variant);
    let checked = check_report(&report, &exp);
    (checked, exp, report)
}

/// Builds the expectation for a run of `driver` — closed forms only,
/// nothing read from the telemetry under test.
pub fn expectation(driver: &DistributedDriver, variant: Variant) -> TelemetryExpectation {
    TelemetryExpectation {
        num_ranks: driver.num_ranks(),
        variant,
        elements: driver
            .shard_set()
            .shards()
            .map(|s| s.elements().len() as u64)
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fixture;

    #[test]
    fn live_session_on_the_fixture_honors_the_contracts() {
        let fx = Fixture::new();
        let input = fx.input();
        for ranks in [1, 4, 8] {
            let (report, exp, live) = check_distributed_telemetry(&input, ranks);
            assert!(report.is_clean(), "{ranks} ranks: {report}");
            assert_eq!(exp.elements, fx.mesh.num_elements() as u64);
            assert_eq!(report.observed_elements, exp.elements);
            assert!(report.spans_checked > 0);
            // The Table-I view renders the checked variant's count.
            let profile = metrics::table_one(&live);
            assert_eq!(profile.rows.len(), 1, "{profile}");
            assert_eq!(profile.rows[0].elements, exp.elements);
        }
    }

    #[test]
    fn a_skewed_counter_is_flagged() {
        let fx = Fixture::new();
        let input = fx.input();
        let (clean, exp, mut live) = check_distributed_telemetry(&input, 8);
        assert!(clean.is_clean(), "{clean}");
        // Drop one element from the count — the drift a missed tally
        // would produce.
        let sc = metrics::scope(exp.variant);
        live.set_elements(sc, live.elements(sc) - 1);
        let bad = check_report(&live, &exp);
        assert_eq!(bad.violations.len(), 1, "{bad}");
        assert!(bad.violations[0].contains("elements counted"), "{bad}");
        assert_eq!(bad.observed_elements, exp.elements - 1);
    }

    #[test]
    fn a_broken_span_tree_is_flagged() {
        let fx = Fixture::new();
        let input = fx.input();
        let (clean, exp, mut live) = check_distributed_telemetry(&input, 4);
        assert!(clean.is_clean(), "{clean}");
        // Orphan a parent link: the span tree no longer resolves.
        let child = live
            .spans
            .iter_mut()
            .find(|s| s.parent.is_some())
            .expect("the rank body records parented spans");
        child.parent = Some(u64::MAX);
        let bad = check_report(&live, &exp);
        assert!(
            bad.violations.iter().any(|v| v.contains("never recorded")),
            "{bad}"
        );
    }

    #[test]
    fn missing_stage_spans_and_out_of_order_phases_are_flagged() {
        let fx = Fixture::new();
        let input = fx.input();
        let (clean, exp, mut live) = check_distributed_telemetry(&input, 2);
        assert!(clean.is_clean(), "{clean}");
        // Hold one rank's sends back past the start of its interior
        // assembly: the phases leave program order.
        let mut late = live.clone();
        let post = late
            .spans
            .iter()
            .position(|s| s.name == "halo-post")
            .expect("every rank posts");
        let body = late.spans[post].parent;
        let interior = late
            .spans
            .iter()
            .find(|s| s.name == "assemble-overlap" && s.parent == body)
            .expect("every rank assembles its interior");
        late.spans[post].end_ns = interior.start_ns + 1;
        let bad = check_report(&late, &exp);
        assert!(
            bad.violations
                .iter()
                .any(|v| v.contains("'halo-post' does not close before 'assemble-overlap'")),
            "{bad}"
        );
        // Erase every combine span: the per-rank timeline is incomplete.
        live.spans.retain(|s| s.name != "combine");
        let bad = check_report(&live, &exp);
        assert!(
            bad.violations.iter().any(|v| v.contains("combine")),
            "{bad}"
        );
    }
}
