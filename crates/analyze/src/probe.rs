//! Pass 11 — the probe (flight recorder / black box / sentinel) checker.
//!
//! `alya-probe` is allowed to be always-on only because it is provably
//! inert: recording must not change a single assembled bit, retention
//! must stay bounded, and the post-mortem machinery must actually tell
//! the story when something wedges. This pass holds all three claims:
//!
//! * **recorder transparency** — a distributed assembly runs twice,
//!   recorder on then off, and the two RHS vectors must be bitwise
//!   identical (`f64::to_bits`, not a tolerance) with identical
//!   comm accounting. The on-run must also have recorded real events —
//!   a silently-dead recorder is a violation, not a pass;
//! * **bounded retention** — after the on-run, no per-thread ring holds
//!   more than [`alya_probe::RING_CAP`] events: the flight recorder
//!   forgets, it never grows;
//! * **black-box dump** — a seeded [`HaloFault`] must come back as a
//!   typed [`alya_core::Stalled`] naming the starved rank and the silent
//!   peer, and the dump the starved rank leaves must find it in its open
//!   `halo-drain` span, diagnose who was blocked on whom (`waiting on
//!   rank N`), and export a chrome trace that parses;
//! * **regression sentinel** — the committed `BENCH_drivers.json` /
//!   `BENCH_comm.json` baselines, held against themselves and the
//!   closed-form halo predictions, must keep the sentinel quiet. The
//!   same pair list, skewed, drives `audit --seed-violation
//!   perf-regression` to prove the sentinel fires.
//!
//! The sentinel half is workspace-gated like the other bench-auditing
//! passes; the recorder and dump halves always run on the live fixture.

use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use alya_core::{AssemblyInput, DistributedDriver, HaloFault, Variant};
use alya_probe as probe;
use alya_telemetry::export;

/// Rank count of the pass's distributed runs (matches the audit shard
/// count's spirit: enough ranks that every rank really exchanges halos).
pub const PROBE_RANKS: usize = 4;

/// Halo-drain deadline for the seeded-stall dump check — long enough that
/// a healthy exchange never trips it, short enough to keep the audit
/// fast.
pub const STALL_WINDOW: Duration = Duration::from_millis(150);

/// Variants the transparency check sweeps (one spilling, one
/// register-resident — the instrumented paths differ, the bits may not).
pub const PROBE_VARIANTS: [Variant; 2] = [Variant::Rsp, Variant::Rspr];

/// Serializes probe-global state (the enabled gate, the last-dump slot)
/// across concurrent checks in one process: a parallel test run toggling
/// the recorder off mid-stall-check would starve the dump of events.
static PROBE_GATE: Mutex<()> = Mutex::new(());

/// One `(key, baseline, live)` cell the sentinel audits.
#[derive(Debug, Clone)]
pub struct SentinelPair {
    /// Sentinel key, e.g. `melem_per_s/serial/RSPR/1t`.
    pub key: String,
    /// Committed baseline (or closed-form prediction) for the key.
    pub expected: f64,
    /// The value observed against it.
    pub measured: f64,
}

/// Outcome of checking the probe contract.
#[derive(Debug, Clone, Default)]
pub struct ProbeContractReport {
    /// Whether the recorder-transparency half ran.
    pub recorder_checked: bool,
    /// Variants whose on/off runs compared bitwise equal.
    pub transparent_variants: usize,
    /// Whether the seeded-stall dump half ran.
    pub dump_checked: bool,
    /// Whether the workspace-gated sentinel half ran (false: no
    /// committed bench reports to audit).
    pub sentinel_checked: bool,
    /// Baselines the sentinel was armed with.
    pub sentinel_baselines: usize,
    /// Every contract breach found (empty when clean).
    pub violations: Vec<String>,
}

impl ProbeContractReport {
    /// Whether the probe honored its contract (the skipped sentinel
    /// half is vacuously clean, like the other workspace-gated passes).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for ProbeContractReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.is_clean() {
            return write!(f, "PROBE VIOLATION: {}", self.violations.join("; "));
        }
        write!(
            f,
            "probe-clean: recorder bitwise-transparent over {} variant(s); \
             seeded stall dumped and diagnosed",
            self.transparent_variants
        )?;
        if self.sentinel_checked {
            write!(
                f,
                "; sentinel quiet over {} committed baseline(s)",
                self.sentinel_baselines
            )
        } else {
            write!(f, "; sentinel skipped (no committed bench reports)")
        }
    }
}

/// Runs the full pass: transparency + retention + stall dump on the live
/// fixture, sentinel quietness against the committed bench reports when
/// `workspace_root` carries them.
pub fn check_probe(input: &AssemblyInput, workspace_root: Option<&Path>) -> ProbeContractReport {
    let _gate = PROBE_GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    probe::init();
    let mut report = ProbeContractReport::default();
    check_recorder(input, &mut report);
    check_stall_dump(input, &mut report);
    if let Some(pairs) = workspace_root.and_then(sentinel_pairs_from_workspace) {
        report.sentinel_checked = true;
        let (baselines, violations) = check_sentinel_pairs(&pairs);
        report.sentinel_baselines = baselines;
        if baselines == 0 {
            report.violations.push(
                "committed bench reports yielded no sentinel baselines — \
                 the regression sentinel is unarmed"
                    .into(),
            );
        }
        report.violations.extend(violations);
    }
    report
}

/// Recorder on/off bitwise transparency + bounded ring retention.
fn check_recorder(input: &AssemblyInput, report: &mut ProbeContractReport) {
    report.recorder_checked = true;
    let driver = DistributedDriver::new(input.mesh, PROBE_RANKS);
    for variant in PROBE_VARIANTS {
        probe::set_enabled(true);
        let before = probe::total_events();
        let on = driver.try_assemble(variant, input, None);
        let recorded = probe::total_events() - before;
        probe::set_enabled(false);
        let off = driver.try_assemble(variant, input, None);
        probe::set_enabled(true);
        let (Ok((a, ra)), Ok((b, rb))) = (on, off) else {
            report.violations.push(format!(
                "{variant}: fault-free distributed assembly stalled during the recorder check"
            ));
            continue;
        };
        if recorded == 0 {
            report.violations.push(format!(
                "{variant}: the recorder-on distributed assembly recorded no events — \
                 the flight recorder is dead"
            ));
        }
        let (xs, ys) = (a.as_slice(), b.as_slice());
        let bits_equal =
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits());
        if !bits_equal {
            report.violations.push(format!(
                "{variant}: recorder on/off changed an RHS bit — recording is not observer-only"
            ));
        } else {
            report.transparent_variants += 1;
        }
        if ra != rb {
            report.violations.push(format!(
                "{variant}: recorder on/off changed the comm accounting"
            ));
        }
    }
    for log in &probe::snapshot("pass-11 retention check").threads {
        if log.events.len() > probe::RING_CAP {
            report.violations.push(format!(
                "thread '{}' retained {} events, past the {}-slot ring bound — \
                 the recorder is growing, not forgetting",
                log.label,
                log.events.len(),
                probe::RING_CAP
            ));
        }
    }
}

/// A seeded [`HaloFault`] must return a typed stall naming the starved
/// rank and the silent peer, *and* leave a black-box dump that finds the
/// starved rank in `halo-drain` and names the rank it waited on.
fn check_stall_dump(input: &AssemblyInput, report: &mut ProbeContractReport) {
    report.dump_checked = true;
    probe::set_enabled(true);
    probe::clear_last_dump();
    let driver = DistributedDriver::new(input.mesh, PROBE_RANKS).stall_timeout(STALL_WINDOW);
    // Withhold a message that is really owed, so exactly one rank starves.
    let plan = driver.exchange_plan();
    let Some((from, to)) = (0..PROBE_RANKS as u32)
        .find_map(|r| plan.rank(r as usize).sends.first().map(|&(to, _)| (r, to)))
    else {
        report.violations.push(format!(
            "a {PROBE_RANKS}-rank decomposition of the fixture exchanges nothing — \
             no channel to fault"
        ));
        return;
    };
    let Err(stall) = driver.try_assemble(Variant::Rsp, input, Some(HaloFault { from, to })) else {
        report.violations.push(format!(
            "withholding the rank {from}→{to} halo message did not stall the assembly"
        ));
        return;
    };
    if (stall.rank, stall.peer) != (to, from) {
        report.violations.push(format!(
            "withholding the rank {from}→{to} halo message reported the wrong pair: {stall}"
        ));
    }
    let Some(dump) = probe::last_dump() else {
        report
            .violations
            .push("the halo stall produced no black-box dump".into());
        return;
    };
    if !dump.contains(&format!("rank {to} stalled in \"halo-drain\"")) {
        report.violations.push(format!(
            "the black-box dump does not find rank {to} in its open halo-drain span"
        ));
    }
    if !dump.contains(&format!("waiting on rank {from}")) {
        report.violations.push(format!(
            "the black-box dump does not blame rank {from}, \
             whose halo message was withheld"
        ));
    }
    // The machine-readable export of the same snapshot must parse.
    let trace = probe::snapshot("pass-11 trace check").chrome_trace();
    if let Err(e) = export::validate_json(&trace) {
        report
            .violations
            .push(format!("the black-box chrome trace does not parse: {e}"));
    }
}

/// Scrapes sentinel `(key, baseline, live)` pairs from the committed
/// bench reports: every throughput row held against itself (drift-free
/// by construction — the quietness the pass asserts), every halo-byte
/// measurement held against its closed-form prediction, and each rank
/// row's blocked-wait fraction held against the committed overlap run.
/// `None` when neither report exists (pass skips, like pass 8).
pub fn sentinel_pairs_from_workspace(root: &Path) -> Option<Vec<SentinelPair>> {
    let drivers = std::fs::read_to_string(root.join("BENCH_drivers.json")).ok();
    let comm = std::fs::read_to_string(root.join("BENCH_comm.json")).ok();
    if drivers.is_none() && comm.is_none() {
        return None;
    }
    let mut pairs = Vec::new();
    for obj in drivers.as_deref().unwrap_or_default().split('{').skip(1) {
        let (Some(strategy), Some(threads), Some(melem)) = (
            str_field(obj, "strategy"),
            num_field(obj, "threads"),
            num_field(obj, "melem_per_s"),
        ) else {
            continue;
        };
        let variant = str_field(obj, "variant").unwrap_or_default();
        pairs.push(SentinelPair {
            key: format!("melem_per_s/{strategy}/{variant}/{}t", threads as usize),
            expected: melem,
            measured: melem,
        });
    }
    for obj in comm.as_deref().unwrap_or_default().split('{').skip(1) {
        let (Some(ranks), Some(halo), Some(predicted)) = (
            num_field(obj, "ranks"),
            num_field(obj, "halo_bytes"),
            num_field(obj, "predicted_halo_bytes"),
        ) else {
            continue;
        };
        if predicted > 0.0 {
            pairs.push(SentinelPair {
                key: format!("halo_bytes/{}r", ranks as usize),
                expected: predicted,
                measured: halo,
            });
        }
        if let (Some(wait), Some(median)) = (
            num_field(obj, "blocked_wait_on_s"),
            num_field(obj, "overlap_median_s"),
        ) {
            if median > 0.0 && wait > 0.0 {
                let frac = wait / median;
                pairs.push(SentinelPair {
                    key: format!("blocked_wait_frac/{}r", ranks as usize),
                    expected: frac,
                    measured: frac,
                });
            }
        }
    }
    Some(pairs)
}

/// Arms a [`probe::Sentinel`] with every pair's baseline, feeds it every
/// pair's live value, and returns `(baselines, drift violations)`. Pure
/// over its input — the `perf-regression` seeded audit skews the same
/// pair list and re-runs this to prove the sentinel fires.
pub fn check_sentinel_pairs(pairs: &[SentinelPair]) -> (usize, Vec<String>) {
    let mut sentinel = probe::Sentinel::new();
    for p in pairs {
        sentinel.baseline(&p.key, p.expected);
    }
    for p in pairs {
        sentinel.observe(&p.key, p.measured);
    }
    let violations = sentinel
        .drifts()
        .iter()
        .map(|d| format!("perf sentinel: {d}"))
        .collect();
    (sentinel.num_baselines(), violations)
}

/// Extracts a quoted string field from a JSON object fragment.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts a numeric field from a JSON object fragment.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(key: &str, expected: f64, measured: f64) -> SentinelPair {
        SentinelPair {
            key: key.into(),
            expected,
            measured,
        }
    }

    #[test]
    fn committed_workspace_reports_arm_a_quiet_sentinel() {
        let root = crate::sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
        let pairs = sentinel_pairs_from_workspace(&root)
            .expect("the workspace commits BENCH_drivers.json and BENCH_comm.json");
        // Throughput rows, halo-byte rows, and blocked-wait fractions
        // all made it in.
        assert!(pairs.iter().any(|p| p.key.starts_with("melem_per_s/")));
        assert!(pairs.iter().any(|p| p.key.starts_with("halo_bytes/")));
        assert!(pairs
            .iter()
            .any(|p| p.key.starts_with("blocked_wait_frac/")));
        let (baselines, violations) = check_sentinel_pairs(&pairs);
        assert_eq!(baselines, pairs.len());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_skewed_pair_list_trips_the_sentinel() {
        let pairs = vec![
            pair("melem_per_s/serial/RSPR/1t", 7.2, 7.2 * 0.5),
            pair("halo_bytes/4r", 31892.0, 31892.0),
        ];
        let (baselines, violations) = check_sentinel_pairs(&pairs);
        assert_eq!(baselines, 2);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("melem_per_s/serial/RSPR/1t"));
    }

    #[test]
    fn field_scrapers_read_the_bench_row_format() {
        let row = r#""strategy": "serial-packed", "variant": "RSPR", "threads": 1,
                      "melem_per_s": 9.566, "halo_bytes": 15708,
                      "predicted_halo_bytes": 15708}"#;
        assert_eq!(str_field(row, "strategy").as_deref(), Some("serial-packed"));
        assert_eq!(str_field(row, "variant").as_deref(), Some("RSPR"));
        assert_eq!(num_field(row, "threads"), Some(1.0));
        assert_eq!(num_field(row, "melem_per_s"), Some(9.566));
        // The quoted-key search must not confuse `halo_bytes` with
        // `predicted_halo_bytes`.
        assert_eq!(num_field(row, "halo_bytes"), Some(15708.0));
        assert_eq!(num_field(row, "missing"), None);
    }
}
