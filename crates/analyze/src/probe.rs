//! Pass 11 — the regression-sentinel checker.
//!
//! `alya-probe`'s [`probe::Sentinel`] flags a live value that drifts out
//! of its band around a baseline. This pass arms one from the committed
//! `BENCH_drivers.json` / `BENCH_comm.json`: every throughput row held
//! against itself, every halo-byte measurement against its closed-form
//! prediction, and each rank row's blocked-wait fraction against the
//! committed overlap run. On the committed reports the sentinel must stay
//! quiet; the same pair list with its throughputs halved must fire on
//! exactly the halved rows.
//!
//! The recorder itself — bitwise transparency, bounded rings, and the
//! black-box dump of a seeded halo stall — is checked live by the `probe`
//! integration suite of `alya-bench`, which serializes the recorder's
//! process-global state.

use std::path::Path;

use alya_probe as probe;

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

/// Outcome of checking the committed bench reports with the sentinel.
#[derive(Debug, Clone, Default)]
pub struct ProbeContractReport {
    /// Baselines the sentinel was armed with.
    pub sentinel_baselines: usize,
    /// Every contract breach found (empty when clean).
    pub violations: Vec<String>,
}

impl ProbeContractReport {
    /// Whether the sentinel stayed armed and quiet.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the pass: arms the sentinel from the reports committed at
/// `workspace_root` and requires it armed and quiet.
pub fn check_probe(workspace_root: &Path) -> ProbeContractReport {
    let pairs = match sentinel_pairs_from_workspace(workspace_root) {
        Ok(pairs) => pairs,
        Err(e) => {
            return ProbeContractReport {
                sentinel_baselines: 0,
                violations: vec![e],
            }
        }
    };
    let (sentinel_baselines, mut violations) = check_sentinel_pairs(&pairs);
    if sentinel_baselines == 0 {
        violations.push(
            "committed bench reports yielded no sentinel baselines — \
             the regression sentinel is unarmed"
                .into(),
        );
    }
    ProbeContractReport {
        sentinel_baselines,
        violations,
    }
}

/// Scrapes sentinel `(key, baseline, live)` pairs from the committed
/// bench reports: every throughput row held against itself (drift-free
/// by construction — the quietness the pass asserts), every halo-byte
/// measurement held against its closed-form prediction, and each rank
/// row's blocked-wait fraction held against the committed overlap run.
/// Fails naming the report that could not be read.
pub fn sentinel_pairs_from_workspace(root: &Path) -> Result<Vec<SentinelPair>, String> {
    let read = |name: &str| {
        std::fs::read_to_string(root.join(name))
            .map_err(|e| format!("{name} must be committed at {}: {e}", root.display()))
    };
    let (drivers, comm) = (read("BENCH_drivers.json")?, read("BENCH_comm.json")?);
    let mut pairs = Vec::new();
    for obj in drivers.split('{').skip(1) {
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
    for obj in comm.split('{').skip(1) {
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
    Ok(pairs)
}

/// Arms a [`probe::Sentinel`] with every pair's baseline, feeds it every
/// pair's live value, and returns `(baselines, drift violations)`. Pure
/// over its input, so a test can skew a pair list and re-run it.
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

    fn committed_pairs() -> Vec<SentinelPair> {
        let root = crate::sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
        sentinel_pairs_from_workspace(&root).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn committed_workspace_reports_arm_a_quiet_sentinel() {
        let root = crate::sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
        let report = check_probe(&root);
        assert!(report.is_clean(), "{report:?}");
        // Throughput rows, halo-byte rows, and blocked-wait fractions
        // all made it in.
        let pairs = committed_pairs();
        assert_eq!(report.sentinel_baselines, pairs.len());
        for kind in ["melem_per_s/", "halo_bytes/", "blocked_wait_frac/"] {
            assert!(pairs.iter().any(|p| p.key.starts_with(kind)), "{kind}");
        }
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

        // Halve every committed throughput — the drift a broken dispatch
        // or a degraded machine would produce: each halved row fires, and
        // nothing else does.
        let mut skewed = committed_pairs();
        let mut halved = 0;
        for p in skewed
            .iter_mut()
            .filter(|p| p.key.starts_with("melem_per_s/"))
        {
            p.measured *= 0.5;
            halved += 1;
        }
        let (_, drifts) = check_sentinel_pairs(&skewed);
        assert!(halved > 0);
        assert_eq!(drifts.len(), halved, "{drifts:?}");
        assert!(
            drifts.iter().all(|d| d.contains("melem_per_s/")),
            "{drifts:?}"
        );
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
