//! Repeatability checks over the `--json` result files of earlier runs.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::spec::{END_TO_END, EXACT};
use crate::stats;

/// One result file: workload, pass and metric values.
struct Run {
    workload: String,
    pass: String,
    metrics: BTreeMap<String, f64>,
}

fn read_run(path: &Path) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let text_of = |key: &str| {
        doc.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("{}: no {key:?}", path.display()))
    };
    let metrics = doc
        .get("metrics")
        .ok_or(format!("{}: no \"metrics\"", path.display()))?
        .members()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        workload: text_of("workload")?,
        pass: text_of("pass")?,
        metrics,
    })
}

/// Every `*.json` result in `dir`, by file name.
fn read_dir(dir: &Path) -> Result<BTreeMap<String, Run>, String> {
    let mut runs = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            runs.insert(name, read_run(&path)?);
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(runs)
}

/// Two sets of runs of the same code with the same seeds agree when every
/// end-to-end metric differs by no more than its own bound and every exact
/// count is identical. Returns whether they do.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (read_dir(dir_a)?, read_dir(dir_b)?);
    let mut agree = true;
    for (file, ra) in &a {
        let rb = b
            .get(file)
            .ok_or(format!("{file} is missing from {}", dir_b.display()))?;
        for (name, &va) in &ra.metrics {
            let vb = *rb
                .metrics
                .get(name)
                .ok_or(format!("{file}: {name} is missing from the second set"))?;
            let verdict = if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                let diff = (vb - va).abs() / va.abs();
                (
                    diff <= m.bound,
                    format!(
                        "differs by {:.1} % (bound {:.0} %)",
                        100.0 * diff,
                        100.0 * m.bound
                    ),
                )
            } else if EXACT.contains(&name.as_str()) {
                (va == vb, "must repeat exactly".to_string())
            } else {
                continue;
            };
            if !verdict.0 {
                agree = false;
            }
            let mark = if verdict.0 { "ok  " } else { "FAIL" };
            println!(
                "{mark} {:<16} {:<28} {va:>14.6} {vb:>14.6}  {}",
                ra.workload, name, verdict.1
            );
        }
    }
    Ok(agree)
}

/// Prints, per workload, the distance between the first and third quartile
/// of each end-to-end metric over the untraced runs in `dir` as a share of
/// their median. Returns whether every spread (that of `setup_s` aside)
/// stays within the metric's bound; spreads over a third of it are marked.
pub fn spread(dir: &Path) -> Result<bool, String> {
    let mut by_workload: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for run in read_dir(dir)?
        .into_values()
        .filter(|r| r.pass == "untraced")
    {
        by_workload
            .entry(run.workload.clone())
            .or_default()
            .push(run);
    }
    let mut within = true;
    for (workload, runs) in &by_workload {
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            let spread = stats::iqr_over_median(&values);
            let mark = if spread > m.bound {
                within &= m.name == "setup_s";
                "OVER THE BOUND"
            } else if spread > m.bound / 3.0 {
                "over a third of the bound"
            } else {
                ""
            };
            println!(
                "{workload:<16} {:<14} n={:<3} median {:>14.6} {:<6} spread {:>6.2} % of bound {:>3.0} %  {mark}",
                m.name,
                values.len(),
                stats::median(&values),
                m.unit,
                100.0 * spread,
                100.0 * m.bound
            );
        }
    }
    Ok(within)
}
