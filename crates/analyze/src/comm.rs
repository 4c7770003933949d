//! Pass 4 — the communication contract checker.
//!
//! The distributed driver's halo exchange has a **closed-form budget**:
//! an interface node touched by `k` ranks ships exactly `k − 1`
//! contributions to its owner, so one assembly moves
//! [`ShardSet::halo_send_slots`]` × `[`HALO_ENTRY_BYTES`] bytes in
//! [`ExchangePlan::num_messages`] messages — no more (no double count),
//! no less (no dropped halo). This pass holds a live [`CommReport`]
//! against that budget:
//!
//! * **volume** — total posted bytes and messages equal the closed form;
//! * **delivery** — every channel's receiver-side counters match its
//!   sender-side counters (a dropped message is visible because the
//!   runtime accounts both endpoints), and no send was self-addressed or
//!   misaddressed;
//! * **schedule** — every channel that saw traffic is a planned
//!   `(sender → owner)` pair carrying exactly the planned entry count,
//!   and every planned pair actually carried traffic;
//! * **no double count** — under [`alya_comm::RecordMode::Full`], each
//!   message's traced slot list is strictly increasing and equals the
//!   plan's schedule for that channel, so no owner slot is ever summed
//!   twice.
//!
//! [`check_bench_comm`] applies the same budget to a committed
//! `BENCH_comm.json`: it rebuilds the terrain case recorded in the file
//! and verifies the reported halo bytes against the recomputed closed
//! form — a stale or hand-edited bench report fails the pass.

use alya_comm::{CommReport, HALO_ENTRY_BYTES};
use alya_core::{AssemblyInput, DistributedDriver, Variant};
use alya_mesh::{ExchangePlan, Partition, ShardSet, TerrainMeshBuilder};

use crate::bench::BenchFile;

/// Outcome of checking one live exchange against the comm contract.
#[derive(Debug, Clone)]
pub struct CommContractReport {
    /// Ranks that participated.
    pub num_ranks: usize,
    /// Closed-form halo bytes per assembly.
    pub expected_bytes: u64,
    /// Bytes the runtime actually posted.
    pub observed_bytes: u64,
    /// Messages the plan schedules per assembly.
    pub expected_messages: u64,
    /// Messages the runtime actually posted.
    pub observed_messages: u64,
    /// Whether the run carried per-message slot traces (the no-double-count
    /// check only runs when it did).
    pub traced: bool,
    /// Every contract breach found (empty when clean).
    pub violations: Vec<String>,
}

impl CommContractReport {
    /// Whether the exchange honored the contract.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for CommContractReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "comm-clean: {} ranks exchanged {} messages / {} bytes, equal to the closed form{}",
                self.num_ranks,
                self.observed_messages,
                self.observed_bytes,
                if self.traced {
                    ", every traced slot on schedule"
                } else {
                    ""
                }
            )
        } else {
            write!(f, "COMM VIOLATION: {}", self.violations.join("; "))
        }
    }
}

/// Checks one live exchange report against the decomposition it claims to
/// have run: closed-form volume, dual-sided delivery, planned schedule,
/// and (when traced) per-slot no-double-count.
pub fn check_exchange(
    set: &ShardSet,
    plan: &ExchangePlan,
    report: &CommReport,
) -> CommContractReport {
    let expected_bytes = (set.halo_send_slots() * HALO_ENTRY_BYTES) as u64;
    let expected_messages = plan.num_messages() as u64;
    let mut violations = Vec::new();

    if report.num_ranks != set.num_shards() {
        violations.push(format!(
            "rank count mismatch: report has {}, decomposition has {}",
            report.num_ranks,
            set.num_shards()
        ));
    }
    if report.self_send_attempts != 0 {
        violations.push(format!(
            "{} self-send(s): a rank's own contributions must never travel through a channel",
            report.self_send_attempts
        ));
    }
    if report.dropped_sends != 0 {
        violations.push(format!(
            "{} send(s) addressed to a nonexistent or finished rank",
            report.dropped_sends
        ));
    }
    for c in &report.channels {
        if c.sent_messages != c.received_messages || c.sent_bytes != c.received_bytes {
            violations.push(format!(
                "channel {}→{}: sent {} msg / {} B but received {} msg / {} B — halo message dropped or duplicated",
                c.from, c.to, c.sent_messages, c.sent_bytes, c.received_messages, c.received_bytes
            ));
        }
    }
    if report.total_bytes() != expected_bytes {
        violations.push(format!(
            "halo volume diverges from the closed form: posted {} B, \
             halo_send_slots × {HALO_ENTRY_BYTES} predicts {} B",
            report.total_bytes(),
            expected_bytes
        ));
    }
    if report.total_messages() != expected_messages {
        violations.push(format!(
            "message count diverges from the plan: posted {}, scheduled {}",
            report.total_messages(),
            expected_messages
        ));
    }

    // Schedule conformance, both directions: no unplanned channel carried
    // traffic, and no planned channel stayed silent or mis-sized.
    for c in &report.channels {
        match planned_slots(plan, c.from, c.to) {
            None => violations.push(format!(
                "channel {}→{} carried traffic but is not in the exchange plan",
                c.from, c.to
            )),
            Some(slots) => {
                let bytes = (slots.len() * HALO_ENTRY_BYTES) as u64;
                if c.sent_bytes != bytes {
                    violations.push(format!(
                        "channel {}→{}: posted {} B, plan schedules {} slot(s) = {} B",
                        c.from,
                        c.to,
                        c.sent_bytes,
                        slots.len(),
                        bytes
                    ));
                }
            }
        }
    }
    for r in 0..plan.num_ranks() {
        for (to, list) in &plan.rank(r).sends {
            if !list.is_empty() && report.channel(r as u32, *to).is_none() {
                violations.push(format!(
                    "planned message {r}→{to} ({} slot(s)) was never posted",
                    list.len()
                ));
            }
        }
    }

    // No-double-count: each traced message's slot list must be strictly
    // increasing (no owner slot repeated) and exactly the plan's schedule.
    let traced = !report.traces.is_empty();
    if traced {
        if report.traces.len() as u64 != report.total_messages() {
            violations.push(format!(
                "{} trace(s) for {} posted message(s)",
                report.traces.len(),
                report.total_messages()
            ));
        }
        for t in &report.traces {
            if !t.slots.windows(2).all(|w| w[0] < w[1]) {
                violations.push(format!(
                    "message {}→{}: slot list not strictly increasing — an owner slot would be summed twice",
                    t.from, t.to
                ));
                continue;
            }
            match planned_slots(plan, t.from, t.to) {
                Some(sched) if t.slots == sched => {}
                Some(_) => violations.push(format!(
                    "message {}→{}: traced slots diverge from the plan's schedule",
                    t.from, t.to
                )),
                None => violations.push(format!(
                    "traced message {}→{} is not in the exchange plan",
                    t.from, t.to
                )),
            }
        }
    }

    CommContractReport {
        num_ranks: report.num_ranks,
        expected_bytes,
        observed_bytes: report.total_bytes(),
        expected_messages,
        observed_messages: report.total_messages(),
        traced,
        violations,
    }
}

/// Owner slots the plan schedules on channel `from → to`, if planned.
fn planned_slots(plan: &ExchangePlan, from: u32, to: u32) -> Option<Vec<u32>> {
    plan.rank(from as usize)
        .sends
        .iter()
        .find(|(t, _)| *t == to)
        .map(|(_, list)| list.iter().map(|&(_, theirs)| theirs).collect())
}

/// Runs one fully-traced distributed assembly of `input` at `ranks` ranks
/// and checks the live exchange against the contract. Returns the live
/// report too so self-tests can mutate it and re-check.
pub fn check_distributed(
    input: &AssemblyInput,
    ranks: usize,
) -> (CommContractReport, DistributedDriver, CommReport) {
    let driver = DistributedDriver::new(input.mesh, ranks).traced(true);
    let (_, live) = driver.assemble(Variant::Rsp, input);
    let report = check_exchange(driver.shard_set(), driver.exchange_plan(), &live);
    (report, driver, live)
}

/// Outcome of validating a committed `BENCH_comm.json` against the
/// recomputed closed form.
#[derive(Debug, Clone)]
pub struct BenchCommReport {
    /// Rank-sweep rows validated.
    pub rows_checked: usize,
    /// Every divergence found (empty when the report is honest).
    pub violations: Vec<String>,
}

impl BenchCommReport {
    /// Whether the bench report matches the recomputed budget.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for BenchCommReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "bench-comm valid: {} row(s) match the recomputed closed-form halo volume",
                self.rows_checked
            )
        } else {
            write!(f, "BENCH VIOLATION: {}", self.violations.join("; "))
        }
    }
}

/// Validates a `BENCH_comm.json` report: rebuilds the recorded terrain
/// case, recomputes the closed-form halo volume per rank count, and
/// compares it against the reported bytes and message counts.
pub fn check_bench_comm(bench: &BenchFile) -> BenchCommReport {
    let mut violations = Vec::new();
    let mut rows_checked = 0;

    let Some(target) = bench.top_num("target_elems") else {
        return BenchCommReport {
            rows_checked,
            violations: vec!["no \"target_elems\" field — cannot rebuild the case".into()],
        };
    };
    let mesh = TerrainMeshBuilder::with_approx_elements(target as usize).build();
    if let Some(ne) = bench.top_num("elements") {
        if ne as usize != mesh.num_elements() {
            violations.push(format!(
                "recorded {} elements but the generator now yields {} — the bench predates the mesh",
                ne as usize,
                mesh.num_elements()
            ));
        }
    }

    for row in bench.rows() {
        let Some(ranks) = row.num("ranks") else {
            continue;
        };
        let (Some(halo), Some(predicted), Some(messages)) = (
            row.num("halo_bytes"),
            row.num("predicted_halo_bytes"),
            row.num("messages"),
        ) else {
            violations.push(format!(
                "row at ranks={ranks} is missing halo accounting fields"
            ));
            continue;
        };
        rows_checked += 1;
        let set = ShardSet::build(&mesh, &Partition::rcb(&mesh, ranks as usize));
        let expected = (set.halo_send_slots() * HALO_ENTRY_BYTES) as f64;
        if halo != expected {
            violations.push(format!(
                "ranks={}: reported {halo} halo bytes, closed form recomputes {expected}",
                ranks as usize
            ));
        }
        if predicted != expected {
            violations.push(format!(
                "ranks={}: recorded prediction {predicted} diverges from recomputed {expected}",
                ranks as usize
            ));
        }
        let plan_messages = ExchangePlan::build(&set).num_messages() as f64;
        if messages != plan_messages {
            violations.push(format!(
                "ranks={}: reported {messages} messages, plan schedules {plan_messages}",
                ranks as usize
            ));
        }

        // Overlap accounting: the row must carry both schedules' timings
        // and a win consistent with its own blocked-wait measurements.
        let (Some(overlap_median), Some(wait_off), Some(wait_on), Some(win)) = (
            row.num("overlap_median_s"),
            row.num("blocked_wait_off_s"),
            row.num("blocked_wait_on_s"),
            row.num("overlap_win"),
        ) else {
            violations.push(format!(
                "row at ranks={ranks} is missing overlap accounting fields"
            ));
            continue;
        };
        if overlap_median <= 0.0 {
            violations.push(format!(
                "ranks={}: nonpositive overlap-on runtime {overlap_median}",
                ranks as usize
            ));
        }
        if wait_off < 0.0 || wait_on < 0.0 {
            violations.push(format!(
                "ranks={}: negative blocked-wait time ({wait_off} / {wait_on})",
                ranks as usize
            ));
        }
        let recomputed = if wait_off > 0.0 {
            1.0 - wait_on / wait_off
        } else {
            0.0
        };
        if (win - recomputed).abs() > 5e-3 {
            violations.push(format!(
                "ranks={}: overlap_win {win} inconsistent with its own waits (recomputes {recomputed:.4})",
                ranks as usize
            ));
        }
    }
    if rows_checked == 0 {
        violations.push("no rank-sweep rows found in the report".into());
    }
    BenchCommReport {
        rows_checked,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fixture;

    #[test]
    fn live_exchange_on_the_fixture_honors_the_contract() {
        let fx = Fixture::new();
        let input = fx.input();
        for ranks in [1, 2, 8] {
            let (report, driver, live) = check_distributed(&input, ranks);
            assert!(report.is_clean(), "{report}");
            assert_eq!(report.num_ranks, ranks);
            assert_eq!(report.expected_bytes, report.observed_bytes);
            assert!(report.traced || ranks == 1);
            assert_eq!(
                report.expected_bytes,
                (driver.shard_set().halo_send_slots() * HALO_ENTRY_BYTES) as u64
            );
            assert!(live.all_delivered());
        }
    }

    #[test]
    fn dropped_halo_message_is_flagged() {
        let fx = Fixture::new();
        let input = fx.input();
        let (clean, driver, mut live) = check_distributed(&input, 8);
        assert!(clean.is_clean(), "{clean}");
        // Lose one delivered message on the busiest channel — the failure a
        // broken receive loop would produce.
        let c = live
            .channels
            .iter_mut()
            .max_by_key(|c| c.received_bytes)
            .expect("an 8-rank fixture decomposition must exchange");
        c.received_messages -= 1;
        c.received_bytes -= c.max_message_bytes;
        let bad = check_exchange(driver.shard_set(), driver.exchange_plan(), &live);
        assert!(!bad.is_clean());
        assert!(
            bad.violations.iter().any(|v| v.contains("dropped")),
            "{bad}"
        );
    }

    #[test]
    fn double_counted_slot_and_unplanned_channel_are_flagged() {
        let fx = Fixture::new();
        let input = fx.input();
        let (_, driver, mut live) = check_distributed(&input, 4);
        let t = live.traces.first_mut().expect("traced run has messages");
        // Repeat the first slot: the owner would sum it twice.
        let s = t.slots[0];
        t.slots.insert(0, s);
        let bad = check_exchange(driver.shard_set(), driver.exchange_plan(), &live);
        assert!(
            bad.violations
                .iter()
                .any(|v| v.contains("strictly increasing")),
            "{bad}"
        );
    }

    #[test]
    fn bench_validation_recomputes_the_closed_form() {
        // Build an honest miniature report, then corrupt it.
        let target = 3_000usize;
        let mesh = TerrainMeshBuilder::with_approx_elements(target).build();
        let mut rows = String::new();
        for ranks in [1usize, 2, 4] {
            let set = ShardSet::build(&mesh, &Partition::rcb(&mesh, ranks));
            let bytes = set.halo_send_slots() * HALO_ENTRY_BYTES;
            let msgs = ExchangePlan::build(&set).num_messages();
            let (wait_off, wait_on) = if ranks == 1 { (0.0, 0.0) } else { (2e-3, 5e-4) };
            let win = if wait_off > 0.0 {
                1.0 - wait_on / wait_off
            } else {
                0.0
            };
            rows.push_str(&format!(
                "{{\"ranks\": {ranks}, \"halo_bytes\": {bytes}, \
                 \"predicted_halo_bytes\": {bytes}, \"messages\": {msgs}, \
                 \"overlap_median_s\": 1.5e-3, \"blocked_wait_off_s\": {wait_off}, \
                 \"blocked_wait_on_s\": {wait_on}, \"overlap_win\": {win}}},"
            ));
        }
        let honest = format!(
            "{{\"target_elems\": {target}, \"elements\": {}, \"results\": [{}]}}",
            mesh.num_elements(),
            rows.trim_end_matches(',')
        );
        let check =
            |doc: &str| check_bench_comm(&BenchFile::parse("BENCH_comm.json", doc).unwrap());
        let ok = check(&honest);
        assert!(ok.is_clean(), "{ok}");
        assert_eq!(ok.rows_checked, 3);

        let forged = honest.replace("\"halo_bytes\": ", "\"halo_bytes\": 1");
        let bad = check(&forged);
        assert!(!bad.is_clean());
        let untargeted = honest.replace("\"target_elems\"", "\"target\"");
        assert_eq!(check(&untargeted).violations.len(), 1);

        // An overlap win the row's own waits don't support is caught too.
        let forged = honest.replace(
            "\"blocked_wait_on_s\": 0.0005",
            "\"blocked_wait_on_s\": 0.002",
        );
        let bad = check(&forged);
        assert!(
            bad.violations.iter().any(|v| v.contains("overlap_win")),
            "{bad}"
        );
    }
}
