//! What every workload shares: run context, correctness gate, metric sink
//! and the timed-repetition loop.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;
use crate::trace::Tracer;

/// Settings of one run, echoed into its output.
pub struct Ctx {
    /// `--seed`: drives every generated input.
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: f64,
    /// `--quick`: small meshes and a single repetition, for smoke only.
    pub quick: bool,
    /// Worker threads `T = min(nproc, 4)`, set through `par::set_thread_cap`.
    pub threads: usize,
    /// Rank count `R = min(T, 2)` of the distributed driver.
    pub ranks: usize,
}

impl Ctx {
    /// Time each per-layer probe of the traced pass may take.
    pub fn probe_budget_s(&self) -> f64 {
        self.pick(0.25, 0.01)
    }

    /// Length and least repetition count of the measured phase. The
    /// untraced pass measures for `--seconds` over at least five
    /// repetitions; the traced pass gives each of its two alternating sets
    /// 0.3 × `--seconds` and spends the rest on the per-layer probes.
    pub fn measured_phase(&self, tracer: &Tracer) -> (f64, usize) {
        if tracer.enabled() {
            (0.3 * self.seconds, self.pick(2, 1))
        } else {
            (self.seconds, self.pick(5, 1))
        }
    }

    /// `full`, or `quick` under `--quick`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// The correctness gate: counts operations checked and operations failed.
#[derive(Default)]
pub struct Gate {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

impl Gate {
    /// Records one checked operation; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("FAILED: {}", what());
            }
        }
    }
}

/// Metric values and context notes of one run.
#[derive(Default)]
pub struct Report {
    /// Metric values by declared name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context echoed into the output (mesh sizes, strategy, counts …).
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a context note.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Wall time in seconds of the fastest of `reps` complete set-ups; returns
/// the last set-up's state with it. Each set-up ends with its first warm-up
/// call, so caches, scratch buffers and lazy initialisation are paid here
/// and not in the measured phase.
///
/// The fastest, not the median, for the reason given at
/// [`Measured::report_end_to_end`] — and set-up, made of fresh allocations
/// and thread spawns, is hit hardest: a neighbour that slows the sweeps by
/// a tenth slows the median set-up of the same run by a half.
pub fn timed_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut fastest = f64::INFINITY;
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up ran"), fastest)
}

/// What one repetition did.
#[derive(Default)]
pub struct Rep {
    /// Operations completed.
    pub ops: usize,
    /// Seconds the repetition spent on the benchmark's own bookkeeping
    /// (reading results back, checking them); taken off its wall time.
    pub untimed_s: f64,
}

/// Throughput and latency of one measured phase.
#[derive(Default)]
pub struct Measured {
    /// Operations per second of each repetition.
    pub rep_ops_per_s: Vec<f64>,
    /// Median operation latency (ms) of each repetition.
    pub rep_op_ms_p50: Vec<f64>,
    /// Latency (ms) of every operation, pooled over repetitions.
    pub op_ms: Vec<f64>,
    /// Wall time of all repetitions together.
    pub wall_s: f64,
    /// `VmHWM` when the least repetition count was reached: the peak over
    /// a fixed amount of work, whatever the speed of the host.
    pub peak_rss_mib: f64,
}

impl Measured {
    /// Throughput of the best repetition.
    pub fn best_ops_per_s(&self) -> f64 {
        self.rep_ops_per_s.iter().copied().fold(0.0, f64::max)
    }

    /// Lowest per-repetition median latency (ms).
    pub fn best_op_ms_p50(&self) -> f64 {
        stats::fastest(&self.rep_op_ms_p50)
    }

    /// Sets the end-to-end latency, throughput and memory metrics.
    ///
    /// Every repetition does the same work, and what disturbs one on a
    /// shared host (a neighbour taking a core, for a fraction of a second
    /// or for several) can only slow it down, often for longer than half a
    /// run: a median over repetitions moves with the neighbour. Each metric
    /// is therefore read from the repetition where it was best — the
    /// highest throughput, the lowest median latency. The spread over all
    /// repetitions is echoed next to them.
    pub fn report_end_to_end(&self, report: &mut Report) {
        report.set("op_ms_p50", self.best_op_ms_p50());
        report.set("ops_per_s", self.best_ops_per_s());
        report.set("peak_rss_mib", self.peak_rss_mib);
        report.note("repetitions", self.rep_ops_per_s.len());
        report.note("op_samples", self.op_ms.len());
        let q = |v: &[f64], q| format!("{:.4}", stats::quantile(v, q));
        let five = |v: &[f64]| [q(v, 0.0), q(v, 0.25), q(v, 0.5), q(v, 0.75), q(v, 1.0)].join(" ");
        report.note("op_ms_pooled_min_q1_p50_q3_max", five(&self.op_ms));
        report.note(
            "repetition_op_ms_p50_min_q1_p50_q3_max",
            five(&self.rep_op_ms_p50),
        );
        report.note(
            "repetition_ops_per_s_min_q1_p50_q3_max",
            five(&self.rep_ops_per_s),
        );
    }

    /// Share of throughput lost relative to `plain`, the same repetitions
    /// run without recording spans (best repetition of each).
    pub fn overhead_over(&self, plain: &Measured) -> f64 {
        1.0 - self.best_ops_per_s() / plain.best_ops_per_s()
    }

    /// Sets the per-layer sample count and tail-latency metrics.
    pub fn report_tail(&self, report: &mut Report) {
        report.set("op.samples", self.op_ms.len() as f64);
        if let Some(p) = stats::tail_percentile(self.op_ms.len()) {
            report.set("op.tail_percentile", f64::from(p));
            report.set(
                "op.tail_ms",
                stats::quantile(&self.op_ms, f64::from(p) / 100.0),
            );
        }
    }
}

/// Runs `rep` for `seconds`, at least `min_reps` times, and returns the
/// repetitions run with the tracer off and those run with it on.
///
/// `rep` appends the latencies (ms) of the operations it completed to the
/// vector it is given. A repetition's throughput is operations ÷ its wall
/// time, so work between operations (rewinds, admissions) counts against
/// throughput. Handed a disabled tracer (the untraced pass), every
/// repetition runs with it off. Handed an enabled one, repetitions
/// alternate off and on — the same code back to back, so the difference
/// between the two sets is what recording the spans costs — with `seconds`
/// and `min_reps` applying to each set.
pub fn measure(
    seconds: f64,
    min_reps: usize,
    tracer: &mut Tracer,
    mut rep: impl FnMut(&mut Tracer, &mut Vec<f64>) -> Rep,
) -> [Measured; 2] {
    let alternate = tracer.enabled();
    let mut sets = [Measured::default(), Measured::default()];
    let mut which = 0;
    while sets[which].rep_ops_per_s.len() < min_reps || sets[which].wall_s < seconds {
        tracer.set_enabled(which == 1);
        let m = &mut sets[which];
        let before = m.op_ms.len();
        let r0 = Instant::now();
        let done = rep(tracer, &mut m.op_ms);
        let wall = r0.elapsed().as_secs_f64() - done.untimed_s;
        m.rep_ops_per_s.push(done.ops as f64 / wall);
        m.rep_op_ms_p50.push(stats::median(&m.op_ms[before..]));
        m.wall_s += wall;
        if m.rep_ops_per_s.len() == min_reps {
            m.peak_rss_mib = crate::case::peak_rss_mib();
        }
        if alternate {
            which = 1 - which;
        }
    }
    tracer.set_enabled(alternate);
    sets
}

/// Seconds of the fastest call of `f`, over calls repeated for about
/// `budget_s` (at least `min_calls`, after one warm-up call). For the
/// per-layer probes of the traced pass; the fastest for the reason given at
/// [`Measured::report_end_to_end`].
pub fn time_call(budget_s: f64, min_calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut fastest = f64::INFINITY;
    let mut calls = 0;
    let t0 = Instant::now();
    while calls < min_calls || t0.elapsed().as_secs_f64() < budget_s {
        let c0 = Instant::now();
        f();
        fastest = fastest.min(c0.elapsed().as_secs_f64());
        calls += 1;
    }
    fastest
}

/// Nanoseconds per iteration of a cheap `f`, timed in batches of `batch`
/// calls so the clock reads do not dominate; median over 21 batches.
pub fn ns_per_call(batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(21);
    for _ in 0..21 {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t0.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    stats::median(&per_call)
}
