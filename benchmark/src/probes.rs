//! Per-layer probes that do not depend on the workload: the machine's own
//! bounds and the cost of the program's event recorders.

use alya_machine::par;
use alya_telemetry as telemetry;

use crate::harness::{ns_per_call, time_call, Ctx, Report};
use crate::stats;

/// `machine.hw_threads` and `machine.fork_join_us`: the cost of one
/// `par_for_each_coarse` over `T` no-op items, which every parallel sweep
/// and every service round pays at least once.
pub fn machine(ctx: &Ctx, report: &mut Report) {
    report.set("machine.hw_threads", par::hardware_threads() as f64);
    let items = vec![0u8; ctx.threads];
    let fork_join_s = time_call(0.05, 200, || {
        par::par_for_each_coarse(&items, |i| {
            std::hint::black_box(i);
        });
    });
    report.set("machine.fork_join_us", fork_join_s * 1e6);
}

/// Sum of the sizes of the distinct last-level caches, from sysfs.
fn llc_bytes() -> Option<u64> {
    let mut level = 0u32;
    let mut instances = std::collections::BTreeMap::new();
    for cpu in std::fs::read_dir("/sys/devices/system/cpu").ok()?.flatten() {
        let Ok(indices) = std::fs::read_dir(cpu.path().join("cache")) else {
            continue;
        };
        for index in indices.flatten() {
            let read = |f: &str| std::fs::read_to_string(index.path().join(f)).ok();
            let (Some(lvl), Some(size), Some(shared)) =
                (read("level"), read("size"), read("shared_cpu_list"))
            else {
                continue;
            };
            if read("type").is_some_and(|t| t.trim() == "Instruction") {
                continue;
            }
            let Ok(lvl) = lvl.trim().parse::<u32>() else {
                continue;
            };
            let size = size.trim();
            let bytes = match size.strip_suffix('K') {
                Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
                None => size
                    .strip_suffix('M')
                    .and_then(|m| m.parse::<u64>().ok())
                    .map(|m| m << 20),
            };
            let Some(bytes) = bytes else { continue };
            if lvl > level {
                level = lvl;
                instances.clear();
            }
            if lvl == level {
                instances.insert(shared.trim().to_string(), bytes);
            }
        }
    }
    (!instances.is_empty()).then(|| instances.values().sum())
}

/// Largest triad array. First touch of the three arrays is what the probe
/// spends its time on (page faults, ~2.3 s per GiB on the bench host), and
/// the virtual host advertises the whole socket's 260 MiB L3 to two cores:
/// 256 MiB and 1040 MiB arrays read the same 24–25 GB/s there, so the cap
/// costs no accuracy and keeps the probe near one second.
const TRIAD_ARRAY_CAP: u64 = 256 << 20;

/// `machine.triad_gb_per_s`: STREAM triad `a = b + s·c` over `T` threads,
/// the sustainable-bandwidth bound the projection operator is held against.
/// Each array is four times the summed last-level cache, capped at
/// [`TRIAD_ARRAY_CAP`]; both sizes are echoed.
pub fn triad(ctx: &Ctx, report: &mut Report) {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let bytes = ctx.pick((4 * llc).min(TRIAD_ARRAY_CAP), 8 << 20);
    let n = (bytes / 8) as usize;
    report.note("triad_llc_bytes", llc);
    report.note("triad_array_bytes", n * 8);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(ctx.threads);
    let mut pass = || {
        std::thread::scope(|s| {
            for (i, a) in a.chunks_mut(chunk).enumerate() {
                let (b, c) = (&b[i * chunk..], &c[i * chunk..]);
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
    };
    pass(); // first touch of `a`
    let fastest = (0..3)
        .map(|_| {
            let t0 = std::time::Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    std::hint::black_box(&a);
    // Triad moves three arrays per pass (two read, one written).
    report.set(
        "machine.triad_gb_per_s",
        3.0 * (n * 8) as f64 / fastest * 1e-9,
    );
}

/// `probe.recorder_overhead_frac`: time of `op` with the flight recorder
/// recording over its time with the recorder gated off, minus one — both
/// inside a live telemetry session, so spans and counters reach the
/// recorder's sink. Alternates the two states and reads each from its
/// fastest round.
///
/// Installs the recorder (`alya_probe::init`), which cannot be undone:
/// call it only after everything that must see the program's default state.
pub fn recorder_overhead(report: &mut Report, rounds: usize, mut op: impl FnMut()) {
    alya_probe::init();
    let session = telemetry::session();
    let mut fastest = [f64::INFINITY; 2];
    op(); // warm-up: rings and shards allocate on first use
    for round in 0..2 * rounds {
        let on = round % 2 == 0;
        alya_probe::set_enabled(on);
        let t0 = std::time::Instant::now();
        op();
        let slot = &mut fastest[usize::from(on)];
        *slot = slot.min(t0.elapsed().as_secs_f64());
    }
    alya_probe::set_enabled(true);
    drop(session.finish());
    let [off, on] = fastest;
    report.set("probe.recorder_overhead_frac", on / off - 1.0);
}

/// `telemetry.span_ns` (open + drop one span inside a live session) and
/// `probe.note_ns` (`note_counter` with the recorder on). Installs the
/// recorder like [`recorder_overhead`]: call it last.
pub fn recorders(report: &mut Report) {
    alya_probe::init();
    alya_probe::set_enabled(true);
    report.set(
        "probe.note_ns",
        ns_per_call(10_000, || alya_probe::note_counter("benchmark-probe", 1)),
    );
    // A fresh session per batch keeps the span log it accumulates small.
    let mut per_span = Vec::new();
    for _ in 0..7 {
        let session = telemetry::session();
        per_span.push(ns_per_call(2_000, || {
            drop(telemetry::span("benchmark-probe"))
        }));
        drop(session.finish());
    }
    report.set("telemetry.span_ns", stats::median(&per_span));
}
