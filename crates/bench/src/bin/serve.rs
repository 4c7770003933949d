//! Multi-tenant pooled-service benchmark: session throughput, step
//! latency quantiles and fairness spread of `alya-serve` across
//! concurrency levels, emitted as `BENCH_serve.json`.
//!
//! Each level runs two phases over a shared Bolund-like case:
//!
//! * **warm-up** — fill every pool slot once (all cold builds happen
//!   here) and drain;
//! * **measured** — admit and retire `max(2 × level, 16)` sessions
//!   through the warmed pool while the deficit-round-robin scheduler
//!   dispatches their steps over the shared worker pool. The pool's
//!   cold-build counter must not move during this phase: steady state is
//!   pure slot reuse, and the binary refuses to emit a report that
//!   performed a steady-state allocation-by-rebuild.
//!
//! Every level's final report is also held against the analyzer's serve
//! contract ([`alya_analyze::serve::check_report`]) — isolation,
//! conservation, fairness — before a row is written: `BENCH_serve.json`
//! is evidence, not prose.
//!
//! Usage:
//!
//! ```text
//! serve                        # levels 1/8/64/512, JSON note to stdout
//! serve --quick                # small mesh, short sessions (CI smoke)
//! serve --sessions 64          # cap the top concurrency level
//! serve --steps 4              # work items per session
//! serve --elems 2000           # case-mesh element target
//! serve --json PATH            # write the JSON report to PATH
//! serve --top                  # print a top-style per-tenant snapshot
//!                              # after each level
//! serve --probe-dump PATH      # write the flight recorder's black box
//!                              # at exit (plus PATH.trace.json)
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use alya_bench::case::Case;
use alya_core::Variant;
use alya_machine::par;
use alya_serve::{PoolConfig, Service, ServiceConfig, SessionSpec, SharedCase};
use alya_solver::StepConfig;

const LEVELS: [usize; 4] = [1, 8, 64, 512];
const DEFAULT_ELEMS: usize = 2_000;
const QUICK_ELEMS: usize = 600;
const DEFAULT_STEPS: u32 = 4;
const QUICK_STEPS: u32 = 2;
const TENANTS: usize = 4;

struct Args {
    elems: usize,
    steps: u32,
    max_sessions: usize,
    json: Option<String>,
    top: bool,
    probe_dump: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut elems = None;
    let mut steps = None;
    let mut max_sessions = None;
    let mut json = None;
    let mut top = false;
    let mut probe_dump = None;
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--elems" => {
                let v = it.next().ok_or("--elems needs a value")?;
                elems = Some(v.parse::<usize>().map_err(|e| format!("--elems: {e}"))?);
            }
            "--steps" => {
                let v = it.next().ok_or("--steps needs a value")?;
                steps = Some(v.parse::<u32>().map_err(|e| format!("--steps: {e}"))?);
            }
            "--sessions" => {
                let v = it.next().ok_or("--sessions needs a value")?;
                max_sessions = Some(v.parse::<usize>().map_err(|e| format!("--sessions: {e}"))?);
            }
            "--json" => json = Some(it.next().ok_or("--json needs a path")?),
            "--top" => top = true,
            "--probe-dump" => {
                probe_dump = Some(it.next().ok_or("--probe-dump needs a path")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        elems: elems.unwrap_or(if quick { QUICK_ELEMS } else { DEFAULT_ELEMS }),
        steps: steps.unwrap_or(if quick { QUICK_STEPS } else { DEFAULT_STEPS }),
        max_sessions: max_sessions.unwrap_or(512),
        json,
        top,
        probe_dump,
    })
}

struct Row {
    sessions: usize,
    tenants: usize,
    steps_per_session: u32,
    measured_sessions: usize,
    items: u64,
    elapsed_s: f64,
    sessions_per_s: f64,
    items_per_s: f64,
    p50_step_ms: f64,
    p99_step_ms: f64,
    fairness_spread: f64,
    cold_builds_steady: u64,
    warm_binds: u64,
    unconverged_steps: u64,
}

fn run_level(level: usize, case: &Arc<SharedCase>, steps: u32, top: bool) -> Row {
    let ntenants = TENANTS.min(level).max(1);
    let service = Service::new(ServiceConfig {
        pool: PoolConfig {
            capacity: level,
            stripes: 8.min(level),
            leak_slot_state_for_audit: false,
        },
        ..ServiceConfig::default()
    });
    let tenants: Vec<u32> = (0..ntenants)
        .map(|i| service.add_tenant(&format!("tenant-{i}"), 1, level.div_ceil(ntenants) as u32))
        .collect();
    let spec = SessionSpec::new(Arc::clone(case), steps);

    // Warm-up: touch every slot once so the measured phase is pure reuse.
    let mut next = 0usize;
    let mut warm_admitted = 0usize;
    while warm_admitted < level {
        match service.admit(tenants[next % ntenants], &spec) {
            Ok(_) => {
                warm_admitted += 1;
                next += 1;
            }
            Err(_) => {
                service.run_round();
            }
        }
    }
    service.run_to_idle();
    let cold_before = service.pool().cold_builds();

    // Measured phase: a steady stream of sessions through the warm pool.
    let target = (2 * level).max(16);
    let t0 = Instant::now();
    let mut admitted = 0usize;
    let mut items = 0u64;
    while admitted < target {
        match service.admit(tenants[next % ntenants], &spec) {
            Ok(_) => {
                admitted += 1;
                next += 1;
            }
            Err(_) => {
                items += service.run_round() as u64;
            }
        }
    }
    items += service.run_to_idle();
    let elapsed = t0.elapsed().as_secs_f64();

    let report = service.report();
    let cold_steady = report.cold_builds - cold_before;
    let contract = alya_analyze::serve::check_report(&report);
    if !contract.is_clean() {
        eprintln!("refusing to report a dishonest service: {contract}");
        std::process::exit(1);
    }
    if cold_steady != 0 {
        eprintln!(
            "refusing to report a non-pooling service: {cold_steady} cold builds \
             in the measured phase"
        );
        std::process::exit(1);
    }
    if top {
        print!("{}", service.top_snapshot(elapsed));
    }

    Row {
        sessions: level,
        tenants: ntenants,
        steps_per_session: steps,
        measured_sessions: target,
        items,
        elapsed_s: elapsed,
        sessions_per_s: target as f64 / elapsed,
        items_per_s: items as f64 / elapsed,
        p50_step_ms: report.step_latency_ns(0.50) as f64 * 1e-6,
        p99_step_ms: report.step_latency_ns(0.99) as f64 * 1e-6,
        fairness_spread: report.fairness_spread(),
        cold_builds_steady: cold_steady,
        warm_binds: report.warm_binds,
        unconverged_steps: report.unconverged_steps(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: serve [--quick] [--sessions N] [--steps N] [--elems N] [--json PATH] \
                 [--top] [--probe-dump PATH]"
            );
            std::process::exit(1);
        }
    };
    // Register the recorder's telemetry sink before the first span so
    // --probe-dump captures the whole run.
    alya_probe::init();
    let case = Case::bolund(args.elems);
    let mut cfg = StepConfig::default();
    cfg.dt = 5e-4;
    cfg.props = case.props;
    cfg.body_force = case.body_force;
    let ne = case.mesh.num_elements();
    let nn = case.mesh.num_nodes();
    let shared = Arc::new(SharedCase::new(
        "bolund-serve",
        case.mesh,
        cfg,
        Variant::Rsp,
        |p| [0.1 + 0.3 * p[2], 0.0, 0.0],
    ));
    let hw = par::hardware_threads();
    println!(
        "pooled service: {ne} elements / {nn} nodes per session, {} steps/session, host threads {hw}",
        args.steps
    );

    let mut rows = Vec::new();
    for level in LEVELS {
        if level > args.max_sessions {
            continue;
        }
        let row = run_level(level, &shared, args.steps, args.top);
        println!(
            "  {:>4} sessions × {} tenants: {:>8.1} sessions/s  {:>8.1} items/s  \
             p50 {:.3} ms  p99 {:.3} ms  spread {:.3}  warm {} cold-steady {} unconverged {}",
            row.sessions,
            row.tenants,
            row.sessions_per_s,
            row.items_per_s,
            row.p50_step_ms,
            row.p99_step_ms,
            row.fairness_spread,
            row.warm_binds,
            row.cold_builds_steady,
            row.unconverged_steps,
        );
        rows.push(row);
    }

    let json = render_json(&args, ne, nn, hw, &rows);
    match &args.json {
        Some(path) => {
            std::fs::write(path, json).expect("write JSON report");
            println!("\nwrote {path}");
        }
        None => println!("\n(re-run with --json PATH to persist the report)"),
    }
    if let Some(path) = &args.probe_dump {
        alya_bench::blackbox::write_probe_dump(path, "serve bench exit");
    }
}

fn render_json(args: &Args, ne: usize, nn: usize, hw: usize, rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"name\": \"BENCH_serve\",");
    let _ = writeln!(s, "  \"case\": \"bolund-serve\",");
    let _ = writeln!(s, "  \"elements\": {ne},");
    let _ = writeln!(s, "  \"nodes\": {nn},");
    let _ = writeln!(s, "  \"host_threads\": {hw},");
    let _ = writeln!(s, "  \"steps_per_session\": {},", args.steps);
    s.push_str("  \"rows\": [\n");
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"sessions\": {}, \"tenants\": {}, \"steps_per_session\": {}, \
                 \"measured_sessions\": {}, \"items\": {}, \"elapsed_s\": {:.6}, \
                 \"sessions_per_s\": {:.3}, \"items_per_s\": {:.3}, \
                 \"p50_step_ms\": {:.6}, \"p99_step_ms\": {:.6}, \
                 \"fairness_spread\": {:.6}, \"cold_builds_steady\": {}, \
                 \"warm_binds\": {}, \"unconverged_steps\": {}}}",
                r.sessions,
                r.tenants,
                r.steps_per_session,
                r.measured_sessions,
                r.items,
                r.elapsed_s,
                r.sessions_per_s,
                r.items_per_s,
                r.p50_step_ms,
                r.p99_step_ms,
                r.fairness_spread,
                r.cold_builds_steady,
                r.warm_binds,
                r.unconverged_steps,
            )
        })
        .collect();
    s.push_str(&rendered.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
