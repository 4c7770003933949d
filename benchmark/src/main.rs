//! The repo's benchmark: one invocation runs one workload in one pass and
//! prints every metric of that pass by name with its unit, the correctness
//! gate's verdict, and — as the last line of standard output — the result
//! object the driver reads. See README.md.

mod agree;
mod case;
mod harness;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use alya_machine::par;

use harness::{Ctx, Gate, Report};
use trace::Tracer;

const USAGE: &str = "usage:
  alya-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--json PATH]
  alya-benchmark workloads              the workload names, one a line
  alya-benchmark compare DIR_A DIR_B    two sets of --json results of the same code must agree
  alya-benchmark spread DIR             run-to-run spread of each end-to-end metric";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
        json: None,
    };
    let mut seconds = None;
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => args.workload = value("a name")?.clone(),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--json" => args.json = Some(PathBuf::from(value("a path")?)),
            "--quick" => args.quick = true,
            // `--trace` alone switches the traced pass on; the driver
            // spells it `--trace 0` / `--trace 1`.
            "--trace" => {
                args.trace = it.peek().map(|s| s.as_str()) != Some("0");
                it.next_if(|s| matches!(s.as_str(), "0" | "1"));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.quick { 0.2 } else { spec::RUN_SECONDS });
    if spec::workload(&args.workload).is_none() {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

/// Metrics the traced pass derives from its own span log, and the log
/// itself, written next to the benchmark when the run ends.
fn finish_trace(workload: &str, tr: &Tracer, report: &mut Report) -> std::io::Result<PathBuf> {
    let spans = tr.spans();
    let self_ns = trace::self_times_ns(spans);
    let (mut rep_ns, mut rep_self_ns) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&self_ns) {
        if s.name == "rep" {
            rep_ns += s.duration_ns();
            rep_self_ns += own;
        }
    }
    report.set("trace.spans", spans.len() as f64);
    if rep_ns > 0 {
        // Share of the repetitions spent in the benchmark's own loop code
        // rather than inside a call into a layer.
        report.set("trace.driver_self_frac", rep_self_ns as f64 / rep_ns as f64);
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, tr.to_json())?;
    Ok(path)
}

/// `{"name":{"value":v,"unit":"u"},…}` over `declared`, in declared order.
/// A metric the pass did not set reads 0; a non-finite value is a failure.
fn metrics_json(declared: &[spec::Metric], report: &Report, gate: &mut Gate) -> String {
    let mut out = String::from("{");
    for (i, m) in declared.iter().enumerate() {
        let mut value = report.metrics.get(m.name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            gate.check(false, || format!("metric {} is {value}", m.name));
            value = 0.0;
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{}:{{\"value\":{value},\"unit\":{}}}",
            json::quote(m.name),
            json::quote(m.unit)
        );
    }
    out.push('}');
    out
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = spec::workload(&args.workload).expect("validated by parse_args");
    let threads = par::hardware_threads().min(4);
    par::set_thread_cap(Some(threads));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        threads,
        ranks: threads.min(2),
    };
    let pass = if args.trace { "traced" } else { "untraced" };
    println!(
        "alya-benchmark {} ({pass}) seed {} seconds {} threads {threads} ranks {}{}",
        workload.name,
        ctx.seed,
        ctx.seconds,
        ctx.ranks,
        if ctx.quick {
            " QUICK: smoke only, not comparable"
        } else {
            ""
        }
    );
    println!("why: {}", workload.why);

    let mut tracer = Tracer::new(args.trace);
    let mut gate = Gate::default();
    let mut report = Report::default();
    workloads::run(workload.name, &ctx, &mut tracer, &mut gate, &mut report);
    let declared = if args.trace {
        probes::machine(&ctx, &mut report);
        probes::recorders(&mut report);
        let path = finish_trace(workload.name, &tracer, &mut report)
            .map_err(|e| format!("writing the trace: {e}"))?;
        println!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
        // End-to-end numbers come from the untraced pass only.
        report
            .metrics
            .retain(|name, _| !spec::END_TO_END.iter().any(|m| m.name == *name));
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    for name in report.metrics.keys() {
        assert!(
            declared.iter().any(|m| m.name == *name),
            "metric {name} is not declared for the {pass} pass"
        );
    }

    for (key, value) in &report.notes {
        println!("  {key} = {value}");
    }
    for m in declared {
        match report.metrics.get(m.name) {
            Some(v) => println!(
                "{:<36} {v:>16.6} {:<8} ({} is better)",
                m.name, m.unit, m.better
            ),
            None => println!(
                "{:<36} {:>16} {:<8} (not on this workload's path)",
                m.name, 0, m.unit
            ),
        }
    }
    let metrics = metrics_json(declared, &report, &mut gate);
    let correct = gate.failed == 0;
    println!(
        "gate: {} operations checked, {} failed, failed_frac {}",
        gate.attempted,
        gate.failed,
        gate.failed as f64 / gate.attempted.max(1) as f64
    );
    let result = format!(
        "\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}",
        gate.attempted.max(1),
        gate.failed
    );
    if let Some(path) = &args.json {
        let mut notes = String::new();
        for (i, (k, v)) in report.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(notes, "{sep}{}:{}", json::quote(k), json::quote(v));
        }
        let doc = format!(
            "{{\"workload\":{},\"why\":{},\"pass\":\"{pass}\",\"seed\":{},\"seconds\":{},\"quick\":{},\"threads\":{threads},\"ranks\":{},\"notes\":{{{notes}}},{result}}}\n",
            json::quote(workload.name),
            json::quote(workload.why),
            ctx.seed,
            ctx.seconds,
            ctx.quick,
            ctx.ranks
        );
        std::fs::write(path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{{{result}}}");
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("workloads") if argv.len() == 1 => {
            spec::WORKLOADS.iter().for_each(|w| println!("{}", w.name));
            Ok(true)
        }
        Some("compare") if argv.len() == 3 => {
            agree::compare(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some("spread") if argv.len() == 2 => agree::spread(Path::new(&argv[1])),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
