//! The static-analysis audit: runs every `alya-analyze` pass and
//! exits nonzero on any violation, so CI can gate on it.
//!
//! Usage:
//!
//! ```text
//! audit                                  # full audit, exit 0 iff clean
//! audit --list                           # print every pass and seed mode
//! audit --seed-violation coloring        # corrupt a coloring, expect catch
//! audit --seed-violation contract-store  # forge a global intermediate store
//! audit --seed-violation contract-registers  # forge register pressure
//! audit --seed-violation shard-mismatch  # validate shards against wrong mesh
//! audit --seed-violation comm-drop       # lose a halo message, expect catch
//! audit --seed-violation overlap-stall   # withhold a halo send, expect a
//!                                        # typed stall from the rank
//! audit --seed-violation telemetry-skew  # drop one element from the live
//!                                        # element count, expect catch
//! audit --seed-violation pack-divergence # skew the packed throughput rows
//!                                        # below scalar, expect catch
//! audit --seed-violation slot-leak       # skip a warm-bind rewind; expect
//!                                        # the pass-9 isolation check
//! audit --seed-violation ir-contract-drift # perturb a derived contract;
//!                                        # expect the pass-10 parity check
//! audit --seed-violation perf-regression # skew the live throughput against
//!                                        # the committed baselines; expect
//!                                        # the pass-11 sentinel to fire
//! ```
//!
//! The `--seed-violation` modes are self-tests of the analyzer: they inject
//! a known breach and exit 0 only if the analyzer *catches* it (and exit 2
//! if the analyzer missed it — the worst outcome).

use std::process::ExitCode;
use std::time::Duration;

use alya_analyze::{comm, contracts, form, probe, races, serve, simd, sources, telemetry, Fixture};
use alya_core::drivers::{trace_element, ThroughputDb};
use alya_core::layout::{self, Layout};
use alya_core::{DistributedDriver, HaloFault, Variant};
use alya_machine::Event;
use alya_mesh::{ordering, Coloring, Partition, ShardSet};

fn full_audit() -> ExitCode {
    let root = sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let root = if root.join("crates").is_dir() {
        Some(root)
    } else {
        eprintln!(
            "note: sources not found at {}; skipping the workspace-gated passes",
            root.display()
        );
        None
    };
    let report = alya_analyze::run_audit(root.as_deref());

    println!("kernel-contract audit");
    println!("=====================");
    for v in Variant::ALL {
        let c = v.contract();
        println!(
            "  {:5}  flops {:>5}  global ld/st {:>5}  ws {:>12}  register story: {}",
            v.name(),
            c.flops,
            c.global_ldst(),
            match c.workspace_stores {
                Some((space, n)) => format!("{n} st {space:?}"),
                None => "none".into(),
            },
            match c.spills_at_contract_budget {
                Some(true) => "spills at 128-reg budget",
                Some(false) => "fits 128-reg budget, no spills",
                None => "array-style",
            },
        );
    }
    match report.contract_violations.len() {
        0 => println!("  PASS: every variant trace matches its contract"),
        n => {
            println!("  FAIL: {n} contract violation(s)");
            for v in &report.contract_violations {
                println!("    {v}");
            }
        }
    }

    println!("\nscatter race audit");
    println!("==================");
    println!("  {}", report.races);
    println!("  {}", report.shards);

    println!("\ncomm contract audit");
    println!("===================");
    println!("  {}", report.comm);

    println!("\ntelemetry contract audit");
    println!("========================");
    println!("  {}", report.telemetry);

    println!("\nsource lint audit");
    println!("=================");
    match report.source_violations.len() {
        0 => println!("  PASS: unsafety and lint policy hold across the workspace"),
        n => {
            println!("  FAIL: {n} source violation(s)");
            for v in &report.source_violations {
                println!("    {v}");
            }
        }
    }

    println!("\nsimd contract audit");
    println!("===================");
    println!("  {}", report.simd);

    println!("\nserve contract audit");
    println!("====================");
    println!("  {}", report.serve);

    println!("\nIR-derivation audit");
    println!("===================");
    match report.form.violations.len() {
        0 => println!(
            "  PASS: {} variant(s) derived from one base form; {} event stream(s), \
             whole-mesh bitwise output and every contract field match handwritten",
            report.form.variants_checked, report.form.streams_compared
        ),
        n => {
            println!("  FAIL: {n} derivation violation(s)");
            for v in &report.form.violations {
                println!("    {v}");
            }
        }
    }

    println!("\nprobe contract audit");
    println!("====================");
    println!("  {}", report.probe);

    if report.is_clean() {
        println!("\naudit clean");
        ExitCode::SUCCESS
    } else {
        println!("\naudit FAILED: {} violation(s)", report.num_violations());
        ExitCode::FAILURE
    }
}

/// Every pass and every seed mode, one per line — the audit's own table of
/// contents, so the CI scripts and the docs cannot drift from the binary.
fn list_modes() -> ExitCode {
    println!("passes:");
    println!("  1  kernel contracts     flops/traffic/workspace/register closed forms per variant");
    println!("  2  scatter races        coloring disjointness and shard-interior exclusivity");
    println!("  3  source lints         lint opt-in, forbid(unsafe_code), allow(unsafe_code) file");
    println!("                          list, the rustc/clippy policy entries in the manifests");
    println!("  4  comm contract        dual-sided halo accounting against the exchange plan");
    println!("  5  retired              (schedule contract of the removed stage scheduler)");
    println!("  6  telemetry contract   element count against the mesh, span tree, phase order");
    println!("  7  retired              (static hot-path lints: tests/alloc.rs, rustc, clippy)");
    println!("  8  simd contract        committed packed-vs-scalar bench rows beat scalar and");
    println!("                          agree with the CPU model's packed-speedup prediction");
    println!("  9  serve contract       pooled multi-tenant isolation, per-tenant conservation,");
    println!("                          DRR fairness, and the BENCH_serve.json service floor");
    println!("  10 IR derivation        every variant derived from the one symbolic base form:");
    println!("                          generated event streams, bitwise whole-mesh output and");
    println!("                          trace-derived contracts all equal to handwritten truth");
    println!("  11 probe contract       flight recorder bitwise-transparent and bounded, seeded");
    println!("                          stalls leave a diagnosing black-box dump, and the perf");
    println!("                          sentinel stays quiet on the committed bench baselines");
    println!("seed modes (--seed-violation <mode>, exit 0 iff caught):");
    for (mode, what) in SEED_MODES {
        println!("  {mode:<19} {what}");
    }
    ExitCode::SUCCESS
}

/// Every seed mode with a one-line description; `--list` prints these and
/// `main` rejects anything not in the table.
const SEED_MODES: &[(&str, &str)] = &[
    (
        "coloring",
        "collapse the coloring; pass 2 must report races",
    ),
    (
        "contract-store",
        "forge a workspace store; pass 1 must flag it",
    ),
    (
        "contract-registers",
        "inflate live values; pass 1 must flag register pressure",
    ),
    (
        "shard-mismatch",
        "validate shards against a reordered mesh; pass 2 must reject",
    ),
    (
        "comm-drop",
        "lose a delivered halo message; pass 4 must flag it",
    ),
    (
        "overlap-stall",
        "withhold a halo send; the rank must return a typed stall",
    ),
    (
        "telemetry-skew",
        "drop one element from the live count; pass 6 must flag it",
    ),
    (
        "pack-divergence",
        "skew the packed bench rows below scalar; pass 8 must flag it",
    ),
    (
        "slot-leak",
        "skip the warm-bind rewind on a reused slot; pass 9's isolation check must flag it",
    ),
    (
        "ir-contract-drift",
        "perturb a derived contract off the hand-maintained table; pass 10 must flag the drift",
    ),
    (
        "perf-regression",
        "skew the live throughput to half its committed baseline; the pass-11 sentinel must fire",
    ),
];

/// Injects a known breach; exits 0 iff the analyzer catches it.
fn seeded(mode: &str) -> ExitCode {
    let fx = Fixture::new();
    let input = fx.input();
    let caught = match mode {
        "coloring" => {
            // Collapse the proper coloring into a single class: neighbours
            // land in the same class and must be reported.
            let bad = Coloring::from_color_assignment(vec![0; fx.mesh.num_elements()]);
            let report = races::check_coloring(&fx.mesh, &bad);
            println!("{report}");
            !report.is_race_free()
        }
        "contract-store" => {
            // Append one store into the workspace region of an RSPR trace —
            // the signature of staged intermediates creeping back in.
            let lay = Layout::gpu(0, fx.mesh.num_elements(), fx.mesh.num_nodes());
            let mut rec = trace_element(Variant::Rspr, &input, 0, &lay);
            rec.events.push(Event::GStore(layout::WS_BASE + 8));
            let violations =
                contracts::check_trace(Variant::Rspr, &Variant::Rspr.contract(), &rec.events);
            for v in &violations {
                println!("{v}");
            }
            !violations.is_empty()
        }
        "contract-registers" => {
            // Keep 80 extra values live to the end of an RSPR trace: peak
            // pressure and budgeted spills both breach the contract.
            let lay = Layout::gpu(0, fx.mesh.num_elements(), fx.mesh.num_nodes());
            let mut rec = trace_element(Variant::Rspr, &input, 0, &lay);
            for v in 0..80u32 {
                rec.events.push(Event::Def(10_000 + v));
            }
            for v in 0..80u32 {
                rec.events.push(Event::Use(10_000 + v));
            }
            let violations =
                contracts::check_trace(Variant::Rspr, &Variant::Rspr.contract(), &rec.events);
            for v in &violations {
                println!("{v}");
            }
            violations.iter().any(|v| v.message.contains("pressure"))
        }
        "shard-mismatch" => {
            // Build a shard set on one element ordering, validate against a
            // Morton-reordered mesh: the compact connectivity no longer
            // matches the mesh and the validator must reject it — the
            // mutation a stale shard set surviving a mesh reorder produces.
            let set = ShardSet::build(&fx.mesh, &Partition::rcb(&fx.mesh, 8));
            let perm = ordering::element_permutation(&fx.mesh, ordering::ElementOrder::Morton);
            let reordered = ordering::reorder_elements(&fx.mesh, &perm);
            let report = races::check_shard_set(&reordered, &set);
            println!("{report}");
            !report.is_valid()
        }
        "comm-drop" => {
            // Lose one delivered halo message on the busiest channel of a
            // traced 8-rank exchange — the signature of a broken receive
            // loop. The dual-sided counters must expose it.
            let (clean, driver, mut live) = comm::check_distributed(&input, 8);
            if !clean.is_clean() {
                eprintln!("fixture exchange unexpectedly dirty: {clean}");
                return ExitCode::FAILURE;
            }
            let c = live
                .channels
                .iter_mut()
                .max_by_key(|c| c.received_bytes)
                .expect("8-rank decomposition exchanges halo traffic");
            c.received_messages -= 1;
            c.received_bytes -= c.max_message_bytes;
            let report = comm::check_exchange(driver.shard_set(), driver.exchange_plan(), &live);
            println!("{report}");
            !report.is_clean()
        }
        "overlap-stall" => {
            // Withhold one boundary message from an 8-rank overlapped
            // assembly — the signature of a lost send or a wedged peer.
            // The victim's halo drain can never complete, so it must
            // return a typed stall naming itself and the silent peer
            // instead of hanging forever.
            let driver =
                DistributedDriver::new(&fx.mesh, 8).stall_timeout(Duration::from_millis(250));
            let (from, to) = (0..8)
                .find_map(|r| {
                    let send = driver.exchange_plan().rank(r).sends.first()?;
                    Some((r as u32, send.0))
                })
                .expect("8-rank decomposition exchanges halo traffic");
            match driver.try_assemble(Variant::Rsp, &input, Some(HaloFault { from, to })) {
                Err(stall) => {
                    println!("{stall}");
                    (stall.rank, stall.peer) == (to, from)
                }
                Ok(_) => false,
            }
        }
        "telemetry-skew" => {
            // Drop one element from the live count — the drift a missed
            // tally would produce. The telemetry pass takes the element
            // count from the mesh and must flag the skew.
            let (clean, exp, mut live) = telemetry::check_distributed_telemetry(&input, 8);
            if !clean.is_clean() {
                eprintln!("fixture telemetry unexpectedly dirty: {clean}");
                return ExitCode::FAILURE;
            }
            let sc = alya_core::metrics::scope(exp.variant);
            live.set_elements(sc, live.elements(sc) - 1);
            let report = telemetry::check_report(&live, &exp);
            println!("{report}");
            !report.is_clean()
        }
        "pack-divergence" => {
            // Skew every committed packed serial row to half the scalar
            // throughput — the regression a broken pack gather or a
            // scalar-fallback-everywhere dispatch would produce. Pass 8
            // must flag exactly the skewed cells, and nothing else.
            let root = sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
            let clean = simd::check_workspace_simd(Some(&root));
            if !clean.checked || !clean.is_clean() {
                eprintln!("committed bench report unexpectedly dirty: {clean}");
                return ExitCode::FAILURE;
            }
            let skewed: Vec<String> = clean
                .cells
                .iter()
                .flat_map(|c| {
                    [
                        format!(
                            "{{\"strategy\": \"serial\", \"variant\": \"{}\", \
                             \"threads\": 1, \"melem_per_s\": {:.3}}}",
                            c.variant.name(),
                            c.scalar_melem
                        ),
                        format!(
                            "{{\"strategy\": \"serial-packed\", \"variant\": \"{}\", \
                             \"threads\": 1, \"melem_per_s\": {:.3}}}",
                            c.variant.name(),
                            0.5 * c.scalar_melem
                        ),
                    ]
                })
                .collect();
            let db = ThroughputDb::parse(&format!("[{}]", skewed.join(",\n")))
                .expect("skewed rows are well-formed");
            let report = simd::check_db(&db, &simd::fixture_predictions());
            println!("{report}");
            // Every measured cell must be flagged as a packed regression —
            // the exact check this mode seeds against.
            !report.is_clean()
                && report.violations.iter().any(|v| v.contains("regressed"))
                && report.cells.len() == clean.cells.len()
        }
        "ir-contract-drift" => {
            // Drift the RSPR contract the way a stale hand-maintained table
            // (or a silently changed rewrite pass) would: one flop and a
            // few registers off. The field-for-field parity check must name
            // exactly the drifted fields, and the clean derivation must
            // still pass beforehand.
            let clean = form::check_form(&input);
            if !clean.is_clean() {
                eprintln!("fixture derivation unexpectedly dirty: {clean:#?}");
                return ExitCode::FAILURE;
            }
            let mut drifted = alya_form::derive_contract(&alya_form::derive(Variant::Rspr));
            drifted.flops += 1;
            drifted.max_pressure = drifted.max_pressure.map(|p| p + 3);
            let violations = form::check_derived_contract(Variant::Rspr, &drifted);
            for v in &violations {
                println!("{v}");
            }
            violations.len() == 2 && violations.iter().all(|v| v.message.contains("drifted"))
        }
        "slot-leak" => {
            // Skip the warm-bind rewind on every reused slot: a re-admitted
            // session continues from the previous session's final state —
            // the cross-tenant leak pooling must never allow. The pass-9
            // isolation check (identical work ⇒ bitwise-identical digest)
            // must flag it, and nothing else may fire: conservation and
            // accounting still hold on a leaked-but-counted slot.
            let clean = serve::check_report(&serve::run_pool_scenario(false));
            if !clean.is_clean() {
                eprintln!("clean pooled scenario unexpectedly dirty: {clean}");
                return ExitCode::FAILURE;
            }
            let report = serve::check_report(&serve::run_pool_scenario(true));
            println!("{report}");
            !report.is_clean() && report.violations.iter().all(|v| v.contains("isolation"))
        }
        "perf-regression" => {
            // Arm the sentinel from the committed bench reports and
            // confirm it is quiet, then replay the same keys with every
            // throughput halved — the drift a broken dispatch or a
            // silently degraded machine would produce. Every skewed row
            // (and nothing else) must fire the sentinel.
            let root = sources::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
            let Some(pairs) = probe::sentinel_pairs_from_workspace(&root) else {
                eprintln!("no committed bench reports to arm the sentinel from");
                return ExitCode::FAILURE;
            };
            let (baselines, quiet) = probe::check_sentinel_pairs(&pairs);
            if baselines == 0 || !quiet.is_empty() {
                eprintln!("committed baselines unexpectedly noisy: {quiet:?}");
                return ExitCode::FAILURE;
            }
            let skewed: Vec<probe::SentinelPair> = pairs
                .iter()
                .map(|p| probe::SentinelPair {
                    key: p.key.clone(),
                    expected: p.expected,
                    measured: if p.key.starts_with("melem_per_s/") {
                        0.5 * p.measured
                    } else {
                        p.measured
                    },
                })
                .collect();
            let (_, drifts) = probe::check_sentinel_pairs(&skewed);
            for d in &drifts {
                println!("{d}");
            }
            let melem_rows = skewed
                .iter()
                .filter(|p| p.key.starts_with("melem_per_s/"))
                .count();
            melem_rows > 0
                && drifts.len() == melem_rows
                && drifts.iter().all(|d| d.contains("melem_per_s/"))
        }
        other => {
            eprintln!("unknown seed mode {other:?}; run `audit --list` for the full table");
            return ExitCode::FAILURE;
        }
    };
    if caught {
        println!("seeded {mode} violation caught — analyzer is alive");
        ExitCode::SUCCESS
    } else {
        eprintln!("seeded {mode} violation NOT caught — analyzer is blind");
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => full_audit(),
        [flag] if flag == "--list" => list_modes(),
        [flag, mode] if flag == "--seed-violation" => {
            if SEED_MODES.iter().any(|(m, _)| m == mode) {
                seeded(mode)
            } else {
                eprintln!("unknown seed mode {mode:?}; run `audit --list` for the full table");
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: audit [--list | --seed-violation <mode>]");
            eprintln!("       run `audit --list` for every pass and seed mode");
            ExitCode::FAILURE
        }
    }
}
