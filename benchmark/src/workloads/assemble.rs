//! `assemble-large`: the paper's RHS sweep through the shared-memory
//! drivers, and — in the traced pass — through every other assembly path,
//! the rank-parallel driver included.
//!
//! One op is three consecutive RHS sweeps (the paper's "runtime"
//! convention: the assembly is evaluated three times per reported time).

use std::time::Instant;

use alya_comm::{Communicator, HaloMsg, RankHandle, RecordMode};
use alya_core::{
    assemble_parallel, assemble_parallel_with, assemble_serial, assemble_serial_with,
    DistributedDriver, ExecMode, ParallelStrategy, Variant,
};
use alya_fem::VectorField;
use alya_machine::par;
use alya_mesh::{ExchangePlan, Partition, ShardSet, TetMesh};

use crate::case::{self, Flow, Snapshot};
use crate::harness::{measure, time_call, timed_setup, Ctx, Gate, Rep, Report};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;

/// The variant every sweep assembles with.
pub const VARIANT: Variant = Variant::Rsp;
/// RHS sweeps per op.
const SWEEPS: usize = 3;
/// Element target: the `bolund-terrain` size of the committed
/// `BENCH_drivers.json` / `BENCH_comm.json` (and under `--quick`).
const ELEMS: (usize, usize) = (98_304, 6_000);
/// Ops per repetition.
const OPS_PER_REP: usize = 6;
/// Every assembly path must stay this close to serial RSP (relative,
/// max-norm): the paths differ only in the order of the nodal sums.
const RHS_TOL: f64 = 1e-12;

/// Mesh, nodal snapshot, the `auto` strategy the workload sweeps with, and
/// the serial RSP reference every path is held to.
struct Case {
    mesh: TetMesh,
    snapshot: Snapshot,
    strategy: ParallelStrategy,
    reference: VectorField,
}

impl Case {
    /// One op; returns the last sweep's RHS.
    fn sweeps(&self, tr: &mut Tracer) -> VectorField {
        let input = self.snapshot.input(&self.mesh);
        let mut sweep = || {
            tr.span("core.assemble_parallel", |_| {
                assemble_parallel(VARIANT, &input, &self.strategy)
            })
        };
        for _ in 1..SWEEPS {
            std::hint::black_box(sweep());
        }
        sweep()
    }

    fn check(&self, rhs: &VectorField, path: &str, gate: &mut Gate) -> f64 {
        let err = case::rel_err_max(rhs.as_slice(), self.reference.as_slice());
        gate.check(err <= RHS_TOL, || {
            format!("{path}: RHS off serial {VARIANT} by {err:e}")
        });
        err
    }

    fn melem_per_s(&self, sweep_s: f64) -> f64 {
        self.mesh.num_elements() as f64 / sweep_s * 1e-6
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tr: &mut Tracer, gate: &mut Gate, report: &mut Report) {
    let flow = Flow::seeded(ctx.seed);
    let elems = ctx.pick(ELEMS.0, ELEMS.1);
    // One complete set-up: mesh, snapshot, strategy, first op.
    let (mut case, setup_s) = timed_setup(ctx.pick(25, 1), || {
        let mesh = tr.span("mesh.build", |_| case::mesh(elems));
        let case = Case {
            snapshot: Snapshot::new(&mesh, &flow),
            strategy: tr.span("core.strategy_auto", |_| ParallelStrategy::auto(&mesh)),
            reference: VectorField::zeros(0),
            mesh,
        };
        std::hint::black_box(case.sweeps(&mut Tracer::new(false)));
        case
    });
    case.reference = assemble_serial(VARIANT, &case.snapshot.input(&case.mesh));
    let case = case;
    report.set("setup_s", setup_s);
    report.note("elements", case.mesh.num_elements());
    report.note("nodes", case.mesh.num_nodes());
    report.note("sweeps_per_op", SWEEPS);
    report.note("auto_strategy", case.strategy.name());

    let (seconds, min_reps) = ctx.measured_phase(tr);
    let ops = ctx.pick(OPS_PER_REP, 2);
    let [plain, traced] = measure(seconds, min_reps, tr, |tr, op_ms| {
        tr.span("rep", |tr| {
            for _ in 0..ops {
                let t0 = Instant::now();
                let rhs = case.sweeps(tr);
                op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                case.check(&rhs, "auto", gate);
            }
        });
        Rep {
            ops,
            ..Rep::default()
        }
    });
    plain.report_end_to_end(report);
    if !tr.enabled() {
        return;
    }

    plain.report_tail(report);
    report.set("trace.overhead_frac", traced.overhead_over(&plain));
    report.set("mesh.build_s", tr.fastest_s("mesh.build"));
    let contract = VARIANT.contract();
    report.set("core.flops_per_elem", contract.flops as f64);
    report.set("core.ldst_per_elem", contract.global_ldst() as f64);
    let auto = shared_memory_paths(ctx, &case, tr, gate, report);
    distributed_path(ctx, &case, auto, tr, gate, report);

    let small = case::mesh(case::SMALL_ELEMS);
    let small_snapshot = Snapshot::new(&small, &flow);
    let small_s = time_call(ctx.probe_budget_s(), 20, || {
        std::hint::black_box(assemble_serial(VARIANT, &small_snapshot.input(&small)));
    });
    report.set(
        "core.small_mesh_melem_per_s",
        small.num_elements() as f64 / small_s * 1e-6,
    );

    let input = case.snapshot.input(&case.mesh);
    probes::recorder_overhead(report, ctx.pick(7, 1), || {
        std::hint::black_box(assemble_parallel(VARIANT, &input, &case.strategy));
    });
}

/// One sweep through each shared-memory path, timed, its RHS held to the
/// serial reference. Returns the `auto` path's Melem/s.
fn shared_memory_paths(
    ctx: &Ctx,
    case: &Case,
    tr: &mut Tracer,
    gate: &mut Gate,
    report: &mut Report,
) -> f64 {
    let (mesh, input) = (&case.mesh, case.snapshot.input(&case.mesh));
    let budget = ctx.probe_budget_s();
    let mut worst = 0.0f64;
    let mut sweep = |name: &'static str, path: &mut dyn FnMut() -> VectorField| {
        let mut rhs = None;
        let secs = time_call(budget, 3, || rhs = Some(tr.span(name, |_| path())));
        worst = worst.max(case.check(&rhs.expect("time_call ran the path"), name, gate));
        case.melem_per_s(secs)
    };
    let serial = sweep("core.assemble_serial", &mut || {
        assemble_serial(VARIANT, &input)
    });
    let serial_packed = sweep("core.assemble_serial_packed", &mut || {
        assemble_serial_with(VARIANT, &input, ExecMode::Packed)
    });
    let mut colored = None;
    let coloring_s = time_call(budget, 3, || {
        colored = Some(ParallelStrategy::colored(mesh))
    });
    let colored = colored.expect("time_call built the coloring");
    let colored_rate = sweep("core.assemble_colored", &mut || {
        assemble_parallel(VARIANT, &input, &colored)
    });
    let auto = sweep("core.assemble_auto", &mut || {
        assemble_parallel(VARIANT, &input, &case.strategy)
    });
    let auto_packed = sweep("core.assemble_auto_packed", &mut || {
        assemble_parallel_with(VARIANT, &input, &case.strategy, ExecMode::Packed)
    });
    par::set_thread_cap(Some(1));
    let auto_one_worker = sweep("core.assemble_auto_1worker", &mut || {
        assemble_parallel(VARIANT, &input, &case.strategy)
    });
    par::set_thread_cap(Some(ctx.threads));
    report.set("core.rhs_rel_err_max", worst);
    report.set("mesh.coloring_s", coloring_s);
    if let ParallelStrategy::Colored(c) = &colored {
        report.set("mesh.num_colors", c.num_colors() as f64);
    }
    report.set("core.serial_scalar_melem_per_s", serial);
    report.set("core.serial_packed_melem_per_s", serial_packed);
    report.set("core.colored_melem_per_s", colored_rate);
    report.set("core.auto_melem_per_s", auto);
    report.set("core.auto_packed_melem_per_s", auto_packed);
    report.set("core.auto_vs_serial_ratio", auto / serial);
    report.set(
        "core.parallel_efficiency",
        auto / (ctx.threads as f64 * auto_one_worker),
    );
    report.set("core.gflops", auto * VARIANT.contract().flops as f64 * 1e-3);
    auto
}

/// The same sweep through `DistributedDriver` over `R` ranks (`alya-comm`
/// rank threads, halo exchange, the `alya-sched` overlap pipeline), with
/// the pieces of its decomposition and its exchange accounting.
fn distributed_path(
    ctx: &Ctx,
    case: &Case,
    auto_melem_per_s: f64,
    tr: &mut Tracer,
    gate: &mut Gate,
    report: &mut Report,
) {
    let (mesh, input) = (&case.mesh, case.snapshot.input(&case.mesh));
    let budget = ctx.probe_budget_s();
    let mut partition = None;
    let partition_s = time_call(budget, 3, || {
        partition = Some(tr.span("mesh.partition", |_| Partition::rcb(mesh, ctx.ranks)));
    });
    let partition = partition.expect("time_call ran the partitioner");
    let mut shards = None;
    let shards_s = time_call(budget, 3, || {
        shards = Some(tr.span("mesh.shardset_build", |_| {
            let set = ShardSet::build(mesh, &partition);
            std::hint::black_box(ExchangePlan::build(&set));
            set
        }));
    });
    let shards = shards.expect("time_call built the shard set");
    report.set("mesh.partition_s", partition_s);
    report.set("mesh.shardset_build_s", shards_s);
    let local_nodes: usize = shards.shards().map(|s| s.num_local_nodes()).sum();
    report.set(
        "mesh.boundary_slot_frac",
        shards.total_boundary_slots() as f64 / local_nodes as f64,
    );

    // Overlap on (the default) against the back-to-back schedule.
    let overlapped = DistributedDriver::from_shard_set(shards);
    let serialised = DistributedDriver::new(mesh, ctx.ranks).overlap(false);
    let predicted = overlapped.expected_halo_bytes() as u64;
    let mut blocked_frac = Vec::new();
    let mut last = None;
    // Seconds of the fastest sweep through `driver`, each sweep checked
    // (outside its own timing).
    let mut sweep = |driver: &DistributedDriver, name: &'static str| {
        let mut fastest = f64::INFINITY;
        time_call(2.0 * budget, 5, || {
            let t0 = Instant::now();
            let (rhs, comm) = tr.span(name, |_| driver.assemble(VARIANT, &input));
            let wall_s = t0.elapsed().as_secs_f64();
            fastest = fastest.min(wall_s);
            case.check(&rhs, name, gate);
            gate.check(
                comm.all_delivered() && comm.total_bytes() == predicted,
                || {
                    format!(
                        "{name}: halo exchange delivered {}, {} B of {predicted} B predicted",
                        comm.all_delivered(),
                        comm.total_bytes()
                    )
                },
            );
            blocked_frac.push(comm.blocked_wait_s / (ctx.ranks as f64 * wall_s));
            last = Some(comm);
        });
        fastest
    };
    let serialised_s = sweep(&serialised, "core.dist_assemble_no_overlap");
    let overlapped_s = sweep(&overlapped, "core.dist_assemble");
    let comm = last.expect("time_call ran the driver");
    report.note("ranks", overlapped.num_ranks());
    report.set("comm.halo_bytes", comm.total_bytes() as f64);
    report.set("comm.predicted_halo_bytes", predicted as f64);
    report.set("comm.messages", comm.total_messages() as f64);
    report.set("comm.max_message_bytes", comm.max_message_bytes() as f64);
    report.set("comm.blocked_wait_frac", stats::median(&blocked_frac));
    report.set("sched.overlap_win", serialised_s / overlapped_s);
    let dist = case.melem_per_s(overlapped_s);
    report.set("core.dist_melem_per_s", dist);
    report.set("core.dist_vs_auto_ratio", dist / auto_melem_per_s);
    let spawn_s = time_call(0.2 * budget, 50, || {
        tr.span("comm.run_empty", |_| {
            Communicator::run(
                ctx.ranks,
                RecordMode::Counters,
                |_, _: &mut RankHandle<HaloMsg>| (),
            );
        });
    });
    report.set("comm.run_spawn_us", spawn_s * 1e6);
}
