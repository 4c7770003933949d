//! `step-small` / `step-large`: `FractionalStep::step` called directly.
//!
//! One repetition rewinds the solver (`FractionalStep::reset`) and advances
//! a fixed number of steps, so every repetition does identical work: the
//! first step after a rewind solves the pressure from a cold start, the
//! later ones from the previous step's pressure, exactly as a served
//! session does.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use alya_core::{assemble_parallel, assemble_serial, AssemblyInput, ParallelStrategy, Variant};
use alya_fem::bc::DirichletBc;
use alya_fem::{ScalarField, VectorField};
use alya_mesh::TetMesh;
use alya_solver::cg::LinOp;
use alya_solver::poisson::{self, ProjectionOp};
use alya_solver::{solve_cg_with, CaseParts, CgScratch, FractionalStep, StepConfig, TimeScheme};

use crate::case::{self, Flow};
use crate::harness::{measure, ns_per_call, time_call, timed_setup, Ctx, Gate, Rep, Report};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;

/// The variant every step assembles its momentum RHS with.
pub const VARIANT: Variant = Variant::Rsp;

/// What distinguishes the two step workloads.
pub struct Shape {
    /// Element target of the terrain mesh (and under `--quick`).
    pub elems: (usize, usize),
    /// Time scheme of the momentum prediction.
    pub scheme: TimeScheme,
    /// Whether the step assembles through the parallel driver.
    pub parallel: bool,
    /// Steps per repetition.
    pub steps_per_rep: usize,
    /// Complete set-ups timed for `setup_s`.
    pub setup_reps: usize,
}

/// `step-small`: the ROADMAP's canonical served step, called directly.
pub const SMALL: Shape = Shape {
    elems: (case::SMALL_ELEMS, case::SMALL_ELEMS),
    scheme: TimeScheme::ForwardEuler,
    parallel: false,
    steps_per_rep: 20,
    setup_reps: 20,
};

/// `step-large`: 16× the elements, three parallel sweeps per step.
pub const LARGE: Shape = Shape {
    elems: (24_576, 3_000),
    scheme: TimeScheme::SspRk3,
    parallel: true,
    steps_per_rep: 3,
    setup_reps: 5,
};

/// A built case with a warm solver on it.
pub struct Prepared {
    mesh: Arc<TetMesh>,
    parts: CaseParts,
    bc: DirichletBc,
    init: VectorField,
    cfg: StepConfig,
    solver: FractionalStep<'static>,
}

/// One complete set-up: mesh, shared case parts, boundary conditions,
/// initial field, solver, and the first (warm-up) step.
pub fn prepare(elems: usize, cfg: &StepConfig, flow: &Flow, tr: &mut Tracer) -> Prepared {
    let mesh = Arc::new(tr.span("mesh.build", |_| case::mesh(elems)));
    let parts = tr.span("solver.case_parts_build", |_| CaseParts::build(&mesh));
    let bc = case::no_slip_ground(&mesh);
    let init = VectorField::from_fn(&mesh, |p| flow.velocity(p));
    let mut solver =
        FractionalStep::from_shared_parts(Arc::clone(&mesh), cfg.clone(), parts.clone());
    solver.set_bc(bc.clone());
    solver.reset(&init);
    tr.span("solver.step", |_| solver.step(VARIANT));
    Prepared {
        mesh,
        parts,
        bc,
        init,
        cfg: cfg.clone(),
        solver,
    }
}

/// Per-step observations of the measured phase.
#[derive(Default)]
struct Observed {
    /// CG iterations of each step of the first repetition, by step index.
    iters: Vec<usize>,
    unconverged: u64,
    div_reduction: Vec<f64>,
    digest: Option<u64>,
}

/// One repetition: rewind, then `steps` steps, each timed and checked.
fn repetition(
    p: &mut Prepared,
    steps: usize,
    tr: &mut Tracer,
    op_ms: &mut Vec<f64>,
    gate: &mut Gate,
    seen: &mut Observed,
) -> Rep {
    tr.span("rep", |tr| {
        tr.span("solver.reset", |_| p.solver.reset(&p.init));
        let first = seen.iters.is_empty();
        for k in 0..steps {
            let t0 = Instant::now();
            let s = tr.span("solver.step", |_| p.solver.step(VARIANT));
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if first {
                seen.iters.push(s.cg.iterations);
            }
            seen.unconverged += u64::from(!s.cg.converged);
            seen.div_reduction
                .push(s.divergence_before / s.divergence_after);
            gate.check(
                s.cg.converged && s.divergence_after < s.divergence_before,
                || {
                    format!(
                        "step {k}: {:?}, divergence {} -> {}",
                        s.cg, s.divergence_before, s.divergence_after
                    )
                },
            );
        }
        let (u, pr) = (p.solver.velocity(), p.solver.pressure());
        let finite = u
            .as_slice()
            .iter()
            .chain(pr.as_slice())
            .all(|v| v.is_finite());
        let digest = case::state_digest(u, pr);
        let expected = *seen.digest.get_or_insert(digest);
        gate.check(finite && digest == expected, || {
            format!("repetition state: finite {finite}, digest {digest:#x} != {expected:#x}")
        });
    });
    Rep {
        ops: steps,
        ..Rep::default()
    }
}

/// Oracle: one step from the rewound state with the baseline kernel `B`
/// must agree with the same step through `VARIANT`. The pressure solve
/// stops at a relative residual of `cg_tol`, so two correct kernels whose
/// RHS differ in the last bits may end the step that far apart; a wrong
/// kernel is off by orders of magnitude more.
fn oracle_step(p: &mut Prepared, gate: &mut Gate) {
    let mut velocity = |variant| {
        p.solver.reset(&p.init);
        p.solver.step(variant);
        p.solver.velocity().clone()
    };
    let (reference, ours) = (velocity(Variant::B), velocity(VARIANT));
    let err = case::rel_err_max(ours.as_slice(), reference.as_slice());
    let tol = 100.0 * p.cfg.cg_tol;
    gate.check(err <= tol, || {
        format!("oracle step: {VARIANT} vs B differ by {err:e} > {tol:e}")
    });
}

/// Runs the workload.
pub fn run(shape: &Shape, ctx: &Ctx, tr: &mut Tracer, gate: &mut Gate, report: &mut Report) {
    let flow = Flow::seeded(ctx.seed);
    let elems = ctx.pick(shape.elems.0, shape.elems.1);
    let cfg = case::step_config(shape.scheme, shape.parallel);
    let setup_reps = ctx.pick(shape.setup_reps, 1);
    let (mut p, setup_s) = timed_setup(setup_reps, || prepare(elems, &cfg, &flow, tr));
    report.set("setup_s", setup_s);
    report.note("elements", p.mesh.num_elements());
    report.note("nodes", p.mesh.num_nodes());
    report.note("scheme", format!("{:?}", shape.scheme));
    report.note(
        "assembly",
        if shape.parallel {
            p.parts.strategy.name()
        } else {
            "serial"
        },
    );
    report.note("steps_per_repetition", shape.steps_per_rep);
    report.note("dirichlet_constraints", p.bc.len());

    let mut seen = Observed::default();
    let steps = shape.steps_per_rep;
    let (seconds, min_reps) = ctx.measured_phase(tr);
    let [plain, traced] = measure(seconds, min_reps, tr, |tr, op_ms| {
        repetition(&mut p, steps, tr, op_ms, gate, &mut seen)
    });
    oracle_step(&mut p, gate);
    plain.report_end_to_end(report);
    report.note("cg_iterations_by_step", format!("{:?}", seen.iters));
    if !tr.enabled() {
        return;
    }

    plain.report_tail(report);
    report.set("trace.overhead_frac", traced.overhead_over(&plain));
    report.set("mesh.build_s", tr.fastest_s("mesh.build"));
    report.set(
        "solver.case_parts_build_s",
        tr.fastest_s("solver.case_parts_build"),
    );
    let coloring_s = time_call(ctx.probe_budget_s(), 3, || {
        std::hint::black_box(tr.span("mesh.coloring", |_| ParallelStrategy::colored(&p.mesh)));
    });
    report.set("mesh.coloring_s", coloring_s);
    if let ParallelStrategy::Colored(coloring) = &*p.parts.strategy {
        report.set("mesh.num_colors", coloring.num_colors() as f64);
    }
    let iters_total: usize = seen.iters.iter().sum();
    report.set(
        "solver.cg_iters_per_step",
        iters_total as f64 / steps as f64,
    );
    report.set("solver.cg_unconverged_steps", seen.unconverged as f64);
    report.set(
        "solver.divergence_reduction",
        stats::median(&seen.div_reduction),
    );

    // The step the attribution is held against: index 1 of a repetition,
    // the first warm-started one (later steps repeat it).
    attribute(
        &mut p,
        shape,
        seen.iters[1.min(steps - 1)],
        ctx,
        tr,
        gate,
        report,
    );
    probes::triad(ctx, report);
    let gb_per_s = |name| report.metrics.get(name).copied().unwrap_or(0.0);
    let bw_frac = gb_per_s("solver.projop_gb_per_s") / gb_per_s("machine.triad_gb_per_s");
    report.set("solver.projop_bw_frac", bw_frac);
}

/// Appends the seconds `f` took to `secs`.
fn timed<R>(secs: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    secs.push(t0.elapsed().as_secs_f64());
    out
}

/// Attributes the reference step to the public calls it is made of: each
/// is timed on the inputs the step itself feeds it, then weighted by how
/// often the step calls it. What is left (state clones, nodal updates,
/// kinetic energy) is reported as `solver.unattributed_frac`, not hidden.
fn attribute(
    p: &mut Prepared,
    shape: &Shape,
    ref_iters: usize,
    ctx: &Ctx,
    tr: &mut Tracer,
    gate: &mut Gate,
    report: &mut Report,
) {
    let mesh: &TetMesh = &p.mesh;
    let (n, rho, dt) = (mesh.num_nodes(), p.cfg.props.density, p.cfg.dt);
    let mass = p.parts.mass.as_slice();

    // State entering the reference step.
    p.solver.reset(&p.init);
    p.solver.step(VARIANT);
    let u0 = p.solver.velocity().clone();
    let pr0 = p.solver.pressure().clone();
    let temperature = ScalarField::zeros(n);

    // The step's own momentum prediction, from public pieces.
    let assemble = |state: &VectorField| {
        let input = AssemblyInput::new(mesh, state, &pr0, &temperature)
            .props(p.cfg.props)
            .body_force(p.cfg.body_force)
            .vreman_c(p.cfg.vreman_c);
        if shape.parallel {
            assemble_parallel(VARIANT, &input, &p.parts.strategy)
        } else {
            assemble_serial(VARIANT, &input)
        }
    };
    let euler_stage = |state: &VectorField| {
        let rhs = assemble(state);
        let mut out = state.clone();
        for (node, m) in mass.iter().enumerate() {
            let m = (m * rho).max(1e-300);
            let (r, mut v) = (rhs.get(node), out.get(node));
            for d in 0..3 {
                v[d] += dt * r[d] / m;
            }
            out.set(node, v);
        }
        p.bc.apply_to_field(&mut out);
        out
    };
    let mut u_star = match shape.scheme {
        TimeScheme::ForwardEuler => euler_stage(&u0),
        TimeScheme::SspRk3 => {
            let mut u2 = euler_stage(&euler_stage(&u0));
            for (w, u) in u2.as_mut_slice().iter_mut().zip(u0.as_slice()) {
                *w = 0.75 * u + 0.25 * *w;
            }
            p.bc.apply_to_field(&mut u2);
            let mut us = euler_stage(&u2);
            for (w, u) in us.as_mut_slice().iter_mut().zip(u0.as_slice()) {
                *w = *u / 3.0 + 2.0 / 3.0 * *w;
            }
            us
        }
    };
    p.bc.apply_to_field(&mut u_star);
    let mut b = poisson::weak_divergence(mesh, &u_star);
    for v in b.as_mut_slice() {
        *v *= rho / dt;
    }
    let op = ProjectionOp {
        mesh,
        mass,
        diag: Cow::Borrowed(p.parts.proj_diag.as_slice()),
    };

    // Each public call, timed on those inputs — in rounds that also time
    // the reference step itself, so all come from the same stretch of wall
    // time; each is then read from the round where it was fastest.
    let mut x = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut scratch = CgScratch::new();
    let mut cg = None;
    let [mut step_s, mut assembly_s, mut weak_div_s, mut cg_s, mut apply_s, mut grad_s] =
        [const { Vec::new() }; 6];
    let t0 = Instant::now();
    while step_s.len() < 3 || t0.elapsed().as_secs_f64() < 6.0 * ctx.probe_budget_s() {
        p.solver.reset(&p.init);
        p.solver.step(VARIANT);
        timed(&mut step_s, || {
            tr.span("solver.step", |_| p.solver.step(VARIANT))
        });
        timed(&mut assembly_s, || {
            tr.span("core.assemble", |_| assemble(&u0))
        });
        timed(&mut weak_div_s, || {
            tr.span("solver.weak_divergence", |_| {
                poisson::weak_divergence(mesh, &u_star)
            })
        });
        x.copy_from_slice(pr0.as_slice());
        cg = Some(timed(&mut cg_s, || {
            tr.span("solver.solve_cg", |_| {
                solve_cg_with(
                    &op,
                    b.as_slice(),
                    &mut x,
                    p.cfg.cg_tol,
                    p.cfg.cg_max_iters,
                    &mut scratch,
                )
            })
        }));
        for _ in 0..10 {
            timed(&mut apply_s, || {
                tr.span("solver.projop_apply", |_| op.apply(&x, &mut y))
            });
        }
        timed(&mut grad_s, || {
            tr.span("solver.weak_gradient_adjoint", |_| {
                poisson::weak_gradient_adjoint(mesh, &x)
            })
        });
    }
    let cg = cg.expect("at least one round ran");
    // The captured system must be the step's own: same convergence, and
    // an iteration count within 5 % (identical while the prediction above
    // mirrors the step statement for statement).
    gate.check(
        cg.converged && cg.iterations.abs_diff(ref_iters) * 20 <= ref_iters,
        || format!("captured pressure system: {cg:?}, the step itself took {ref_iters} iterations"),
    );
    report.note("captured_system_cg_iterations", cg.iterations);
    let [step_s, assembly_s, weak_div_s, cg_s, apply_s, grad_s] =
        [step_s, assembly_s, weak_div_s, cg_s, apply_s, grad_s].map(|v| stats::fastest(&v));
    // Too short a call to time (or span) one at a time.
    let bc_s = 1e-9
        * ns_per_call(1_000, || {
            p.bc.apply_to_field(std::hint::black_box(&mut u_star))
        });

    // Calls per step, read off `FractionalStep::step`.
    let rhs_evals = shape.scheme.rhs_evals() as f64;
    let bc_calls = match shape.scheme {
        TimeScheme::ForwardEuler => 3.0,
        TimeScheme::SspRk3 => 6.0,
    };
    let projop_total = (ref_iters + 1) as f64 * apply_s;
    let shares = [
        ("solver.projop_share", projop_total),
        ("solver.cg_vecops_share", (cg_s - projop_total).max(0.0)),
        ("solver.assembly_share", rhs_evals * assembly_s),
        ("solver.weak_div_share", 3.0 * weak_div_s),
        ("solver.grad_adjoint_share", grad_s),
        ("solver.bc_share", bc_calls * bc_s),
    ];
    let mut attributed = 0.0;
    for (name, secs) in shares {
        report.set(name, secs / step_s);
        attributed += secs / step_s;
    }
    report.set("solver.unattributed_frac", 1.0 - attributed);
    report.note("attributed_over_step", attributed);
    report.set("solver.step_ref_ms", step_s * 1e3);
    report.set("solver.projop_apply_ms", apply_s * 1e3);
    report.set("solver.cg_solve_ms", cg_s * 1e3);
    report.set("solver.assembly_ms", assembly_s * 1e3);
    report.set("solver.weak_div_ms", weak_div_s * 1e3);
    report.set("solver.grad_adjoint_ms", grad_s * 1e3);
    report.set("fem.bc_apply_us", bc_s * 1e6);

    // Compulsory traffic of one operator apply, computed from array sizes
    // (cache misses ignored): two element sweeps each read connectivity
    // (16 B/element) and coordinates (24 B/node); per node the operator
    // reads x and the mass (8 B each), writes, scales and reads the 24 B
    // gradient (3 × 24 B), and writes then copies the divergence (3 × 8 B).
    let bytes = 2 * (16 * mesh.num_elements() + 24 * n) + n * (8 + 8 + 3 * 24 + 3 * 8);
    report.set("solver.projop_bytes_per_apply", bytes as f64);
    report.set("solver.projop_gb_per_s", bytes as f64 / apply_s * 1e-9);
}
