//! Cross-crate integration tests: mesh → FEM → assembly → solver,
//! end to end.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError};

use alya_core::drivers::SHARD_AUTO_MIN_ELEMS_PER_WORKER;
use alya_core::{assemble_parallel, assemble_serial, ParallelStrategy, Variant};
use alya_fem::bc::DirichletBc;
use alya_fem::material::ConstantProperties;
use alya_fem::{ScalarField, VectorField};
use alya_mesh::{BoxMeshBuilder, TerrainMeshBuilder, TetMesh};
use alya_solver::cg::LinOp;
use alya_solver::poisson;
use alya_solver::step::{CaseParts, FractionalStep, StepConfig, StepStats, TimeScheme};
use alya_solver::{solve_cg_with, CgScratch, CsrMatrix};

/// Held by every test here that moves the process-wide thread cap, so one
/// test's cap never lands in the middle of another's.
static THREAD_CAP: Mutex<()> = Mutex::new(());

#[test]
fn terrain_mesh_through_full_pipeline() {
    let mesh = TerrainMeshBuilder::new(10, 10, 5).build();
    let velocity = VectorField::from_fn(&mesh, |p| [p[2], 0.1 * p[0], -0.05 * p[1]]);
    let pressure = ScalarField::from_fn(&mesh, |p| p[0] * p[1]);
    let temperature = ScalarField::zeros(mesh.num_nodes());
    let input = alya_core::AssemblyInput::new(&mesh, &velocity, &pressure, &temperature)
        .props(ConstantProperties::AIR);

    let serial = assemble_serial(Variant::Rspr, &input);
    let parallel = assemble_parallel(Variant::Rspr, &input, &ParallelStrategy::colored(&mesh));
    assert!(serial.norm() > 0.0);
    let dev = serial.max_abs_diff(&parallel) / serial.max_abs();
    assert!(dev < 1e-12, "serial/parallel deviation {dev}");
}

#[test]
fn les_time_loop_conserves_sanity() {
    let mesh = BoxMeshBuilder::new(6, 6, 6).build();
    let mut config = StepConfig::default();
    config.dt = 1e-3;
    config.props = ConstantProperties {
        density: 1.0,
        viscosity: 1e-3,
    };
    let mut solver = FractionalStep::new(&mesh, config);
    solver.set_bc(DirichletBc::no_slip_ground(&mesh, 1e-9));
    solver.set_velocity(|p| {
        [
            0.2 * (std::f64::consts::PI * p[2]).sin(),
            0.1 * (std::f64::consts::PI * p[0]).sin(),
            0.0,
        ]
    });
    let mut last_div = f64::INFINITY;
    for _ in 0..5 {
        let s = solver.step(Variant::Rsp);
        assert!(s.cg.converged, "pressure solve failed");
        assert!(s.kinetic_energy.is_finite());
        last_div = s.divergence_after;
    }
    // After a few projections the velocity is (weakly) divergence-free.
    assert!(last_div < 1e-4, "divergence {last_div}");
}

#[test]
fn every_variant_drives_the_solver_identically() {
    let mesh = BoxMeshBuilder::new(4, 4, 4).build();
    let mut kes = Vec::new();
    for variant in Variant::ALL {
        let mut solver = FractionalStep::new(&mesh, StepConfig::default());
        solver.set_velocity(|p| [0.1 * p[2] * p[2], -0.05 * p[0], 0.0]);
        let s = solver.run(variant, 3).unwrap();
        kes.push(s.kinetic_energy);
    }
    for w in kes.windows(2) {
        let rel = (w[0] - w[1]).abs() / w[0].max(1e-30);
        assert!(rel < 1e-10, "trajectories diverged: {kes:?}");
    }
}

#[test]
fn dirichlet_bcs_survive_the_step() {
    let mesh = BoxMeshBuilder::new(5, 5, 5).build();
    let mut solver = FractionalStep::new(&mesh, StepConfig::default());
    let bc = DirichletBc::no_slip_ground(&mesh, 1e-9);
    solver.set_bc(bc);
    solver.set_velocity(|p| [p[2], 0.0, 0.0]);
    solver.step(Variant::Rs);
    for (n, p) in mesh.coords().iter().enumerate() {
        if p[2] <= 1e-9 {
            assert_eq!(solver.velocity().get(n), [0.0; 3], "node {n} slipped");
        }
    }
}

#[test]
fn nut_pass_and_inline_vreman_agree_through_assembly() {
    // The baseline (nut pass) and specialized (inline) paths must inject
    // the same turbulent viscosity into the physics.
    let mesh = TerrainMeshBuilder::new(6, 6, 3).build();
    let velocity = VectorField::from_fn(&mesh, |p| [p[2] * p[2], p[0] * p[1] * 0.1, 0.0]);
    let pressure = ScalarField::zeros(mesh.num_nodes());
    let temperature = ScalarField::zeros(mesh.num_nodes());
    let input = alya_core::AssemblyInput::new(&mesh, &velocity, &pressure, &temperature);
    let b = assemble_serial(Variant::B, &input); // runs the nut pass inside
    let rs = assemble_serial(Variant::Rs, &input); // inline Vreman
    let dev = b.max_abs_diff(&rs) / rs.max_abs();
    assert!(dev < 1e-11, "nu_t paths disagree: {dev}");
}

#[test]
fn laplacian_consistent_with_assembly_diffusion() {
    // Pure-diffusion assembly equals -mu * L u (component-wise) when
    // convection, pressure, forcing and turbulence are off.
    let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(3).build();
    let velocity = VectorField::from_fn(&mesh, |p| [p[0] * p[2], p[1], p[0] + p[2]]);
    let pressure = ScalarField::zeros(mesh.num_nodes());
    let temperature = ScalarField::zeros(mesh.num_nodes());
    let mu = 0.7;
    let input = alya_core::AssemblyInput::new(&mesh, &velocity, &pressure, &temperature).props(
        ConstantProperties {
            density: 0.0, // kills convection, forcing and rho*nut
            viscosity: mu,
        },
    );
    let rhs = assemble_serial(Variant::Rsp, &input);

    let lap = poisson::laplacian(&mesh);
    for d in 0..3 {
        let mut lu = vec![0.0; mesh.num_nodes()];
        lap.spmv(velocity.component(d), &mut lu);
        for n in 0..mesh.num_nodes() {
            let expect = -mu * lu[n];
            let got = rhs.get(n)[d];
            assert!(
                (got - expect).abs() < 1e-11,
                "node {n} comp {d}: {got} vs {expect}"
            );
        }
    }
}

/// One fractional step composed, statement for statement, from the public
/// *uncached* sweeps (`weak_divergence`, `weak_gradient_adjoint` — each
/// recomputes the tet geometry per element and allocates its result) around
/// a Jacobi-CG solve of `op`, the pressure operator under test, assembling
/// with `Variant::Rsp`. Returns the new velocity, pressure and stats.
fn reference_step(
    mesh: &TetMesh,
    parts: &CaseParts,
    op: &impl LinOp,
    bc: &DirichletBc,
    cfg: &StepConfig,
    velocity: &VectorField,
    pressure: &ScalarField,
) -> (VectorField, ScalarField, StepStats) {
    let (n, rho, dt) = (mesh.num_nodes(), cfg.props.density, cfg.dt);
    let mass = parts.mass.as_slice();
    let temperature = ScalarField::zeros(n);
    let euler_stage = |state: &VectorField| {
        let input = alya_core::AssemblyInput::new(mesh, state, pressure, &temperature)
            .props(cfg.props)
            .body_force(cfg.body_force)
            .vreman_c(cfg.vreman_c);
        let rhs = if cfg.parallel {
            assemble_parallel(Variant::Rsp, &input, &parts.strategy)
        } else {
            assemble_serial(Variant::Rsp, &input)
        };
        let mut out = state.clone();
        for (node, m) in mass.iter().enumerate() {
            let m = (m * rho).max(1e-300);
            let (r, mut v) = (rhs.get(node), out.get(node));
            for d in 0..3 {
                v[d] += dt * r[d] / m;
            }
            out.set(node, v);
        }
        bc.apply_to_field(&mut out);
        out
    };
    let mut u_star = match cfg.scheme {
        TimeScheme::ForwardEuler => euler_stage(velocity),
        TimeScheme::SspRk3 => {
            let mut u2 = euler_stage(&euler_stage(velocity));
            for (w, u) in u2.as_mut_slice().iter_mut().zip(velocity.as_slice()) {
                *w = 0.75 * u + 0.25 * *w;
            }
            bc.apply_to_field(&mut u2);
            let mut us = euler_stage(&u2);
            for (w, u) in us.as_mut_slice().iter_mut().zip(velocity.as_slice()) {
                *w = *u / 3.0 + 2.0 / 3.0 * *w;
            }
            us
        }
    };
    bc.apply_to_field(&mut u_star);
    let divergence_before = poisson::weak_divergence(mesh, &u_star).norm();
    let mut b = poisson::weak_divergence(mesh, &u_star);
    for v in b.as_mut_slice() {
        *v *= rho / dt;
    }
    let mut p = pressure.as_slice().to_vec();
    let cg = solve_cg_with(
        op,
        b.as_slice(),
        &mut p,
        cfg.cg_tol,
        cfg.cg_max_iters,
        &mut CgScratch::new(),
    );
    let grad_p = poisson::weak_gradient_adjoint(mesh, &p);
    for (node, m) in mass.iter().enumerate() {
        let m = m.max(1e-300);
        let (g, mut v) = (grad_p.get(node), u_star.get(node));
        for d in 0..3 {
            v[d] -= dt / rho * g[d] / m;
        }
        u_star.set(node, v);
    }
    bc.apply_to_field(&mut u_star);
    let stats = StepStats {
        divergence_before,
        divergence_after: poisson::weak_divergence(mesh, &u_star).norm(),
        cg,
        kinetic_energy: u_star.kinetic_energy(),
    };
    (u_star, ScalarField::from_values(p), stats)
}

/// The case's assembled `D M⁻¹ Dᵀ` as the step solves with it: Jacobi on
/// the stiffness diagonal, not on the matrix's own.
struct CaseMatrix<'a> {
    a: &'a CsrMatrix,
    diag: &'a [f64],
}

impl LinOp for CaseMatrix<'_> {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.spmv(x, y);
    }

    fn dim(&self) -> usize {
        self.a.num_rows()
    }

    fn precond_diagonal(&self) -> Vec<f64> {
        self.diag.to_vec()
    }
}

/// `max |a − b| / max |b|`, the benchmark's oracle norm.
fn rel_err_max(a: &[f64], b: &[f64]) -> f64 {
    let diff = a
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    diff / b.iter().fold(0.0f64, |m, y| m.max(y.abs()))
}

/// The step against its recomposition around each form of the pressure
/// operator. Around the case's assembled matrix (`CaseParts::projection`,
/// what the step itself solves with) velocity, pressure, `CgResult` and the
/// three diagnostics match **bit for bit**. Around the uncached
/// `ProjectionOp` (the benchmark's oracle) the matrix sums the same
/// products in another order, so: same convergence, iterations within ±2,
/// velocity and pressure within `100 × cg_tol` in relative max-norm — the
/// pressure solve stops at a relative residual of `cg_tol`, so two correct
/// forms of one operator may end a step that far apart.
#[test]
fn step_is_its_recomposition_bitwise_on_the_case_matrix_and_to_cg_tolerance_on_the_oracle() {
    let mesh = Arc::new(BoxMeshBuilder::new(4, 4, 3).jitter(0.12).seed(9).build());
    let parts = CaseParts::build(&mesh);
    let bc = DirichletBc::no_slip_ground(&mesh, 1e-9);
    let init = VectorField::from_fn(&mesh, |p| {
        [
            0.3 * (std::f64::consts::PI * p[2]).sin() + 0.1 * p[1],
            0.2 * (2.0 * p[0]).cos() * p[2],
            0.1 * p[0] * p[1],
        ]
    });
    let oracle = poisson::ProjectionOp {
        mesh: &mesh,
        mass: parts.mass.as_slice(),
        diag: Cow::Borrowed(parts.proj_diag.as_slice()),
    };
    let assembled = CaseMatrix {
        a: parts.projection(&mesh),
        diag: parts.proj_diag.as_slice(),
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (scheme, parallel) in [
        (TimeScheme::ForwardEuler, false),
        (TimeScheme::SspRk3, true),
    ] {
        let mut cfg = StepConfig::default();
        cfg.dt = 5e-4;
        cfg.scheme = scheme;
        cfg.parallel = parallel;
        cfg.props = ConstantProperties {
            density: 1.2,
            viscosity: 1e-2,
        };
        let mut borrowed = FractionalStep::new(&mesh, cfg.clone());
        let mut shared =
            FractionalStep::from_shared_parts(Arc::clone(&mesh), cfg.clone(), parts.clone());
        for solver in [&mut borrowed, &mut shared] {
            solver.set_bc(bc.clone());
            solver.reset(&init);
            for step in 0..3 {
                let (state, pressure) = (solver.velocity(), solver.pressure());
                let exact = reference_step(&mesh, &parts, &assembled, &bc, &cfg, state, pressure);
                let (u, p, want) =
                    reference_step(&mesh, &parts, &oracle, &bc, &cfg, state, pressure);
                let got = solver.step(Variant::Rsp);
                let at = format!("{scheme:?} step {step}");
                assert!(
                    got.cg.converged && got.cg.iterations > 5,
                    "{at}: {:?}",
                    got.cg
                );

                assert_eq!(got.cg, exact.2.cg, "{at}");
                assert_eq!(
                    bits(solver.velocity().as_slice()),
                    bits(exact.0.as_slice()),
                    "{at}"
                );
                assert_eq!(
                    bits(solver.pressure().as_slice()),
                    bits(exact.1.as_slice()),
                    "{at}"
                );
                for (g, w) in [
                    (got.divergence_before, exact.2.divergence_before),
                    (got.divergence_after, exact.2.divergence_after),
                    (got.kinetic_energy, exact.2.kinetic_energy),
                ] {
                    assert_eq!(g.to_bits(), w.to_bits(), "{at}: {g:e} vs {w:e}");
                }

                assert_eq!(got.cg.converged, want.cg.converged, "{at}");
                assert!(
                    got.cg.iterations.abs_diff(want.cg.iterations) <= 2,
                    "{at}: {:?} vs {:?}",
                    got.cg,
                    want.cg
                );
                let tol = 100.0 * cfg.cg_tol;
                for (what, g, w) in [
                    ("velocity", solver.velocity().as_slice(), u.as_slice()),
                    ("pressure", solver.pressure().as_slice(), p.as_slice()),
                ] {
                    let err = rel_err_max(g, w);
                    assert!(err <= tol, "{at}: {what} off the oracle by {err:e}");
                }
            }
        }
    }
}

/// The parallel step on the cell it now runs: one packed shard per worker
/// where the mesh feeds two, the packed serial loop where it does not —
/// never a colouring. Bitwise repeatable within a thread cap (the shard
/// count is fixed when the case is built), and the serial step to the
/// pressure solve's tolerance across caps and against `parallel: false`.
#[test]
fn parallel_rk3_step_is_repeatable_per_cap_and_agrees_with_the_serial_step() {
    use alya_bench::case::Case;
    use alya_machine::par;
    for elems in [1536, 24_000] {
        let mesh = Case::bolund(elems).mesh;
        let name = CaseParts::build(&mesh).strategy.name();
        assert_ne!(name, "colored", "{elems} elements");
    }

    let mesh = Arc::new(BoxMeshBuilder::new(12, 12, 10).jitter(0.1).seed(5).build());
    assert!(mesh.num_elements() >= 8000);
    let bc = DirichletBc::no_slip_ground(&mesh, 1e-9);
    let init = VectorField::from_fn(&mesh, |p| {
        [
            0.3 * (std::f64::consts::PI * p[2]).sin() + 0.1 * p[1],
            0.2 * (2.0 * p[0]).cos() * p[2],
            0.1 * p[0] * p[1],
        ]
    });
    let mut cfg = StepConfig::default();
    cfg.dt = 5e-4;
    cfg.scheme = TimeScheme::SspRk3;
    cfg.props = ConstantProperties {
        density: 1.2,
        viscosity: 1e-2,
    };
    // Three steps from the rewound state: final velocity and pressure.
    let run = |solver: &mut FractionalStep<'_>| {
        solver.reset(&init);
        for _ in 0..3 {
            assert!(solver.step(Variant::Rsp).cg.converged);
        }
        let (u, p) = (solver.velocity(), solver.pressure());
        (u.as_slice().to_vec(), p.as_slice().to_vec())
    };
    let mut serial = FractionalStep::new(&mesh, cfg.clone());
    serial.set_bc(bc.clone());
    let want = run(&mut serial);

    let _cap = THREAD_CAP.lock().unwrap_or_else(PoisonError::into_inner);
    cfg.parallel = true;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for cap in [1, 2] {
        par::set_thread_cap(Some(cap));
        let parts = CaseParts::build(&mesh);
        assert_ne!(parts.strategy.name(), "colored", "cap {cap}");
        let mut solver = FractionalStep::from_shared_parts(Arc::clone(&mesh), cfg.clone(), parts);
        solver.set_bc(bc.clone());
        let first = run(&mut solver);
        for _ in 0..2 {
            let again = run(&mut solver);
            assert_eq!(bits(&again.0), bits(&first.0), "cap {cap}: velocity");
            assert_eq!(bits(&again.1), bits(&first.1), "cap {cap}: pressure");
        }
        let tol = 100.0 * cfg.cg_tol;
        for (what, got, want) in [
            ("velocity", &first.0, &want.0),
            ("pressure", &first.1, &want.1),
        ] {
            let err = rel_err_max(got, want);
            assert!(
                err <= tol,
                "cap {cap}: {what} off the serial step by {err:e}"
            );
        }
    }
    par::set_thread_cap(None);
}

/// The pressure solve on the case's workers is the serial solve. A case
/// sharded for two workers, stepped three times at thread cap 2 (every CG
/// iteration, its dot products included, split by rows over a two-member
/// team) and at cap 1 (the whole solve on the calling thread): velocity,
/// pressure, every `CgResult` and every step's divergence and kinetic
/// energy diagnostics are equal bit for bit.
#[test]
fn a_pressure_solve_split_over_the_workers_is_the_serial_solve_bitwise() {
    use alya_machine::par;
    let mesh = Arc::new(BoxMeshBuilder::new(12, 12, 10).jitter(0.1).seed(5).build());
    assert!(mesh.num_elements() >= 2 * SHARD_AUTO_MIN_ELEMS_PER_WORKER);
    let parts = CaseParts {
        strategy: Arc::new(ParallelStrategy::auto_with(&mesh, 2)),
        ..CaseParts::build(&mesh)
    };
    assert_eq!(parts.strategy.name(), "sharded");
    let bc = DirichletBc::no_slip_ground(&mesh, 1e-9);
    let init = VectorField::from_fn(&mesh, |p| {
        [
            0.3 * (std::f64::consts::PI * p[2]).sin() + 0.1 * p[1],
            0.2 * (2.0 * p[0]).cos() * p[2],
            0.1 * p[0] * p[1],
        ]
    });
    let mut cfg = StepConfig::default();
    cfg.dt = 5e-4;
    cfg.scheme = TimeScheme::SspRk3;
    cfg.parallel = true;
    cfg.props = ConstantProperties {
        density: 1.2,
        viscosity: 1e-2,
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let _cap = THREAD_CAP.lock().unwrap_or_else(PoisonError::into_inner);
    let run = |cap: usize| {
        par::set_thread_cap(Some(cap));
        let mut solver =
            FractionalStep::from_shared_parts(Arc::clone(&mesh), cfg.clone(), parts.clone());
        solver.set_bc(bc.clone());
        solver.reset(&init);
        let stats: Vec<StepStats> = (0..3).map(|_| solver.step(Variant::Rsp)).collect();
        par::set_thread_cap(None);
        let (u, p) = (solver.velocity(), solver.pressure());
        (stats, bits(u.as_slice()), bits(p.as_slice()))
    };
    let diagnostics = |s: &StepStats| {
        [s.divergence_before, s.divergence_after, s.kinetic_energy].map(f64::to_bits)
    };
    let (split, serial) = (run(2), run(1));
    for (step, (got, want)) in split.0.iter().zip(&serial.0).enumerate() {
        assert!(got.cg.converged && got.cg.iterations > 5, "{:?}", got.cg);
        assert_eq!(got.cg, want.cg, "step {step}: CgResult");
        assert_eq!(
            diagnostics(got),
            diagnostics(want),
            "step {step}: diagnostics"
        );
    }
    assert!(split.1 == serial.1, "velocity");
    assert!(split.2 == serial.2, "pressure");
}

/// FNV-1a digest of a solver's velocity, then its pressure, folded the way
/// `alya-serve` digests a retired step session.
fn state_digest(solver: &FractionalStep<'_>) -> u64 {
    let h = alya_serve::digest_bits(0xcbf2_9ce4_8422_2325, solver.velocity().as_slice());
    alya_serve::digest_bits(h, solver.pressure().as_slice())
}

/// Absolute bits of three steps from the terrain case's snapshot (the
/// benchmark's `dt`, properties and body force, no boundary conditions,
/// `Variant::Rsp`), at the benchmark's two sizes: ForwardEuler serial at
/// 1536 and 24 000 elements, and SspRk3 `parallel` at 24 000 on a case
/// sharded for two workers whatever the host offers. A change that moves
/// any of these bits re-records them here, in its own commit, with the
/// distance of the new state from the old.
///
/// Re-recorded once, when the CG's dot products became sums over fixed
/// 128-row blocks combined in a pairwise tree (`4eb1647920fb836a`,
/// `07e432ca072282bd` and `e86c8f5d369f53c6` before). The new states lie
/// from the old, in relative max-norm, velocity / pressure: 3.4e-11 /
/// 5.4e-11 at 1536 elements, 7.9e-10 / 8.3e-10 at 24 000 ForwardEuler and
/// 3.0e-10 / 3.0e-10 at 24 000 SspRk3 — all far inside 100 × `cg_tol` =
/// 1e-6. The first solve of each 24 000-element case takes 310
/// iterations instead of 311, and 159 instead of 160 at 1536.
#[test]
fn three_steps_from_the_terrain_snapshot_keep_their_digests() {
    use alya_bench::case::Case;
    for (elems, scheme, parallel, want) in [
        (
            1536,
            TimeScheme::ForwardEuler,
            false,
            0x260d_c032_5e33_b4d4_u64,
        ),
        (
            24_000,
            TimeScheme::ForwardEuler,
            false,
            0xa0a0_2a83_87a8_08c1,
        ),
        (24_000, TimeScheme::SspRk3, true, 0xd5ef_3bd2_83fa_0317),
    ] {
        let case = Case::bolund(elems);
        let mesh = Arc::new(case.mesh);
        let parts = CaseParts {
            strategy: Arc::new(ParallelStrategy::auto_with(&mesh, 2)),
            ..CaseParts::build(&mesh)
        };
        let cfg = StepConfig {
            dt: 5e-4,
            scheme,
            props: case.props,
            body_force: case.body_force,
            parallel,
            ..StepConfig::default()
        };
        let mut solver = FractionalStep::from_shared_parts(Arc::clone(&mesh), cfg, parts);
        solver.reset(&case.velocity);
        for _ in 0..3 {
            assert!(solver.step(Variant::Rsp).cg.converged);
        }
        let got = state_digest(&solver);
        assert_eq!(
            got, want,
            "{elems} elements, {scheme:?}: {got:#018x} != {want:#018x}"
        );
    }
}
