//! Explicit fractional-step integrator.
//!
//! One time step, the structure the paper's kernel lives in:
//!
//! 1. **Momentum prediction** — assemble the RHS with any of the paper's
//!    variants (`alya-core`) and advance `u* = u + Δt M⁻¹ R(u)`;
//! 2. **Pressure projection** — solve `(D M⁻¹ Dᵀ) p = (ρ/Δt) D u*` by
//!    Jacobi-CG over the case's assembled matrix;
//! 3. **Correction** — `u = u* − (Δt/ρ) M⁻¹ Dᵀ p`;
//! 4. **Boundary conditions** — strong Dirichlet re-imposition.
//!
//! The projection reduces the discrete divergence every step (asserted by
//! tests), which is the property a fractional-step scheme must deliver.
//! The three sweeps a step makes (`D u*`, `Dᵀ p`, `D u`) run from the
//! case's [`GeomTable`]; the ~100 operator applies inside the CG are one
//! CSR row loop each ([`CaseParts::projection`], DESIGN §18), and the
//! whole CG iteration is split by rows over the case's workers when a
//! [`StepConfig::parallel`] step's case is sharded.

use std::sync::{Arc, OnceLock};

use alya_core::{
    assemble_parallel_into, assemble_serial_into, AssemblyInput, ExecMode, ParallelStrategy,
    Variant,
};
use alya_fem::bc::DirichletBc;
use alya_fem::material::ConstantProperties;
use alya_fem::{ScalarField, VectorField};
use alya_machine::par;
use alya_mesh::TetMesh;
use alya_telemetry as telemetry;

use crate::cg::{self, CgResult, CgScratch, DiagonalDivide};
use crate::csr::CsrMatrix;
use crate::poisson::{self, GeomTable};

/// Explicit time-integration scheme for the momentum prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeScheme {
    /// One RHS evaluation per step.
    #[default]
    ForwardEuler,
    /// Three-stage SSP Runge–Kutta — three RHS evaluations per step, the
    /// structure behind the paper's runtime convention (the RHS assembly
    /// is evaluated three times per reported "runtime").
    SspRk3,
}

impl TimeScheme {
    /// RHS assemblies performed per step.
    pub fn rhs_evals(self) -> usize {
        match self {
            TimeScheme::ForwardEuler => 1,
            TimeScheme::SspRk3 => 3,
        }
    }
}

/// Integrator configuration.
#[derive(Debug, Clone)]
pub struct StepConfig {
    /// Time-step size.
    pub dt: f64,
    /// Time scheme for the momentum prediction.
    pub scheme: TimeScheme,
    /// Fluid properties.
    pub props: ConstantProperties,
    /// Uniform body force.
    pub body_force: [f64; 3],
    /// Vreman constant.
    pub vreman_c: f64,
    /// CG relative tolerance for the pressure solve.
    pub cg_tol: f64,
    /// CG iteration cap.
    pub cg_max_iters: usize,
    /// Run the step on `alya_machine::par`'s worker threads: assemble the
    /// momentum RHS through [`CaseParts::strategy`], and — when that
    /// strategy is sharded, i.e. the mesh has enough elements for every
    /// worker — run the whole pressure-CG iteration (products, dots,
    /// updates and the Jacobi divide) on a team of the same workers, each
    /// owning a range of rows, bitwise the one-thread solve at any worker
    /// count. Everything runs on the calling thread otherwise.
    pub parallel: bool,
}

impl Default for StepConfig {
    fn default() -> Self {
        Self {
            dt: 1e-3,
            scheme: TimeScheme::default(),
            props: ConstantProperties::UNIT,
            body_force: [0.0; 3],
            vreman_c: alya_fem::turbulence::VREMAN_C,
            cg_tol: 1e-8,
            cg_max_iters: 500,
            parallel: false,
        }
    }
}

/// Per-step diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// `‖∇·u‖` before the projection.
    pub divergence_before: f64,
    /// `‖∇·u‖` after the projection.
    pub divergence_after: f64,
    /// Pressure-solve convergence.
    pub cg: CgResult,
    /// Kinetic energy after the step.
    pub kinetic_energy: f64,
}

/// How a solver holds its mesh: borrowed for the classic standalone use,
/// `Arc`-shared when many pooled sessions of the same case share one
/// immutable mesh copy-on-write (they only ever read it, so "write" never
/// happens and the Arc is never cloned deeply).
enum MeshHandle<'m> {
    Borrowed(&'m TetMesh),
    Shared(Arc<TetMesh>),
}

impl MeshHandle<'_> {
    fn get(&self) -> &TetMesh {
        match self {
            MeshHandle::Borrowed(m) => m,
            MeshHandle::Shared(m) => m,
        }
    }
}

/// The immutable per-case data every session of the same case shares:
/// the Poisson preconditioner diagonal, the lumped mass, the parallel
/// assembly strategy, the element geometry table the step's three sweeps
/// run from, and the assembled projection operator its pressure CG runs
/// over. Built once per case, `Arc`-cloned into each
/// [`FractionalStep`] (the serve pool's copy-on-write story).
#[derive(Clone)]
pub struct CaseParts {
    /// The P1 stiffness diagonal: still the pressure CG's Jacobi
    /// preconditioner (*not* the diagonal of [`Self::proj`]), so iteration
    /// counts are those of Jacobi-CG on the uncached `ProjectionOp`.
    pub proj_diag: Arc<Vec<f64>>,
    /// Lumped mass.
    pub mass: Arc<Vec<f64>>,
    /// What a `parallel` step assembles through:
    /// [`ParallelStrategy::auto`] for the mesh and the worker count at
    /// build time — one shard per worker, or the serial loop on a mesh too
    /// small to feed them; never a colouring.
    pub strategy: Arc<ParallelStrategy>,
    /// `∇N_a` and volume of every element (104 B each).
    pub geom: Arc<GeomTable>,
    /// `D M⁻¹ Dᵀ` assembled (12 B per nonzero, 41–54 nonzeros per node).
    /// Empty until the first step of any session of the case: a case that
    /// only ever assembles never pays its time or bytes, and a case that
    /// steps builds it after `build`'s transients are freed (DESIGN §18).
    /// Read it through [`Self::projection`].
    pub proj: Arc<OnceLock<CsrMatrix>>,
}

impl CaseParts {
    /// Assembles the shared parts for `mesh`.
    pub fn build(mesh: &TetMesh) -> Self {
        let geom = GeomTable::build(mesh);
        Self {
            proj_diag: Arc::new(geom.stiffness_diagonal(mesh)),
            mass: Arc::new(poisson::lumped_mass(mesh)),
            strategy: Arc::new(ParallelStrategy::auto(mesh)),
            geom: Arc::new(geom),
            proj: Arc::default(),
        }
    }

    /// The case's projection operator on `mesh` (the mesh the parts were
    /// built from), assembled by whichever caller gets here first.
    pub fn projection(&self, mesh: &TetMesh) -> &CsrMatrix {
        self.proj
            .get_or_init(|| self.geom.projection_matrix(mesh, &self.mass))
    }
}

/// The fractional-step solver state.
pub struct FractionalStep<'m> {
    mesh: MeshHandle<'m>,
    config: StepConfig,
    velocity: VectorField,
    pressure: ScalarField,
    temperature: ScalarField,
    bc: DirichletBc,
    parts: CaseParts,
    /// The pressure CG's vectors, cut for the members a solve runs on.
    cg_scratch: CgScratch,
    pressure_scratch: Vec<f64>,
    /// The RK stages; `stages[0]` ends the prediction as `u*`, becomes the
    /// corrected velocity and is swapped with `velocity`. Like the CG
    /// scratch, this and the three below are sized by the first step (a
    /// pooled slot that only ever assembles never pays for them) and kept.
    stages: [VectorField; 2],
    /// The momentum RHS every stage assembles into.
    rhs_scratch: VectorField,
    /// `Dᵀ p` of the correction.
    grad_scratch: VectorField,
    /// `D u*` (the pressure RHS), then `D u` of the corrected velocity.
    div_scratch: ScalarField,
    time: f64,
}

impl<'m> FractionalStep<'m> {
    /// Builds the solver (assembles the Poisson preconditioner once).
    pub fn new(mesh: &'m TetMesh, config: StepConfig) -> Self {
        // The Neumann projection operator is singular (constants); CG
        // handles the semidefinite system as long as the RHS is de-meaned,
        // and the solution is de-meaned afterwards.
        let parts = CaseParts::build(mesh);
        Self::assemble_state(MeshHandle::Borrowed(mesh), config, parts)
    }

    /// Builds a solver over shared immutable case data: the mesh and
    /// [`CaseParts`] are `Arc`s owned by the case, so N pooled sessions
    /// of the same case cost one mesh + one preconditioner, not N.
    pub fn from_shared_parts(
        mesh: Arc<TetMesh>,
        config: StepConfig,
        parts: CaseParts,
    ) -> FractionalStep<'static> {
        FractionalStep::assemble_state(MeshHandle::Shared(mesh), config, parts)
    }

    fn assemble_state(
        mesh: MeshHandle<'_>,
        config: StepConfig,
        parts: CaseParts,
    ) -> FractionalStep<'_> {
        let n = mesh.get().num_nodes();
        FractionalStep {
            mesh,
            config,
            velocity: VectorField::zeros(n),
            pressure: ScalarField::zeros(n),
            temperature: ScalarField::zeros(n),
            bc: DirichletBc::new(),
            parts,
            cg_scratch: CgScratch::new(),
            pressure_scratch: Vec::new(),
            stages: [VectorField::zeros(0), VectorField::zeros(0)],
            rhs_scratch: VectorField::zeros(0),
            grad_scratch: VectorField::zeros(0),
            div_scratch: ScalarField::zeros(0),
            time: 0.0,
        }
    }

    /// The mesh this solver integrates on.
    pub fn mesh(&self) -> &TetMesh {
        self.mesh.get()
    }

    /// Rewinds the solver to `t = 0` with the given initial velocity,
    /// zero pressure/temperature and the current boundary conditions —
    /// without allocating, which is what lets a pooled slot re-admit a
    /// session warm. The CG/pressure scratch is deliberately kept: every
    /// work vector is fully overwritten before it is read, so a reused
    /// slot is bitwise identical to a fresh one (pinned by tests).
    pub fn reset(&mut self, velocity: &VectorField) {
        self.velocity
            .as_mut_slice()
            .copy_from_slice(velocity.as_slice());
        for v in self.pressure.as_mut_slice() {
            *v = 0.0;
        }
        for v in self.temperature.as_mut_slice() {
            *v = 0.0;
        }
        self.time = 0.0;
        self.bc.apply_to_field(&mut self.velocity);
    }

    /// Replaces the integrator configuration (a warm re-admission may
    /// carry a different time step or scheme for the same case).
    pub fn set_config(&mut self, config: StepConfig) {
        self.config = config;
    }

    /// Sets the velocity from a function of position.
    pub fn set_velocity(&mut self, f: impl Fn([f64; 3]) -> [f64; 3]) {
        self.velocity = VectorField::from_fn(self.mesh.get(), f);
        self.bc.apply_to_field(&mut self.velocity);
    }

    /// Installs Dirichlet boundary conditions (applied every step).
    pub fn set_bc(&mut self, bc: DirichletBc) {
        self.bc = bc;
        self.bc.apply_to_field(&mut self.velocity);
    }

    /// Current velocity.
    pub fn velocity(&self) -> &VectorField {
        &self.velocity
    }

    /// Current pressure.
    pub fn pressure(&self) -> &ScalarField {
        &self.pressure
    }

    /// Simulated time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// CFL number for the current state (`max |u| Δt / h_min`).
    pub fn cfl(&self) -> f64 {
        let mesh = self.mesh.get();
        let umax = self.velocity.max_abs();
        let mut h_min = f64::INFINITY;
        for e in 0..mesh.num_elements() {
            let q = alya_mesh::quality::tet_quality(&mesh.element_coords(e));
            h_min = h_min.min(q.min_edge);
        }
        umax * self.config.dt / h_min
    }

    /// Advances one time step using `variant` for the momentum assembly.
    pub fn step(&mut self, variant: Variant) -> StepStats {
        let _sp = telemetry::span("fractional-step");
        let mesh = self.mesh.get();
        let cfg = &self.config;
        let n = mesh.num_nodes();
        let rho = cfg.props.density;
        let mass = self.parts.mass.as_slice();
        if self.div_scratch.len() != n {
            self.stages = [VectorField::zeros(n), VectorField::zeros(n)];
            self.rhs_scratch = VectorField::zeros(n);
            self.grad_scratch = VectorField::zeros(n);
            self.div_scratch = ScalarField::zeros(n);
        }
        let [stage_a, stage_b] = &mut self.stages;
        let rhs = &mut self.rhs_scratch;

        // One explicit stage: out = state + dt * M⁻¹ R(state), BCs re-imposed.
        let mut euler_stage = |state: &VectorField, dt: f64, out: &mut VectorField| {
            let stage_input = AssemblyInput::new(mesh, state, &self.pressure, &self.temperature)
                .props(cfg.props)
                .body_force(cfg.body_force)
                .vreman_c(cfg.vreman_c);
            if cfg.parallel {
                let strategy = &self.parts.strategy;
                assemble_parallel_into(variant, &stage_input, strategy, ExecMode::Packed, rhs);
            } else {
                assemble_serial_into(variant, &stage_input, ExecMode::Packed, rhs);
            }
            out.as_mut_slice().copy_from_slice(state.as_slice());
            for node in 0..n {
                let m = (mass[node] * rho).max(1e-300);
                let r = rhs.get(node);
                let mut v = out.get(node);
                for d in 0..3 {
                    v[d] += dt * r[d] / m;
                }
                out.set(node, v);
            }
            self.bc.apply_to_field(out);
        };

        // 1. Momentum prediction (one or three RHS assemblies).
        let predict_span = telemetry::span("momentum-predict");
        match cfg.scheme {
            TimeScheme::ForwardEuler => euler_stage(&self.velocity, cfg.dt, stage_a),
            TimeScheme::SspRk3 => {
                // Shu–Osher form: u1 = u + dt L(u);
                // u2 = 3/4 u + 1/4 (u1 + dt L(u1));
                // u* = 1/3 u + 2/3 (u2 + dt L(u2)).
                euler_stage(&self.velocity, cfg.dt, stage_a);
                euler_stage(stage_a, cfg.dt, stage_b);
                for (w, u0) in stage_b
                    .as_mut_slice()
                    .iter_mut()
                    .zip(self.velocity.as_slice())
                {
                    *w = 0.75 * u0 + 0.25 * *w;
                }
                self.bc.apply_to_field(stage_b);
                euler_stage(stage_b, cfg.dt, stage_a);
                for (w, u0) in stage_a
                    .as_mut_slice()
                    .iter_mut()
                    .zip(self.velocity.as_slice())
                {
                    *w = *u0 / 3.0 + 2.0 / 3.0 * *w;
                }
            }
        }
        let u_star = stage_a;
        self.bc.apply_to_field(u_star);
        drop(predict_span);

        // 2. Pressure projection: solve the *compatible* discrete operator
        // (D M⁻¹ Dᵀ) p = (ρ/Δt) D u*, so the subsequent correction
        // annihilates the weak divergence exactly (up to CG tolerance).
        // The RHS is consistent by construction: ⟨D u*, q⟩ = ⟨u*, Dᵀ q⟩ = 0
        // for every null vector q of Dᵀ — do NOT de-mean (constants are not
        // in this operator's null space; subtracting the mean would inject
        // an inconsistent component that CG amplifies without bound).
        // The sweeps run from the case's geometry table, the CG over its
        // assembled matrix (built here by the case's first step), all into
        // solver-owned scratch: after the first step they allocate nothing
        // but a parallel solve's team threads (counted in tests/alloc.rs).
        let geom = &*self.parts.geom;
        let rhs_span = telemetry::span("pressure-rhs");
        let b = &mut self.div_scratch;
        geom.weak_divergence_into(mesh, u_star, b.as_mut_slice());
        // The projection controls the *weak* divergence D u (what the
        // pressure equation sees); report its norm.
        let divergence_before = b.norm();
        for v in b.as_mut_slice() {
            *v *= rho / cfg.dt;
        }
        // Warm start from the previous step's pressure.
        self.pressure_scratch.clear();
        self.pressure_scratch
            .extend_from_slice(self.pressure.as_slice());
        drop(rhs_span);
        // A case sharded for the workers (`ParallelStrategy::auto`'s rule:
        // enough elements for each) runs the whole CG iteration on a team
        // of them, spawned once per solve, each member owning a range of
        // rows; the blocked reductions make every bit of the solve the
        // one-member solve's.
        let members = match *self.parts.strategy {
            ParallelStrategy::Sharded(_) if cfg.parallel => par::num_threads(),
            _ => 1,
        };
        let cg = cg::pcg(
            self.parts.projection(mesh),
            &DiagonalDivide(&self.parts.proj_diag),
            b.as_slice(),
            &mut self.pressure_scratch,
            cfg.cg_tol,
            cfg.cg_max_iters,
            &mut self.cg_scratch.work,
            members,
        );
        self.pressure
            .as_mut_slice()
            .copy_from_slice(&self.pressure_scratch);

        // 3. Velocity correction with the same Dᵀ the projection operator
        // used: u = u* − (Δt/ρ) M⁻¹ Dᵀ p.
        let correct_span = telemetry::span("velocity-correct");
        let grad_p = &mut self.grad_scratch;
        geom.weak_gradient_adjoint_into(mesh, self.pressure.as_slice(), grad_p);
        for node in 0..n {
            let g = grad_p.get(node);
            let m = mass[node].max(1e-300);
            let mut v = u_star.get(node);
            for d in 0..3 {
                v[d] -= cfg.dt / rho * g[d] / m;
            }
            u_star.set(node, v);
        }

        // 4. Boundary conditions.
        self.bc.apply_to_field(u_star);
        std::mem::swap(&mut self.velocity, u_star);
        self.time += cfg.dt;
        drop(correct_span);

        geom.weak_divergence_into(mesh, &self.velocity, self.div_scratch.as_mut_slice());
        StepStats {
            divergence_before,
            divergence_after: self.div_scratch.norm(),
            cg,
            kinetic_energy: self.velocity.kinetic_energy(),
        }
    }

    /// Runs `n` steps, returning the last stats.
    pub fn run(&mut self, variant: Variant, n: usize) -> Option<StepStats> {
        let mut last = None;
        for _ in 0..n {
            last = Some(self.step(variant));
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_mesh::BoxMeshBuilder;

    fn solver(mesh: &TetMesh) -> FractionalStep<'_> {
        let mut cfg = StepConfig::default();
        cfg.dt = 5e-4;
        cfg.props = ConstantProperties {
            density: 1.0,
            viscosity: 1e-2,
        };
        FractionalStep::new(mesh, cfg)
    }

    #[test]
    fn projection_reduces_divergence() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build();
        let mut s = solver(&mesh);
        // Strongly divergent initial field with zero net boundary flux
        // (u_x = sin(2πx) vanishes on both x faces), so the Neumann
        // projection problem is globally solvable.
        s.set_velocity(|p| [(2.0 * std::f64::consts::PI * p[0]).sin(), 0.0, 0.0]);
        let stats = s.step(Variant::Rsp);
        assert!(stats.cg.converged, "pressure solve failed: {:?}", stats.cg);
        assert!(
            stats.divergence_after < 0.05 * stats.divergence_before,
            "projection too weak: {} -> {}",
            stats.divergence_before,
            stats.divergence_after
        );
    }

    #[test]
    fn rest_state_stays_at_rest() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let mut s = solver(&mesh);
        s.set_velocity(|_| [0.0; 3]);
        let stats = s.step(Variant::Rs);
        assert!(stats.kinetic_energy < 1e-24);
        assert!(stats.divergence_after < 1e-12);
    }

    #[test]
    fn viscosity_decays_kinetic_energy() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build();
        let mut cfg = StepConfig::default();
        cfg.dt = 1e-3;
        cfg.props = ConstantProperties {
            density: 1.0,
            viscosity: 0.5, // very viscous
        };
        let mut s = FractionalStep::new(&mesh, cfg);
        s.set_bc(DirichletBc::no_slip_ground(&mesh, 1e-9));
        // Divergence-free shear-like initial condition.
        s.set_velocity(|p| [(std::f64::consts::PI * p[2]).sin() * 0.1, 0.0, 0.0]);
        let e0 = s.velocity().kinetic_energy();
        let stats = s.run(Variant::Rsp, 5).unwrap();
        assert!(
            stats.kinetic_energy < e0,
            "energy grew: {e0} -> {}",
            stats.kinetic_energy
        );
    }

    #[test]
    fn variants_give_identical_trajectories() {
        let mesh = BoxMeshBuilder::new(3, 3, 2).build();
        let init = |p: [f64; 3]| [0.1 * p[2] * p[2], -0.05 * p[0], 0.02 * p[1]];
        let mut energies = Vec::new();
        for variant in [Variant::B, Variant::Rs, Variant::Rspr] {
            let mut s = solver(&mesh);
            s.set_velocity(init);
            let stats = s.run(variant, 3).unwrap();
            energies.push(stats.kinetic_energy);
        }
        for w in energies.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-12 * w[0].max(1e-30),
                "{energies:?}"
            );
        }
    }

    #[test]
    fn parallel_assembly_path_runs() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let mut cfg = StepConfig::default();
        cfg.parallel = true;
        let mut s = FractionalStep::new(&mesh, cfg);
        s.set_velocity(|p| [0.05 * p[2], 0.0, 0.0]);
        let stats = s.step(Variant::Rspr);
        assert!(stats.cg.converged);
    }

    #[test]
    fn rk3_performs_three_rhs_evals() {
        assert_eq!(TimeScheme::ForwardEuler.rhs_evals(), 1);
        assert_eq!(TimeScheme::SspRk3.rhs_evals(), 3);
    }

    #[test]
    fn rk3_is_more_accurate_on_viscous_decay() {
        // u = (sin(pi z), 0, 0) under pure diffusion (its self-advection is
        // identically zero). The temporal error of each scheme is isolated
        // by comparing against a small-dt reference run on the *same*
        // spatial discretization.
        let mesh = BoxMeshBuilder::new(3, 3, 6).build();
        let nu = 0.5;
        let t_end = 0.04;

        let run = |scheme: TimeScheme, steps: usize| -> f64 {
            let mut cfg = StepConfig::default();
            cfg.dt = t_end / steps as f64;
            cfg.scheme = scheme;
            cfg.props = ConstantProperties {
                density: 1.0,
                viscosity: nu,
            };
            cfg.vreman_c = 0.0; // laminar
            let mut s = FractionalStep::new(&mesh, cfg);
            let mut bc = DirichletBc::new();
            bc.fix_where(&mesh, |p| p[2] < 1e-9 || p[2] > 1.0 - 1e-9, |_| [0.0; 3]);
            s.set_bc(bc);
            s.set_velocity(|p| [(std::f64::consts::PI * p[2]).sin(), 0.0, 0.0]);
            s.run(Variant::Rsp, steps);
            s.velocity().kinetic_energy()
        };

        let reference = run(TimeScheme::SspRk3, 160);
        let fe = (run(TimeScheme::ForwardEuler, 8) - reference).abs();
        let rk3 = (run(TimeScheme::SspRk3, 8) - reference).abs();
        assert!(
            rk3 < 0.2 * fe,
            "RK3 temporal error {rk3} not well below forward-Euler {fe}"
        );
    }

    #[test]
    fn shared_parts_reset_matches_fresh_solver_bitwise() {
        let mesh = Arc::new(BoxMeshBuilder::new(3, 3, 3).build());
        let parts = CaseParts::build(&mesh);
        let init = |p: [f64; 3]| [(2.0 * std::f64::consts::PI * p[0]).sin(), 0.0, 0.05 * p[1]];
        let mut cfg = StepConfig::default();
        cfg.dt = 5e-4;
        let mut fresh = FractionalStep::new(&mesh, cfg.clone());
        fresh.set_velocity(init);
        fresh.run(Variant::Rsp, 3);
        // Shared-parts solver: dirty it with a different run, then reset —
        // the replay must be bitwise identical to the fresh solver.
        let mut pooled = FractionalStep::from_shared_parts(Arc::clone(&mesh), cfg, parts);
        pooled.set_velocity(|p| [0.2 * p[1], -0.1 * p[0], 0.0]);
        pooled.run(Variant::Rspr, 2);
        let u0 = VectorField::from_fn(&mesh, init);
        pooled.reset(&u0);
        pooled.run(Variant::Rsp, 3);
        for (a, b) in fresh
            .velocity()
            .as_slice()
            .iter()
            .zip(pooled.velocity().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in fresh
            .pressure()
            .as_slice()
            .iter()
            .zip(pooled.pressure().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(pooled.time(), fresh.time());
    }

    #[test]
    fn sessions_of_one_case_share_the_geometry_table_and_reset_reuses_every_buffer() {
        let mesh = Arc::new(BoxMeshBuilder::new(3, 3, 3).build());
        // Sharded, so a parallel step runs its solve on a team of the
        // workers and cuts the CG scratch for every member.
        let parts = CaseParts {
            strategy: Arc::new(ParallelStrategy::sharded(&mesh, 2)),
            ..CaseParts::build(&mesh)
        };
        let cfg = StepConfig::default();
        let mut a =
            FractionalStep::from_shared_parts(Arc::clone(&mesh), cfg.clone(), parts.clone());
        let b = FractionalStep::from_shared_parts(Arc::clone(&mesh), cfg, parts.clone());
        assert!(Arc::ptr_eq(&a.parts.geom, &b.parts.geom));
        assert!(Arc::ptr_eq(&a.parts.geom, &parts.geom));

        let init = VectorField::from_fn(&mesh, |p| [0.1 * p[2], 0.0, 0.05 * p[0]]);
        let mut cfg = StepConfig::default();
        cfg.scheme = TimeScheme::SspRk3;
        cfg.parallel = true;
        a.set_config(cfg);
        a.reset(&init);
        a.step(Variant::Rsp);
        // Where every buffer the solver owns lives. A step swaps the
        // velocity with the first RK stage buffer, so those two are held
        // as a pair; the rest must not move at all.
        let buffers = |s: &FractionalStep<'_>| {
            let mut swapped = [s.velocity.as_slice(), s.stages[0].as_slice()].map(<[f64]>::as_ptr);
            swapped.sort_unstable();
            let mut all: Vec<*const ()> = [
                swapped[0],
                swapped[1],
                s.stages[1].as_slice().as_ptr(),
                s.rhs_scratch.as_slice().as_ptr(),
                s.pressure.as_slice().as_ptr(),
                s.temperature.as_slice().as_ptr(),
                s.pressure_scratch.as_ptr(),
                s.grad_scratch.as_slice().as_ptr(),
                s.div_scratch.as_slice().as_ptr(),
            ]
            .map(<*const f64>::cast)
            .into();
            all.extend(s.cg_scratch.buffer_ptrs());
            all
        };
        let before = buffers(&a);
        // Bounds, the search direction, the block sums and six buffers per
        // member.
        let members = par::num_threads();
        assert_eq!(
            before.len(),
            9 + 3 + 6 * members,
            "not one member per worker"
        );
        a.reset(&init);
        assert_eq!(buffers(&a), before, "reset reallocated a buffer");
        a.step(Variant::Rsp);
        assert_eq!(buffers(&a), before, "a step reallocated a buffer");
    }

    #[test]
    fn sessions_of_one_case_share_one_projection_matrix_built_by_their_first_step() {
        let mesh = Arc::new(BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(4).build());
        let parts = CaseParts::build(&mesh);
        let init = VectorField::from_fn(&mesh, |p| [0.1 * p[2], 0.02 * p[1], 0.05 * p[0]]);
        let session = || {
            let mut s = FractionalStep::from_shared_parts(
                Arc::clone(&mesh),
                StepConfig::default(),
                parts.clone(),
            );
            s.reset(&init);
            s
        };
        let (mut a, mut b, mut alone) = (session(), session(), session());
        assert!(parts.proj.get().is_none(), "binding a session built it");

        // Both take their first step together; one of them builds.
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for s in [&mut a, &mut b] {
                let gate = &gate;
                scope.spawn(move || {
                    gate.wait();
                    s.step(Variant::Rsp)
                });
            }
        });
        assert!(Arc::ptr_eq(&a.parts.proj, &b.parts.proj));
        assert!(Arc::ptr_eq(&a.parts.proj, &parts.proj));
        let built = std::ptr::from_ref(parts.proj.get().expect("a first step built it"));
        assert_eq!(
            *parts.projection(&mesh),
            parts.geom.projection_matrix(&mesh, &parts.mass)
        );

        // Whichever built it, both stepped over the same matrix.
        alone.step(Variant::Rsp);
        for s in [&a, &b] {
            assert_eq!(s.velocity().as_slice(), alone.velocity().as_slice());
            assert_eq!(s.pressure().as_slice(), alone.pressure().as_slice());
        }
        a.reset(&init);
        a.step(Variant::Rsp);
        assert_eq!(
            std::ptr::from_ref(parts.projection(&mesh)),
            built,
            "rebuilt"
        );
    }

    #[test]
    fn time_and_cfl_accounting() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let mut s = solver(&mesh);
        s.set_velocity(|_| [1.0, 0.0, 0.0]);
        assert!(s.cfl() > 0.0);
        s.run(Variant::Rsp, 4);
        assert!((s.time() - 4.0 * 5e-4).abs() < 1e-15);
    }
}
