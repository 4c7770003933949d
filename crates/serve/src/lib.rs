//! # alya-serve — multi-tenant pooled simulation service
//!
//! The paper's assembly kernel is benchmarked one case at a time, but the
//! production setting it targets (Alya at BSC) runs *many* concurrent
//! simulations over a shared machine. This crate supplies that service
//! layer for the Rust reproduction:
//!
//! * [`pool`] — a slab of pre-allocated session slots. Admitting a session
//!   into a slot that last ran the *same case* is **warm**: the solver
//!   state is rewound in place ([`alya_solver::FractionalStep::reset`])
//!   and nothing is allocated. Different case → **cold** rebuild from the
//!   case's shared [`CaseParts`] (mesh, preconditioner diagonal, lumped
//!   mass, assembly strategy, element geometry table — one copy per case,
//!   `Arc`-shared copy-on-write across every session of that case).
//! * [`sched`] — a deficit-round-robin fair scheduler dispatching session
//!   work items (one full fractional step, or one RHS assembly) in
//!   weight-proportional shares, so no tenant starves behind a heavy one.
//! * [`service`] — admission control with per-tenant quotas, batch
//!   execution over the `alya-machine` worker helpers, and per-tenant
//!   telemetry: each slot owns a scoped telemetry session
//!   ([`alya_telemetry::ScopedSession`]) that workers adopt for exactly
//!   the duration of that session's steps, so Table-I profiles come out
//!   *per tenant* ([`service::Service::tenant_profile`]).
//!
//! The index-recycling path (`acquire_index` / `release_index` / `offer` /
//! `next_batch` / `finish_item`) is `// alya:hot`: the static analyzer
//! (pass 7) proves it allocation- and panic-free, which is what makes the
//! steady state — warm admit, step, release — zero-allocation.
//!
//! ```
//! use alya_core::Variant;
//! use alya_mesh::BoxMeshBuilder;
//! use alya_serve::{Service, ServiceConfig, SessionSpec, SharedCase};
//! use alya_solver::StepConfig;
//! use std::sync::Arc;
//!
//! let case = Arc::new(SharedCase::new(
//!     "cavity",
//!     BoxMeshBuilder::new(3, 3, 3).build(),
//!     StepConfig::default(),
//!     Variant::Rsp,
//!     |p| [0.1 * p[2], 0.0, 0.0],
//! ));
//! let service = Service::new(ServiceConfig::default());
//! let tenant = service.add_tenant("acme", 1, 4);
//! service.admit(tenant, &SessionSpec::new(Arc::clone(&case), 2)).unwrap();
//! service.run_to_idle();
//! assert_eq!(service.report().outcomes.len(), 1);
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;

use alya_core::Variant;
use alya_fem::bc::DirichletBc;
use alya_fem::{ScalarField, VectorField};
use alya_mesh::TetMesh;
use alya_solver::{CaseParts, StepConfig};

pub mod pool;
pub mod sched;
pub mod service;

pub use pool::{PoolConfig, SessionId, SessionPool};
pub use sched::{DrrScheduler, WorkItem};
pub use service::{
    AdmitError, ServeReport, Service, ServiceConfig, SessionOutcome, SessionSpec, TenantReport,
};

/// FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds the raw IEEE-754 bits of `values` into an FNV-1a digest seeded
/// with `seed` — the bitwise fingerprint the isolation contract compares:
/// a reused slot must produce *exactly* the digest a fresh slot produces.
pub fn digest_bits(seed: u64, values: &[f64]) -> u64 {
    let mut h = seed;
    for v in values {
        let bits = v.to_bits();
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            h ^= (bits >> shift) & 0xff;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// What one scheduled work item executes for a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkKind {
    /// One full fractional step ([`alya_solver::FractionalStep::step`]).
    #[default]
    Step,
    /// One serial momentum-RHS assembly over the case's initial fields —
    /// the paper's kernel in isolation, without the pressure solve.
    Assemble,
}

/// The immutable, `Arc`-shared description of a case: every session of
/// the same case shares one mesh, one preconditioner diagonal, one lumped
/// mass vector, one assembly strategy and one geometry table (the copy-on-write story — sessions only
/// ever read these, so the "write" never happens and admitting N sessions
/// of a case costs one case build, not N).
pub struct SharedCase {
    /// Case name (reported in session outcomes).
    pub name: String,
    /// The mesh, shared by every session of this case.
    pub mesh: Arc<TetMesh>,
    /// Shared solver parts (Poisson diagonal, lumped mass, assembly strategy,
    /// geometry table).
    pub parts: CaseParts,
    /// Integrator configuration every session of this case runs with.
    pub config: StepConfig,
    /// Assembly variant used for the momentum RHS.
    pub variant: Variant,
    /// Initial velocity sessions are reset to on admission.
    pub init_velocity: Arc<VectorField>,
    /// Initial pressure (used by [`WorkKind::Assemble`] items).
    pub init_pressure: Arc<ScalarField>,
    /// Initial temperature (used by [`WorkKind::Assemble`] items).
    pub init_temperature: Arc<ScalarField>,
    /// Dirichlet boundary conditions applied every step.
    pub bc: Arc<DirichletBc>,
}

impl SharedCase {
    /// Builds a case: assembles the shared parts once and samples the
    /// initial velocity from `init`.
    pub fn new(
        name: impl Into<String>,
        mesh: TetMesh,
        config: StepConfig,
        variant: Variant,
        init: impl Fn([f64; 3]) -> [f64; 3],
    ) -> Self {
        let mesh = Arc::new(mesh);
        let parts = CaseParts::build(&mesh);
        let n = mesh.num_nodes();
        let init_velocity = Arc::new(VectorField::from_fn(&mesh, init));
        Self {
            name: name.into(),
            parts,
            config,
            variant,
            init_velocity,
            init_pressure: Arc::new(ScalarField::zeros(n)),
            init_temperature: Arc::new(ScalarField::zeros(n)),
            bc: Arc::new(DirichletBc::new()),
            mesh,
        }
    }

    /// Replaces the boundary conditions (builder style).
    #[must_use]
    pub fn with_bc(mut self, bc: DirichletBc) -> Self {
        self.bc = Arc::new(bc);
        self
    }

    /// Elements in the case mesh.
    pub fn elements(&self) -> u64 {
        self.mesh.num_elements() as u64
    }

    /// RHS assemblies one work item of `kind` performs.
    pub fn rhs_evals(&self, kind: WorkKind) -> u64 {
        match kind {
            WorkKind::Step => self.config.scheme.rhs_evals() as u64,
            WorkKind::Assemble => 1,
        }
    }

    /// Scheduler cost of one work item: elements × RHS evaluations —
    /// proportional to the assembly work the item puts on the machine.
    pub fn item_cost(&self, kind: WorkKind) -> u64 {
        self.elements() * self.rhs_evals(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let a = digest_bits(FNV_OFFSET, &[1.0, 2.0, 3.0]);
        let b = digest_bits(FNV_OFFSET, &[1.0, 3.0, 2.0]);
        let c = digest_bits(FNV_OFFSET, &[1.0, 2.0, 3.0]);
        assert_eq!(a, c);
        assert_ne!(a, b);
        // -0.0 and +0.0 differ bitwise — the digest must see that.
        assert_ne!(
            digest_bits(FNV_OFFSET, &[0.0]),
            digest_bits(FNV_OFFSET, &[-0.0])
        );
    }

    #[test]
    fn case_cost_scales_with_scheme() {
        let mesh = alya_mesh::BoxMeshBuilder::new(2, 2, 2).build();
        let elems = mesh.num_elements() as u64;
        let mut cfg = StepConfig::default();
        cfg.scheme = alya_solver::TimeScheme::SspRk3;
        let case = SharedCase::new("c", mesh, cfg, Variant::Rsp, |_| [0.0; 3]);
        assert_eq!(case.item_cost(WorkKind::Step), 3 * elems);
        assert_eq!(case.item_cost(WorkKind::Assemble), elems);
    }
}
