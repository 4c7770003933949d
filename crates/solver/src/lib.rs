//! # alya-solver — fractional-step incompressible-flow substrate
//!
//! The paper's kernel lives inside an explicit fractional-step LES solver:
//! the momentum RHS assembly (the optimized kernel, `alya-core`) plus a
//! pressure-Poisson solve (which the paper delegates to external libraries
//! and names as future work). This crate supplies the rest of that loop so
//! the examples can run an actual simulation end to end:
//!
//! * [`csr`] — compressed sparse row matrices and the one SpMV row loop
//!   the pressure CG runs, over all rows or over one range of them;
//! * [`cg`] — preconditioned conjugate gradients (one loop; Jacobi by
//!   default), run on the calling thread or, for a sharded `parallel`
//!   step, on a team of worker threads that each own a range of rows,
//!   with dot products whose bits do not depend on the team's size;
//! * [`poisson`] — the pressure-Poisson operator (P1 Laplacian), lumped
//!   mass matrix, weak divergence/gradient sweeps — each uncached and
//!   driven from a per-case geometry table (bitwise equal) — and the
//!   projection operator `D M⁻¹ Dᵀ`, as the uncached matrix-free oracle
//!   and assembled exactly into a CSR matrix;
//! * [`step`] — the fractional-step integrator: explicit momentum
//!   prediction with the assembly variant of your choice, pressure
//!   projection (table-driven sweeps around a CG over the assembled
//!   matrix), velocity correction.
//!
//! ```
//! use alya_solver::step::{FractionalStep, StepConfig};
//! use alya_core::Variant;
//! use alya_mesh::BoxMeshBuilder;
//!
//! let mesh = BoxMeshBuilder::new(4, 4, 4).build();
//! let mut solver = FractionalStep::new(&mesh, StepConfig::default());
//! solver.set_velocity(|p| [0.1 * p[2], 0.0, 0.0]);
//! let stats = solver.step(Variant::Rsp);
//! assert!(stats.divergence_after <= stats.divergence_before + 1e-12);
//! ```

#![forbid(unsafe_code)]

pub mod cg;
pub mod csr;
pub mod poisson;
pub mod step;

pub use cg::{solve_cg, solve_cg_with, CgResult, CgScratch};
pub use csr::CsrMatrix;
pub use step::{CaseParts, FractionalStep, StepConfig, StepStats, TimeScheme};
