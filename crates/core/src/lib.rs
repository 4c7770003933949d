//! # alya-core — the Navier–Stokes RHS assembly (the paper's contribution)
//!
//! Assembles the right-hand side of the incompressible momentum equation
//! for explicit fractional-step LES on linear tetrahedra, in the paper's
//! five source variants:
//!
//! | variant | structure |
//! |---------|-----------|
//! | **B**   | baseline: generic element/material paths, elemental matrices, every intermediate an interleaved `VECTOR_DIM` array in memory |
//! | **P**   | baseline structure with all intermediate arrays privatized to per-thread local memory |
//! | **RS**  | restructured + specialized: compile-time tet4, constant gradients, constant properties, on-the-fly per-element Vreman, direct RHS — but intermediates still interleaved arrays |
//! | **RSP** | RS + privatization to scalars (register-resident, spills only under pressure) |
//! | **RSPR**| RSP + immediate per-node scatter for minimal live ranges |
//!
//! Every kernel is written **once**, generic over the lane count and over
//! [`alya_machine::Recorder`]. The lane count is the paper's `VECTOR_DIM`
//! made real on the CPU: every intermediate is a [`packs::Pack`] of `L`
//! `f64` lanes, one per element, and [`ExecMode::Packed`] runs the kernels
//! at `L =` [`DEFAULT_LANES`] where [`ExecMode::Scalar`] runs them at
//! `L = 1` — the same statements, every lane bitwise identical to a
//! one-lane run. With [`alya_machine::NoRecord`] a kernel monomorphizes to
//! the pure numeric code the solver and wall-clock benchmarks run; with a
//! tracing recorder the identical code emits, once per statement, the
//! event stream the performance models replay. All five variants produce
//! the same RHS to floating-point roundoff — the crate's central invariant,
//! enforced by tests.
//!
//! ```
//! use alya_core::{AssemblyInput, Variant};
//! use alya_mesh::BoxMeshBuilder;
//! use alya_fem::{ScalarField, VectorField, ConstantProperties};
//!
//! let mesh = BoxMeshBuilder::new(4, 4, 4).build();
//! let velocity = VectorField::from_fn(&mesh, |p| [p[2], 0.0, 0.0]);
//! let pressure = ScalarField::zeros(mesh.num_nodes());
//! let temperature = ScalarField::zeros(mesh.num_nodes());
//! let input = AssemblyInput::new(&mesh, &velocity, &pressure, &temperature)
//!     .props(ConstantProperties::AIR);
//! let rhs = alya_core::assemble_serial(Variant::Rsp, &input);
//! assert_eq!(rhs.num_nodes(), mesh.num_nodes());
//! ```

pub mod distributed;
pub mod drivers;
pub mod gather;
pub mod input;
pub mod kernels;
pub mod layout;
pub mod listing3;
pub mod metrics;
pub mod nut;
pub mod ops;
pub mod packs;
pub mod variant;
pub mod workspace;

pub use distributed::{DistributedDriver, HaloFault};
pub use drivers::{
    assemble_parallel, assemble_parallel_into, assemble_parallel_with, assemble_serial,
    assemble_serial_into, assemble_serial_with, assemble_traced, ExecMode, ParallelStrategy,
};
pub use input::AssemblyInput;
pub use packs::DEFAULT_LANES;
pub use variant::{KernelContract, Variant, CONTRACT_F64_BUDGET, CONTRACT_REGISTER_BUDGET};
