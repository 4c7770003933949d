//! `alya-form`: a symbolic kernel IR for the per-element Navier-Stokes
//! Gauss loop, from which every assembly variant is *derived*.
//!
//! The paper's B → RS → RSP → RSPR progression is a sequence of program
//! transformations applied by hand to one finite-element form. This crate
//! makes that literal: [`base::base`] describes the baseline tet4 assembly
//! once as a [`ir::Program`], and the rewrite passes in [`rewrite`] derive
//! every other variant from it —
//!
//! * `P`    = [`rewrite::privatize_workspace`]`(B)` — workspace moved to
//!   thread-local storage, statements untouched;
//! * `RS`   = [`rewrite::restructure_specialize`]`(B)` — matrices
//!   eliminated, properties constant-folded, loops restructured;
//! * `RSP`  = [`rewrite::privatize_scalars`]`(RS)` — every workspace slot
//!   replaced by a tracked private scalar, arrays contracted;
//! * `RSPR` = [`rewrite::recombine`]`(RSP)` — the accumulation loop
//!   recombined node-major to shrink live ranges below the register budget.
//!
//! Two backends walk the same IR. The executable backend ([`exec`])
//! interprets a program against the *real* `alya-core` workspace,
//! gather/scatter, and math routines: [`exec::trace_generated`] records one
//! element's event stream, which must equal the handwritten kernel's
//! event-for-event, and [`exec::assemble_generated`] runs the whole mesh
//! serially, which must be **bitwise identical** to
//! `alya_core::assemble_serial`. The analysis backend
//! ([`contract::derive_contract`]) replays one element's event stream into
//! a [`KernelContract`] that must equal the hand-maintained one in
//! `alya_core::variant` field-for-field. Analyzer pass 10
//! (`alya-analyze`'s `form` module) enforces all three on every audit.
//!
//! The crate is an oracle, not a source: the handwritten kernels are the
//! only element bodies a driver runs, and the derivation is what they are
//! checked against.

#![forbid(unsafe_code)]

pub mod base;
pub mod contract;
pub mod exec;
pub mod fixture;
pub mod ir;
pub mod rewrite;

pub use alya_core::variant::{KernelContract, Variant};
pub use contract::derive_contract;
pub use ir::{Block, Expr, Ix, Program, Stmt};

/// Derives `variant`'s program from the single base description.
pub fn derive(variant: Variant) -> Program {
    match variant {
        Variant::B => base::base(),
        Variant::P => rewrite::privatize_workspace(&base::base()),
        Variant::Rs => rewrite::restructure_specialize(&base::base()),
        Variant::Rsp => rewrite::privatize_scalars(&derive(Variant::Rs)),
        Variant::Rspr => rewrite::recombine(&derive(Variant::Rsp)),
    }
}
