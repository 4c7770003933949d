//! The five workloads. Each runs in its own process (one per invocation).

pub mod assemble;
pub mod serve;
pub mod step;

use crate::harness::{Ctx, Gate, Report};
use crate::trace::Tracer;

/// Runs the workload named `name`; `false` if there is none.
pub fn run(name: &str, ctx: &Ctx, tr: &mut Tracer, gate: &mut Gate, report: &mut Report) -> bool {
    match name {
        "step-small" => step::run(&step::SMALL, ctx, tr, gate, report),
        "step-large" => step::run(&step::LARGE, ctx, tr, gate, report),
        "assemble-large" => assemble::run(ctx, tr, gate, report),
        "serve-steps" => serve::run(&serve::STEPS, ctx, tr, gate, report),
        "serve-churn" => serve::run(&serve::CHURN, ctx, tr, gate, report),
        _ => return false,
    }
    true
}
