//! The owner-computes strategies must actually run their parts in
//! parallel: one part = one coarse work item, so two parts on a host with
//! two threads are two threads (the dispatching one and one spawned) —
//! not one, as when the dispatch helper applied its per-item serial cutoff
//! to a part *count*. Each part opens a `part:{p}` / `shard:{s}` span on
//! the thread that runs it, so the threads are read off a telemetry
//! session's span `tid`s.
//!
//! Alone in its own test binary on purpose: the thread cap and the
//! telemetry session are process-global, and sibling tests elsewhere lower
//! the cap to 1 mid-run.

use std::collections::HashSet;

use alya_core::{assemble_parallel_with, AssemblyInput, ExecMode, ParallelStrategy, Variant};
use alya_fem::{ScalarField, VectorField};
use alya_machine::par;
use alya_mesh::BoxMeshBuilder;
use alya_telemetry as telemetry;

#[test]
fn two_parts_of_an_owner_computes_assembly_run_on_two_threads() {
    if par::hardware_threads() < 2 {
        eprintln!("skipped: one hardware thread");
        return;
    }
    par::set_thread_cap(Some(2));
    let mesh = BoxMeshBuilder::new(4, 4, 3).build();
    let v = VectorField::zeros(mesh.num_nodes());
    let p = ScalarField::zeros(mesh.num_nodes());
    let t = ScalarField::zeros(mesh.num_nodes());
    let input = AssemblyInput::new(&mesh, &v, &p, &t);
    for (strategy, part_span) in [
        (ParallelStrategy::partitioned(&mesh, 2), "part:"),
        (ParallelStrategy::sharded(&mesh, 2), "shard:"),
    ] {
        let session = telemetry::session();
        let _ = assemble_parallel_with(Variant::Rsp, &input, &strategy, ExecMode::Scalar);
        let report = session.finish();
        let name = strategy.name();
        let dispatcher = report
            .spans_named(&format!("assemble:{name}:RSP"))
            .map(|s| s.tid)
            .next()
            .expect("the driver opens its span on the dispatching thread");
        let threads: HashSet<u32> = report
            .spans
            .iter()
            .filter(|s| s.name.starts_with(part_span))
            .map(|s| s.tid)
            .collect();
        assert_eq!(
            threads.len(),
            2,
            "{name}: 2 parts under a 2-thread cap ran on {} thread(s)",
            threads.len()
        );
        // The dispatching thread is worker 0: it runs a part itself rather
        // than parking while two spawned threads do.
        assert!(
            threads.contains(&dispatcher),
            "{name}: no part ran on the dispatching thread"
        );
    }
    par::set_thread_cap(None);
}
