//! The owner-computes strategies must actually run their parts in
//! parallel: one part = one coarse work item, so two parts on a host with
//! two threads are two threads — not one, as when the dispatch helper
//! applied its per-item serial cutoff to a part *count*.
//!
//! Alone in its own test binary on purpose: the thread cap is
//! process-global and sibling tests elsewhere lower it to 1 mid-run.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

use alya_core::layout::Layout;
use alya_core::{
    assemble_parallel_with, AssemblyInput, ExecMode, GeneratedKernel, KernelImpl, ParallelStrategy,
    Variant,
};
use alya_fem::{ScalarField, VectorField};
use alya_machine::par;
use alya_mesh::BoxMeshBuilder;

/// A kernel body that contributes nothing and notes which thread ran it.
struct ThreadProbe(Mutex<HashSet<ThreadId>>);

impl GeneratedKernel for ThreadProbe {
    fn variant(&self) -> Variant {
        Variant::Rsp
    }
    fn run_element(
        &self,
        _input: &AssemblyInput,
        _e: usize,
        _lay: &Layout,
        _ws_buf: &mut [f64],
        _stride: usize,
        _lane: usize,
        _emit: &mut dyn FnMut(u32, usize, f64),
    ) {
        self.0.lock().unwrap().insert(std::thread::current().id());
    }
}

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
    for strategy in [
        ParallelStrategy::partitioned(&mesh, 2),
        ParallelStrategy::sharded(&mesh, 2),
    ] {
        let probe = ThreadProbe(Mutex::new(HashSet::new()));
        let kernel = KernelImpl::Generated(&probe);
        let _ = assemble_parallel_with(kernel, &input, &strategy, ExecMode::Scalar);
        let threads = probe.0.into_inner().unwrap();
        assert_eq!(
            threads.len(),
            2,
            "{}: 2 parts under a 2-thread cap ran on {} thread(s)",
            strategy.name(),
            threads.len()
        );
        assert!(
            !threads.contains(&std::thread::current().id()),
            "{}: a part ran on the dispatching thread",
            strategy.name()
        );
    }
    par::set_thread_cap(None);
}
