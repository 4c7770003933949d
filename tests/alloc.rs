//! What the warm hot paths allocate and which spans they open, counted at
//! run time. A counting global allocator sees every allocation of every
//! thread, so the counts hold whatever a call reaches, and each is stated
//! as a closed form of primitives measured in this process: a fork-join
//! whose workers only allocate their workspace, a CG team that runs one
//! empty round, and — in debug builds — `ShardSet::validate`. Every count is the same at two mesh sizes, which is the run-time
//! form of "nothing allocates inside the element loop".
//!
//! The counts are exact, not zero: each call still allocates its
//! workspaces, the sharded arm its compact buffers and its workers, and
//! B/P their ν_t array. Debug builds add what `ShardSet::validate` (the
//! sharded arm's `debug_assert!`) allocates.
//!
//! One `#[test]`: the counter is process-wide, so a second test running
//! beside it would add its own allocations to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use alya_bench::case::Case;
use alya_core::drivers::{assemble_parallel_into, assemble_serial_into, ExecMode};
use alya_core::{ParallelStrategy, Variant};
use alya_fem::VectorField;
use alya_machine::par;
use alya_solver::step::{CaseParts, FractionalStep, StepConfig, TimeScheme};
use alya_telemetry as telemetry;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting each allocation (a `realloc` counts once).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so the caller's guarantees are the ones `System` needs; the
// count is a relaxed atomic add.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by the second call of `f` (the first warms it up),
/// and spans opened by a third inside a telemetry session.
fn warm(mut f: impl FnMut()) -> (u64, usize) {
    f();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let session = telemetry::session();
    f();
    (allocs, session.finish().spans.len())
}

const SHARDS: usize = 2;

/// Allocations and spans of every call this file counts, for one mesh.
type Counts = Vec<(String, u64, usize)>;

fn measure(target_elems: usize) -> Counts {
    let case = Case::bolund(target_elems);
    let mesh = &case.mesh;
    let input = case.input();
    let mut rhs = VectorField::zeros(mesh.num_nodes());
    let strategy = ParallelStrategy::sharded(mesh, SHARDS);
    let ParallelStrategy::Sharded(shards) = &strategy else {
        unreachable!("sharded() builds a shard set")
    };

    // The primitives.
    let validate = if cfg!(debug_assertions) {
        warm(|| assert!(shards.validate(mesh).is_ok())).0
    } else {
        0
    };
    // A fork-join over the shards whose workers each allocate one state
    // (the workspace) and return an empty buffer.
    let fork_join = warm(|| {
        par::par_map_init(SHARDS, || vec![0.0f64; 1], |_, _| Vec::<f64>::new());
    })
    .0;
    let team = warm(|| par::with_team(par::num_threads(), |_| {}, |team| team.round(|| {}))).0;
    let nut = |v: Variant| u64::from(v.needs_nut_pass());

    // Each driver call opens one span, and the sharded arm one per shard.
    // The sharded counts leave out the debug build's `validate`, so they
    // read the same in both builds.
    let mut counts = Counts::new();
    for v in Variant::ALL {
        for mode in [ExecMode::Scalar, ExecMode::Packed] {
            let at = format!("{} {}", v.name(), mode.name());
            let serial = warm(|| assemble_serial_into(v, &input, mode, &mut rhs));
            // The workspace, and B/P's ν_t array.
            assert_eq!(serial, (1 + nut(v), 1), "serial {at}");
            counts.push((format!("serial {at}"), serial.0, serial.1));

            let sharded = warm(|| assemble_parallel_into(v, &input, &strategy, mode, &mut rhs));
            // The fork-join with a workspace per worker, a compact buffer
            // per shard, and B/P's ν_t array.
            let want = fork_join + SHARDS as u64 + nut(v) + validate;
            assert_eq!(sharded, (want, 1 + SHARDS), "sharded/{SHARDS} {at}");
            counts.push((format!("sharded {at}"), sharded.0 - validate, sharded.1));
        }
    }

    // A step opens five phase spans (the step, momentum-predict,
    // pressure-rhs, solve-cg, velocity-correct) around its assemblies. A
    // serial step allocates only in its assemblies: the CG and the table
    // sweeps run in scratch the first step sized. A parallel one adds the
    // CG's team.
    let shared_mesh = Arc::new(mesh.clone());
    for scheme in [TimeScheme::ForwardEuler, TimeScheme::SspRk3] {
        let mut cfg = StepConfig::default();
        cfg.dt = 5e-4;
        cfg.scheme = scheme;
        cfg.props = case.props;
        let evals = scheme.rhs_evals();

        let mut solver = FractionalStep::new(mesh, cfg.clone());
        solver.reset(&case.velocity);
        let step = warm(|| {
            solver.step(Variant::Rsp);
        });
        // One workspace per assembly (RSP needs no ν_t array).
        assert_eq!(step, (evals as u64, 5 + evals), "serial {scheme:?} step");
        counts.push((format!("serial {scheme:?} step"), step.0, step.1));

        cfg.parallel = true;
        let mut parts = CaseParts::build(mesh);
        parts.strategy = Arc::new(ParallelStrategy::sharded(mesh, SHARDS));
        let mut solver = FractionalStep::from_shared_parts(Arc::clone(&shared_mesh), cfg, parts);
        solver.reset(&case.velocity);
        let step = warm(|| {
            solver.step(Variant::Rsp);
        });
        let sharded_call = fork_join + SHARDS as u64 + validate;
        let want = (evals as u64 * sharded_call + team, 5 + evals * (1 + SHARDS));
        assert_eq!(step, want, "parallel {scheme:?} step");
        let allocs = step.0 - evals as u64 * validate;
        counts.push((format!("parallel {scheme:?} step"), allocs, step.1));
    }
    counts
}

#[test]
fn warm_hot_paths_allocate_and_open_spans_by_closed_forms() {
    let small = measure(1_500);
    let large = measure(3_000);
    assert_eq!(small, large, "a count grew with the mesh");
}
