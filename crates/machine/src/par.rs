//! Minimal structured-parallelism helpers over `std::thread::scope`.
//!
//! The workspace builds without third-party crates, so the parallel
//! drivers (`alya-core::drivers`, `alya-solver::cg`) use these helpers
//! instead of rayon. The model is deliberately simple: an index range is
//! split into one contiguous chunk per worker, each worker owns a
//! per-thread state built by `init` (the reused workspace buffer pattern),
//! and threads are joined before returning. Work stealing is not needed —
//! every call site here distributes near-uniform work.
//!
//! The fine-grained helper ([`par_for_each_init`]) takes a serial fast
//! path on small inputs so tests and tiny meshes do not pay thread-spawn
//! latency; the coarse ones ([`par_map_init`], [`par_for_each_coarse`])
//! treat every item as a whole unit of work and go parallel from two items
//! up.
//!
//! Each of those forks and joins threads per call. Work that repeats many
//! short rounds over the same data (the pressure CG's iterations) runs
//! on a [`Team`] instead: [`with_team`] spawns the helpers once, and a
//! [`Team::round`] costs a handoff through two atomics, not a spawn.
//!
//! Every helper propagates the spawner's [`alya_telemetry::Context`] into
//! the threads it creates, so counters tallied inside worker closures land
//! in the live telemetry session exactly when the spawning thread
//! participates in one — and never otherwise.

use std::sync::atomic::{AtomicUsize, Ordering};

use alya_telemetry as telemetry;

/// Work items below this threshold run serially.
const SERIAL_CUTOFF: usize = 256;

/// Optional process-wide worker cap (0 = uncapped). Set by benchmark
/// harnesses sweeping thread counts; see [`set_thread_cap`].
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Caps the worker count every helper in this module will use. `None`
/// lifts the cap. The cap is process-global and meant for single-threaded
/// harnesses (the driver-throughput benchmark sweeps it); it never raises
/// parallelism above the hardware.
pub fn set_thread_cap(cap: Option<usize>) {
    THREAD_CAP.store(cap.map_or(0, |c| c.max(1)), Ordering::Relaxed);
}

/// Worker threads the machine offers, ignoring any [`set_thread_cap`].
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Number of worker threads used by the helpers (the hardware parallelism,
/// lowered by [`set_thread_cap`] when one is active).
pub fn num_threads() -> usize {
    let hw = hardware_threads();
    match THREAD_CAP.load(Ordering::Relaxed) {
        0 => hw,
        cap => hw.min(cap),
    }
}

fn worker_count(n: usize) -> usize {
    num_threads().min(n.div_ceil(SERIAL_CUTOFF)).max(1)
}

/// Maps `f` over `0..n` in parallel, preserving order, with **one index =
/// one unit of coarse work** (a partition's part, a shard): like
/// [`par_for_each_coarse`] it runs `min(num_threads(), n)` workers for any
/// `n ≥ 2` — the per-item serial cutoff of the fine-grained helpers would
/// read a part *count* of 2–8 as "tiny" and never leave the calling
/// thread. Each worker builds one private state with `init` and threads it
/// through its calls — the rayon `map_init` pattern. The calling thread is
/// worker 0 (it runs the first chunk while `workers − 1` spawned threads
/// run the rest), and results come back in index order.
pub fn par_map_init<T, W, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> T + Sync,
{
    let workers = num_threads().min(n);
    let run_chunk = |lo: usize, hi: usize| {
        let mut state = init();
        (lo..hi).map(|i| f(&mut state, i)).collect::<Vec<T>>()
    };
    if workers <= 1 {
        return run_chunk(0, n);
    }
    let chunk = n.div_ceil(workers);
    let ctx = telemetry::current_context();
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                let run_chunk = &run_chunk;
                s.spawn(move || {
                    telemetry::adopt_context(ctx);
                    run_chunk(lo, hi)
                })
            })
            .collect();
        let mut out = run_chunk(0, chunk);
        out.reserve(n - out.len());
        for h in handles {
            out.extend(h.join().expect("parallel worker panicked"));
        }
        out
    })
}

/// Runs `f` over `items` in parallel with per-worker state, one
/// contiguous **batch** of items per call. Batches are claimed from a
/// shared atomic cursor, so imbalanced per-item cost (e.g. color classes
/// of uneven element cost) still spreads across workers; below the serial
/// cutoff the whole slice is one batch on the calling thread.
pub fn par_for_each_init<A, W, I, F>(items: &[A], init: I, f: F)
where
    A: Sync,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, &[A]) + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        f(&mut init(), items);
        return;
    }
    const BATCH: usize = 64;
    let cursor = AtomicUsize::new(0);
    let ctx = telemetry::current_context();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let cursor = &cursor;
            let init = &init;
            let f = &f;
            s.spawn(move || {
                telemetry::adopt_context(ctx);
                let mut state = init();
                loop {
                    let lo = cursor.fetch_add(BATCH, Ordering::Relaxed);
                    if lo >= n {
                        break;
                    }
                    f(&mut state, &items[lo..(lo + BATCH).min(n)]);
                }
            });
        }
    });
}

/// Runs `f` over `items` in parallel with **one item = one unit of coarse
/// work** (a whole solver step, a whole session dispatch). Unlike
/// [`par_for_each_init`], which assumes cheap per-item cost and runs
/// serially below `SERIAL_CUTOFF` items, this helper spawns
/// `min(num_threads(), items.len())` workers for any batch of two or more
/// items and claims items one at a time from a shared cursor. Respects
/// [`set_thread_cap`] and propagates the spawner's telemetry context like
/// every helper here.
pub fn par_for_each_coarse<A, F>(items: &[A], f: F)
where
    A: Sync,
    F: Fn(&A) + Sync,
{
    let n = items.len();
    let workers = num_threads().min(n);
    if workers <= 1 {
        for a in items {
            f(a);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let ctx = telemetry::current_context();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            s.spawn(move || {
                telemetry::adopt_context(ctx);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    f(&items[i]);
                }
            });
        }
    });
}

/// Polls of a barrier word spent spinning before each further poll yields
/// the CPU: a round's handoff normally lands within the spin, and a member
/// that shares its CPU with the one it waits for (a team nested under a
/// serve pool, or more members than cores) hands the core over instead of
/// burning its time slice.
const SPINS_BEFORE_YIELD: u32 = 256;

/// [`Barrier::arrived`]'s flag for "a helper panicked"; it also makes the
/// count exceed every round's target, so the caller's wait ends.
const FAILED: usize = 1 << (usize::BITS - 1);

/// [`Barrier::round`]'s value that sends the helpers home.
const DISBAND: usize = usize::MAX;

/// A [`Team`]'s synchronisation: two atomics, written by one side each.
/// Every store to them is `Release` and every wait `Acquire`, so what the
/// caller wrote before releasing a round is visible to the helpers' jobs,
/// and what a job wrote is visible to the caller once it has counted that
/// helper's arrival.
#[derive(Default)]
struct Barrier {
    /// Rounds the caller has released; [`DISBAND`] ends the team.
    round: AtomicUsize,
    /// Helper arrivals summed over all rounds, with [`FAILED`] or-ed in
    /// once a helper panicked.
    arrived: AtomicUsize,
}

/// Polls `word` until `ready` accepts its value, spinning
/// [`SPINS_BEFORE_YIELD`] times and then yielding between polls. Returns
/// the accepted value.
fn wait_for(word: &AtomicUsize, ready: impl Fn(usize) -> bool) -> usize {
    let mut spins = 0;
    loop {
        let v = word.load(Ordering::Acquire);
        if ready(v) {
            return v;
        }
        if spins < SPINS_BEFORE_YIELD {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Marks the team failed if its helper unwinds out of a job.
struct FailOnUnwind<'a>(&'a AtomicUsize);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fetch_or(FAILED, Ordering::Release);
        }
    }
}

/// Sends the helpers home when [`with_team`]'s body ends — returning or
/// unwinding — so the scope that joins them never waits on a helper
/// parked at the barrier.
struct DisbandOnExit<'a>(&'a AtomicUsize);

impl Drop for DisbandOnExit<'_> {
    fn drop(&mut self) {
        self.0.store(DISBAND, Ordering::Release);
    }
}

/// A fixed group of `members` threads — the caller and `members − 1`
/// helpers spawned once by [`with_team`] — that runs one job per
/// [`Team::round`].
pub struct Team<'a> {
    members: usize,
    barrier: &'a Barrier,
}

impl Team<'_> {
    /// Threads in the team, the caller included.
    pub fn members(&self) -> usize {
        self.members
    }

    /// One round: releases every helper `w ∈ 1..members` into `job(w)`,
    /// runs `caller_job` on the calling thread meanwhile, and returns once
    /// every helper has finished its job. Rounds never overlap, and
    /// everything a helper wrote in its job is visible to the caller
    /// afterwards.
    ///
    /// # Panics
    ///
    /// If a helper's job panicked in this round.
    pub fn round(&self, caller_job: impl FnOnce()) {
        // Only the caller writes `round`; helpers only read it.
        let round = self.barrier.round.load(Ordering::Relaxed) + 1;
        self.barrier.round.store(round, Ordering::Release);
        caller_job();
        let target = round * (self.members - 1);
        let arrived = wait_for(&self.barrier.arrived, |a| a >= target);
        if arrived & FAILED != 0 {
            member_panicked();
        }
    }
}

fn member_panicked() -> ! {
    panic!("a team member panicked");
}

/// Runs `body` with a [`Team`] of `members` threads (at least one): spawns
/// `members − 1` scoped helpers once, each of which runs `job(w)` for its
/// index `w ∈ 1..members` once per [`Team::round`] and waits at a
/// spin-then-yield barrier in between. The helpers exit when `body` ends.
///
/// A panic in `body`, in a round's caller job or in any helper's `job` reaches
/// the caller as a panic out of `with_team`, never as a hang at the
/// barrier. Like every helper here it propagates the caller's telemetry
/// context, and like the workers of [`par_map_init`] it takes `members`
/// as given — pass [`num_threads`] to respect [`set_thread_cap`].
pub fn with_team<J, R>(members: usize, job: J, body: impl FnOnce(&Team<'_>) -> R) -> R
where
    J: Fn(usize) + Sync,
{
    let members = members.max(1);
    let barrier = Barrier::default();
    let team = Team {
        members,
        barrier: &barrier,
    };
    if members == 1 {
        return body(&team);
    }
    let ctx = telemetry::current_context();
    std::thread::scope(|s| {
        let _disband = DisbandOnExit(&barrier.round);
        for w in 1..members {
            let (job, barrier) = (&job, &barrier);
            s.spawn(move || {
                telemetry::adopt_context(ctx);
                let _fail = FailOnUnwind(&barrier.arrived);
                let mut seen = 0;
                loop {
                    seen = wait_for(&barrier.round, |r| r != seen);
                    if seen == DISBAND {
                        return;
                    }
                    job(w);
                    barrier.arrived.fetch_add(1, Ordering::Release);
                }
            });
        }
        body(&team)
    })
}

/// Spawns **exactly one dedicated OS thread per item**, moves each item
/// into its thread, and joins them all — the rank-parallel execution model
/// of `alya-comm`, where every item is one rank's private state.
///
/// Unlike the worker helpers above, this deliberately ignores
/// [`set_thread_cap`]: the cap models *worker* parallelism within a rank,
/// while ranks stand in for distributed processes whose count is fixed by
/// the decomposition, not by the host. Capping ranks would deadlock a
/// blocking message exchange (a rank that never runs can never send).
/// A single item runs on the calling thread.
pub fn dedicated_threads<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if items.len() <= 1 {
        return items.into_iter().map(|t| f(0, t)).collect();
    }
    let ctx = telemetry::current_context();
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let f = &f;
                s.spawn(move || {
                    telemetry::adopt_context(ctx);
                    f(i, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dedicated rank thread panicked"))
            .collect()
    })
}

/// Reduces `items` to one value by **pairwise tree combination**: at every
/// level adjacent pairs are combined concurrently, halving the item count,
/// until one value remains: `⌈log₂ n⌉` parallel levels instead of `n − 1`
/// sequential combines. No driver calls it; it is the reference the
/// pressure CG's blocked `tree_sum` is held to bit for bit.
///
/// The combine order is a deterministic function of `items.len()` alone
/// (pairs in order, an odd tail item carried to the next level), so
/// floating-point reassociation is reproducible run to run. Returns `None`
/// for an empty input.
pub fn tree_reduce<T, F>(mut items: Vec<T>, combine: F) -> Option<T>
where
    T: Send,
    F: Fn(T, T) -> T + Sync,
{
    while items.len() > 1 {
        let odd = (items.len() % 2 == 1).then(|| items.pop().expect("non-empty"));
        let mut pairs: Vec<(T, T)> = Vec::with_capacity(items.len() / 2);
        let mut it = items.into_iter();
        while let (Some(a), Some(b)) = (it.next(), it.next()) {
            pairs.push((a, b));
        }
        let mut next: Vec<T> = Vec::with_capacity(pairs.len() + 1);
        if num_threads() <= 1 || pairs.len() < 2 {
            next.extend(pairs.into_iter().map(|(a, b)| combine(a, b)));
        } else {
            let ctx = telemetry::current_context();
            std::thread::scope(|s| {
                let combine = &combine;
                let handles: Vec<_> = pairs
                    .into_iter()
                    .map(|(a, b)| {
                        s.spawn(move || {
                            telemetry::adopt_context(ctx);
                            combine(a, b)
                        })
                    })
                    .collect();
                for h in handles {
                    next.push(h.join().expect("tree-reduce worker panicked"));
                }
            });
        }
        if let Some(x) = odd {
            next.push(x);
        }
        items = next;
    }
    items.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_covers_range() {
        let out = par_map_init(10_000, || 0u64, |_, i| i * 2);
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn map_small_input_matches_serial() {
        let out = par_map_init(7, || (), |(), i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn for_each_visits_every_item_once() {
        use std::sync::atomic::AtomicU64;
        let items: Vec<usize> = (0..5000).collect();
        let sum = AtomicU64::new(0);
        par_for_each_init(
            &items,
            || (),
            |(), batch| {
                let part: usize = batch.iter().sum();
                sum.fetch_add(part as u64, Ordering::Relaxed);
            },
        );
        assert_eq!(sum.load(Ordering::Relaxed), 5000 * 4999 / 2);
    }

    #[test]
    fn init_runs_per_worker_not_per_item() {
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        let inits = AtomicUsize::new(0);
        let on_caller = Mutex::new(Vec::new());
        let out = par_map_init(
            4096,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i| {
                if std::thread::current().id() == caller {
                    on_caller.lock().unwrap().push(i);
                }
                i
            },
        );
        assert_eq!(out, (0..4096).collect::<Vec<_>>());
        // Bound by the *hardware* parallelism: a concurrently running test
        // may hold a lower thread cap, which only shrinks worker counts.
        assert!(inits.load(Ordering::Relaxed) <= hardware_threads());
        // One whole chunk — the first — ran on the calling thread.
        let on_caller = on_caller.into_inner().unwrap();
        assert!(!on_caller.is_empty());
        assert!(on_caller.iter().enumerate().all(|(k, &i)| k == i));
    }

    /// Runs `rounds` rounds on a `members` team; every job checks that it
    /// runs once per round and that no two rounds overlap.
    fn drive_team(members: usize, rounds: usize) {
        let runs: Vec<AtomicUsize> = (0..members).map(|_| AtomicUsize::new(0)).collect();
        let (current, active) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let job = |w: usize| {
            active.fetch_add(1, Ordering::SeqCst);
            let before = runs[w].fetch_add(1, Ordering::SeqCst);
            assert_eq!(before, current.load(Ordering::SeqCst), "member {w}");
            active.fetch_sub(1, Ordering::SeqCst);
        };
        with_team(members, job, |team| {
            assert_eq!(team.members(), members);
            for r in 0..rounds {
                current.store(r, Ordering::SeqCst);
                team.round(|| job(0));
                assert_eq!(active.load(Ordering::SeqCst), 0, "round {r} still running");
                for (w, n) in runs.iter().enumerate() {
                    assert_eq!(n.load(Ordering::SeqCst), r + 1, "member {w}, round {r}");
                }
            }
        });
    }

    #[test]
    fn team_runs_every_job_once_per_round_and_rounds_never_overlap() {
        for members in [1, 2, 3] {
            drive_team(members, 500);
        }
    }

    #[test]
    fn team_larger_than_the_machine_still_finishes() {
        drive_team(2 * hardware_threads() + 1, 200);
    }

    /// Runs `f` on a thread of its own and fails the test if it takes longer
    /// than `limit` (a hang at the barrier would otherwise hang the suite).
    fn within<T: Send + 'static>(
        limit: std::time::Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(limit)
            .expect("team did not come back in time")
    }

    #[test]
    fn team_member_panic_reaches_the_caller_as_a_panic() {
        let limit = std::time::Duration::from_secs(20);
        for members in [2, 3] {
            for bad_round in [0, 4] {
                // A helper's job panics in round `bad_round`.
                let out = within(limit, move || {
                    let round = AtomicUsize::new(0);
                    std::panic::catch_unwind(|| {
                        let job = |w: usize| {
                            assert!(
                                !(w == members - 1 && round.load(Ordering::SeqCst) == bad_round)
                            );
                        };
                        with_team(members, job, |team| {
                            for r in 0..10 {
                                round.store(r, Ordering::SeqCst);
                                team.round(|| ());
                            }
                        });
                    })
                });
                assert!(
                    out.is_err(),
                    "{members} members, helper panic in round {bad_round}"
                );

                // The caller's own share panics in round `bad_round`.
                let out = within(limit, move || {
                    std::panic::catch_unwind(|| {
                        with_team(
                            members,
                            |_| (),
                            |team| {
                                for r in 0..10 {
                                    team.round(|| assert_ne!(r, bad_round));
                                }
                            },
                        );
                    })
                });
                assert!(
                    out.is_err(),
                    "{members} members, caller panic in round {bad_round}"
                );
            }
        }
    }

    #[test]
    fn tree_reduce_combines_everything_deterministically() {
        for n in [0usize, 1, 2, 3, 7, 8, 33, 1000] {
            let items: Vec<u64> = (0..n as u64).collect();
            let got = tree_reduce(items, |a, b| a + b);
            match n {
                0 => assert_eq!(got, None),
                _ => assert_eq!(got, Some((n as u64) * (n as u64 - 1) / 2)),
            }
        }
        // Deterministic combine structure: string concatenation exposes the
        // association order; two runs must agree exactly.
        let words = || (0..13).map(|i| format!("[{i}]")).collect::<Vec<_>>();
        let a = tree_reduce(words(), |x, y| x + &y).unwrap();
        let b = tree_reduce(words(), |x, y| x + &y).unwrap();
        assert_eq!(a, b);
        for i in 0..13 {
            assert!(a.contains(&format!("[{i}]")));
        }
    }

    #[test]
    fn thread_cap_lowers_but_never_raises() {
        set_thread_cap(Some(1));
        assert_eq!(num_threads(), 1);
        set_thread_cap(Some(1_000_000));
        assert_eq!(num_threads(), hardware_threads());
        set_thread_cap(None);
        assert_eq!(num_threads(), hardware_threads());
    }

    #[test]
    fn coarse_for_each_visits_every_item_even_tiny_batches() {
        use std::sync::atomic::AtomicU64;
        // Small batches must still run (and in parallel when threads allow)
        // — coarse items are whole solver steps, not loop iterations.
        for n in [0usize, 1, 2, 7, 64] {
            let items: Vec<u64> = (0..n as u64).collect();
            let sum = AtomicU64::new(0);
            par_for_each_coarse(&items, |&i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            let expect = if n == 0 {
                0
            } else {
                (n as u64) * (n as u64 - 1) / 2
            };
            assert_eq!(sum.load(Ordering::Relaxed), expect);
        }
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn dedicated_threads_run_every_item_despite_a_cap() {
        // A thread cap must not reduce rank parallelism: all four ranks
        // run (under a cap of 1 a capped pool would stall a blocking
        // exchange; here we just prove every item executes and results
        // come back in item order).
        set_thread_cap(Some(1));
        let items: Vec<u64> = (0..4).collect();
        let out = dedicated_threads(items, |i, x| {
            assert_eq!(i as u64, x);
            x * 10
        });
        set_thread_cap(None);
        assert_eq!(out, vec![0, 10, 20, 30]);
        // Degenerate sizes.
        assert_eq!(dedicated_threads(Vec::<u8>::new(), |_, x| x), vec![]);
        assert_eq!(dedicated_threads(vec![7u8], |i, x| x + i as u8), vec![7]);
    }
}
