//! Pre-allocated session slab with striped free-index recycling.
//!
//! Every slot is built once at pool construction: the solver state inside
//! it is created on the first (cold) admission of a case and *reused* by
//! every later admission of the same case — a warm bind rewinds the state
//! in place without allocating. The free list is striped across several
//! independently locked stacks so concurrent admit/release traffic does
//! not serialize on one mutex; a round-robin cursor spreads acquisitions
//! over the stripes.
//!
//! `acquire_index` and `release_index` pop and push indices on stacks
//! sized at construction, so neither allocates. That a reused slot is a
//! fresh slot, bitwise, is pinned by the serve tests and audited by
//! pass 9.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use alya_solver::FractionalStep;
use alya_telemetry::{scoped_session, ScopedSession};

use crate::{SharedCase, WorkKind, FNV_OFFSET};
use std::sync::Arc;

/// Locks a mutex, treating poison as harmless (slot state is repaired by
/// the next bind; counters are monotonic).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pool sizing.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of pre-allocated session slots.
    pub capacity: usize,
    /// Free-list stripes (clamped to `1..=capacity`).
    pub stripes: usize,
    /// Audit-only fault injection: a released slot keeps its solver state
    /// and a warm re-admission skips the rewind — the exact slot-leak the
    /// analyzer's pass 9 isolation check must catch. Never set outside
    /// that pass's slot-leak tamper test.
    #[doc(hidden)]
    pub leak_slot_state_for_audit: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            stripes: 4,
            leak_slot_state_for_audit: false,
        }
    }
}

/// Handle to an admitted session: the slot index plus the slot's
/// generation at admission (a released-and-reused slot bumps the
/// generation, so stale handles are distinguishable in outcomes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionId {
    /// Slot index inside the pool.
    pub index: u32,
    /// Slot generation at admission.
    pub generation: u32,
}

/// One pooled session slot. Everything here is reused across sessions.
pub(crate) struct Slot {
    /// Bumped on every release; part of [`SessionId`].
    pub generation: u32,
    /// Owning tenant of the current session.
    pub tenant: u32,
    /// What each work item of the current session executes.
    pub kind: WorkKind,
    /// Work items still to run for the current session.
    pub remaining: u32,
    /// Work items already run for the current session.
    pub steps_done: u32,
    /// Steps of the current session whose pressure solve hit the
    /// iteration cap or broke down instead of converging.
    pub unconverged_steps: u32,
    /// Running output digest ([`WorkKind::Assemble`] accumulates here).
    pub digest: u64,
    /// Wall time of the most recent work item, nanoseconds.
    pub last_step_ns: u64,
    /// Case bound to this slot (decides warm vs cold on re-admission).
    pub case: Option<Arc<SharedCase>>,
    /// The pooled solver state (present after the first cold bind).
    pub solver: Option<FractionalStep<'static>>,
    /// This slot's scoped telemetry session; rotated at release so each
    /// admitted session gets a private collection window.
    pub telemetry: ScopedSession,
}

struct Stripe {
    items: Vec<u32>,
    len: usize,
}

/// The slab: slots plus striped free-index stacks.
pub struct SessionPool {
    slots: Vec<Mutex<Slot>>,
    stripes: Vec<Mutex<Stripe>>,
    rr: AtomicUsize,
    live: AtomicUsize,
    peak_live: AtomicUsize,
    cold_builds: AtomicU64,
    warm_binds: AtomicU64,
    leak_for_audit: bool,
}

impl SessionPool {
    /// Builds the slab: every slot, stripe and telemetry session is
    /// allocated here, once — nothing on the acquire/release path
    /// allocates afterwards.
    pub fn new(config: &PoolConfig) -> Self {
        let capacity = config.capacity.max(1);
        let nstripes = config.stripes.clamp(1, capacity);
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Mutex::new(Slot {
                generation: 0,
                tenant: u32::MAX,
                kind: WorkKind::Step,
                remaining: 0,
                steps_done: 0,
                unconverged_steps: 0,
                digest: FNV_OFFSET,
                last_step_ns: 0,
                case: None,
                solver: None,
                telemetry: scoped_session(),
            }));
        }
        // Index i lives on stripe i % nstripes, both initially and on
        // every release, so each stripe's stack is sized exactly.
        let mut stripes = Vec::with_capacity(nstripes);
        for k in 0..nstripes {
            let items: Vec<u32> = (0..capacity as u32)
                .filter(|i| (*i as usize) % nstripes == k)
                .collect();
            let len = items.len();
            stripes.push(Mutex::new(Stripe { items, len }));
        }
        Self {
            slots,
            stripes,
            rr: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            peak_live: AtomicUsize::new(0),
            cold_builds: AtomicU64::new(0),
            warm_binds: AtomicU64::new(0),
            leak_for_audit: config.leak_slot_state_for_audit,
        }
    }

    /// Pops a free slot index, or `None` when the pool is saturated.
    /// Starts at a round-robin stripe and scans the rest, so concurrent
    /// admissions spread over the stripe locks.
    pub fn acquire_index(&self) -> Option<u32> {
        let n = self.stripes.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            let mut stripe = lock(&self.stripes[(start + k) % n]);
            if stripe.len > 0 {
                stripe.len -= 1;
                let idx = stripe.items[stripe.len];
                let now = self.live.fetch_add(1, Ordering::Relaxed) + 1;
                self.peak_live.fetch_max(now, Ordering::Relaxed);
                return Some(idx);
            }
        }
        None
    }

    /// Returns a slot index to its home stripe. The stack was sized for
    /// every index that can ever land here, so the write is in bounds by
    /// construction (debug-asserted).
    pub fn release_index(&self, idx: u32) {
        let n = self.stripes.len();
        let mut stripe = lock(&self.stripes[idx as usize % n]);
        debug_assert!(stripe.len < stripe.items.len(), "double release");
        let at = stripe.len;
        stripe.items[at] = idx;
        stripe.len += 1;
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn slot(&self, idx: u32) -> &Mutex<Slot> {
        &self.slots[idx as usize]
    }

    pub(crate) fn note_cold_build(&self) {
        self.cold_builds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_warm_bind(&self) {
        self.warm_binds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn leak_for_audit(&self) -> bool {
        self.leak_for_audit
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Currently admitted sessions.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently admitted sessions.
    pub fn peak_live(&self) -> usize {
        self.peak_live.load(Ordering::Relaxed)
    }

    /// Cold binds performed (solver built from shared case parts).
    pub fn cold_builds(&self) -> u64 {
        self.cold_builds.load(Ordering::Relaxed)
    }

    /// Warm binds performed (pooled solver rewound in place).
    pub fn warm_binds(&self) -> u64 {
        self.warm_binds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycles_every_index() {
        let pool = SessionPool::new(&PoolConfig {
            capacity: 7,
            stripes: 3,
            leak_slot_state_for_audit: false,
        });
        let mut got: Vec<u32> = (0..7).map(|_| pool.acquire_index().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(pool.acquire_index(), None);
        assert_eq!(pool.live(), 7);
        assert_eq!(pool.peak_live(), 7);
        for i in got {
            pool.release_index(i);
        }
        assert_eq!(pool.live(), 0);
        // Every index is acquirable again.
        let mut again: Vec<u32> = (0..7).map(|_| pool.acquire_index().unwrap()).collect();
        again.sort_unstable();
        assert_eq!(again, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn concurrent_acquire_release_conserves_indices() {
        let pool = SessionPool::new(&PoolConfig {
            capacity: 32,
            stripes: 4,
            leak_slot_state_for_audit: false,
        });
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..200 {
                        if let Some(i) = pool.acquire_index() {
                            pool.release_index(i);
                        }
                    }
                });
            }
        });
        assert_eq!(pool.live(), 0);
        let mut all: Vec<u32> = (0..32).map(|_| pool.acquire_index().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 32, "an index leaked or duplicated");
    }

    #[test]
    fn degenerate_configs_are_clamped() {
        let pool = SessionPool::new(&PoolConfig {
            capacity: 0,
            stripes: 0,
            leak_slot_state_for_audit: false,
        });
        assert_eq!(pool.capacity(), 1);
        assert_eq!(pool.acquire_index(), Some(0));
        assert_eq!(pool.acquire_index(), None);
    }
}
