//! Instruction/memory event traces — the software performance counters.
//!
//! The assembly kernels in `alya-core` are generic over a [`Recorder`].
//! With [`NoRecord`] every hook is a no-op that monomorphizes away, so the
//! numeric path used by the solver and the wall-clock benchmarks pays
//! nothing. With [`TraceRecorder`] the exact same kernel code emits one
//! [`Event`] per modelled machine operation, which the GPU/CPU models then
//! replay. Counters and physics can therefore never drift apart: they come
//! from the same monomorphized source.
//!
//! Addressing conventions (all values are `f64`, 8 bytes):
//!
//! * **global** events carry byte addresses; `alya-core` assigns each global
//!   array a disjoint region (array id in the high bits);
//! * **local** events carry per-thread *slots*; the GPU model interleaves
//!   slots across the threads of a block exactly like CUDA local memory,
//!   the CPU model maps them to a per-core stack frame;
//! * **def/use** events name SSA-like private scalar values; the register
//!   allocator decides which become registers and which spill (appearing as
//!   extra local traffic).

/// Memory space of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device/global memory (nodal arrays, interleaved intermediates).
    Global,
    /// Thread-private local memory (privatized arrays, register spills).
    Local,
}

/// One modelled machine operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// 8-byte load from a global byte address.
    GLoad(u64),
    /// 8-byte store to a global byte address.
    GStore(u64),
    /// 8-byte load from a per-thread local slot.
    LLoad(u32),
    /// 8-byte store to a per-thread local slot.
    LStore(u32),
    /// Definition of a private scalar value.
    Def(u32),
    /// Use of a private scalar value.
    Use(u32),
    /// `n` plain floating-point operations (adds/muls counted singly).
    Flop(u32),
    /// `n` fused multiply-adds (each counts as 2 Flop in the tables).
    Fma(u32),
}

/// Instrumentation hooks threaded through the assembly kernels.
///
/// All methods have empty defaults so [`NoRecord`] is a zero-cost plug.
/// `ENABLED` lets kernels skip address computation for the recorder when
/// tracing is off (`if R::ENABLED { ... }` folds to nothing).
pub trait Recorder {
    /// Whether this recorder observes anything.
    const ENABLED: bool;

    /// 8-byte global load.
    #[inline]
    fn gload(&mut self, addr: u64) {
        let _ = addr;
    }
    /// 8-byte global store.
    #[inline]
    fn gstore(&mut self, addr: u64) {
        let _ = addr;
    }
    /// 8-byte local (thread-private) load of `slot`.
    #[inline]
    fn lload(&mut self, slot: u32) {
        let _ = slot;
    }
    /// 8-byte local store of `slot`.
    #[inline]
    fn lstore(&mut self, slot: u32) {
        let _ = slot;
    }
    /// Definition of private scalar `v`.
    #[inline]
    fn def(&mut self, v: u32) {
        let _ = v;
    }
    /// Use of private scalar `v`.
    #[inline]
    fn use_(&mut self, v: u32) {
        let _ = v;
    }
    /// `n` plain floating-point operations.
    #[inline]
    fn flop(&mut self, n: u32) {
        let _ = n;
    }
    /// `n` fused multiply-adds.
    #[inline]
    fn fma(&mut self, n: u32) {
        let _ = n;
    }
}

/// The zero-cost recorder used by the production numeric path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRecord;

impl Recorder for NoRecord {
    const ENABLED: bool = false;
}

/// Records every event into a vector for replay by the machine models.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    /// The recorded event stream, in program order.
    pub events: Vec<Event>,
}

impl TraceRecorder {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the trace, keeping the allocation.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Summary counts of the recorded stream.
    pub fn counts(&self) -> TraceCounts {
        TraceCounts::from_events(&self.events)
    }
}

// Trace capture is instrumentation-only: production assembly monomorphizes
// kernels with `NoRecord` (`R::ENABLED = false` folds every recorder call
// to nothing), so these bodies never run on the hot path.
impl Recorder for TraceRecorder {
    const ENABLED: bool = true;

    fn gload(&mut self, addr: u64) {
        self.events.push(Event::GLoad(addr));
    }
    fn gstore(&mut self, addr: u64) {
        self.events.push(Event::GStore(addr));
    }
    fn lload(&mut self, slot: u32) {
        self.events.push(Event::LLoad(slot));
    }
    fn lstore(&mut self, slot: u32) {
        self.events.push(Event::LStore(slot));
    }
    fn def(&mut self, v: u32) {
        self.events.push(Event::Def(v));
    }
    fn use_(&mut self, v: u32) {
        self.events.push(Event::Use(v));
    }
    fn flop(&mut self, n: u32) {
        if n > 0 {
            self.events.push(Event::Flop(n));
        }
    }
    fn fma(&mut self, n: u32) {
        if n > 0 {
            self.events.push(Event::Fma(n));
        }
    }
}

/// Aggregate operation counts of a trace (before register allocation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Global 8-byte loads.
    pub global_loads: u64,
    /// Global 8-byte stores.
    pub global_stores: u64,
    /// Local 8-byte loads (explicit, pre-spill).
    pub local_loads: u64,
    /// Local 8-byte stores (explicit, pre-spill).
    pub local_stores: u64,
    /// Private value definitions.
    pub defs: u64,
    /// Private value uses.
    pub uses: u64,
    /// Plain floating-point operations.
    pub plain_flops: u64,
    /// Fused multiply-add operations.
    pub fmas: u64,
}

impl TraceCounts {
    /// Scans an event stream.
    pub fn from_events(events: &[Event]) -> Self {
        let mut c = Self::default();
        for e in events {
            match *e {
                Event::GLoad(_) => c.global_loads += 1,
                Event::GStore(_) => c.global_stores += 1,
                Event::LLoad(_) => c.local_loads += 1,
                Event::LStore(_) => c.local_stores += 1,
                Event::Def(_) => c.defs += 1,
                Event::Use(_) => c.uses += 1,
                Event::Flop(n) => c.plain_flops += n as u64,
                Event::Fma(n) => c.fmas += n as u64,
            }
        }
        c
    }

    /// Total floating-point operations with the paper's convention
    /// (1 FMA = 2 Flop).
    pub fn flops(&self) -> u64 {
        self.plain_flops + 2 * self.fmas
    }

    /// Total floating-point *instructions* (an FMA is one instruction).
    pub fn fp_instructions(&self) -> u64 {
        self.plain_flops + self.fmas
    }

    /// Global load/store operations.
    pub fn global_ldst(&self) -> u64 {
        self.global_loads + self.global_stores
    }

    /// Local load/store operations (pre-spill).
    pub fn local_ldst(&self) -> u64 {
        self.local_loads + self.local_stores
    }
}

/// Estimated memory-level parallelism of a thread's event stream.
///
/// Loads issued back-to-back (without an intervening floating-point
/// operation that would consume them) can have their latencies overlapped;
/// a load directly followed by arithmetic exposes its full latency. The
/// estimate is the average length of maximal load runs, weighted by run
/// length — the quantity that feeds the Little's-law bandwidth model.
///
/// Two dependence rules:
/// * stores are fire-and-forget and neither extend nor break a run, **but**
/// * a load that re-reads an address this thread previously *stored*
///   (the baseline's store-intermediate-then-reload pattern) is a
///   store-to-load dependence that must round-trip the cache hierarchy —
///   it terminates the running burst and counts as a burst of one. This is
///   what collapses the baseline's memory parallelism in the paper
///   ("the short load/compute/store cycles offer little memory ILP").
pub fn estimate_mlp(events: &[Event]) -> f64 {
    use std::collections::BTreeSet;
    let mut weighted = 0u64;
    let mut total = 0u64;
    let mut run = 0u64;
    let mut stored: BTreeSet<u64> = BTreeSet::new();
    // Local slots share the key space via a high tag bit.
    const LOCAL_TAG: u64 = 1 << 63;
    let flush = |run: &mut u64, weighted: &mut u64, total: &mut u64| {
        if *run > 0 {
            *weighted += *run * *run;
            *total += *run;
            *run = 0;
        }
    };
    for e in events {
        match *e {
            Event::GLoad(a) => {
                if stored.contains(&a) {
                    // Dependent reload: exposed latency, burst of one.
                    flush(&mut run, &mut weighted, &mut total);
                    weighted += 1;
                    total += 1;
                } else {
                    run += 1;
                }
            }
            Event::LLoad(s) => {
                if stored.contains(&(LOCAL_TAG | s as u64)) {
                    flush(&mut run, &mut weighted, &mut total);
                    weighted += 1;
                    total += 1;
                } else {
                    run += 1;
                }
            }
            Event::GStore(a) => {
                stored.insert(a);
            }
            Event::LStore(s) => {
                stored.insert(LOCAL_TAG | s as u64);
            }
            Event::Flop(_) | Event::Fma(_) | Event::Use(_) => {
                flush(&mut run, &mut weighted, &mut total);
            }
            _ => {}
        }
    }
    flush(&mut run, &mut weighted, &mut total);
    if total == 0 {
        1.0
    } else {
        weighted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel<R: Recorder>(rec: &mut R) {
        // A miniature kernel exercising every hook.
        rec.gload(0x100);
        rec.gload(0x108);
        rec.fma(3);
        rec.def(0);
        rec.use_(0);
        rec.lstore(2);
        rec.lload(2);
        rec.flop(5);
        rec.gstore(0x200);
    }

    #[test]
    fn no_record_is_inert() {
        let mut rec = NoRecord;
        kernel(&mut rec); // must compile and do nothing
        assert!(!NoRecord::ENABLED);
    }

    #[test]
    fn trace_recorder_captures_program_order() {
        let mut rec = TraceRecorder::new();
        kernel(&mut rec);
        assert_eq!(rec.events.len(), 9);
        assert_eq!(rec.events[0], Event::GLoad(0x100));
        assert_eq!(rec.events[8], Event::GStore(0x200));
    }

    #[test]
    fn counts_aggregate_correctly() {
        let mut rec = TraceRecorder::new();
        kernel(&mut rec);
        let c = rec.counts();
        assert_eq!(c.global_loads, 2);
        assert_eq!(c.global_stores, 1);
        assert_eq!(c.local_loads, 1);
        assert_eq!(c.local_stores, 1);
        assert_eq!(c.defs, 1);
        assert_eq!(c.uses, 1);
        assert_eq!(c.plain_flops, 5);
        assert_eq!(c.fmas, 3);
        assert_eq!(c.flops(), 11);
        assert_eq!(c.fp_instructions(), 8);
        assert_eq!(c.global_ldst(), 3);
        assert_eq!(c.local_ldst(), 2);
    }

    #[test]
    fn zero_flop_events_are_dropped() {
        let mut rec = TraceRecorder::new();
        rec.flop(0);
        rec.fma(0);
        assert!(rec.events.is_empty());
    }

    #[test]
    fn clear_keeps_reusing() {
        let mut rec = TraceRecorder::new();
        rec.gload(1);
        rec.clear();
        assert!(rec.events.is_empty());
        rec.gload(2);
        assert_eq!(rec.events, vec![Event::GLoad(2)]);
    }

    #[test]
    fn mlp_of_dependent_chain_is_one() {
        // load, fp, load, fp, ... — classic baseline pattern.
        let mut ev = Vec::new();
        for i in 0..10 {
            ev.push(Event::GLoad(i * 8));
            ev.push(Event::Fma(1));
        }
        assert!((estimate_mlp(&ev) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mlp_of_gather_burst_is_high() {
        // 12 loads then compute — the RSP gather pattern.
        let mut ev = Vec::new();
        for i in 0..12 {
            ev.push(Event::GLoad(i * 8));
        }
        ev.push(Event::Fma(30));
        assert!((estimate_mlp(&ev) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn mlp_weights_by_run_length() {
        // One run of 9 and one run of 1: (81 + 1) / 10 = 8.2 — dominated by
        // where the bytes move, not by the run count.
        let mut ev = Vec::new();
        for i in 0..9 {
            ev.push(Event::GLoad(i));
        }
        ev.push(Event::Flop(1));
        ev.push(Event::GLoad(99));
        ev.push(Event::Flop(1));
        assert!((estimate_mlp(&ev) - 8.2).abs() < 1e-12);
    }

    #[test]
    fn stores_do_not_break_load_runs() {
        let ev = vec![
            Event::GLoad(0),
            Event::GStore(64),
            Event::GLoad(8),
            Event::Fma(1),
        ];
        assert!((estimate_mlp(&ev) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_unit_mlp() {
        assert_eq!(estimate_mlp(&[]), 1.0);
    }
}
