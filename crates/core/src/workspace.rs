//! Vectorized intermediate-value workspaces.
//!
//! The paper's baseline stores *every* intermediate in an array with an
//! extra interleaved `VECTOR_DIM` dimension; the privatized variants turn
//! those arrays into thread-private (local-memory) arrays. [`Ws`] is that
//! storage with tracking: each `ld`/`st` goes through the recorder as a
//! global access at the interleaved modelled address ([`Space::Global`]) or
//! a local access at the per-thread slot ([`Space::Local`]) — one event per
//! access whatever the lane count, at the address of the first lane.
//!
//! The numeric buffer is slot-major, lane-minor: the `V::N` lanes of slot
//! `v` sit side by side at `data[v*stride + lane ..]`. Placement is the
//! driver's choice: the element loop hands a batch the whole buffer
//! (`stride` = its lane count, `lane` 0) — so the un-instrumented build
//! really does pay the baseline's memory traffic, a pack at a time — while
//! the pack tracer walks one-lane elements across the lanes of a shared
//! `CPU_VECTOR_DIM`-wide buffer.

use std::marker::PhantomData;

use alya_machine::{Recorder, Space};

use crate::layout::Layout;
use crate::packs::Lanes;

/// A tracked intermediate-value workspace for one batch of elements whose
/// intermediates are `V`s: one element for `f64`, `L` in lockstep for
/// [`Pack<L>`](crate::packs::Pack).
#[derive(Debug)]
pub struct Ws<'a, V = f64> {
    data: &'a mut [f64],
    stride: usize,
    lane: usize,
    space: Space,
    lanes: PhantomData<V>,
}

impl<'a, V: Lanes> Ws<'a, V> {
    /// View of a shared interleaved buffer starting at lane `lane`
    /// (`data[v*stride + lane ..]`), traced as interleaved **global**
    /// arrays — variants B and RS.
    pub fn global(data: &'a mut [f64], stride: usize, lane: usize) -> Self {
        debug_assert!(lane + V::N <= stride);
        Self {
            data,
            stride,
            lane,
            space: Space::Global,
            lanes: PhantomData,
        }
    }

    /// Compact per-batch scratch traced as **local** (thread-private)
    /// arrays — variant P.
    pub fn local(data: &'a mut [f64]) -> Self {
        Self {
            data,
            stride: V::N,
            lane: 0,
            space: Space::Local,
            lanes: PhantomData,
        }
    }

    /// Number of value slots available.
    pub fn len(&self) -> usize {
        self.data.len() / self.stride
    }

    /// True when no slots are available.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Narrows the view to its first `n` slots. One bounds check here lets
    /// the compiler drop the per-access ones wherever a kernel's slot
    /// numbers are compile-time constants.
    #[inline]
    pub fn first_slots(self, n: usize) -> Self {
        Self {
            data: &mut self.data[..n * self.stride],
            ..self
        }
    }

    /// Where the lanes of slot `v` live in the buffer.
    #[inline]
    fn lanes_of(&self, v: usize) -> std::ops::Range<usize> {
        let first = v * self.stride + self.lane;
        first..first + V::N
    }

    /// Stores intermediate value `v`.
    #[inline]
    pub fn st<R: Recorder>(&mut self, v: usize, val: V, layout: &Layout, rec: &mut R) {
        if R::ENABLED {
            match self.space {
                Space::Global => rec.gstore(layout.ws(v)),
                Space::Local => rec.lstore(v as u32),
            }
        }
        let at = self.lanes_of(v);
        for (l, slot) in self.data[at].iter_mut().enumerate() {
            *slot = val.lane(l);
        }
    }

    /// Loads intermediate value `v`.
    #[inline]
    pub fn ld<R: Recorder>(&self, v: usize, layout: &Layout, rec: &mut R) -> V {
        if R::ENABLED {
            match self.space {
                Space::Global => rec.gload(layout.ws(v)),
                Space::Local => rec.lload(v as u32),
            }
        }
        let slot = &self.data[self.lanes_of(v)];
        V::from_fn(|l| slot[l])
    }

    /// Read-modify-write accumulation into slot `v` (a load, an FMA-able
    /// add, and a store — the pattern the paper shows compilers emitting
    /// for `temp(:) = temp(:) + ...`).
    #[inline]
    pub fn acc<R: Recorder>(&mut self, v: usize, inc: V, layout: &Layout, rec: &mut R) {
        let old = self.ld(v, layout, rec);
        rec.flop(1);
        self.st(v, old + inc, layout, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_machine::{Event, NoRecord, TraceRecorder};

    fn layout() -> Layout {
        Layout::cpu(3, 16, 100)
    }

    #[test]
    fn global_ws_roundtrip_interleaved() {
        let mut buf = vec![0.0; 4 * 16];
        let l = layout();
        let mut ws = Ws::global(&mut buf, 16, 3);
        ws.st(2, 7.5, &l, &mut NoRecord);
        assert_eq!(ws.ld(2, &l, &mut NoRecord), 7.5);
        assert_eq!(ws.len(), 4);
        // Interleaved location: value 2, lane 3.
        assert_eq!(buf[2 * 16 + 3], 7.5);
    }

    #[test]
    fn global_ws_traces_interleaved_addresses() {
        let mut buf = vec![0.0; 4 * 16];
        let l = layout();
        let mut ws = Ws::global(&mut buf, 16, 3);
        let mut rec = TraceRecorder::new();
        ws.st(2, 1.0, &l, &mut rec);
        let _ = ws.ld(2, &l, &mut rec);
        assert_eq!(
            rec.events,
            vec![Event::GStore(l.ws(2)), Event::GLoad(l.ws(2))]
        );
    }

    #[test]
    fn local_ws_traces_slots() {
        let mut buf = vec![0.0; 8];
        let l = layout();
        let mut ws = Ws::local(&mut buf);
        let mut rec = TraceRecorder::new();
        ws.st(5, 2.0, &l, &mut rec);
        let _ = ws.ld(5, &l, &mut rec);
        assert_eq!(rec.events, vec![Event::LStore(5), Event::LLoad(5)]);
        assert_eq!(ws.ld(5, &l, &mut NoRecord), 2.0);
    }

    #[test]
    fn acc_is_rmw() {
        let mut buf = vec![0.0; 2];
        let l = layout();
        let mut ws = Ws::local(&mut buf);
        ws.st(0, 1.0, &l, &mut NoRecord);
        let mut rec = TraceRecorder::new();
        ws.acc(0, 2.5, &l, &mut rec);
        assert_eq!(ws.ld(0, &l, &mut NoRecord), 3.5);
        let c = rec.counts();
        assert_eq!(c.local_loads, 1);
        assert_eq!(c.local_stores, 1);
        assert_eq!(c.plain_flops, 1);
    }

    #[test]
    fn two_lanes_share_a_buffer_without_clashing() {
        let mut buf = vec![0.0; 3 * 4];
        let l = layout();
        {
            let mut ws = Ws::global(&mut buf, 4, 0);
            ws.st(1, 10.0, &l, &mut NoRecord);
        }
        {
            let mut ws = Ws::global(&mut buf, 4, 2);
            ws.st(1, 20.0, &l, &mut NoRecord);
        }
        {
            let ws0: Ws = Ws::global(&mut buf, 4, 0);
            assert_eq!(ws0.ld(1, &l, &mut NoRecord), 10.0);
        }
        let ws2: Ws = Ws::global(&mut buf, 4, 2);
        assert_eq!(ws2.ld(1, &l, &mut NoRecord), 20.0);
    }

    #[test]
    fn pack_ws_is_slot_major_lane_minor() {
        use crate::packs::Pack;
        let mut buf = vec![0.0; 3 * 4];
        let l = layout();
        let mut ws = Ws::<Pack<4>>::global(&mut buf, 4, 0);
        assert_eq!(ws.len(), 3);
        ws.st(1, Pack([1.0, 2.0, 3.0, 4.0]), &l, &mut NoRecord);
        // One event per access whatever the lane count.
        let mut rec = TraceRecorder::new();
        ws.acc(1, Pack([0.5; 4]), &l, &mut rec);
        assert_eq!(
            rec.events,
            vec![
                Event::GLoad(l.ws(1)),
                Event::Flop(1),
                Event::GStore(l.ws(1))
            ]
        );
        assert_eq!(ws.ld(1, &l, &mut NoRecord).0, [1.5, 2.5, 3.5, 4.5]);
        // Slot 1's lanes are contiguous at offset L — for a local
        // workspace too, whose stride is its lane count.
        assert_eq!(buf[4..8], [1.5, 2.5, 3.5, 4.5]);
        let mut ws = Ws::<Pack<4>>::local(&mut buf);
        ws.st(2, Pack([9.0; 4]), &l, &mut NoRecord);
        assert_eq!(buf[8..12], [9.0; 4]);
    }
}
