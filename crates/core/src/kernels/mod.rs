//! The five assembly kernel variants.
//!
//! All variants integrate the same physics over one linear tetrahedron —
//! convection `−ρ (u·∇)u`, diffusion `−(μ + ρ ν_t) ∇u : ∇N`, pressure
//! `+p ∇·N` and a uniform body force, with the 4-point Gauss rule — and
//! must produce the same elemental RHS to roundoff. They differ *only* in
//! code structure, which is the paper's entire subject:
//!
//! * [`baseline`] (**B** and, with a local workspace, **P**): the generic,
//!   elemental-matrix formulation with every intermediate in a workspace
//!   array;
//! * [`rs`] (**RS**): specialized and restructured, but intermediates still
//!   in interleaved arrays;
//! * [`rsp`] (**RSP**): specialized, restructured and privatized to scalars;
//! * [`rspr`] (**RSPR**): RSP plus immediate per-node scatter.
//!
//! Each kernel is one function, generic over the lane count `L` and the
//! [`Recorder`]: every intermediate is a [`Pack<L>`](crate::packs::Pack),
//! one lane per element, so `L = 1` *is* the scalar kernel and
//! `L =` [`DEFAULT_LANES`](crate::packs::DEFAULT_LANES) the paper's
//! cross-element vectorization — same statements, bitwise equal per lane.
//! Recorder events are per statement, not per lane: a batch records what
//! its lane-0 element alone would, at that element's addresses. Lane 0
//! also scatters through the sink as the kernel runs (RSPR: node by
//! node); the kernel returns all lanes' elemental RHS and the caller
//! scatters lanes `1..L` in order.

pub mod baseline;
pub mod rs;
pub mod rsp;
pub mod rspr;
pub(crate) mod shared;

use alya_machine::Recorder;

use crate::gather::ScatterSink;
use crate::input::AssemblyInput;
use crate::layout::Layout;
use crate::packs::{Lanes, Pack};
use crate::variant::Variant;
use crate::workspace::Ws;

/// The elemental RHS of `L` elements in lockstep: `elrhs[a][d]`, a lane per
/// element.
pub type ElemRhs<const L: usize> = [[Pack<L>; 3]; 4];

/// Dispatches `L` elements in lockstep to the variant's kernel — the one
/// kernel call under every driver, tracer and bench.
///
/// `ws_buf` must hold `variant.nvalues() × stride` floats for the
/// workspace variants (it is ignored by RSP/RSPR); `stride`/`lane` place
/// the batch's `L` lanes within its pack. `rec` sees one event per
/// statement — lane 0's stream — and lane 0 scatters through `sink` as the
/// kernel runs; the caller scatters lanes `1..L` of the returned RHS, in
/// order, to reproduce `L` one-lane calls bit for bit. Inlined, with the
/// workspace kernels, so a caller's constant `stride`/`lane` reach their
/// slot indexing.
#[allow(clippy::too_many_arguments)]
// alya:hot
#[inline(always)]
pub fn element<const L: usize, R: Recorder, S: ScatterSink>(
    variant: Variant,
    input: &AssemblyInput,
    elems: &[usize; L],
    lay: &Layout,
    ws_buf: &mut [f64],
    stride: usize,
    lane: usize,
    sink: &mut S,
    rec: &mut R,
) -> ElemRhs<L> {
    match variant {
        Variant::B => {
            let ws = Ws::global(ws_buf, stride, lane);
            baseline::element(input, elems, lay, ws, sink, rec)
        }
        Variant::P => {
            let ws = Ws::local(ws_buf);
            baseline::element(input, elems, lay, ws, sink, rec)
        }
        Variant::Rs => {
            let ws = Ws::global(ws_buf, stride, lane);
            rs::element(input, elems, lay, ws, sink, rec)
        }
        Variant::Rsp => rsp::element(input, elems, lay, sink, rec),
        Variant::Rspr => rspr::element(input, elems, lay, sink, rec),
    }
}

/// Tracked thread-private value (a register per lane): the value plus its
/// lifetime identity for the register allocator.
#[derive(Debug, Clone, Copy)]
pub struct Pv<V = f64> {
    val: V,
    id: u32,
}

impl<V: Lanes> Pv<V> {
    /// Reads the value, recording a register use.
    #[inline]
    pub fn get<R: Recorder>(self, rec: &mut R) -> V {
        if R::ENABLED {
            rec.use_(self.id);
        }
        self.val
    }

    /// Updates the value in place (same register, new definition — the
    /// accumulator pattern).
    #[inline]
    pub fn set<R: Recorder>(&mut self, val: V, rec: &mut R) {
        if R::ENABLED {
            rec.def(self.id);
        }
        self.val = val;
    }
}

/// Allocates private-value identities for one element's kernel execution.
#[derive(Debug, Default)]
pub struct PrivAlloc {
    next: u32,
}

impl PrivAlloc {
    /// Fresh allocator (ids are per-element; the register allocator works
    /// on a single thread's stream).
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines a new private value.
    #[inline]
    pub fn def<V: Lanes, R: Recorder>(&mut self, val: V, rec: &mut R) -> Pv<V> {
        let id = self.next;
        self.next += 1;
        if R::ENABLED {
            rec.def(id);
        }
        Pv { val, id }
    }

    /// Defines a block of private values, one identity per entry in
    /// row-major order.
    #[inline(always)]
    pub fn def_all<T: Block, R: Recorder>(&mut self, vals: T, rec: &mut R) -> Pvs<T> {
        let first = self.next;
        self.next += T::LEN;
        if R::ENABLED {
            for id in first..self.next {
                rec.def(id);
            }
        }
        Pvs { vals, first }
    }
}

/// A plain array of [`Pack`]s that [`Pvs`] can track, entries numbered in
/// row-major order.
pub trait Block: Copy {
    /// One entry.
    type V: Lanes;
    /// An entry's index: `i` for `[V; N]`, `(i, j)` for `[[V; M]; N]`.
    type Ix: Copy;
    /// Number of entries.
    const LEN: u32;
    /// Row-major position of entry `ix`.
    fn offset(ix: Self::Ix) -> u32;
    /// Entry `ix`.
    fn at(&self, ix: Self::Ix) -> &Self::V;
    /// Entry `ix`, for writing.
    fn at_mut(&mut self, ix: Self::Ix) -> &mut Self::V;
}

impl<const L: usize, const N: usize> Block for [Pack<L>; N] {
    type V = Pack<L>;
    type Ix = usize;
    const LEN: u32 = N as u32;
    #[inline(always)]
    fn offset(i: usize) -> u32 {
        i as u32
    }
    #[inline(always)]
    fn at(&self, i: usize) -> &Pack<L> {
        &self[i]
    }
    #[inline(always)]
    fn at_mut(&mut self, i: usize) -> &mut Pack<L> {
        &mut self[i]
    }
}

impl<const L: usize, const N: usize, const M: usize> Block for [[Pack<L>; M]; N] {
    type V = Pack<L>;
    type Ix = (usize, usize);
    const LEN: u32 = (N * M) as u32;
    #[inline(always)]
    fn offset((i, j): (usize, usize)) -> u32 {
        (i * M + j) as u32
    }
    #[inline(always)]
    fn at(&self, (i, j): (usize, usize)) -> &Pack<L> {
        &self[i][j]
    }
    #[inline(always)]
    fn at_mut(&mut self, (i, j): (usize, usize)) -> &mut Pack<L> {
        &mut self[i][j]
    }
}

/// A tracked block of thread-private values: [`Pv`] for a whole array. The
/// values stay one plain array — what the math helpers take, so handing
/// them a block moves nothing — and an entry's identity is its position
/// after the block's first.
#[derive(Debug, Clone, Copy)]
pub struct Pvs<T> {
    vals: T,
    first: u32,
}

impl<T: Block> Pvs<T> {
    /// Reads entry `ix`, recording a register use.
    #[inline(always)]
    pub fn get<R: Recorder>(&self, ix: T::Ix, rec: &mut R) -> T::V {
        if R::ENABLED {
            rec.use_(self.first + T::offset(ix));
        }
        *self.vals.at(ix)
    }

    /// Updates entry `ix` in place (same register, new definition).
    #[inline(always)]
    pub fn set<R: Recorder>(&mut self, ix: T::Ix, val: T::V, rec: &mut R) {
        if R::ENABLED {
            rec.def(self.first + T::offset(ix));
        }
        *self.vals.at_mut(ix) = val;
    }

    /// Reads every entry, in order, as the plain array.
    #[inline(always)]
    pub fn all<R: Recorder>(&self, rec: &mut R) -> &T {
        if R::ENABLED {
            for id in self.first..self.first + T::LEN {
                rec.use_(id);
            }
        }
        &self.vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_machine::{Event, NoRecord, TraceRecorder};

    #[test]
    fn private_values_track_lifetimes() {
        let mut rec = TraceRecorder::new();
        let mut pa = PrivAlloc::new();
        let a = pa.def(1.5, &mut rec);
        let mut b = pa.def(2.0, &mut rec);
        let x = a.get(&mut rec) + b.get(&mut rec);
        b.set(x, &mut rec);
        assert_eq!(b.get(&mut rec), 3.5);
        assert_eq!(
            rec.events,
            vec![
                Event::Def(0),
                Event::Def(1),
                Event::Use(0),
                Event::Use(1),
                Event::Def(1),
                Event::Use(1),
            ]
        );
    }

    #[test]
    fn no_record_private_values_are_plain_floats() {
        let mut pa = PrivAlloc::new();
        let v = pa.def_all([1.0, 2.0, 3.0].map(Pack::<1>::splat), &mut NoRecord);
        assert_eq!(v.all(&mut NoRecord).map(|x| x.lane(0)), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn a_block_numbers_its_entries_in_row_major_order_after_its_first() {
        let mut rec = TraceRecorder::new();
        let mut pa = PrivAlloc::new();
        let lone = pa.def(Pack([7.0; 2]), &mut rec);
        let mut block = pa.def_all([[Pack([0.0; 2]); 3]; 2], &mut rec);
        block.set((1, 2), Pack([1.0, 2.0]), &mut rec);
        assert_eq!(block.get((1, 2), &mut rec).0, [1.0, 2.0]);
        assert_eq!(block.get((0, 1), &mut rec).0, [0.0; 2]);
        assert_eq!(block.all(&mut rec)[1][2], Pack([1.0, 2.0]));
        let next = pa.def(lone.get(&mut rec), &mut rec);
        assert_eq!(next.get(&mut rec).0, [7.0; 2]);
        let ids = |evs: &[Event]| -> Vec<(bool, u32)> {
            evs.iter()
                .map(|e| match e {
                    Event::Def(i) => (true, *i),
                    Event::Use(i) => (false, *i),
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        let mut want = vec![(true, 0)];
        want.extend((1..=6).map(|i| (true, i))); // the block: ids 1..=6
        want.extend([(true, 6), (false, 6), (false, 2)]); // set/get (1, 2), get (0, 1)
        want.extend((1..=6).map(|i| (false, i))); // all()
        want.extend([(false, 0), (true, 7), (false, 7)]); // one entry per id
        assert_eq!(ids(&rec.events), want);
    }
}
