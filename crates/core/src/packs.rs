//! Lane packs — the cross-element SIMD value type.
//!
//! The paper's central optimization gives every intermediate of the one
//! vectorized source an extra `VECTOR_DIM` dimension, so the Gauss-point
//! loops become straight-line vector arithmetic over a batch of elements.
//! This module is that dimension on the CPU: a [`Pack`] is one `f64` per
//! lane, and its operators apply lanewise. The kernels are written once
//! over `Pack<L>`; `L = 1` is the scalar kernel and `L =` [`DEFAULT_LANES`]
//! the packed one, so the two execute the same statements.
//!
//! No operator mixes lanes and each lane evaluates an expression in exactly
//! the order a plain `f64` would, so lane `l` of a result is bitwise the
//! value a one-lane run computes for element `l` — at every `L`. The
//! drivers rely on this to keep packed execution bit-for-bit reproducible
//! against scalar execution.
//!
//! [`Lanes`] abstracts over "one `f64` per lane" so the math helpers in
//! [`crate::ops`], the workspace and the gathers serve a plain `f64`
//! caller (the ν_t pass, the `alya-form` interpreter)
//! and the lane kernels from one body.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Default pack width: 8 f64 lanes — one AVX-512 register, two AVX2
/// registers. [`crate::drivers`] runs full packs at this width; the CPU
/// machine model prices the speedup from the host's `simd_lanes` against
/// it.
pub const DEFAULT_LANES: usize = 8;

/// A value with one `f64` per lane: `f64` itself (one lane) or a [`Pack`].
pub trait Lanes:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + Div<f64, Output = Self>
{
    /// Number of lanes.
    const N: usize;
    /// Builds a value lane by lane.
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self;
    /// Reads lane `l`.
    fn lane(&self, l: usize) -> f64;
    /// Broadcasts a scalar across all lanes.
    #[inline(always)]
    fn splat(x: f64) -> Self {
        Self::from_fn(|_| x)
    }
    /// Applies `f` to every lane.
    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Self::from_fn(|l| f(self.lane(l)))
    }
}

impl Lanes for f64 {
    const N: usize = 1;
    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        f(0)
    }
    #[inline(always)]
    fn lane(&self, _l: usize) -> f64 {
        *self
    }
}

/// `L` elements' worth of one intermediate: lane `l` belongs to the `l`-th
/// element of the batch. `L` defaults to [`DEFAULT_LANES`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pack<const L: usize = DEFAULT_LANES>(pub [f64; L]);

impl<const L: usize> Pack<L> {
    /// All lanes zero.
    pub const ZERO: Self = Pack([0.0; L]);
}

impl<const L: usize> Lanes for Pack<L> {
    const N: usize = L;
    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        let mut out = Self::ZERO;
        for l in 0..L {
            out.0[l] = f(l);
        }
        out
    }
    #[inline(always)]
    fn lane(&self, l: usize) -> f64 {
        self.0[l]
    }
}

/// Lanewise binary operators: `Pack ∘ Pack`, and against a scalar
/// broadcast to every lane — `Pack ∘ f64` for all four, `f64 ∘ Pack` for
/// the commutative two, so a kernel statement keeps the operand order of
/// the scalar code it is (`mu + rho * nut`).
macro_rules! lanewise {
    ($($op:ident :: $f:ident),*) => {$(
        impl<const L: usize> $op for Pack<L> {
            type Output = Self;
            #[inline(always)]
            fn $f(mut self, o: Self) -> Self {
                for l in 0..L {
                    self.0[l] = self.0[l].$f(o.0[l]);
                }
                self
            }
        }
        impl<const L: usize> $op<f64> for Pack<L> {
            type Output = Self;
            #[inline(always)]
            fn $f(mut self, o: f64) -> Self {
                for l in 0..L {
                    self.0[l] = self.0[l].$f(o);
                }
                self
            }
        }
    )*};
}
lanewise!(Add::add, Sub::sub, Mul::mul, Div::div);

macro_rules! scalar_first {
    ($($op:ident :: $f:ident),*) => {$(
        impl<const L: usize> $op<Pack<L>> for f64 {
            type Output = Pack<L>;
            #[inline(always)]
            fn $f(self, mut o: Pack<L>) -> Pack<L> {
                for l in 0..L {
                    o.0[l] = self.$f(o.0[l]);
                }
                o
            }
        }
    )*};
}
scalar_first!(Add::add, Mul::mul);

impl<const L: usize> Neg for Pack<L> {
    type Output = Self;
    #[inline(always)]
    fn neg(mut self) -> Self {
        for l in 0..L {
            self.0[l] = -self.0[l];
        }
        self
    }
}

impl<const L: usize> AddAssign for Pack<L> {
    #[inline(always)]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl<const L: usize> SubAssign for Pack<L> {
    #[inline(always)]
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use alya_machine::{NoRecord, TraceRecorder};

    const L: usize = 4;

    fn lane_matrices() -> [[[f64; 3]; 3]; L] {
        [
            [[2.0, 0.5, 0.1], [0.2, 1.5, 0.3], [0.1, 0.4, 3.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[2.0, 0.3, 0.0], [0.1, -1.0, 0.2], [0.0, 0.4, -1.0]],
            [[0.3, -0.2, 0.7], [1.1, 0.9, -0.4], [-0.5, 0.6, 0.8]],
        ]
    }

    /// Transposes per-lane `R × C` matrices into one matrix of packs.
    fn pack_of<const R: usize, const C: usize>(ms: &[[[f64; C]; R]; L]) -> [[Pack<L>; C]; R] {
        std::array::from_fn(|r| std::array::from_fn(|c| Pack::from_fn(|l| ms[l][r][c])))
    }

    #[test]
    fn operators_are_lanewise_and_bitwise_the_scalar_expression() {
        let a = Pack([0.1, -2.5, 3.0e-7, 4.0]);
        let b = Pack([7.0, 0.3, -1.0e5, 0.25]);
        let got = -(a * b - 0.5 * a) / b + a * 3.0;
        for l in 0..L {
            let (x, y) = (a.0[l], b.0[l]);
            let want = -(x * y - 0.5 * x) / y + x * 3.0;
            assert_eq!(got.0[l].to_bits(), want.to_bits(), "lane {l}");
        }
        let mut acc = a;
        acc += b;
        acc -= a * b;
        assert_eq!(acc, a + b - a * b);
        // A plain f64 is the one-lane case.
        assert_eq!(<f64 as Lanes>::N, 1);
        assert_eq!(3.0f64.map(|x| x * x).lane(0), 9.0);
        assert_eq!(Pack::<3>::splat(1.5), Pack([1.5; 3]));
    }

    #[test]
    fn det_and_inv_are_bitwise_lane_mirrors_of_the_scalar_ops() {
        let ms = lane_matrices();
        let p = pack_of(&ms);
        let det = ops::det3(&p, &mut NoRecord);
        let inv = ops::inv3(&p, det, &mut NoRecord);
        for (l, m) in ms.iter().enumerate() {
            let d = ops::det3(m, &mut NoRecord);
            assert_eq!(det.0[l].to_bits(), d.to_bits());
            let iv = ops::inv3(m, d, &mut NoRecord);
            for r in 0..3 {
                for c in 0..3 {
                    assert_eq!(inv[r][c].0[l].to_bits(), iv[r][c].to_bits());
                }
            }
        }
    }

    #[test]
    fn tet4_grads_of_a_pack_is_a_bitwise_lane_mirror() {
        let coords_per_lane: [[[f64; 3]; 4]; L] = [
            [
                [0.1, 0.0, 0.0],
                [1.2, 0.1, 0.0],
                [0.0, 0.9, 0.2],
                [0.1, 0.1, 1.1],
            ],
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ],
            [
                [0.3, 0.2, 0.1],
                [1.1, 0.4, 0.0],
                [0.2, 1.3, 0.3],
                [0.4, 0.2, 1.4],
            ],
            [
                [-0.2, 0.1, 0.0],
                [0.9, -0.1, 0.2],
                [0.1, 0.8, -0.1],
                [0.0, 0.2, 0.9],
            ],
        ];
        let (g, v) = ops::tet4_grads(&pack_of(&coords_per_lane), &mut NoRecord);
        for (l, coords) in coords_per_lane.iter().enumerate() {
            let (gs, vs) = ops::tet4_grads(coords, &mut NoRecord);
            assert_eq!(v.0[l].to_bits(), vs.to_bits());
            for a in 0..4 {
                for d in 0..3 {
                    assert_eq!(g[a][d].0[l].to_bits(), gs[a][d].to_bits());
                }
            }
        }
    }

    #[test]
    fn vreman_of_a_pack_mirrors_the_scalar_branches() {
        // Lane 1 is the identity gradient (positive B_β), lane 2 a real LES
        // gradient, lane 3 arbitrary; a zero-gradient lane exercises the
        // alpha2 underflow select.
        let mut ms = lane_matrices();
        ms[0] = [[0.0; 3]; 3];
        let mut rec = TraceRecorder::new();
        let out = ops::vreman(&pack_of(&ms), Pack::splat(0.1), 0.07, &mut rec);
        for (l, m) in ms.iter().enumerate() {
            let s = ops::vreman(m, 0.1, 0.07, &mut NoRecord);
            assert_eq!(out.0[l].to_bits(), s.to_bits(), "lane {l}");
        }
        assert_eq!(out.0[0], 0.0);
        // The recorded flops are lane 0's: the scalar early exit after α².
        let mut lane0 = TraceRecorder::new();
        let _ = ops::vreman(&ms[0], 0.1, 0.07, &mut lane0);
        assert_eq!(rec.events, lane0.events);
        assert_eq!(rec.counts().fmas, 9);
        // With a live gradient in lane 0, a dead lane elsewhere changes
        // nothing that is counted.
        ms.swap(0, 2);
        let mut rec = TraceRecorder::new();
        let _ = ops::vreman(&pack_of(&ms), Pack::splat(0.1), 0.07, &mut rec);
        let mut lane0 = TraceRecorder::new();
        let _ = ops::vreman(&ms[0], 0.1, 0.07, &mut lane0);
        assert_eq!(rec.events, lane0.events);
        assert_eq!(rec.counts().fmas, 30);
    }
}
