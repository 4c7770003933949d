//! Tracked arithmetic helpers.
//!
//! Tiny math kernels that compute *and* count: each helper performs the
//! operation and reports its flop cost to the [`Recorder`], so the
//! instruction counts in the reproduction tables are derived from the same
//! code that produces the physics. All helpers are `#[inline]`; with
//! `NoRecord` the counting vanishes entirely.
//!
//! The geometry and turbulence helpers are generic over [`Lanes`]: a plain
//! `f64` for one element, a [`crate::packs::Pack`] for a batch in lockstep.
//! What they count is per call, not per lane.

use alya_machine::Recorder;

use crate::packs::Lanes;

/// 3-vector dot product (3 FMAs).
#[inline]
pub fn dot3<R: Recorder>(a: [f64; 3], b: [f64; 3], rec: &mut R) -> f64 {
    rec.fma(3);
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// `a + s·b` for 3-vectors (3 FMAs).
#[inline]
pub fn axpy3<R: Recorder>(a: [f64; 3], s: f64, b: [f64; 3], rec: &mut R) -> [f64; 3] {
    rec.fma(3);
    [a[0] + s * b[0], a[1] + s * b[1], a[2] + s * b[2]]
}

/// Scale a 3-vector (3 muls).
#[inline]
pub fn scale3<R: Recorder>(s: f64, a: [f64; 3], rec: &mut R) -> [f64; 3] {
    rec.flop(3);
    [s * a[0], s * a[1], s * a[2]]
}

/// Determinant of a 3×3 matrix (9 muls + 5 add/sub = 14 flop; 3 of the
/// products fuse, counted as 3 FMA + 8 flop).
#[inline]
pub fn det3<V: Lanes, R: Recorder>(m: &[[V; 3]; 3], rec: &mut R) -> V {
    rec.fma(3);
    rec.flop(8);
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

/// Inverse of a 3×3 matrix given its (nonzero) determinant
/// (9 cofactors × 3 flop + 1 div + 9 muls).
#[inline]
pub fn inv3<V: Lanes, R: Recorder>(m: &[[V; 3]; 3], det: V, rec: &mut R) -> [[V; 3]; 3] {
    rec.flop(9 * 3 + 1 + 9);
    let inv_d = V::splat(1.0) / det;
    [
        [
            (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_d,
            (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_d,
            (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_d,
        ],
        [
            (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_d,
            (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_d,
            (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_d,
        ],
        [
            (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_d,
            (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_d,
            (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_d,
        ],
    ]
}

/// Constant P1-tet physical gradients and signed volume from the four node
/// coordinates — the specialized geometry path (one 3×3 solve per element).
#[inline]
pub fn tet4_grads<V: Lanes, R: Recorder>(coords: &[[V; 3]; 4], rec: &mut R) -> ([[V; 3]; 4], V) {
    let mut j = [[V::splat(0.0); 3]; 3];
    for r in 0..3 {
        for d in 0..3 {
            j[r][d] = coords[r + 1][d] - coords[0][d];
        }
    }
    rec.flop(9); // the 9 edge subtractions
    let det = det3(&j, rec);
    let inv = inv3(&j, det, rec);
    let mut grads = [[V::splat(0.0); 3]; 4];
    for d in 0..3 {
        grads[1][d] = inv[d][0];
        grads[2][d] = inv[d][1];
        grads[3][d] = inv[d][2];
        grads[0][d] = -(inv[d][0] + inv[d][1] + inv[d][2]);
    }
    rec.flop(9); // node-0 closure sums
    rec.flop(1); // det/6
    (grads, det / 6.0)
}

/// Vreman eddy viscosity with flop accounting (the specialized inline
/// evaluation; `grad[i][j] = ∂u_j/∂x_i`, `delta` = filter width).
///
/// A degenerate gradient (`α² ≈ 0` or `B_β ≤ 0`) yields exactly `0.0`.
/// Every lane computes β and B_β unconditionally and selects its own
/// result, so no lane's branch reaches another; the *recorded* flops are
/// lane 0's — what a one-lane run stops counting at its early exit.
#[inline]
pub fn vreman<V: Lanes, R: Recorder>(grad: &[[V; 3]; 3], delta: V, c: f64, rec: &mut R) -> V {
    // α_ij α_ij : 9 FMAs.
    rec.fma(9);
    let mut alpha2 = V::splat(0.0);
    for row in grad {
        for &g in row {
            alpha2 += g * g;
        }
    }
    let exit_at_alpha = alpha2.lane(0) <= f64::MIN_POSITIVE;
    let counted = !exit_at_alpha;
    // β (6 unique entries × 3 FMAs + scale) and B_β (3 FMAs + 3 mul/sub).
    if counted {
        rec.flop(1); // delta^2
    }
    let d2 = delta * delta;
    let mut beta = [[V::splat(0.0); 3]; 3];
    for i in 0..3 {
        for j in i..3 {
            if counted {
                rec.fma(3);
                rec.flop(1);
            }
            let mut s = V::splat(0.0);
            for m in grad {
                s += m[i] * m[j];
            }
            beta[i][j] = d2 * s;
            beta[j][i] = beta[i][j];
        }
    }
    if counted {
        rec.fma(3);
        rec.flop(3);
    }
    let b_beta = beta[0][0] * beta[1][1] - beta[0][1] * beta[0][1] + beta[0][0] * beta[2][2]
        - beta[0][2] * beta[0][2]
        + beta[1][1] * beta[2][2]
        - beta[1][2] * beta[1][2];
    let exit_at_beta = b_beta.lane(0) <= 0.0;
    if counted && !exit_at_beta {
        rec.flop(3); // div, sqrt, mul
    }
    V::from_fn(|l| {
        let (a2, bb) = (alpha2.lane(l), b_beta.lane(l));
        if a2 <= f64::MIN_POSITIVE || bb <= 0.0 {
            0.0
        } else {
            c * (bb / a2).sqrt()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alya_machine::{NoRecord, TraceRecorder};

    #[test]
    fn dot3_counts_and_computes() {
        let mut rec = TraceRecorder::new();
        let v = dot3([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], &mut rec);
        assert_eq!(v, 32.0);
        assert_eq!(rec.counts().fmas, 3);
    }

    #[test]
    fn tet4_grads_matches_fem_reference() {
        let coords = [
            [0.1, 0.0, 0.0],
            [1.2, 0.1, 0.0],
            [0.0, 0.9, 0.2],
            [0.1, 0.1, 1.1],
        ];
        let (g, v) = tet4_grads(&coords, &mut NoRecord);
        let (gref, vref) = alya_fem::geometry::tet4_gradients(&coords);
        assert!((v - vref).abs() < 1e-14);
        for a in 0..4 {
            for d in 0..3 {
                assert!((g[a][d] - gref[a][d]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn vreman_matches_fem_reference() {
        let grad = [[2.0, 0.3, 0.0], [0.1, -1.0, 0.2], [0.0, 0.4, -1.0]];
        let ours = vreman(&grad, 0.1, 0.07, &mut NoRecord);
        let theirs = alya_fem::turbulence::vreman_nu_t_with_c(&grad, 0.1, 0.07);
        assert!((ours - theirs).abs() < 1e-15);
    }

    #[test]
    fn vreman_flop_count_is_stable() {
        let grad = [[2.0, 0.3, 0.0], [0.1, -1.0, 0.2], [0.0, 0.4, -1.0]];
        let mut rec = TraceRecorder::new();
        let _ = vreman(&grad, 0.1, 0.07, &mut rec);
        let c = rec.counts();
        // 9 + 18 + 3 = 30 FMAs, 1 + 6 + 3 + 3 = 13 plain flops.
        assert_eq!(c.fmas, 30);
        assert_eq!(c.plain_flops, 13);
    }

    #[test]
    fn det_inv_roundtrip() {
        let m = [[2.0, 0.5, 0.1], [0.2, 1.5, 0.3], [0.1, 0.4, 3.0]];
        let d = det3(&m, &mut NoRecord);
        let inv = inv3(&m, d, &mut NoRecord);
        for r in 0..3 {
            for c in 0..3 {
                let id: f64 = (0..3).map(|k| m[r][k] * inv[k][c]).sum();
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((id - expect).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn axpy_and_scale() {
        let r = axpy3([1.0, 1.0, 1.0], 2.0, [1.0, 2.0, 3.0], &mut NoRecord);
        assert_eq!(r, [3.0, 5.0, 7.0]);
        let s = scale3(0.5, [2.0, 4.0, 6.0], &mut NoRecord);
        assert_eq!(s, [1.0, 2.0, 3.0]);
    }
}
