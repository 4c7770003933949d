//! Preconditioned conjugate gradients.
//!
//! The pressure Poisson system is symmetric positive (semi-)definite; CG
//! with diagonal preconditioning is the classic workhorse (the paper's
//! production setting points at AMG-preconditioned solvers as future work —
//! Jacobi-PCG is the honest laptop-scale stand-in). There is one CG loop,
//! `pcg`, generic over the [`Preconditioner`]; [`solve_cg`],
//! [`solve_cg_with`] and [`crate::multigrid::solve_pcg`] are wrappers.

use alya_telemetry as telemetry;

use crate::csr::CsrMatrix;

/// A symmetric positive (semi-)definite linear operator.
pub trait LinOp {
    /// `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// Problem size.
    fn dim(&self) -> usize;
    /// Approximate diagonal for Jacobi preconditioning (ones disable it).
    fn precond_diagonal(&self) -> Vec<f64>;
    /// Writes the preconditioner diagonal into `out` (length `dim()`)
    /// without allocating — the scratch-reusing solve path calls this
    /// every solve. The default falls back to [`Self::precond_diagonal`].
    fn precond_diagonal_into(&self, out: &mut [f64]) {
        out.copy_from_slice(&self.precond_diagonal());
    }
    /// Floating-point operations one [`Self::apply`] performs (1 FMA = 2),
    /// used for telemetry accounting only. 0 = unknown.
    fn apply_flops(&self) -> u64 {
        0
    }
}

impl LinOp for CsrMatrix {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // On the calling thread. A solve whose case is big enough to shard
        // runs its applies as a `csr::RowSplit` on a team spawned once per
        // solve instead: forking per apply (20–50 µs on a 2-vCPU host)
        // would eat a third of what splitting a 4851-row product (~120 µs)
        // saves, and a team round costs ~0.2 µs.
        self.spmv(x, y);
    }

    fn dim(&self) -> usize {
        self.num_rows()
    }

    fn precond_diagonal(&self) -> Vec<f64> {
        self.diagonal()
    }

    fn precond_diagonal_into(&self, out: &mut [f64]) {
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.get(r, r);
        }
    }

    fn apply_flops(&self) -> u64 {
        // One multiply + one add per stored nonzero.
        2 * self.nnz() as u64
    }
}

/// An SPD approximation of `A⁻¹` for the CG loop.
pub trait Preconditioner {
    /// `z ≈ A⁻¹ r`.
    fn apply(&self, r: &[f64], z: &mut [f64]);
    /// Floating-point operations one [`Self::apply`] performs, used for
    /// telemetry accounting only. 0 = unknown.
    fn apply_flops(&self) -> u64 {
        0
    }
}

/// Jacobi as [`solve_cg_with`] applies it: `z = r / d` (a zero diagonal
/// entry passes the residual through).
pub(crate) struct DiagonalDivide<'a>(pub(crate) &'a [f64]);

impl Preconditioner for DiagonalDivide<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((z, r), d) in z.iter_mut().zip(r).zip(self.0) {
            *z = if d.abs() > 0.0 { r / d } else { *r };
        }
    }

    fn apply_flops(&self) -> u64 {
        self.0.len() as u64
    }
}

/// Convergence report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Reusable CG work vectors: a solve allocates nothing once its scratch
/// reached the problem size, so a pooled serve session pays zero
/// steady-state allocation per pressure solve.
#[derive(Debug, Default)]
pub struct CgScratch {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    diag: Vec<f64>,
}

impl CgScratch {
    /// Empty scratch (grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The four work vectors of [`pcg`].
    pub(crate) fn work(&mut self) -> [&mut Vec<f64>; 4] {
        [&mut self.r, &mut self.z, &mut self.p, &mut self.ap]
    }
}

/// Solves `A x = b` in place of `x` (the initial guess).
///
/// Stops when `‖r‖₂ ≤ rel_tol · ‖b‖₂ + 1e-300` or after `max_iters`.
pub fn solve_cg(
    a: &impl LinOp,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
) -> CgResult {
    solve_cg_with(a, b, x, rel_tol, max_iters, &mut CgScratch::new())
}

/// [`solve_cg`] with caller-owned scratch: bitwise identical results (the
/// floating-point statement order is unchanged — every work vector is
/// fully overwritten before it is read), but repeat solves allocate
/// nothing. Jacobi-preconditioned from `a`'s diagonal.
pub fn solve_cg_with(
    a: &impl LinOp,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
    scratch: &mut CgScratch,
) -> CgResult {
    let CgScratch { r, z, p, ap, diag } = scratch;
    diag.resize(a.dim(), 0.0);
    a.precond_diagonal_into(diag);
    let jacobi = DiagonalDivide(diag);
    pcg(a, &jacobi, b, x, rel_tol, max_iters, [r, z, p, ap])
}

/// The CG loop: solves `A x = b` in place of `x`, preconditioned by `m`,
/// in the four `work` vectors (resized to the problem; every one is fully
/// overwritten before it is read). Opens a `solve-cg` telemetry span and
/// tallies the solve's flops into
/// [`Scope::GLOBAL`](alya_telemetry::Scope::GLOBAL) — batch granularity,
/// one add per solve — so solver steps inside serve sessions are
/// accounted to the adopting tenant.
pub(crate) fn pcg(
    a: &impl LinOp,
    m: &impl Preconditioner,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
    work: [&mut Vec<f64>; 4],
) -> CgResult {
    let n = b.len();
    assert_eq!(a.dim(), n);
    assert_eq!(x.len(), n);
    let _sp = telemetry::span("solve-cg");

    let [r, z, p, ap] = work.map(|v| {
        v.resize(n, 0.0);
        v.as_mut_slice()
    });

    // Vector-op flops: norms, residual and `rz` of the setup (7n), then
    // per iteration pap (2n) + x/r updates (4n) + residual (2n) + rz (2n)
    // + p update (2n) = 12n; every iteration and the setup add one
    // operator apply and one preconditioner apply.
    let tally = |iters: usize| {
        let (n, iters) = (n as u64, iters as u64);
        telemetry::add(
            telemetry::Scope::GLOBAL,
            telemetry::Metric::Flops,
            7 * n + 12 * n * iters + (iters + 1) * (a.apply_flops() + m.apply_flops()),
        );
    };

    let norm_b = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    let tol = rel_tol * norm_b + 1e-300;

    a.apply(x, r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    m.apply(r, z);
    p.copy_from_slice(z);
    let mut rz: f64 = r.iter().zip(&*z).map(|(a, b)| a * b).sum();

    let mut residual = r.iter().map(|v| v * v).sum::<f64>().sqrt();
    if residual <= tol {
        tally(0);
        return CgResult {
            iterations: 0,
            residual,
            converged: true,
        };
    }

    for it in 1..=max_iters {
        a.apply(p, ap);
        let pap: f64 = p.iter().zip(&*ap).map(|(a, b)| a * b).sum();
        if pap.abs() < 1e-300 {
            tally(it);
            return CgResult {
                iterations: it,
                residual,
                converged: false,
            };
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        residual = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if residual <= tol {
            tally(it);
            return CgResult {
                iterations: it,
                residual,
                converged: true,
            };
        }
        m.apply(r, z);
        let rz_new: f64 = r.iter().zip(&*z).map(|(a, b)| a * b).sum();
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    tally(max_iters);
    CgResult {
        iterations: max_iters,
        residual,
        converged: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1D Laplacian tridiagonal SPD matrix.
    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n as u32 {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if (i as usize) < n - 1 {
                t.push((i, i + 1, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, t)
    }

    #[test]
    fn solves_small_spd_system() {
        let a = CsrMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)],
        );
        let b = [1.0, 2.0];
        let mut x = [0.0, 0.0];
        let res = solve_cg(&a, &b, &mut x, 1e-12, 100);
        assert!(res.converged);
        // Exact: x = (1/11, 7/11).
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-10);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-10);
    }

    #[test]
    fn solves_laplacian_to_tolerance() {
        let n = 200;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let res = solve_cg(&a, &b, &mut x, 1e-10, 2000);
        assert!(res.converged, "residual {}", res.residual);
        let err = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-6, "error {err}");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian_1d(10);
        let b = vec![0.0; 10];
        let mut x = vec![0.0; 10];
        let res = solve_cg(&a, &b, &mut x, 1e-10, 100);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 100;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).cos()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut cold = vec![0.0; n];
        let cold_res = solve_cg(&a, &b, &mut cold, 1e-10, 2000);
        let mut warm = x_true.clone();
        for w in &mut warm {
            *w += 1e-6;
        }
        let warm_res = solve_cg(&a, &b, &mut warm, 1e-10, 2000);
        assert!(warm_res.iterations < cold_res.iterations);
    }

    #[test]
    fn dirty_scratch_reuse_is_bitwise_identical() {
        let n = 120;
        let a = laplacian_1d(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut fresh = vec![0.0; n];
        let r1 = solve_cg(&a, &b, &mut fresh, 1e-10, 500);
        // Dirty the scratch on an unrelated, larger system first.
        let mut scratch = CgScratch::new();
        let big = laplacian_1d(2 * n);
        let bb = vec![1.0; 2 * n];
        let mut xb = vec![0.0; 2 * n];
        solve_cg_with(&big, &bb, &mut xb, 1e-8, 50, &mut scratch);
        let mut reused = vec![0.0; n];
        let r2 = solve_cg_with(&a, &b, &mut reused, 1e-10, 500, &mut scratch);
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.residual.to_bits(), r2.residual.to_bits());
        for (u, v) in fresh.iter().zip(&reused) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn csr_linop_accounting_hooks() {
        let a = laplacian_1d(10);
        assert_eq!(a.apply_flops(), 2 * a.nnz() as u64);
        let mut out = vec![0.0; 10];
        a.precond_diagonal_into(&mut out);
        assert_eq!(out, a.precond_diagonal());
    }

    #[test]
    fn solve_inside_session_tallies_flops() {
        let a = laplacian_1d(50);
        let b = vec![1.0; 50];
        let mut x = vec![0.0; 50];
        let s = alya_telemetry::scoped_session();
        s.adopt();
        let res = solve_cg(&a, &b, &mut x, 1e-10, 500);
        let report = s.finish();
        assert!(res.converged);
        let flops = report.counter(alya_telemetry::Scope::GLOBAL, alya_telemetry::Metric::Flops);
        let n = 50u64;
        let expected =
            8 * n + 13 * n * res.iterations as u64 + (res.iterations as u64 + 1) * a.apply_flops();
        assert_eq!(flops, expected);
        assert_eq!(report.spans_named("solve-cg").count(), 1);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = laplacian_1d(500);
        let b = vec![1.0; 500];
        let mut x = vec![0.0; 500];
        let res = solve_cg(&a, &b, &mut x, 1e-14, 3);
        assert!(!res.converged);
        assert_eq!(res.iterations, 3);
    }
}
