//! Preconditioned conjugate gradients.
//!
//! The pressure Poisson system is symmetric positive (semi-)definite; CG
//! with diagonal preconditioning is the classic workhorse (the paper's
//! production setting points at AMG-preconditioned solvers as future work —
//! Jacobi-PCG is the honest laptop-scale stand-in). There is one CG loop,
//! `pcg`, generic over the operator and the [`Preconditioner`];
//! [`solve_cg`] and [`solve_cg_with`] run it on one member, and a
//! `parallel` fractional step on a sharded case runs it on a team of the
//! case's workers (DESIGN §18).
//!
//! Every dot product and norm of the loop is a sum over fixed blocks of
//! [`BLOCK`] rows, each block summed in four partial sums, and the block
//! sums are combined in a fixed pairwise tree (`par::tree_reduce`'s
//! order). Which thread sums a block never enters the arithmetic, so every
//! bit of a solve is a function of the system alone, at any member count.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};

use alya_machine::par;
use alya_telemetry as telemetry;

use crate::csr::CsrMatrix;

/// Rows per reduction block. A team member owns whole blocks, so the block
/// sums, and with them every dot product of a solve, do not depend on how
/// the rows are split (the last block of a vector may be shorter).
pub const BLOCK: usize = 128;

/// A symmetric positive (semi-)definite linear operator, shared by the
/// members of a CG team (hence `Sync`).
pub trait LinOp: Sync {
    /// `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// Rows `row0 .. row0 + y.len()` of `A x` into `y`, reading all of `x`.
    /// The default computes only the whole product (`row0 = 0`, every
    /// row); an operator that keeps it keeps [`Self::row_split`]'s default
    /// too, and so always runs on one member.
    fn apply_rows(&self, x: &[f64], row0: usize, y: &mut [f64]) {
        debug_assert!(row0 == 0 && y.len() == self.dim());
        self.apply(x, y);
    }
    /// At most `parts + 1` ascending row bounds from 0 to [`Self::dim`]
    /// that cut the operator into ranges of about equal work for
    /// [`Self::apply_rows`]. The default is the one whole range.
    fn row_split(&self, parts: usize) -> Vec<usize> {
        let _ = parts;
        vec![0, self.dim()]
    }
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
}

impl LinOp for CsrMatrix {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // On the calling thread. A CG team computes its products through
        // `apply_rows` instead, each member its own rows of the split
        // below, in the rounds of a team spawned once per solve.
        self.spmv(x, y);
    }

    fn apply_rows(&self, x: &[f64], row0: usize, y: &mut [f64]) {
        self.spmv_rows(x, row0, y);
    }

    fn row_split(&self, parts: usize) -> Vec<usize> {
        self.nnz_split(parts)
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
}

/// An SPD approximation of `A⁻¹` for the CG loop, shared by the members
/// of a CG team (hence `Sync`).
pub trait Preconditioner: Sync {
    /// `z ≈ A⁻¹ r`.
    fn apply(&self, r: &[f64], z: &mut [f64]);
    /// Rows `row0 .. row0 + z.len()` of `z` from the same rows of `r`. The
    /// default takes only the whole vector (`row0 = 0`), which is all a
    /// one-member solve asks of it.
    fn apply_rows(&self, r: &[f64], row0: usize, z: &mut [f64]) {
        debug_assert_eq!(row0, 0);
        self.apply(r, z);
    }
}

/// Jacobi as [`solve_cg_with`] applies it: `z = r / d` (a zero diagonal
/// entry passes the residual through), row by row.
pub(crate) struct DiagonalDivide<'a>(pub(crate) &'a [f64]);

impl Preconditioner for DiagonalDivide<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_rows(r, 0, z);
    }

    fn apply_rows(&self, r: &[f64], row0: usize, z: &mut [f64]) {
        for ((z, r), d) in z.iter_mut().zip(r).zip(&self.0[row0..]) {
            *z = if d.abs() > 0.0 { r / d } else { *r };
        }
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

/// Reusable CG state: a solve allocates nothing once its scratch was
/// sized for the problem and the member count, so a pooled serve session
/// pays zero steady-state allocation per pressure solve.
#[derive(Debug, Default)]
pub struct CgScratch {
    /// The Jacobi diagonal [`solve_cg_with`] reads off its operator.
    diag: Vec<f64>,
    pub(crate) work: CgWork,
}

impl CgScratch {
    /// Empty scratch (grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Where the loop's buffers live (a solver reset must keep them).
    #[cfg(test)]
    pub(crate) fn buffer_ptrs(&self) -> Vec<*const ()> {
        let Members {
            bounds,
            shared,
            rows,
        } = &self.work.members;
        let mut ptrs = vec![
            bounds.as_ptr().cast(),
            read(shared).p.as_ptr().cast(),
            self.work.blocks.as_ptr().cast(),
        ];
        for m in rows {
            let m = lock(m);
            let [d0, d1] = &m.dots;
            for v in [&m.x, &m.r, &m.z, &m.ap, d0, d1] {
                ptrs.push(v.as_ptr().cast());
            }
        }
        ptrs
    }
}

/// The loop's state across solves: the member count and problem size it
/// was cut for, the caller's copy of one dot's block sums, and what the
/// members share.
#[derive(Debug, Default)]
pub(crate) struct CgWork {
    /// `(rows, members asked for)` of the current cut.
    cut: (usize, usize),
    /// One dot's block sums in block order, combined by the caller.
    blocks: Vec<f64>,
    members: Members,
}

impl CgWork {
    /// Cuts `a`'s rows for up to `members` team members and sizes every
    /// buffer to match; allocates nothing when the last cut was for the
    /// same size and count (a scratch serves one operator: the step's case
    /// matrix, or a one-member solve's whole range).
    fn prepare(&mut self, a: &impl LinOp, members: usize) {
        let n = a.dim();
        if self.cut == (n, members) {
            return;
        }
        self.cut = (n, members);
        let mut bounds = a.row_split(members.max(1));
        let last = bounds.len() - 1;
        for b in &mut bounds[1..last] {
            *b = ((*b + BLOCK / 2) / BLOCK * BLOCK).min(n);
        }
        self.blocks = vec![0.0; n.div_ceil(BLOCK)];
        self.members = Members {
            shared: RwLock::new(Shared {
                p: vec![0.0; n],
                phase: Phase::Start,
            }),
            rows: bounds
                .windows(2)
                .map(|r| Mutex::new(Rows::new(r[1] - r[0])))
                .collect(),
            bounds,
        };
    }
}

/// What the members of a solve share. Member `k` owns rows
/// `bounds[k] .. bounds[k + 1]` of `x`, `r`, `z` and `A p`, every bound
/// but the last a multiple of [`BLOCK`]; the search direction `p` is the
/// one vector every member reads whole, and only the caller writes it,
/// between rounds.
#[derive(Debug, Default)]
struct Members {
    bounds: Vec<usize>,
    shared: RwLock<Shared>,
    rows: Vec<Mutex<Rows>>,
}

/// The search direction and what the next round does.
#[derive(Debug, Default)]
struct Shared {
    p: Vec<f64>,
    phase: Phase,
}

/// One round of the loop, as every member runs it over its rows.
#[derive(Debug, Default, Clone, Copy)]
enum Phase {
    /// `r = b − A p` with `p` holding the initial guess, `x = p`,
    /// `z = M⁻¹ r`; block sums of `r·r` and `r·z`.
    #[default]
    Start,
    /// `A p`; block sums of `p·Ap`.
    Apply,
    /// `x += α p`, `r −= α Ap`, `z = M⁻¹ r`; block sums of `r·r` and
    /// `r·z`.
    Update(f64),
}

/// One member's rows of the CG vectors and its block sums of the last
/// round's dots (`p·Ap` in `dots[0]` after an apply; `r·r` and `r·z`
/// after a start or an update).
#[derive(Debug, Default)]
struct Rows {
    x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    ap: Vec<f64>,
    dots: [Vec<f64>; 2],
}

impl Rows {
    fn new(len: usize) -> Self {
        let blocks = len.div_ceil(BLOCK);
        Self {
            x: vec![0.0; len],
            r: vec![0.0; len],
            z: vec![0.0; len],
            ap: vec![0.0; len],
            dots: [vec![0.0; blocks], vec![0.0; blocks]],
        }
    }

    /// This member's share of the round `shared.phase`, over rows
    /// `row0 ..`: every statement is the serial loop's, row by row, and
    /// each dot ends as one sum per block.
    fn run(
        &mut self,
        shared: &Shared,
        row0: usize,
        a: &impl LinOp,
        m: &impl Preconditioner,
        b: &[f64],
    ) {
        let Rows {
            x,
            r,
            z,
            ap,
            dots: [d0, d1],
        } = self;
        let p = &shared.p[row0..row0 + x.len()];
        match shared.phase {
            Phase::Start => {
                a.apply_rows(&shared.p, row0, r);
                for ((r, b), (x, p)) in r.iter_mut().zip(&b[row0..]).zip(x.iter_mut().zip(p)) {
                    *r = b - *r;
                    *x = *p;
                }
            }
            Phase::Apply => {
                a.apply_rows(&shared.p, row0, ap);
                block_dots(p, ap, d0);
                return;
            }
            Phase::Update(alpha) => {
                for ((x, r), (p, ap)) in x.iter_mut().zip(r.iter_mut()).zip(p.iter().zip(&*ap)) {
                    *x += alpha * p;
                    *r -= alpha * ap;
                }
            }
        }
        m.apply_rows(r, row0, z);
        block_dots(r, r, d0);
        block_dots(r, z, d1);
    }
}

/// A lock whose holder panicked still guards vectors the next round
/// overwrites before it reads them (the team reports the panic itself).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read(s: &RwLock<Shared>) -> std::sync::RwLockReadGuard<'_, Shared> {
    s.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(s: &RwLock<Shared>) -> std::sync::RwLockWriteGuard<'_, Shared> {
    s.write().unwrap_or_else(PoisonError::into_inner)
}

impl Members {
    /// Member `w`'s share of the round the caller released.
    fn member(&self, w: usize, a: &impl LinOp, m: &impl Preconditioner, b: &[f64]) {
        let shared = read(&self.shared);
        lock(&self.rows[w]).run(&shared, self.bounds[w], a, m, b);
    }

    /// Readies the start round from the initial guess `x`.
    fn start(&self, x: &[f64]) {
        let mut s = write(&self.shared);
        s.p.copy_from_slice(x);
        s.phase = Phase::Start;
    }

    /// Readies an update round with step `alpha`.
    fn update(&self, alpha: f64) {
        write(&self.shared).phase = Phase::Update(alpha);
    }

    /// Rewrites the search direction from every member's `z` — `p = z`
    /// after the start, `p = z + βp` after an update — and readies an
    /// apply round.
    fn direction(&self, beta: Option<f64>) {
        let mut s = write(&self.shared);
        let Shared { p, phase } = &mut *s;
        for (r, m) in self.bounds.windows(2).zip(&self.rows) {
            let (p, z) = (&mut p[r[0]..r[1]], &lock(m).z);
            match beta {
                None => p.copy_from_slice(z),
                Some(beta) => {
                    for (p, z) in p.iter_mut().zip(z) {
                        *p = z + beta * *p;
                    }
                }
            }
        }
        *phase = Phase::Apply;
    }

    /// Dot `k` of the last round: every member's block sums, gathered
    /// into `blocks` in block order and combined by [`tree_sum`].
    fn dot(&self, k: usize, blocks: &mut [f64]) -> f64 {
        let mut at = 0;
        for m in &self.rows {
            let d = &lock(m).dots[k];
            blocks[at..at + d.len()].copy_from_slice(d);
            at += d.len();
        }
        tree_sum(&mut blocks[..at])
    }

    /// Copies every member's rows of the solution into `x`.
    fn finish(&self, x: &mut [f64]) {
        for (r, m) in self.bounds.windows(2).zip(&self.rows) {
            x[r[0]..r[1]].copy_from_slice(&lock(m).x);
        }
    }
}

/// `u · v` over one block, in four partial sums (entry `4k + l` into sum
/// `l`) so the adds do not wait on each other, like a row of
/// [`CsrMatrix::spmv_rows`].
fn block_dot(u: &[f64], v: &[f64]) -> f64 {
    let (u4, v4) = (u.chunks_exact(4), v.chunks_exact(4));
    let mut tail = 0.0;
    for (a, b) in u4.remainder().iter().zip(v4.remainder()) {
        tail += a * b;
    }
    let mut acc = [0.0; 4];
    for (a, b) in u4.zip(v4) {
        for l in 0..4 {
            acc[l] += a[l] * b[l];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The block sums of `u · v` into `out`, one per [`BLOCK`] rows, for rows
/// that start on a block edge.
fn block_dots(u: &[f64], v: &[f64], out: &mut [f64]) {
    for ((u, v), o) in u.chunks(BLOCK).zip(v.chunks(BLOCK)).zip(out) {
        *o = block_dot(u, v);
    }
}

/// Sums `v` in place by `par::tree_reduce`'s pairwise tree — adjacent
/// pairs at each level, an odd last item carried up — so the result
/// depends on `v.len()` and the values alone. 0 for an empty `v`.
fn tree_sum(v: &mut [f64]) -> f64 {
    let mut len = v.len();
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            v[i] = v[2 * i] + v[2 * i + 1];
        }
        if len % 2 == 1 {
            v[half] = v[len - 1];
        }
        len -= half;
    }
    v.first().copied().unwrap_or(0.0)
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

/// [`solve_cg`] with caller-owned scratch: bitwise identical results
/// (every work vector is fully overwritten before it is read), but repeat
/// solves allocate nothing. Jacobi-preconditioned from `a`'s diagonal, on
/// the calling thread.
pub fn solve_cg_with(
    a: &impl LinOp,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
    scratch: &mut CgScratch,
) -> CgResult {
    let CgScratch { diag, work } = scratch;
    diag.resize(a.dim(), 0.0);
    a.precond_diagonal_into(diag);
    pcg(a, &DiagonalDivide(diag), b, x, rel_tol, max_iters, work, 1)
}

/// The CG loop: solves `A x = b` in place of `x`, preconditioned by `m`,
/// in `work`, on a team of up to `members` threads (`a`'s
/// [`LinOp::row_split`] may grant fewer; the caller is one of them, and
/// one member spawns nothing). Each iteration is two rounds: an apply
/// (`A p` and the block sums of `p·Ap`), then an update (`x`, `r`,
/// `z = M⁻¹ r` and the block sums of `r·r` and `r·z`); between them the
/// caller combines the block sums and rewrites `p`. The result is the same
/// bit for bit at any member count. With more than one member, `m` must
/// compute any range of rows alone, as `DiagonalDivide` does.
///
/// Opens a `solve-cg` telemetry span, so solver steps inside serve
/// sessions show on the adopting tenant's timeline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pcg(
    a: &impl LinOp,
    m: &impl Preconditioner,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
    work: &mut CgWork,
    members: usize,
) -> CgResult {
    let n = b.len();
    assert_eq!(a.dim(), n);
    assert_eq!(x.len(), n);
    let _sp = telemetry::span("solve-cg");
    work.prepare(a, members);
    let CgWork {
        blocks, members, ..
    } = work;
    let team = &*members;

    block_dots(b, b, blocks);
    let tol = rel_tol * tree_sum(blocks).sqrt() + 1e-300;
    team.start(x);

    let job = |w| team.member(w, a, m, b);
    par::with_team(team.rows.len(), job, |crew| {
        let round = || crew.round(|| job(0));
        let mut finish = |iterations, residual, converged| {
            team.finish(x);
            CgResult {
                iterations,
                residual,
                converged,
            }
        };

        round();
        let mut residual = team.dot(0, blocks).sqrt();
        if residual <= tol {
            return finish(0, residual, true);
        }
        let mut rz = team.dot(1, blocks);
        team.direction(None);

        for it in 1..=max_iters {
            round();
            let pap = team.dot(0, blocks);
            if pap.abs() < 1e-300 {
                return finish(it, residual, false);
            }
            team.update(rz / pap);
            round();
            residual = team.dot(0, blocks).sqrt();
            if residual <= tol {
                return finish(it, residual, true);
            }
            let rz_new = team.dot(1, blocks);
            let beta = rz_new / rz;
            rz = rz_new;
            team.direction(Some(beta));
        }
        finish(max_iters, residual, false)
    })
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
        let mut out = vec![0.0; 10];
        a.precond_diagonal_into(&mut out);
        assert_eq!(out, a.precond_diagonal());
    }

    #[test]
    fn solve_inside_session_records_one_span() {
        let a = laplacian_1d(50);
        let b = vec![1.0; 50];
        let mut x = vec![0.0; 50];
        let s = alya_telemetry::scoped_session();
        s.adopt();
        let res = solve_cg(&a, &b, &mut x, 1e-10, 500);
        let report = s.finish();
        assert!(res.converged);
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

    /// A dot product is its block sums combined by [`tree_sum`]. Computed
    /// range by range over every split into at most three block-aligned
    /// ranges, with each range's block sums landing at its blocks' place,
    /// it is the one-range sum bit for bit, on ragged lengths; and
    /// `tree_sum` is `par::tree_reduce` bit for bit.
    #[test]
    fn blocked_dots_are_bitwise_invariant_under_every_block_aligned_split() {
        let bits = |v: f64| v.to_bits();
        for n in [0_usize, 1, 127, 129, 4851] {
            let u: Vec<f64> = (0..n)
                .map(|i| (0.37 * i as f64).sin() * 1e3 + 1.0 / (i as f64 + 0.5))
                .collect();
            let v: Vec<f64> = (0..n).map(|i| (0.11 * i as f64).cos() - 0.3).collect();
            let nb = n.div_ceil(BLOCK);
            let mut blocks = vec![0.0; nb];
            block_dots(&u, &v, &mut blocks);
            let reduced = par::tree_reduce(blocks.clone(), |a, b| a + b).unwrap_or(0.0);
            let want = tree_sum(&mut blocks);
            assert_eq!(bits(want), bits(reduced), "n = {n}: tree_reduce");
            if n > 0 {
                let naive: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
                assert!(
                    (want - naive).abs() <= 1e-12 * naive.abs().max(1.0),
                    "n = {n}"
                );
            }

            let edges: Vec<usize> = (0..nb).map(|k| k * BLOCK).chain([n]).collect();
            for (i, &c1) in edges.iter().enumerate() {
                for &c2 in &edges[i..] {
                    let mut got = vec![f64::NAN; nb];
                    for (lo, hi) in [(0, c1), (c1, c2), (c2, n)] {
                        let (b0, b1) = (lo / BLOCK, hi.div_ceil(BLOCK));
                        block_dots(&u[lo..hi], &v[lo..hi], &mut got[b0..b1]);
                    }
                    assert_eq!(bits(tree_sum(&mut got)), bits(want), "n = {n}: {c1}, {c2}");
                }
            }
        }
    }

    /// A Jacobi-CG solve on the 24 000-element projection matrix from a
    /// cold start: solution and `CgResult` are the same bit for bit on
    /// teams of 1, 2, 3, 4 and 8 members (oversubscribed on a small host,
    /// which is the point: every member count must finish and agree), and
    /// are [`solve_cg`]'s.
    #[test]
    fn a_solve_is_bitwise_the_same_at_1_2_3_4_and_8_members() {
        let mesh = alya_mesh::BoxMeshBuilder::new(20, 20, 10)
            .jitter(0.1)
            .seed(3)
            .build();
        assert_eq!(mesh.num_elements(), 24_000);
        let geom = crate::poisson::GeomTable::build(&mesh);
        let a = geom.projection_matrix(&mesh, &crate::poisson::lumped_mass(&mesh));
        let diag = a.diagonal();
        let n = a.num_rows();
        let field: Vec<f64> = (0..n).map(|i| (0.01 * i as f64).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&field, &mut b);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut work = CgWork::default();
        let mut solve = |members| {
            let mut x = vec![0.0; n];
            let res = pcg(
                &a,
                &DiagonalDivide(&diag),
                &b,
                &mut x,
                1e-8,
                500,
                &mut work,
                members,
            );
            assert_eq!(work.members.rows.len(), members);
            (res, x)
        };
        let (want, x1) = solve(1);
        assert!(want.converged && want.iterations > 50, "{want:?}");
        for members in [2, 3, 4, 8] {
            let (got, x) = solve(members);
            assert_eq!(got, want, "{members} members");
            assert!(bits(&x) == bits(&x1), "{members} members: solution");
        }
        let mut x = vec![0.0; n];
        assert_eq!(solve_cg(&a, &b, &mut x, 1e-8, 500), want);
        assert!(bits(&x) == bits(&x1), "solve_cg");
    }
}
