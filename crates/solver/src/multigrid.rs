//! Two-level aggregation multigrid preconditioner.
//!
//! The paper's production pressure solver is AMG-preconditioned
//! ("AMG4PSBLAS … towards extreme scale"), and its future-work section is
//! explicitly about solvers "with the correct algorithmic scalability for
//! exascale hardware". This module is the laptop-scale embodiment of that
//! substitution: a symmetric V(1,1) cycle over a piecewise-constant
//! aggregation hierarchy, usable as a CG preconditioner. Its defining
//! property — iteration counts that stay (nearly) flat as the mesh grows,
//! where Jacobi-PCG counts climb — is asserted by the tests.
//!
//! Construction:
//! * **aggregates** — nodes are grouped by the RCB element partition
//!   (each node joins the part owning its first incident element);
//! * **prolongation** — piecewise constant over aggregates;
//! * **coarse operator** — the Galerkin product `Pᵀ A P`, built directly;
//! * **smoother** — weighted Jacobi (ω = 2/3), one pre- and one post-sweep
//!   (symmetric, so the cycle is a valid SPD preconditioner);
//! * **coarse solve** — dense Cholesky with a tiny diagonal shift (also
//!   absorbs the Neumann null space).

use std::cell::RefCell;

use alya_mesh::{NodeToElements, Partition, TetMesh};

pub use crate::cg::Preconditioner;
use crate::cg::{pcg, CgResult, CgScratch, LinOp};
use crate::csr::CsrMatrix;

/// Plain Jacobi (diagonal) preconditioning.
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// From an operator's diagonal.
    pub fn new(diag: &[f64]) -> Self {
        Self {
            inv_diag: diag
                .iter()
                .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
                .collect(),
        }
    }
}

impl Preconditioner for Jacobi {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((z, r), d) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *z = r * d;
        }
    }

    fn apply_flops(&self) -> u64 {
        self.inv_diag.len() as u64
    }
}

/// Two-level aggregation multigrid V(1,1) cycle.
pub struct TwoLevelMg {
    a: CsrMatrix,
    /// Aggregate id of every fine node.
    aggregate_of: Vec<u32>,
    /// Dense Cholesky factor (lower) of the shifted coarse operator.
    coarse_l: Vec<f64>,
    num_coarse: usize,
    inv_diag: Vec<f64>,
    omega: f64,
    /// Work vectors of one cycle (`Preconditioner::apply` takes `&self`;
    /// CG applies it from one thread, one cycle at a time).
    scratch: RefCell<MgScratch>,
}

struct MgScratch {
    /// `A z` on the fine level.
    az: Vec<f64>,
    /// Restricted residual.
    rc: Vec<f64>,
    /// Forward-substitution result of the coarse solve.
    yc: Vec<f64>,
    /// Coarse solution.
    xc: Vec<f64>,
}

impl TwoLevelMg {
    /// Builds the hierarchy for the P1 stiffness matrix `a` on `mesh`,
    /// with roughly `num_aggregates` coarse unknowns.
    pub fn new(mesh: &TetMesh, a: CsrMatrix, num_aggregates: usize) -> Self {
        let nn = mesh.num_nodes();
        assert_eq!(a.num_rows(), nn);
        let num_aggregates = num_aggregates.clamp(1, nn);

        // Node aggregates from the element partition.
        let partition = Partition::rcb(mesh, num_aggregates);
        let n2e = NodeToElements::build(mesh);
        let mut aggregate_of = vec![0u32; nn];
        for n in 0..nn {
            let elems = n2e.elements_of(n);
            let e = elems.first().copied().unwrap_or(0);
            aggregate_of[n] = partition.part_of(e as usize);
        }

        // Galerkin coarse operator (dense — the coarse level is small).
        let nc = num_aggregates;
        let mut coarse = vec![0.0; nc * nc];
        for r in 0..nn {
            let (cols, vals) = a.row(r);
            let cr = aggregate_of[r] as usize;
            for (c, v) in cols.iter().zip(vals) {
                let cc = aggregate_of[*c as usize] as usize;
                coarse[cr * nc + cc] += v;
            }
        }
        // Tiny SPD shift: absorbs the Neumann null space and roundoff.
        let scale = (0..nc)
            .map(|i| coarse[i * nc + i].abs())
            .fold(0.0, f64::max);
        let shift = (scale * 1e-8).max(1e-300);
        for i in 0..nc {
            coarse[i * nc + i] += shift;
        }
        // Dense Cholesky.
        let coarse_l = cholesky(coarse, nc);

        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
            .collect();

        Self {
            a,
            aggregate_of,
            coarse_l,
            num_coarse: nc,
            inv_diag,
            omega: 2.0 / 3.0,
            scratch: RefCell::new(MgScratch {
                az: vec![0.0; nn],
                rc: vec![0.0; nc],
                yc: vec![0.0; nc],
                xc: vec![0.0; nc],
            }),
        }
    }

    fn smooth(&self, b: &[f64], x: &mut [f64], scratch: &mut [f64]) {
        // x += omega * D^{-1} (b - A x)
        self.a.spmv(x, scratch);
        for i in 0..x.len() {
            x[i] += self.omega * self.inv_diag[i] * (b[i] - scratch[i]);
        }
    }
}

impl Preconditioner for TwoLevelMg {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = r.len();
        let MgScratch { az, rc, yc, xc } = &mut *self.scratch.borrow_mut();

        // Pre-smooth from zero: z = omega D^{-1} r.
        for i in 0..n {
            z[i] = self.omega * self.inv_diag[i] * r[i];
        }

        // Coarse correction on the smoothed residual.
        self.a.spmv(z, az);
        rc.fill(0.0);
        for i in 0..n {
            rc[self.aggregate_of[i] as usize] += r[i] - az[i];
        }
        cholesky_solve(&self.coarse_l, self.num_coarse, rc, yc, xc);
        for i in 0..n {
            z[i] += xc[self.aggregate_of[i] as usize];
        }

        // Post-smooth (symmetric counterpart).
        self.smooth(r, z, az);
    }

    fn apply_flops(&self) -> u64 {
        // Two SpMVs, the smoothing/restriction/prolongation vector work
        // (~9 per fine node) and two dense triangular solves.
        let (n, nc) = (self.inv_diag.len() as u64, self.num_coarse as u64);
        4 * self.a.nnz() as u64 + 9 * n + 2 * nc * nc
    }
}

/// Preconditioned conjugate gradients with an arbitrary SPD preconditioner
/// — [`crate::cg::solve_cg_with`]'s loop with `m` in place of Jacobi.
pub fn solve_pcg(
    a: &impl LinOp,
    m: &impl Preconditioner,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
) -> CgResult {
    pcg(a, m, b, x, rel_tol, max_iters, CgScratch::new().work())
}

/// Dense Cholesky factorization (lower triangular, row-major).
fn cholesky(mut a: Vec<f64>, n: usize) -> Vec<f64> {
    for j in 0..n {
        for k in 0..j {
            let l_jk = a[j * n + k];
            for i in j..n {
                a[i * n + j] -= a[i * n + k] * l_jk;
            }
        }
        let d = a[j * n + j];
        assert!(d > 0.0, "coarse operator not SPD (pivot {d} at {j})");
        let inv = 1.0 / d.sqrt();
        for i in j..n {
            a[i * n + j] *= inv;
        }
    }
    // Zero the strict upper triangle for hygiene.
    for i in 0..n {
        for j in (i + 1)..n {
            a[i * n + j] = 0.0;
        }
    }
    a
}

/// Solves `L Lᵀ x = b` from a [`cholesky`] factor (`y` holds `L⁻¹ b`).
fn cholesky_solve(l: &[f64], n: usize, b: &[f64], y: &mut [f64], x: &mut [f64]) {
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * n + k] * y[k];
        }
        y[i] = s / l[i * n + i];
    }
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in (i + 1)..n {
            s -= l[k * n + i] * x[k];
        }
        x[i] = s / l[i * n + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::laplacian;
    use alya_mesh::BoxMeshBuilder;

    /// Shifted Laplacian (SPD, nonsingular): L + c M_lumped.
    fn shifted_system(mesh: &TetMesh, c: f64) -> CsrMatrix {
        let l = laplacian(mesh);
        let mass = crate::poisson::lumped_mass(mesh);
        let mut triplets = Vec::new();
        for r in 0..l.num_rows() {
            let (cols, vals) = l.row(r);
            for (col, v) in cols.iter().zip(vals) {
                triplets.push((r as u32, *col, *v));
            }
            triplets.push((r as u32, r as u32, c * mass[r]));
        }
        CsrMatrix::from_triplets(l.num_rows(), l.num_cols(), triplets)
    }

    #[test]
    fn cholesky_roundtrip() {
        // SPD 3x3.
        let a = vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0];
        let l = cholesky(a.clone(), 3);
        let b = vec![1.0, 2.0, 3.0];
        let (mut y, mut x) = (vec![0.0; 3], vec![0.0; 3]);
        cholesky_solve(&l, 3, &b, &mut y, &mut x);
        for i in 0..3 {
            let ax: f64 = (0..3).map(|j| a[i * 3 + j] * x[j]).sum();
            assert!((ax - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn mg_preconditioner_is_consistent() {
        // M applied to A x roughly recovers x for smooth x (sanity, not a
        // sharp bound): check the preconditioned residual shrinks.
        let mesh = BoxMeshBuilder::new(6, 6, 6).build();
        let a = shifted_system(&mesh, 1.0);
        let mg = TwoLevelMg::new(&mesh, a.clone(), 16);
        let n = mesh.num_nodes();
        let x_true: Vec<f64> = mesh.coords().iter().map(|p| p[0] + 0.5 * p[1]).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let mut z = vec![0.0; n];
        mg.apply(&b, &mut z);
        // One V-cycle from zero must reduce the error vs doing nothing.
        let err0: f64 = x_true.iter().map(|v| v * v).sum::<f64>().sqrt();
        let err1: f64 = x_true
            .iter()
            .zip(&z)
            .map(|(t, z)| (t - z) * (t - z))
            .sum::<f64>()
            .sqrt();
        assert!(err1 < err0, "V-cycle did not reduce the error");
    }

    #[test]
    fn mg_pcg_beats_jacobi_pcg() {
        let mesh = BoxMeshBuilder::new(8, 8, 8).build();
        let a = shifted_system(&mesh, 0.1);
        let n = mesh.num_nodes();
        let b: Vec<f64> = mesh
            .coords()
            .iter()
            .map(|p| (3.0 * p[0]).sin() * (2.0 * p[1]).cos())
            .collect();

        let jacobi = Jacobi::new(&a.diagonal());
        let mut x1 = vec![0.0; n];
        let r1 = solve_pcg(&a, &jacobi, &b, &mut x1, 1e-8, 2000);
        assert!(r1.converged);

        let mg = TwoLevelMg::new(&mesh, a.clone(), 32);
        let mut x2 = vec![0.0; n];
        let r2 = solve_pcg(&a, &mg, &b, &mut x2, 1e-8, 2000);
        assert!(r2.converged);

        assert!(
            r2.iterations * 2 < r1.iterations,
            "MG {} vs Jacobi {} iterations",
            r2.iterations,
            r1.iterations
        );
        // Same answer.
        let dev = x1
            .iter()
            .zip(&x2)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(dev < 1e-5, "solutions differ by {dev}");
    }

    #[test]
    fn mg_iterations_scale_better_with_mesh_size() {
        // The algorithmic-scalability claim: Jacobi-PCG iteration counts
        // grow markedly with refinement; MG-PCG counts grow much slower.
        let mut jacobi_iters = Vec::new();
        let mut mg_iters = Vec::new();
        for n in [4usize, 8, 12] {
            let mesh = BoxMeshBuilder::new(n, n, n).build();
            let a = shifted_system(&mesh, 0.01);
            let nn = mesh.num_nodes();
            let b: Vec<f64> = mesh.coords().iter().map(|p| p[0] * p[1] - p[2]).collect();

            let jac = Jacobi::new(&a.diagonal());
            let mut x = vec![0.0; nn];
            jacobi_iters.push(solve_pcg(&a, &jac, &b, &mut x, 1e-8, 4000).iterations);

            let mg = TwoLevelMg::new(&mesh, a.clone(), (nn / 24).max(8));
            let mut x = vec![0.0; nn];
            mg_iters.push(solve_pcg(&a, &mg, &b, &mut x, 1e-8, 4000).iterations);
        }
        let jac_growth = jacobi_iters[2] as f64 / jacobi_iters[0] as f64;
        let mg_growth = mg_iters[2] as f64 / mg_iters[0] as f64;
        assert!(
            mg_growth < 0.8 * jac_growth,
            "MG growth {mg_growth:.2} ({mg_iters:?}) vs Jacobi {jac_growth:.2} ({jacobi_iters:?})"
        );
    }

    #[test]
    fn jacobi_preconditioner_matches_diagonal_scaling() {
        let diag = vec![2.0, 4.0, 0.0];
        let j = Jacobi::new(&diag);
        let mut z = vec![0.0; 3];
        j.apply(&[2.0, 4.0, 5.0], &mut z);
        assert_eq!(z, vec![1.0, 1.0, 5.0]);
    }
}
