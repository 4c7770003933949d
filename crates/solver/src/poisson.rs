//! Pressure-Poisson operator and companion FEM operators on P1 tets.
//!
//! * [`laplacian`] — the stiffness matrix `L[a][b] = Σ_e V_e ∇N_a·∇N_b`;
//! * [`lumped_mass`] — row-sum lumped mass (`V_e/4` per node);
//! * [`weak_divergence`] — `b_a = ∫ N_a ∇·u` (constant per element);
//! * [`nodal_gradient`] — lumped-mass-weighted nodal pressure gradient;
//! * [`weak_gradient_adjoint`] / [`ProjectionOp`] — `Dᵀ` and the compatible
//!   projection operator `D M⁻¹ Dᵀ` the fractional step solves with;
//! * [`GeomTable`] — the sweeps `D` and `Dᵀ` driven from a per-case table
//!   of the element constants instead of recomputing them, writing into
//!   caller-owned scratch, and [`GeomTable::projection_matrix`], the same
//!   `D M⁻¹ Dᵀ` assembled once into a [`CsrMatrix`] for the pressure CG.
//!
//! Every sweep that exists in both forms has **one** loop body, generic
//! over where an element's [`TetGeom`] comes from, so the table-driven
//! form is bitwise identical to the public uncached one — which stays as
//! the independent oracle (the role `Variant::B` plays for the kernels).
//! The assembled matrix sums the same products in another order and
//! agrees with [`ProjectionOp`] to rounding (≤ 1e-13 relative, tested).

use alya_fem::geometry::tet4_gradients;
use alya_fem::{ScalarField, VectorField};
use alya_mesh::{NodeToElements, TetMesh};

use crate::csr::CsrMatrix;

/// Assembles the P1 Laplacian (stiffness) matrix.
pub fn laplacian(mesh: &TetMesh) -> CsrMatrix {
    let n = mesh.num_nodes();
    let mut triplets = Vec::with_capacity(mesh.num_elements() * 16);
    for e in 0..mesh.num_elements() {
        let conn = mesh.element(e);
        let (grads, vol) = tet4_gradients(&mesh.element_coords(e));
        for a in 0..4 {
            for b in 0..4 {
                let k = vol
                    * (grads[a][0] * grads[b][0]
                        + grads[a][1] * grads[b][1]
                        + grads[a][2] * grads[b][2]);
                triplets.push((conn[a], conn[b], k));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, triplets)
}

/// Lumped mass: `m_a = Σ_e V_e / 4` over elements containing `a`.
pub fn lumped_mass(mesh: &TetMesh) -> Vec<f64> {
    let mut m = vec![0.0; mesh.num_nodes()];
    for e in 0..mesh.num_elements() {
        let vol = mesh.element_volume(e);
        for &n in &mesh.element(e) {
            m[n as usize] += vol * 0.25;
        }
    }
    m
}

/// The constants of one P1 tet that every solver element loop needs:
/// 13 `f64`, 104 B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TetGeom {
    /// `∇N_a`, constant over the element.
    pub grads: [[f64; 3]; 4],
    /// Signed volume.
    pub vol: f64,
}

impl TetGeom {
    /// Computes the constants of element `e` from its coordinates (a 3×3
    /// inverse and a division — what the uncached operators pay per
    /// element per sweep).
    #[inline]
    pub fn of(mesh: &TetMesh, e: usize) -> Self {
        let (grads, vol) = tet4_gradients(&mesh.element_coords(e));
        Self { grads, vol }
    }
}

/// [`TetGeom`] of every element of one mesh, computed once per case and
/// shared by all its sessions. The methods take the mesh the table was
/// built from (for the connectivity) and write into caller-owned storage.
#[derive(Debug, Clone, PartialEq)]
pub struct GeomTable {
    elems: Vec<TetGeom>,
}

impl GeomTable {
    /// Tabulates `mesh`.
    pub fn build(mesh: &TetMesh) -> Self {
        Self {
            elems: (0..mesh.num_elements())
                .map(|e| TetGeom::of(mesh, e))
                .collect(),
        }
    }

    /// Elements tabulated.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True for the table of an empty mesh.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// [`weak_divergence`] into `b` (length `num_nodes`), bitwise equal.
    // alya:hot
    pub fn weak_divergence_into(&self, mesh: &TetMesh, u: &VectorField, b: &mut [f64]) {
        debug_assert_eq!(self.elems.len(), mesh.num_elements());
        b.fill(0.0);
        divergence_sweep(mesh, |e| self.elems[e], u, b);
    }

    /// [`weak_gradient_adjoint`] into `g`, bitwise equal.
    // alya:hot
    pub fn weak_gradient_adjoint_into(&self, mesh: &TetMesh, p: &[f64], g: &mut VectorField) {
        debug_assert_eq!(self.elems.len(), mesh.num_elements());
        g.fill_zero();
        gradient_adjoint_sweep(mesh, |e| self.elems[e], p, g);
    }

    /// The P1 stiffness diagonal `Σ_e V_e |∇N_a|²`, accumulated in element
    /// order — [`laplacian`]'s diagonal without the matrix (equal to it up
    /// to the last ulp: the CSR build sums duplicates in sorted order).
    pub fn stiffness_diagonal(&self, mesh: &TetMesh) -> Vec<f64> {
        debug_assert_eq!(self.elems.len(), mesh.num_elements());
        stiffness_diagonal_sweep(mesh, |e| self.elems[e])
    }

    /// The compatible operator `A = D M⁻¹ Dᵀ` assembled exactly — its
    /// product is [`ProjectionOp`]'s apply up to rounding; it is *not*
    /// [`laplacian`]. With `w[c,b] = Σ_{e∋c,b} (V_e/4) ∇N_c` (`adjacency_rows`),
    /// `A[a][b] = Σ_c w[c,a]·w[c,b] / m_c`: the distance-2 stencil of `a`,
    /// accumulated row by row in a dense marker/accumulator pair
    /// (Gustavson), columns ascending. Lean on purpose (DESIGN §18): one
    /// copy of `w` (`w[c,a]` is looked up in row `c`) and a counting pass,
    /// so the result is allocated once at its exact size.
    pub fn projection_matrix(&self, mesh: &TetMesh, mass: &[f64]) -> CsrMatrix {
        let n = mesh.num_nodes();
        let (w_offsets, w) = self.adjacency_rows(mesh);
        let row = |c: u32| &w[w_offsets[c as usize] as usize..w_offsets[c as usize + 1] as usize];
        // `seen[b] == a` once column `b` of row `a` has been met.
        let mut seen = vec![u32::MAX; n];
        let mut offsets = vec![0u32; n + 1];
        for a in 0..n as u32 {
            let mut len = 0;
            for &(c, _) in row(a) {
                for &(b, _) in row(c) {
                    len += u32::from(std::mem::replace(&mut seen[b as usize], a) != a);
                }
            }
            offsets[a as usize + 1] = offsets[a as usize] + len;
        }
        let nnz = offsets[n] as usize;
        let (mut cols, mut vals) = (vec![0u32; nnz], vec![0.0; nnz]);
        let mut acc = vec![0.0; n];
        seen.fill(u32::MAX);
        for a in 0..n as u32 {
            let (lo, hi) = (
                offsets[a as usize] as usize,
                offsets[a as usize + 1] as usize,
            );
            let mut end = lo;
            for &(c, _) in row(a) {
                let wca = row(c).iter().find(|&&(b, _)| b == a);
                let wca = wca.expect("node adjacency is symmetric").1;
                let m = mass[c as usize].max(1e-300);
                let s = [wca[0] / m, wca[1] / m, wca[2] / m];
                for &(b, wcb) in row(c) {
                    if std::mem::replace(&mut seen[b as usize], a) != a {
                        cols[end] = b;
                        end += 1;
                        acc[b as usize] = 0.0;
                    }
                    acc[b as usize] += s[0] * wcb[0] + s[1] * wcb[1] + s[2] * wcb[2];
                }
            }
            debug_assert_eq!(end, hi);
            cols[lo..hi].sort_unstable();
            for (v, &b) in vals[lo..hi].iter_mut().zip(&cols[lo..hi]) {
                *v = acc[b as usize];
            }
        }
        CsrMatrix::from_sorted_rows(n, offsets, cols, vals)
    }

    /// `w[c,b] = Σ_{e∋c,b} (V_e/4) ∇N_c`, a 3-vector per pair of nodes
    /// sharing an element, as CSR rows `(offsets, (b, w[c,b]))` in
    /// first-touch column order. Both sweeps are products with it:
    /// `(Dᵀp)_c = Σ_b w[c,b] p_b` and `(D u)_a = Σ_c w[c,a]·u_c`.
    fn adjacency_rows(&self, mesh: &TetMesh) -> (Vec<u32>, Vec<(u32, [f64; 3])>) {
        let n = mesh.num_nodes();
        let node_elems = NodeToElements::build(mesh);
        // A Kuhn-mesh interior node has 14 neighbours; the Vec grows past
        // the guess on a mesh that has more.
        let mut w: Vec<(u32, [f64; 3])> = Vec::with_capacity(15 * n);
        let mut offsets = vec![0u32; n + 1];
        // Where column `b` sits in `w`, valid while it points into the
        // row being built.
        let mut slot = vec![usize::MAX; n];
        for c in 0..n {
            let start = w.len();
            for &e in node_elems.elements_of(c) {
                let conn = mesh.element(e as usize);
                let TetGeom { grads, vol } = self.elems[e as usize];
                let local = conn.iter().position(|&x| x as usize == c);
                let g = grads[local.expect("element lists the node")].map(|x| vol * 0.25 * x);
                for &b in &conn {
                    if !(start..w.len()).contains(&slot[b as usize]) {
                        slot[b as usize] = w.len();
                        w.push((b, [0.0; 3]));
                    }
                    let sum = &mut w[slot[b as usize]].1;
                    for d in 0..3 {
                        sum[d] += g[d];
                    }
                }
            }
            offsets[c + 1] = w.len() as u32;
        }
        (offsets, w)
    }
}

/// `b_a += Σ_e V_e/4 (∇·u)|_e` over the elements containing `a`.
#[inline]
fn divergence_sweep(
    mesh: &TetMesh,
    geom_of: impl Fn(usize) -> TetGeom,
    u: &VectorField,
    b: &mut [f64],
) {
    for e in 0..mesh.num_elements() {
        let conn = mesh.element(e);
        let TetGeom { grads, vol } = geom_of(e);
        let mut div = 0.0;
        for (a, &n) in conn.iter().enumerate() {
            let v = u.get(n as usize);
            div += grads[a][0] * v[0] + grads[a][1] * v[1] + grads[a][2] * v[2];
        }
        let w = vol * 0.25 * div;
        for &n in &conn {
            b[n as usize] += w;
        }
    }
}

/// `g_a += Σ_e V_e p̄_e ∇N_a` over the elements containing `a`.
#[inline]
fn gradient_adjoint_sweep(
    mesh: &TetMesh,
    geom_of: impl Fn(usize) -> TetGeom,
    p: &[f64],
    g: &mut VectorField,
) {
    for e in 0..mesh.num_elements() {
        let conn = mesh.element(e);
        let TetGeom { grads, vol } = geom_of(e);
        let mut pbar = 0.0;
        for &n in &conn {
            pbar += p[n as usize];
        }
        pbar *= 0.25;
        let w = vol * pbar;
        for (a, &n) in conn.iter().enumerate() {
            g.add(
                n as usize,
                [w * grads[a][0], w * grads[a][1], w * grads[a][2]],
            );
        }
    }
}

fn stiffness_diagonal_sweep(mesh: &TetMesh, geom_of: impl Fn(usize) -> TetGeom) -> Vec<f64> {
    let mut diag = vec![0.0; mesh.num_nodes()];
    for e in 0..mesh.num_elements() {
        let conn = mesh.element(e);
        let TetGeom { grads, vol } = geom_of(e);
        for (a, &n) in conn.iter().enumerate() {
            diag[n as usize] += vol
                * (grads[a][0] * grads[a][0]
                    + grads[a][1] * grads[a][1]
                    + grads[a][2] * grads[a][2]);
        }
    }
    diag
}

/// `g ← M⁻¹ g` with the lumped mass.
#[inline]
fn scale_by_inverse_mass(g: &mut VectorField, mass: &[f64]) {
    for (n, m) in mass.iter().enumerate() {
        let m = m.max(1e-300);
        let v = g.get(n);
        g.set(n, [v[0] / m, v[1] / m, v[2] / m]);
    }
}

/// Weak divergence of a velocity field: `b_a = ∫ N_a (∇·u) dV`
/// (`∇·u` is constant per P1 element, `∫ N_a = V/4`).
pub fn weak_divergence(mesh: &TetMesh, u: &VectorField) -> ScalarField {
    let mut b = ScalarField::zeros(mesh.num_nodes());
    divergence_sweep(mesh, |e| TetGeom::of(mesh, e), u, b.as_mut_slice());
    b
}

/// L2 norm of the elementwise divergence, `√(Σ_e V_e (∇·u)²)`.
pub fn divergence_norm(mesh: &TetMesh, u: &VectorField) -> f64 {
    let mut acc = 0.0;
    for e in 0..mesh.num_elements() {
        let conn = mesh.element(e);
        let (grads, vol) = tet4_gradients(&mesh.element_coords(e));
        let mut div = 0.0;
        for (a, &n) in conn.iter().enumerate() {
            let v = u.get(n as usize);
            div += grads[a][0] * v[0] + grads[a][1] * v[1] + grads[a][2] * v[2];
        }
        acc += vol * div * div;
    }
    acc.sqrt()
}

/// Lumped nodal gradient of a scalar field:
/// `g_a = (Σ_e V_e/4 … ∇p|_e) / m_a` with `∇p` constant per element.
pub fn nodal_gradient(mesh: &TetMesh, p: &ScalarField, mass: &[f64]) -> VectorField {
    let mut g = VectorField::zeros(mesh.num_nodes());
    for e in 0..mesh.num_elements() {
        let conn = mesh.element(e);
        let (grads, vol) = tet4_gradients(&mesh.element_coords(e));
        let mut gp = [0.0; 3];
        for (a, &n) in conn.iter().enumerate() {
            let pv = p.get(n as usize);
            for d in 0..3 {
                gp[d] += grads[a][d] * pv;
            }
        }
        let w = vol * 0.25;
        for &n in &conn {
            g.add(n as usize, [w * gp[0], w * gp[1], w * gp[2]]);
        }
    }
    scale_by_inverse_mass(&mut g, mass);
    g
}

/// The exact transpose of the weak divergence:
/// `(Dᵀ p)_a = Σ_e V_e p̄_e ∇N_a` with `p̄` the element-mean pressure —
/// i.e. the weak pressure force `∫ p ∇N_a` (which differs from `∫ N_a ∇p`
/// by the boundary term).
pub fn weak_gradient_adjoint(mesh: &TetMesh, p: &[f64]) -> VectorField {
    let mut g = VectorField::zeros(mesh.num_nodes());
    gradient_adjoint_sweep(mesh, |e| TetGeom::of(mesh, e), p, &mut g);
    g
}

/// The compatible discrete projection operator `A = D M⁻¹ Dᵀ`
/// (weak divergence ∘ lumped-mass inverse ∘ weak gradient) — symmetric
/// positive semidefinite with the constant null space, and *exactly* the
/// operator whose solve makes the velocity correction annihilate the weak
/// divergence.
pub struct ProjectionOp<'a> {
    /// The mesh.
    pub mesh: &'a TetMesh,
    /// Lumped mass.
    pub mass: &'a [f64],
    /// Preconditioner diagonal (typically the stiffness diagonal).
    /// Borrowed when the caller already owns it (the fractional-step
    /// solver keeps one per case and allocates nothing per step), owned
    /// when built via [`ProjectionOp::new`].
    pub diag: std::borrow::Cow<'a, [f64]>,
}

impl<'a> ProjectionOp<'a> {
    /// Builds the operator (uses the P1 stiffness diagonal as Jacobi
    /// preconditioner — spectrally equivalent).
    pub fn new(mesh: &'a TetMesh, mass: &'a [f64]) -> Self {
        let diag = stiffness_diagonal_sweep(mesh, |e| TetGeom::of(mesh, e));
        Self {
            mesh,
            mass,
            diag: std::borrow::Cow::Owned(diag),
        }
    }
}

impl crate::cg::LinOp for ProjectionOp<'_> {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut g = weak_gradient_adjoint(self.mesh, x);
        scale_by_inverse_mass(&mut g, self.mass);
        let div = weak_divergence(self.mesh, &g);
        y.copy_from_slice(div.as_slice());
    }

    fn dim(&self) -> usize {
        self.mesh.num_nodes()
    }

    fn precond_diagonal(&self) -> Vec<f64> {
        self.diag.to_vec()
    }

    fn precond_diagonal_into(&self, out: &mut [f64]) {
        out.copy_from_slice(&self.diag);
    }

    fn apply_flops(&self) -> u64 {
        projection_flops(self.mesh)
    }
}

/// Algebraic work of one `D M⁻¹ Dᵀ` apply (geometry excluded): Dᵀ
/// (~30/elem) + M⁻¹ scale (6/node) + D (~30/elem).
fn projection_flops(mesh: &TetMesh) -> u64 {
    60 * mesh.num_elements() as u64 + 6 * mesh.num_nodes() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::LinOp;
    use alya_mesh::{BoxMeshBuilder, Rng64, TerrainMeshBuilder};

    /// A jittered box and the 1536-element terrain mesh of the benchmark.
    fn meshes() -> [TetMesh; 2] {
        [
            BoxMeshBuilder::new(4, 3, 5).jitter(0.15).seed(11).build(),
            TerrainMeshBuilder::with_approx_elements(1536).build(),
        ]
    }

    fn random(rng: &mut Rng64, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.range_f64(-1.0, 1.0)).collect()
    }

    fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x:e} vs {y:e}");
        }
    }

    #[test]
    fn table_driven_operators_equal_the_uncached_ones_bitwise() {
        assert_eq!(size_of::<TetGeom>(), 104);
        let mut rng = Rng64::new(2024);
        for mesh in meshes() {
            let n = mesh.num_nodes();
            let table = GeomTable::build(&mesh);
            assert_eq!(table.len(), mesh.num_elements());
            let mass = lumped_mass(&mesh);

            let mut u = VectorField::zeros(n);
            u.as_mut_slice().copy_from_slice(&random(&mut rng, 3 * n));
            // Dirty outputs: the table-driven sweeps overwrite, not add.
            let mut div = random(&mut rng, n);
            table.weak_divergence_into(&mesh, &u, &mut div);
            assert_bitwise(&div, weak_divergence(&mesh, &u).as_slice(), "D u");

            let p = random(&mut rng, n);
            let mut grad = u.clone();
            table.weak_gradient_adjoint_into(&mesh, &p, &mut grad);
            assert_bitwise(
                grad.as_slice(),
                weak_gradient_adjoint(&mesh, &p).as_slice(),
                "Dt p",
            );

            let oracle = ProjectionOp::new(&mesh, &mass);
            let diag = table.stiffness_diagonal(&mesh);
            assert_bitwise(&diag, &oracle.diag, "stiffness diagonal");
        }
    }

    #[test]
    fn assembled_projection_is_the_uncached_operator_to_rounding() {
        let max_abs = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let mut nnz = Vec::new();
        for mesh in meshes() {
            let n = mesh.num_nodes();
            let mass = lumped_mass(&mesh);
            let a = GeomTable::build(&mesh).projection_matrix(&mesh, &mass);
            let oracle = ProjectionOp::new(&mesh, &mass);
            assert_eq!((a.num_rows(), a.num_cols()), (n, n));
            let mut largest = 0.0f64;
            for r in 0..n {
                let (cols, vals) = a.row(r);
                assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r}: {cols:?}");
                largest = largest.max(max_abs(vals));
            }
            assert!(a.max_asymmetry() <= 1e-14 * largest);
            let (mut y, mut y_oracle) = (vec![0.0; n], vec![0.0; n]);
            for seed in 0..20 {
                let x = random(&mut Rng64::new(seed), n);
                a.spmv(&x, &mut y);
                oracle.apply(&x, &mut y_oracle);
                let diff = y.iter().zip(&y_oracle).map(|(u, v)| (u - v).abs());
                let err = diff.fold(0.0, f64::max) / max_abs(&y_oracle);
                assert!(err <= 1e-13, "seed {seed}: A x off the oracle by {err:e}");
            }
            nnz.push(a.nnz());
        }
        // The distance-2 stencil of the 1536-element terrain case, as a count.
        assert_eq!(nnz[1], 16_747);
    }

    #[test]
    fn stiffness_diagonal_is_the_laplacian_diagonal() {
        for mesh in meshes() {
            let from_csr = laplacian(&mesh).diagonal();
            let direct = GeomTable::build(&mesh).stiffness_diagonal(&mesh);
            for (a, b) in from_csr.iter().zip(&direct) {
                assert!(
                    (a - b).abs() <= 4.0 * f64::EPSILON * a.abs(),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    fn assembled_projection_is_symmetric_positive_semidefinite() {
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        for mesh in meshes() {
            let n = mesh.num_nodes();
            let op = GeomTable::build(&mesh).projection_matrix(&mesh, &lumped_mass(&mesh));
            let (mut ax, mut ay) = (vec![0.0; n], vec![0.0; n]);
            for seed in 0..20 {
                let mut rng = Rng64::new(seed);
                let (x, y) = (random(&mut rng, n), random(&mut rng, n));
                op.apply(&x, &mut ax);
                op.apply(&y, &mut ay);
                let (xay, yax) = (dot(&x, &ay), dot(&y, &ax));
                let scale = (dot(&x, &ax) * dot(&y, &ay)).sqrt();
                assert!(
                    (xay - yax).abs() <= 1e-12 * scale,
                    "seed {seed}: x.Ay {xay:e} vs y.Ax {yax:e}"
                );
                assert!(dot(&x, &ax) >= 0.0, "seed {seed}: x.Ax < 0");
            }
        }
    }

    #[test]
    fn laplacian_is_symmetric_with_zero_row_sums() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).jitter(0.1).seed(5).build();
        let l = laplacian(&mesh);
        assert!(l.max_asymmetry() < 1e-12);
        // Row sums vanish: L * 1 = 0 (constants in the null space).
        let ones = vec![1.0; mesh.num_nodes()];
        let mut y = vec![0.0; mesh.num_nodes()];
        l.spmv(&ones, &mut y);
        assert!(y.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn laplacian_diag_positive() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let l = laplacian(&mesh);
        assert!(l.diagonal().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn lumped_mass_sums_to_volume() {
        let mesh = BoxMeshBuilder::new(3, 2, 4).extent(2.0, 1.0, 1.0).build();
        let m = lumped_mass(&mesh);
        let total: f64 = m.iter().sum();
        assert!((total - mesh.total_volume()).abs() < 1e-12);
        assert!(m.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn divergence_of_solenoidal_field_is_zero() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        // u = (y, z, x) is divergence-free and linear (exact for P1).
        let u = VectorField::from_fn(&mesh, |p| [p[1], p[2], p[0]]);
        assert!(divergence_norm(&mesh, &u) < 1e-12);
        let b = weak_divergence(&mesh, &u);
        assert!(b.max_abs() < 1e-13);
    }

    #[test]
    fn divergence_of_linear_expansion_matches() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        // u = (x, y, z): div = 3 everywhere.
        let u = VectorField::from_fn(&mesh, |p| [p[0], p[1], p[2]]);
        let norm = divergence_norm(&mesh, &u);
        // sqrt(sum_e V * 9) = 3 sqrt(volume).
        assert!((norm - 3.0 * mesh.total_volume().sqrt()).abs() < 1e-12);
        // Weak divergence integrates to 3 * V in total.
        let b = weak_divergence(&mesh, &u);
        let total: f64 = b.as_slice().iter().sum();
        assert!((total - 3.0 * mesh.total_volume()).abs() < 1e-12);
    }

    #[test]
    fn nodal_gradient_of_linear_field_is_exact_inside() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build();
        let p = ScalarField::from_fn(&mesh, |q| 2.0 * q[0] - q[1] + 0.5 * q[2]);
        let mass = lumped_mass(&mesh);
        let g = nodal_gradient(&mesh, &p, &mass);
        // Exact gradient everywhere (it is constant and the lumped average
        // of a constant is that constant).
        for n in 0..mesh.num_nodes() {
            let v = g.get(n);
            assert!((v[0] - 2.0).abs() < 1e-11, "node {n}: {v:?}");
            assert!((v[1] + 1.0).abs() < 1e-11);
            assert!((v[2] - 0.5).abs() < 1e-11);
        }
    }
}
