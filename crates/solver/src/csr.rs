//! Compressed-sparse-row matrices: the product the pressure CG runs, whole
//! or row range by row range.

/// A CSR matrix over `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    num_rows: usize,
    num_cols: usize,
    row_offsets: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from (row, col, value) triplets; duplicate entries are summed.
    pub fn from_triplets(
        num_rows: usize,
        num_cols: usize,
        triplets: impl IntoIterator<Item = (u32, u32, f64)>,
    ) -> Self {
        let mut items: Vec<(u32, u32, f64)> = triplets.into_iter().collect();
        items.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_offsets = Vec::with_capacity(num_rows + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_offsets.push(0u32);
        let mut it = items.into_iter().peekable();
        for r in 0..num_rows as u32 {
            while let Some(&(ri, c, v)) = it.peek() {
                if ri != r {
                    break;
                }
                assert!((c as usize) < num_cols, "column {c} out of range");
                let row_start = *row_offsets.last().unwrap() as usize;
                if col_indices.len() > row_start && *col_indices.last().unwrap() == c {
                    *values.last_mut().unwrap() += v; // merge duplicate
                } else {
                    col_indices.push(c);
                    values.push(v);
                }
                it.next();
            }
            row_offsets.push(col_indices.len() as u32);
        }
        assert!(it.peek().is_none(), "row index out of range");
        Self {
            num_rows,
            num_cols,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Wraps finished CSR arrays: `row_offsets` has `num_rows + 1` entries
    /// ending at the nonzero count, columns ascend within each row.
    pub(crate) fn from_sorted_rows(
        num_cols: usize,
        row_offsets: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_offsets.last().map(|&o| o as usize), Some(values.len()));
        assert_eq!(col_indices.len(), values.len());
        Self {
            num_rows: row_offsets.len() - 1,
            num_cols,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(columns, values)` of row `r`.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.row_offsets[r] as usize;
        let hi = self.row_offsets[r + 1] as usize;
        (&self.col_indices[lo..hi], &self.values[lo..hi])
    }

    /// Entry `(r, c)`, zero when not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Matrix-vector product `y = A x` on the calling thread:
    /// [`Self::spmv_rows`] over every row.
    // alya:hot
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        // alya:allow(hot-panic): one dimension check per product, outside the row loop
        assert_eq!(x.len(), self.num_cols);
        // alya:allow(hot-panic): as above
        assert_eq!(y.len(), self.num_rows);
        self.spmv_rows(x, 0, y);
    }

    /// Rows `row0 .. row0 + y.len()` of `A x` into `y`. A row is summed in
    /// four independent partial sums (entries `4k + l` into sum `l`), so
    /// the adds of one row do not wait on each other — the loop under the
    /// pressure CG, where a row is 40–55 entries of a cache-resident `x`.
    /// Each row's sum depends on that row alone, so any split of the rows
    /// reproduces [`Self::spmv`] bit for bit.
    // alya:hot
    pub fn spmv_rows(&self, x: &[f64], row0: usize, y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.num_cols);
        debug_assert!(row0 + y.len() <= self.num_rows);
        for (r, y) in (row0..).zip(y.iter_mut()) {
            let (cols, vals) = self.row(r);
            let (cols4, vals4) = (cols.chunks_exact(4), vals.chunks_exact(4));
            let mut tail = 0.0;
            for (c, v) in cols4.remainder().iter().zip(vals4.remainder()) {
                tail += v * x[*c as usize];
            }
            let mut acc = [0.0; 4];
            for (c, v) in cols4.zip(vals4) {
                for l in 0..4 {
                    acc[l] += v[l] * x[c[l] as usize];
                }
            }
            *y = (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail;
        }
    }

    /// Row bounds that cut the matrix into `parts` (at least one) ranges of
    /// about equal nonzeros: `parts + 1` ascending entries from 0 to
    /// [`Self::num_rows`], range `k` being rows `bounds[k]..bounds[k + 1]`
    /// (empty when a single row holds more than a share).
    pub fn nnz_split(&self, parts: usize) -> Vec<usize> {
        let parts = parts.max(1);
        let nnz = self.nnz();
        let mut bounds: Vec<usize> = (0..parts)
            .map(|k| {
                self.row_offsets
                    .partition_point(|&o| o as usize * parts < k * nnz)
            })
            .collect();
        bounds.push(self.num_rows);
        bounds
    }

    /// The main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.num_rows.min(self.num_cols))
            .map(|r| self.get(r, r))
            .collect()
    }

    /// Maximum asymmetry `|A - Aᵀ|∞` (cheap structural check for tests).
    pub fn max_asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for r in 0..self.num_rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                worst = worst.max((v - self.get(*c as usize, r)).abs());
            }
        }
        worst
    }

    /// Replaces row `r` by the identity row (Dirichlet elimination; the
    /// symmetric column sweep is the caller's business).
    pub fn set_identity_row(&mut self, r: usize) {
        let lo = self.row_offsets[r] as usize;
        let hi = self.row_offsets[r + 1] as usize;
        for i in lo..hi {
            self.values[i] = if self.col_indices[i] as usize == r {
                1.0
            } else {
                0.0
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [2 1 0]
        // [1 3 1]
        // [0 1 4]
        CsrMatrix::from_triplets(
            3,
            3,
            vec![
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 4.0),
            ],
        )
    }

    #[test]
    fn build_and_query() {
        let a = small();
        assert_eq!(a.num_rows(), 3);
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(1, 2), 1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.diagonal(), vec![2.0, 3.0, 4.0]);
        assert_eq!(a.max_asymmetry(), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let a = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = CsrMatrix::from_triplets(4, 4, vec![(0, 0, 1.0), (3, 3, 2.0)]);
        assert_eq!(a.row(1).0.len(), 0);
        assert_eq!(a.row(2).0.len(), 0);
        assert_eq!(a.get(3, 3), 2.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [4.0, 10.0, 14.0]);
        let mut tail = [0.0; 2];
        a.spmv_rows(&x, 1, &mut tail);
        assert_eq!(tail, [10.0, 14.0]);
    }

    /// `nnz_split(k)` for k ∈ {1, 2, 3, 8, rows + 5}: bounds ascend and
    /// cover every row, each range holds about a k-th of the nonzeros, and
    /// `spmv_rows` over the ranges is `spmv` bit for bit. (The CG team
    /// that runs those ranges is held bitwise by the `cg` tests.)
    fn check_split(a: &CsrMatrix) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let x: Vec<f64> = (0..a.num_cols())
            .map(|i| (0.37 * i as f64).sin() * 1e3 + 1.0 / (i as f64 + 0.5))
            .collect();
        let mut want = vec![0.0; a.num_rows()];
        a.spmv(&x, &mut want);
        let widest = (0..a.num_rows())
            .map(|r| a.row(r).0.len())
            .max()
            .unwrap_or(0);
        for k in [1, 2, 3, 8, a.num_rows() + 5] {
            let bounds = a.nnz_split(k);
            assert_eq!(bounds.len(), k + 1);
            assert_eq!((bounds[0], bounds[k]), (0, a.num_rows()));
            let mut got = vec![f64::NAN; a.num_rows()];
            for r in bounds.windows(2) {
                assert!(r[0] <= r[1], "k = {k}: {bounds:?}");
                let nnz = a.row_offsets[r[1]] - a.row_offsets[r[0]];
                assert!(nnz as usize <= a.nnz() / k + widest, "k = {k}");
                a.spmv_rows(&x, r[0], &mut got[r[0]..r[1]]);
            }
            assert_eq!(bits(&got), bits(&want), "k = {k}");
        }
    }

    #[test]
    fn split_products_reproduce_spmv_bitwise_with_empty_rows() {
        let mut t = Vec::new();
        for r in 0..40u32 {
            if r % 3 == 1 || (10..17).contains(&r) {
                continue; // empty rows, singly and in a run
            }
            for c in 0..40u32 {
                if (r * 7 + c * 3) % 5 < 2 || r == c {
                    t.push((r, c, f64::from(r) - 0.25 * f64::from(c) + 0.125));
                }
            }
        }
        check_split(&CsrMatrix::from_triplets(45, 40, t));
        check_split(&CsrMatrix::from_triplets(3, 3, Vec::new()));
        check_split(&small());
    }

    #[test]
    fn split_products_reproduce_spmv_bitwise_on_the_24k_projection_matrix() {
        let mesh = alya_mesh::BoxMeshBuilder::new(20, 20, 10)
            .jitter(0.1)
            .seed(3)
            .build();
        assert_eq!(mesh.num_elements(), 24_000);
        let geom = crate::poisson::GeomTable::build(&mesh);
        let a = geom.projection_matrix(&mesh, &crate::poisson::lumped_mass(&mesh));
        check_split(&a);
    }

    #[test]
    fn identity_row_elimination() {
        let mut a = small();
        a.set_identity_row(1);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y[1], 2.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_triplet_panics() {
        let _ = CsrMatrix::from_triplets(2, 2, vec![(5, 0, 1.0)]);
    }
}
