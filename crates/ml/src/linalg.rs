//! Dense linear algebra: row-major matrices and Cholesky solves.
//!
//! Sized for surrogate training: design matrices with up to a few
//! thousand rows and a few hundred columns, normal-equation solves on
//! the feature dimension. No external BLAS — plain loops are fast enough
//! at this scale and keep the build dependency-free.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Rows [`Matrix::gram`] accumulates per pass over the Gram matrix.
const GRAM_ROWS: usize = 16;

/// Errors from numerical routines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix is not positive definite (within tolerance).
    NotPositiveDefinite,
    /// Shape mismatch between operands.
    ShapeMismatch,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite => write!(f, "matrix not positive definite"),
            LinalgError::ShapeMismatch => write!(f, "shape mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from nested rows; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty());
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Builds from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row access.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ * self` (the Gram matrix), exploiting symmetry.
    ///
    /// Rows are taken [`GRAM_ROWS`] at a time so row `i` of the upper
    /// triangle stays in L1 while the block's rows add to it. Every entry
    /// still adds `x_ri · x_rj` for `r = 0, 1, …` in order (skipping rows
    /// with `x_ri == 0`), the same operations as a plain row loop.
    pub fn gram(&self) -> Matrix {
        let d = self.cols;
        let mut g = Matrix::zeros(d, d);
        for block in self.data.chunks(d.max(1) * GRAM_ROWS) {
            for i in 0..d {
                let g_row = &mut g.data[i * d + i..(i + 1) * d];
                for row in block.chunks_exact(d.max(1)) {
                    let a = row[i];
                    if a == 0.0 {
                        continue;
                    }
                    for (gij, &b) in g_row.iter_mut().zip(&row[i..]) {
                        *gij += a * b;
                    }
                }
            }
        }
        for i in 0..d {
            for j in 0..i {
                g.data[i * d + j] = g.data[j * d + i];
            }
        }
        g
    }

    /// `selfᵀ * other`.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for i in 0..self.cols {
                let a = a_row[i];
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * v` for a vector `v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec shape mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Adds `lambda` to the diagonal (ridge regularization).
    pub fn add_diag(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// The row-major backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Cholesky factorization `A = L Lᵀ` for symmetric positive-definite
    /// `A`. Reads only the lower triangle; see [`Matrix::into_cholesky`].
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        self.clone().into_cholesky()
    }

    /// [`Matrix::cholesky`] in place: the factor takes over this
    /// matrix's buffer, so no second `n × n` buffer is allocated.
    ///
    /// Left-looking (column by column): column `j` of `L` starts as the
    /// lower column `a_ij` (`i ≥ j`) and subtracts `l_ik · l_jk` for
    /// `k = 0, 1, …, j-1`. Each entry sees exactly the operations of the
    /// row-by-row textbook loop in the same order, so the factor is
    /// bit-identical to it; the speed comes from running the `n - j`
    /// independent chains of one column side by side. `Lᵀ` is stored
    /// (row `k` of the buffer holds column `k` of `L`), which makes those
    /// chains contiguous. The first failing pivot is the same one the
    /// row-by-row loop reports, since pivots are checked in index order
    /// either way.
    pub fn into_cholesky(mut self) -> Result<Cholesky, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::ShapeMismatch);
        }
        let n = self.rows;
        let data = &mut self.data;
        for j in 0..n {
            // Row j of the buffer becomes column j of L: seed it with the
            // lower column of A (row j's own upper entries are never read).
            for i in j + 1..n {
                data[j * n + i] = data[i * n + j];
            }
            let (done, rest) = data.split_at_mut(j * n);
            let col = &mut rest[j..n];
            for k in 0..j {
                let lk = &done[k * n + j..(k + 1) * n];
                let l_jk = lk[0];
                for (sum, &l_ik) in col.iter_mut().zip(lk) {
                    *sum -= l_ik * l_jk;
                }
            }
            let pivot = col[0];
            if pivot <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let l_jj = pivot.sqrt();
            col[0] = l_jj;
            for l_ij in &mut col[1..] {
                *l_ij /= l_jj;
            }
        }
        // The strict lower triangle still holds A's entries; Lᵀ is upper
        // triangular with exact zeros there.
        for i in 0..n {
            data[i * n..i * n + i].fill(0.0);
        }
        Ok(Cholesky { lt: self })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// A Cholesky factor `L` with forward/back substitution solvers.
#[derive(Clone, Debug)]
pub struct Cholesky {
    /// `Lᵀ`: upper triangular, row `k` is column `k` of `L`.
    lt: Matrix,
}

impl Cholesky {
    /// The lower-triangular factor `L` (exact zeros above the diagonal).
    #[cfg(test)]
    pub(crate) fn lower(&self) -> Matrix {
        let n = self.lt.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = self.lt[(j, i)];
            }
        }
        l
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lt.rows();
        assert_eq!(b.len(), n);
        // Forward: L y = b, column by column. Each `y_i` still subtracts
        // `l_ik · y_k` for k = 0, 1, …, i-1 in order before its division.
        let mut y = b.to_vec();
        for k in 0..n {
            let lk = self.lt.row(k);
            let y_k = y[k] / lk[k];
            y[k] = y_k;
            for (y_i, &l_ik) in y[k + 1..].iter_mut().zip(&lk[k + 1..]) {
                *y_i -= l_ik * y_k;
            }
        }
        // Back: Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let li = self.lt.row(i);
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= li[k] * x[k];
            }
            x[i] = sum / li[i];
        }
        x
    }

    /// Solves `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.lt.rows();
        assert_eq!(b.rows(), n);
        let mut out = Matrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let col: Vec<f64> = (0..n).map(|r| b[(r, c)]).collect();
            let x = self.solve(&col);
            for r in 0..n {
                out[(r, c)] = x[r];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn gram_matches_t_matmul() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 10.0],
            vec![-1.0, 0.5, 2.0],
        ]);
        let g = a.gram();
        let g2 = a.t_matmul(&a);
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - g2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [2,1] -> x = [0.5, 0]
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let ch = a.cholesky().unwrap();
        let x = ch.solve(&[2.0, 1.0]);
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!(x[1].abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert_eq!(a.cholesky().unwrap_err(), LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn cholesky_rejects_nonsquare() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(a.cholesky().unwrap_err(), LinalgError::ShapeMismatch);
    }

    #[test]
    fn cholesky_reads_only_the_lower_triangle_and_zeroes_the_upper() {
        // The factorization's contract: entries above A's diagonal are
        // never read, and L has exact +0.0 above its diagonal.
        let mut rng = hetflow_sim::SimRng::from_seed(17);
        let n = 9;
        let rows: Vec<Vec<f64>> =
            (0..n + 3).map(|_| (0..n).map(|_| rng.standard_normal()).collect()).collect();
        let mut a = Matrix::from_rows(&rows).gram();
        a.add_diag(0.5);
        let mut garbage = a.clone();
        for i in 0..n {
            for j in i + 1..n {
                garbage[(i, j)] = [f64::NAN, 1e300, -7.0, f64::NEG_INFINITY][(i + j) % 4];
            }
        }
        let clean = a.cholesky().unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        for dirty in [garbage.cholesky().unwrap(), garbage.into_cholesky().unwrap()] {
            let (lc, ld) = (clean.lower(), dirty.lower());
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(ld[(i, j)].to_bits(), lc[(i, j)].to_bits(), "L[{i}][{j}]");
                    if j > i {
                        assert_eq!(ld[(i, j)].to_bits(), 0.0f64.to_bits(), "L[{i}][{j}]");
                    } else {
                        assert!(ld[(i, j)].is_finite());
                    }
                }
            }
            let (xc, xd) = (clean.solve(&b), dirty.solve(&b));
            assert!(xc.iter().zip(&xd).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    #[test]
    fn solve_matrix_multi_rhs() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 4.0], vec![1.0, 2.0]]);
        let x = a.cholesky().unwrap().solve_matrix(&b);
        // Column 2 is 2x column 1.
        assert!((x[(0, 1)] - 2.0 * x[(0, 0)]).abs() < 1e-12);
        assert!((x[(1, 1)] - 2.0 * x[(1, 0)]).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn cholesky_roundtrip_random_spd(seed in 0u64..500) {
            // Build A = MᵀM + I (SPD by construction), solve, verify.
            let mut rng = hetflow_sim::SimRng::from_seed(seed);
            let n = 1 + (seed as usize % 8);
            let rows: Vec<Vec<f64>> = (0..n + 2)
                .map(|_| (0..n).map(|_| rng.standard_normal()).collect())
                .collect();
            let m = Matrix::from_rows(&rows);
            let mut a = m.gram();
            a.add_diag(1.0);
            let b: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
            let x = a.cholesky().unwrap().solve(&b);
            let back = a.matvec(&x);
            for (bb, ba) in b.iter().zip(&back) {
                prop_assert!((bb - ba).abs() < 1e-8, "residual {}", (bb - ba).abs());
            }
        }

        #[test]
        fn gram_is_symmetric_psd_diag(seed in 0u64..200) {
            let mut rng = hetflow_sim::SimRng::from_seed(seed);
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|_| (0..4).map(|_| rng.standard_normal()).collect())
                .collect();
            let g = Matrix::from_rows(&rows).gram();
            for i in 0..4 {
                prop_assert!(g[(i, i)] >= -1e-12);
                for j in 0..4 {
                    prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
                }
            }
        }
    }
}
