//! Minimal dense linear algebra: exactly what closed-form ridge needs.
//!
//! Ridge regression solves `(XᵀX + λI)·w = Xᵀ·y`. The left-hand matrix is
//! symmetric positive definite for λ > 0, so a Cholesky factorization with
//! forward/backward substitution is both the fastest and the most
//! numerically robust solver for the job.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from row-major data. Panics if the data length mismatches.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from a slice of row slices (test convenience).
    pub fn from_nested(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `selfᵀ · self` (the Gram matrix), computed without materializing
    /// the transpose.
    #[must_use]
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for row in 0..self.rows {
            let r = self.row(row);
            for i in 0..n {
                let ri = r[i];
                if ri == 0.0 {
                    continue;
                }
                let grow = g.row_mut(i);
                for (j, &rj) in r.iter().enumerate() {
                    grow[j] += ri * rj;
                }
            }
        }
        g
    }

    /// `selfᵀ · v` for a vector `v` with one entry per row of `self`.
    pub fn transpose_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vector length mismatch");
        let mut out = vec![0.0; self.cols];
        for (row, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(self.row(row)) {
                *o += vi * x;
            }
        }
        out
    }

    /// `self · v`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        (0..self.rows).map(|r| dot(self.row(r), v)).collect()
    }

    /// Add `lambda` to every diagonal entry (ridge regularization).
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Cholesky factorization `self = L·Lᵀ` of a symmetric positive
    /// definite matrix. Returns the lower-triangular factor, or `None`
    /// when the matrix is not positive definite.
    pub fn cholesky(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solve `self · x = b` for symmetric positive definite `self` via
    /// Cholesky. Returns `None` when the matrix is not SPD.
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        let l = self.cholesky()?;
        let n = self.rows;
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Forward substitution: L·z = b.
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * z[k];
            }
            z[i] = sum / l[(i, i)];
        }
        // Backward substitution: Lᵀ·x = z.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Some(x)
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let i = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_vec_close(&i.solve_spd(&b).unwrap(), &b, 1e-12);
    }

    #[test]
    fn gram_matches_manual_transpose_multiply() {
        let x = Matrix::from_nested(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = x.gram();
        // XᵀX = [[35, 44], [44, 56]]
        assert_eq!(g[(0, 0)], 35.0);
        assert_eq!(g[(0, 1)], 44.0);
        assert_eq!(g[(1, 0)], 44.0);
        assert_eq!(g[(1, 1)], 56.0);
    }

    #[test]
    fn transpose_mul_vec_matches_manual() {
        let x = Matrix::from_nested(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = vec![1.0, 1.0, 1.0];
        assert_vec_close(&x.transpose_mul_vec(&y), &[9.0, 12.0], 1e-12);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_nested(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]);
        let l = a.cholesky().unwrap();
        // Check L·Lᵀ = A entrywise.
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l[(i, k)] * l[(j, k)];
                }
                assert!((s - a[(i, j)]).abs() < 1e-12);
            }
        }
        // L is lower triangular.
        assert_eq!(l[(0, 1)], 0.0);
        assert_eq!(l[(0, 2)], 0.0);
        assert_eq!(l[(1, 2)], 0.0);
    }

    #[test]
    fn solve_spd_known_system() {
        // A = [[4,2],[2,3]], b = [10, 8] → x = [7/4, 3/2].
        let a = Matrix::from_nested(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let x = a.solve_spd(&[10.0, 8.0]).unwrap();
        assert_vec_close(&x, &[1.75, 1.5], 1e-12);
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Matrix::from_nested(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(a.cholesky().is_none());
        assert!(a.solve_spd(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn add_diagonal_regularizes_singular_gram() {
        // Collinear columns → singular Gram; λ restores definiteness.
        let x = Matrix::from_nested(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let mut g = x.gram();
        assert!(g.cholesky().is_none() || g[(0, 0)] > 0.0);
        g.add_diagonal(1e-3);
        assert!(g.cholesky().is_some());
    }

    #[test]
    fn mul_vec_round_trip_with_solve() {
        let a = Matrix::from_nested(&[&[5.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 3.0]]);
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.mul_vec(&x_true);
        let x = a.solve_spd(&b).unwrap();
        assert_vec_close(&x, &x_true, 1e-10);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn bad_shape_rejected() {
        Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
