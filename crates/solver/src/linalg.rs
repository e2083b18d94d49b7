//! Dense linear algebra: just enough to run a Newton interior-point method.
//!
//! Matrices are small in LIBRA problems (a handful of bandwidth variables
//! plus epigraph variables), so everything here is dense and row-major. In
//! the routines a Newton iteration calls (rank-1 updates, the Cholesky
//! factorization and its solve) callers own every buffer, so a Newton loop
//! reuses storage it allocated once.

use crate::error::SolverError;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut m = Matrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "inconsistent row length");
            m.data[i * c..(i + 1) * c].copy_from_slice(row);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut out = vec![0.0; self.rows];
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *o = dot(row, x);
        }
        out
    }

    /// Transposed matrix–vector product `selfᵀ · x`.
    pub fn mul_vec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for (xi, row) in x.iter().zip(self.data.chunks_exact(self.cols)) {
            for (o, r) in out.iter_mut().zip(row) {
                *o += xi * r;
            }
        }
        out
    }

    /// Adds `alpha · v vᵀ` to the matrix (rank-1 symmetric update).
    ///
    /// # Panics
    /// Panics unless the matrix is square with size `v.len()`.
    pub fn rank1_update(&mut self, alpha: f64, v: &[f64]) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(v.len(), self.rows);
        for i in 0..self.rows {
            if v[i] == 0.0 {
                continue;
            }
            let vi = alpha * v[i];
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (r, vj) in row.iter_mut().zip(v) {
                *r += vi * vj;
            }
        }
    }

    /// Adds `delta` to every diagonal entry (Tikhonov regularization).
    pub fn add_diagonal(&mut self, delta: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += delta;
        }
    }

    /// Sets every entry to zero, keeping the storage.
    pub fn set_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Solves `self · x = b` via LU with partial pivoting. The matrix is
    /// consumed conceptually (a working copy is factored).
    ///
    /// # Errors
    /// Returns [`SolverError::NumericalFailure`] if the matrix is singular to
    /// working precision.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: find the largest entry in column k.
            let mut p = k;
            let mut max = a[perm[k] * n + k].abs();
            for (r, &pr) in perm.iter().enumerate().skip(k + 1) {
                let v = a[pr * n + k].abs();
                if v > max {
                    max = v;
                    p = r;
                }
            }
            if max < 1e-300 {
                return Err(SolverError::NumericalFailure("singular matrix in LU solve"));
            }
            perm.swap(k, p);
            let pk = perm[k];
            let pivot = a[pk * n + k];
            for &pr in perm.iter().skip(k + 1) {
                let factor = a[pr * n + k] / pivot;
                a[pr * n + k] = factor;
                for j in k + 1..n {
                    a[pr * n + j] -= factor * a[pk * n + j];
                }
            }
        }

        // Forward substitution (L has implicit unit diagonal).
        let mut y = vec![0.0; n];
        for (k, &pk) in perm.iter().enumerate() {
            let mut s = x[pk];
            for (j, yj) in y.iter().enumerate().take(k) {
                s -= a[pk * n + j] * yj;
            }
            y[k] = s;
        }
        // Back substitution.
        for k in (0..n).rev() {
            let pk = perm[k];
            let mut s = y[k];
            for j in k + 1..n {
                s -= a[pk * n + j] * x[j];
            }
            x[k] = s / a[pk * n + k];
        }
        Ok(x)
    }

    /// Cholesky factorization `self = L·Lᵀ` of a symmetric positive-definite
    /// matrix, written into `l`: the lower factor, with zeros above the
    /// diagonal. Only the lower triangle of `self` is read, and `l`'s prior
    /// contents never are, so one buffer serves every factorization.
    ///
    /// # Errors
    /// Returns [`SolverError::NumericalFailure`] if the matrix is not
    /// (numerically) positive definite; `l` is then partly overwritten.
    ///
    /// # Panics
    /// Panics unless `self` is square and `l` has its shape.
    pub fn cholesky(&self, l: &mut Matrix) -> Result<(), SolverError> {
        assert_eq!(self.rows, self.cols);
        assert_eq!((l.rows, l.cols), (self.rows, self.cols));
        let n = self.rows;
        for i in 0..n {
            for j in 0..=i {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(SolverError::NumericalFailure(
                            "matrix not positive definite in Cholesky",
                        ));
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
            l.data[i * n + i + 1..(i + 1) * n].fill(0.0);
        }
        Ok(())
    }

    /// Solves `A·x = b` in place, where `self` is the Cholesky factor of `A`
    /// from [`Matrix::cholesky`]: `x` holds `b` on entry and the solution on
    /// return.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the factor's size.
    pub fn cholesky_solve(&self, x: &mut [f64]) {
        let n = self.rows;
        assert_eq!(x.len(), n);
        for i in 0..n {
            let mut s = x[i];
            for (j, xj) in x.iter().enumerate().take(i) {
                s -= self[(i, j)] * xj;
            }
            x[i] = s / self[(i, i)];
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, xj) in x.iter().enumerate().skip(i + 1) {
                s -= self[(j, i)] * xj;
            }
            x[i] = s / self[(i, i)];
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x` in place.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_small_system() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[1.0, 2.0]).unwrap();
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn lu_handles_permutation() {
        // Requires pivoting: zero on the diagonal.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.solve(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn cholesky_roundtrip() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]);
        let mut l = Matrix::zeros(3, 3);
        a.cholesky(&mut l).unwrap();
        let mut x = vec![1.0, 2.0, 3.0];
        l.cholesky_solve(&mut x);
        let b = a.mul_vec(&x);
        assert!((b[0] - 1.0).abs() < 1e-10);
        assert!((b[1] - 2.0).abs() < 1e-10);
        assert!((b[2] - 3.0).abs() < 1e-10);
        // A reused buffer, dirty with stale values and a failed
        // factorization's partial output, gets the same bits as a fresh one.
        let mut reused =
            Matrix::from_rows(&[&[f64::NAN, -7.0, 3.5], &[1e300, -0.0, 9.0], &[2.0, 4.0, 8.0]]);
        let singular = Matrix::from_rows(&[&[4.0, 2.0, 1.0], &[2.0, 1.0, 0.5], &[1.0, 0.5, 9.0]]);
        assert!(singular.cholesky(&mut reused).is_err());
        a.cholesky(&mut reused).unwrap();
        let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reused), bits(&l));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(a.cholesky(&mut Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn rank1_update_matches_manual() {
        let mut a = Matrix::zeros(2, 2);
        a.rank1_update(2.0, &[1.0, 3.0]);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(0, 1)], 6.0);
        assert_eq!(a[(1, 0)], 6.0);
        assert_eq!(a[(1, 1)], 18.0);
    }

    #[test]
    fn mul_vec_t_is_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let y = a.mul_vec_t(&[1.0, 1.0]);
        assert_eq!(y, vec![5.0, 7.0, 9.0]);
    }
}
