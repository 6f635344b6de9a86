//! Dense matrices over `f64`: the linear algebra ASPE needs.
//!
//! Row-major storage; exactly the operations required — multiplication,
//! transpose, LU inversion with partial pivoting, quadratic forms.

use crate::error::AspeError;
use scbr_crypto::rng::CryptoRng;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds from rows (a unit-test helper).
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged or empty.
    #[cfg(test)]
    fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0 && rows.iter().all(|r| r.len() == cols), "ragged rows");
        Matrix { rows: rows.len(), cols, data: rows.concat() }
    }

    /// A random well-conditioned invertible matrix (random entries plus a
    /// dominant diagonal).
    pub fn random_invertible(n: usize, rng: &mut CryptoRng) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, rng.unit_f64() * 2.0 - 1.0);
            }
            // Diagonal dominance guarantees invertibility and conditioning.
            let row_sum: f64 = (0..n).map(|j| m.get(i, j).abs()).sum();
            m.set(i, i, m.get(i, i) + row_sum + 1.0);
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

    /// Element at (r, c).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element (r, c).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// [`AspeError::DimensionMismatch`] when inner dimensions differ.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix, AspeError> {
        if self.cols != other.rows {
            return Err(AspeError::DimensionMismatch { expected: self.cols, got: other.rows });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// [`AspeError::DimensionMismatch`] when sizes differ.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, AspeError> {
        if self.cols != v.len() {
            return Err(AspeError::DimensionMismatch { expected: self.cols, got: v.len() });
        }
        let mut out = vec![0.0; self.rows];
        for (i, out_i) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &vj) in v.iter().enumerate() {
                acc += self.get(i, j) * vj;
            }
            *out_i = acc;
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Inverse via LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`AspeError::SingularMatrix`] for singular or non-square input.
    pub fn inverse(&self) -> Result<Matrix, AspeError> {
        if self.rows != self.cols {
            return Err(AspeError::SingularMatrix);
        }
        let n = self.rows;
        // Augment with the identity and run Gauss-Jordan with pivoting.
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Pivot: largest magnitude in this column at or below `col`.
            let mut pivot = col;
            for r in col + 1..n {
                if a.get(r, col).abs() > a.get(pivot, col).abs() {
                    pivot = r;
                }
            }
            let pv = a.get(pivot, col);
            if pv.abs() < 1e-12 {
                return Err(AspeError::SingularMatrix);
            }
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalise the pivot row.
            let scale = 1.0 / a.get(col, col);
            for j in 0..n {
                a.set(col, j, a.get(col, j) * scale);
                inv.set(col, j, inv.get(col, j) * scale);
            }
            // Eliminate the column elsewhere.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a.set(r, j, a.get(r, j) - factor * a.get(col, j));
                    inv.set(r, j, inv.get(r, j) - factor * inv.get(col, j));
                }
            }
        }
        Ok(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Largest absolute entry (for numerical tolerance scaling).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Quadratic form `vᵀ · self · v`.
    ///
    /// # Errors
    ///
    /// [`AspeError::DimensionMismatch`] when sizes differ.
    pub fn quadratic_form(&self, v: &[f64]) -> Result<f64, AspeError> {
        let mv = self.mul_vec(v)?;
        Ok(dot(&mv, v))
    }
}

/// Dot product of equal-length slices.
///
/// # Panics
///
/// Panics when lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn identity_is_neutral() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(m.mul(&i).unwrap(), m);
        assert_eq!(i.mul(&m).unwrap(), m);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.mul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.mul(&b), Err(AspeError::DimensionMismatch { .. })));
        assert!(a.mul_vec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn transpose_involutive() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn inverse_of_known_matrix() {
        let m = Matrix::from_rows(&[vec![4.0, 7.0], vec![2.0, 6.0]]);
        let inv = m.inverse().unwrap();
        let product = m.mul(&inv).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(close(product.get(i, j), if i == j { 1.0 } else { 0.0 }));
            }
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(m.inverse(), Err(AspeError::SingularMatrix));
        assert!(Matrix::zeros(2, 3).inverse().is_err());
    }

    #[test]
    fn random_invertible_inverts() {
        let mut rng = CryptoRng::from_seed(5);
        for n in [2usize, 5, 12, 30] {
            let m = Matrix::random_invertible(n, &mut rng);
            let inv = m.inverse().unwrap();
            let p = m.mul(&inv).unwrap();
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        close(p.get(i, j), if i == j { 1.0 } else { 0.0 }),
                        "n={n} at ({i},{j}): {}",
                        p.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn quadratic_form_known() {
        // v^T W v with W = [[2,0],[0,3]] and v = (1,2) is 2 + 12 = 14.
        let w = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]);
        assert!(close(w.quadratic_form(&[1.0, 2.0]).unwrap(), 14.0));
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
