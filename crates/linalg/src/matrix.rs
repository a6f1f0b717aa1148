//! Dense row-major matrices with the handful of operations the workspace
//! needs. Dimensions here are tiny (n ≤ a few dozen), so clarity beats
//! blocking and the compiler's autovectorizer does the rest.

use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// The zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data buffer.
    ///
    /// `data.len() == rows * cols` is a debug-checked precondition; a short
    /// buffer in release builds still panics on the first out-of-range
    /// element access.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        debug_assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length must be rows*cols"
        );
        Self { rows, cols, data }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
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

    /// Row-major data slice.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `A·x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "matvec: x.len() != cols",
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Matrix product `A·B`.
    pub fn matmul(&self, b: &Matrix) -> Result<Matrix> {
        if self.cols != b.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "matmul: A.cols != B.rows",
            });
        }
        let mut out = Matrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Gram matrix `Aᵀ·A` (always square `cols × cols`, symmetric PSD).
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    out[(i, j)] += ri * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..self.cols {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// `Aᵀ·b` for a right-hand side of length `rows`.
    pub fn t_matvec(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "t_matvec: b.len() != rows",
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &br) in b.iter().enumerate() {
            for (j, &a) in self.row(r).iter().enumerate() {
                out[j] += a * br;
            }
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry difference against another matrix of the same
    /// shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "max_abs_diff: shapes differ",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// True if `|A - Aᵀ|` is entrywise below `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..i {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let i3 = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(i3.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matvec_hand_case() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = a.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn matmul_hand_case() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let c = a.matmul(&Matrix::identity(3)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(2, 4, |i, j| (i + 10 * j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 4);
    }

    #[test]
    fn gram_matches_explicit_ata() {
        let a = Matrix::from_fn(4, 3, |i, j| ((i * 3 + j) as f64).sin());
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&explicit).unwrap() < 1e-12);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn t_matvec_matches_transpose_matvec() {
        let a = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let direct = a.t_matvec(&b).unwrap();
        let via_t = a.transpose().matvec(&b).unwrap();
        assert_eq!(direct, via_t);
    }

    #[test]
    fn dimension_errors() {
        let a = Matrix::zeros(2, 3);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
        assert!(a.matmul(&Matrix::zeros(2, 2)).is_err());
        assert!(a.t_matvec(&[1.0]).is_err());
        assert!(a.max_abs_diff(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn frobenius_norm_hand_case() {
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn symmetry_checks() {
        let s = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 5.0]);
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.1, 5.0]);
        assert!(!ns.is_symmetric(1e-3));
        assert!(ns.is_symmetric(0.2));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn row_access() {
        let mut a = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        assert_eq!(a.row(1), &[2.0, 3.0]);
        a.row_mut(1)[0] = 9.0;
        assert_eq!(a[(1, 0)], 9.0);
    }

    #[test]
    fn display_renders_rows() {
        let a = Matrix::identity(2);
        let s = a.to_string();
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn from_vec_length_mismatch_panics() {
        Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    #[should_panic]
    fn from_vec_short_buffer_panics_on_access_in_release() {
        let m = Matrix::from_vec(2, 2, vec![1.0; 3]);
        let _ = m[(1, 1)];
    }
}
