use crate::{Cholesky, LinalgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse container of the workspace: scatter matrices,
/// covariance matrices, Cholesky factors and solver KKT systems are all
/// instances of it. It deliberately keeps a small, explicit API — every
/// fallible operation returns [`LinalgError`] instead of panicking so that
/// higher layers (the SOCP solver, the branch-and-bound trainer) can degrade
/// gracefully on degenerate numerical input.
///
/// # Example
///
/// ```
/// use ldafp_linalg::Matrix;
///
/// # fn main() -> Result<(), ldafp_linalg::LinalgError> {
/// let a = Matrix::identity(3).scaled(2.0);
/// let b = a.mul(&a)?;
/// assert_eq!(b[(1, 1)], 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// let z = ldafp_linalg::Matrix::zeros(2, 3);
    /// assert_eq!(z.dims(), (2, 3));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "buffer of length {} cannot form a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if the rows are ragged or empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidInput {
                reason: "matrix needs at least one row".to_string(),
            });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::InvalidInput {
                reason: "matrix needs at least one column".to_string(),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidInput {
                    reason: format!("row {i} has length {} but row 0 has {cols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Returns the outer product `u · vᵀ` (eq. 1 of the paper builds the
    /// between-class scatter this way).
    pub fn outer(u: &[f64], v: &[f64]) -> Self {
        Matrix::from_fn(u.len(), v.len(), |i, j| u[i] * v[j])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Copies the main diagonal into a new vector.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).collect()
    }

    /// Sum of the diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.data[j * self.cols + i])
    }

    /// Returns `self * k` for scalar `k`.
    pub fn scaled(&self, k: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * k).collect(),
        }
    }

    /// Overwrites `self` with `src`, resizing if the shapes differ. The
    /// in-place twin of `src.clone()` for reusable buffers: once the shapes
    /// match (the steady state on solver hot paths), no allocation happens.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Overwrites `self` with `src * k`, resizing if the shapes differ —
    /// the in-place twin of [`Matrix::scaled`]. Element order and arithmetic
    /// match `scaled` exactly, so results are bit-identical.
    pub fn copy_scaled_from(&mut self, src: &Matrix, k: f64) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend(src.data.iter().map(|x| x * k));
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.dims() != other.dims() {
            return Err(LinalgError::DimensionMismatch {
                op,
                left: self.dims(),
                right: other.dims(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != other.rows()`.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mul",
                left: self.dims(),
                right: other.dims(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order keeps the inner loop contiguous in both `other` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vec",
                left: self.dims(),
                right: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::vecops::dot(self.row(i), x))
            .collect())
    }

    /// Matrix-vector product written into a caller-owned buffer — the
    /// allocation-free twin of [`Matrix::mul_vec`], with identical
    /// summation order (bit-identical results).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vec",
                left: self.dims(),
                right: (x.len(), 1),
            });
        }
        out.clear();
        out.extend((0..self.rows).map(|i| crate::vecops::dot(self.row(i), x)));
        Ok(())
    }

    /// Vector-matrix product `xᵀ * self`, returned as a vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.rows()`.
    pub fn vec_mul(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "vec_mul",
                left: (1, x.len()),
                right: self.dims(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += xi * a;
            }
        }
        Ok(out)
    }

    /// Quadratic form `xᵀ · self · x` (the paper's scatters, eqs. 8–9).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the dimensions disagree
    /// or the matrix is not square.
    pub fn quad_form(&self, x: &[f64]) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { dims: self.dims() });
        }
        let ax = self.mul_vec(x)?;
        Ok(crate::vecops::dot(x, &ax))
    }

    /// Adds `k` to every diagonal entry in place (ridge regularization).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn add_ridge(&mut self, k: f64) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { dims: self.dims() });
        }
        for i in 0..self.rows {
            self.data[i * self.cols + i] += k;
        }
        Ok(())
    }

    /// Largest absolute asymmetry `max |a_ij - a_ji|` (0 for symmetric).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn max_asymmetry(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { dims: self.dims() });
        }
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        Ok(worst)
    }

    /// Symmetrizes the matrix in place: `A ← (A + Aᵀ)/2`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn symmetrize(&mut self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { dims: self.dims() });
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = m;
                self[(j, i)] = m;
            }
        }
        Ok(())
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Cholesky factorization (see [`Cholesky::new`]).
    ///
    /// # Errors
    ///
    /// Propagates the factorization's failure modes
    /// ([`LinalgError::NotPositiveDefinite`], [`LinalgError::NotSquare`],
    /// [`LinalgError::NotSymmetric`]).
    pub fn cholesky(&self) -> Result<Cholesky> {
        Cholesky::new(self)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.dims(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.dims(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn mul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn mul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mul(&b),
            Err(LinalgError::DimensionMismatch { op: "mul", .. })
        ));
    }

    #[test]
    fn mul_vec_and_vec_mul_agree_with_transpose() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 1.0]]).unwrap();
        let x = [2.0, 1.0];
        let left = a.vec_mul(&x).unwrap();
        let right = a.transpose().mul_vec(&x).unwrap();
        for (l, r) in left.iter().zip(&right) {
            assert!(approx(*l, *r));
        }
    }

    #[test]
    fn quad_form_matches_explicit() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = [1.0, -1.0];
        // xᵀAx = 2 - 1 - 1 + 3 = 3
        assert!(approx(a.quad_form(&x).unwrap(), 3.0));
    }

    #[test]
    fn quad_form_requires_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.quad_form(&[1.0, 2.0, 3.0]),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn outer_product() {
        let m = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.dims(), (2, 3));
        assert_eq!(m[(1, 2)], 10.0);
    }

    #[test]
    fn ridge_and_symmetrize() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(a.max_asymmetry().unwrap() > 1.9);
        a.symmetrize().unwrap();
        assert!(approx(a[(0, 1)], 1.0));
        assert!(approx(a.max_asymmetry().unwrap(), 0.0));
        a.add_ridge(0.5).unwrap();
        assert!(approx(a[(0, 0)], 1.5));
    }

    #[test]
    fn diag_trace_max_abs() {
        let a = Matrix::from_diag(&[1.0, -2.0, 3.0]);
        assert_eq!(a.diag(), vec![1.0, -2.0, 3.0]);
        assert_eq!(a.trace(), 2.0);
        assert_eq!(a.max_abs(), 3.0);
    }

    #[test]
    fn display_contains_entries() {
        let a = Matrix::identity(2);
        let s = a.to_string();
        assert!(s.contains("1.0"));
    }

    #[test]
    fn col_extraction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Matrix::identity(2);
        assert!(a.is_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }
}
