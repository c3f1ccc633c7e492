use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// The factor is the bridge between covariance matrices and the solver's
/// second-order-cone constraints: the paper's overflow constraint (eq. 20)
/// `β·√(wᵀΣw) ≤ c − wᵀμ` is handled as `‖β·Lᵀw‖₂ ≤ c − wᵀμ` with `Σ = LLᵀ`.
///
/// # Example
///
/// ```
/// use ldafp_linalg::Matrix;
///
/// # fn main() -> Result<(), ldafp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0], &[15.0, 18.0]])?;
/// let chol = a.cholesky()?;
/// let l = chol.factor();
/// assert!((l[(0, 0)] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Symmetry is validated up to a relative tolerance before factorizing;
    /// the strictly lower triangle is then taken as authoritative.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::NotSymmetric`] if `max |a_ij − a_ji|` exceeds
    ///   `1e-8 · max|A|`.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is `≤ 0`.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { dims: a.dims() });
        }
        let asym = a.max_asymmetry()?;
        let tol = 1e-8 * a.max_abs().max(1.0);
        if asym > tol {
            return Err(LinalgError::NotSymmetric {
                max_asymmetry: asym,
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite {
                            pivot: i,
                            value: sum,
                        });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Factorizes `A + λI` where `λ = rel_ridge · trace(A)/n`, retrying with
    /// ×10 larger ridges (up to 8 times) until the shifted matrix is positive
    /// definite.
    ///
    /// Within-class scatter matrices of small datasets are frequently
    /// singular (more features than trials); the LDA-FP trainer uses this
    /// entry point with a tiny relative ridge, exactly as noted in DESIGN.md.
    ///
    /// Returns the factorization together with the absolute ridge that was
    /// finally applied.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Cholesky::new`] when even the largest ridge
    /// fails (e.g. a matrix with strongly negative eigenvalues).
    pub fn new_with_ridge(a: &Matrix, rel_ridge: f64) -> Result<(Self, f64)> {
        let n = a.rows().max(1);
        let scale = (a.trace() / n as f64).abs().max(f64::MIN_POSITIVE);
        let mut ridge = rel_ridge.max(0.0) * scale;
        match Cholesky::new(a) {
            Ok(c) if rel_ridge == 0.0 => return Ok((c, 0.0)),
            _ => {}
        }
        if ridge == 0.0 {
            ridge = 1e-12 * scale;
        }
        let mut last_err = LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        for _ in 0..8 {
            let mut shifted = a.clone();
            shifted.add_ridge(ridge)?;
            match Cholesky::new(&shifted) {
                Ok(c) => return Ok((c, ridge)),
                Err(e) => last_err = e,
            }
            ridge *= 10.0;
        }
        Err(last_err)
    }

    /// Borrow the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Consumes the factorization, returning `L`.
    pub fn into_factor(self) -> Matrix {
        self.l
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A·x = b` via forward/backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward: L·y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        // Backward: Lᵀ·x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Computes `Lᵀ·w` — the map that turns the covariance quadratic form
    /// into a Euclidean norm (`‖Lᵀw‖₂² = wᵀAw`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `w.len() != self.dim()`.
    pub fn lt_mul_vec(&self, w: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if w.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lt_mul_vec",
                left: (n, n),
                right: (w.len(), 1),
            });
        }
        let mut out = vec![0.0; n];
        for i in 0..n {
            // (Lᵀw)_i = Σ_k L[k][i] w[k] for k ≥ i
            let mut s = 0.0;
            for k in i..n {
                s += self.l[(k, i)] * w[k];
            }
            out[i] = s;
        }
        Ok(out)
    }

    /// Determinant of `A`, computed as `(∏ L_ii)²`.
    pub fn det(&self) -> f64 {
        let p: f64 = (0..self.dim()).map(|i| self.l[(i, i)]).product();
        p * p
    }

    /// Log-determinant of `A` (numerically safer than `det().ln()`).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Reusable scratch for repeated Cholesky factorizations of same-sized
/// matrices: the factor and the forward-substitution intermediate are kept
/// between calls, so the steady state (the barrier solver's Newton loop,
/// which factorizes one Hessian per step) allocates nothing.
///
/// Validation, pivot checks and arithmetic order are identical to
/// [`Cholesky::new`] / [`Cholesky::solve`], so the results are bit-identical
/// to the allocating API.
#[derive(Debug, Clone)]
pub struct CholeskyWorkspace {
    l: Matrix,
    y: Vec<f64>,
}

impl Default for CholeskyWorkspace {
    fn default() -> Self {
        CholeskyWorkspace::new()
    }
}

impl CholeskyWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        CholeskyWorkspace {
            l: Matrix::zeros(0, 0),
            y: Vec::new(),
        }
    }

    /// Factorizes `a` into the reused factor buffer. After `Ok(())`, the
    /// factor is available via [`CholeskyWorkspace::factor`] and
    /// [`CholeskyWorkspace::solve_into`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Cholesky::new`]. On error the stored factor
    /// is invalid and must not be used until the next successful call.
    pub fn factorize(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { dims: a.dims() });
        }
        let asym = a.max_asymmetry()?;
        let tol = 1e-8 * a.max_abs().max(1.0);
        if asym > tol {
            return Err(LinalgError::NotSymmetric {
                max_asymmetry: asym,
            });
        }
        let n = a.rows();
        if self.l.dims() != (n, n) {
            self.l = Matrix::zeros(n, n);
        } else {
            self.l.as_mut_slice().fill(0.0);
        }
        // Row-slice form of the textbook loop: the same products, subtracted
        // in the same order, without per-element bounds checks.
        for i in 0..n {
            let a_row = a.row(i);
            let (done, rest) = self.l.as_mut_slice().split_at_mut(i * n);
            let l_row = &mut rest[..n];
            for j in 0..i {
                let l_j = &done[j * n..j * n + j + 1];
                let mut sum = a_row[j];
                for (&x, &y) in l_row[..j].iter().zip(&l_j[..j]) {
                    sum -= x * y;
                }
                l_row[j] = sum / l_j[j];
            }
            let mut sum = a_row[i];
            for &x in &l_row[..i] {
                sum -= x * x;
            }
            if sum <= 0.0 || !sum.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: i,
                    value: sum,
                });
            }
            l_row[i] = sum.sqrt();
        }
        Ok(())
    }

    /// The ridge-escalating twin of [`Cholesky::new_with_ridge`], reusing
    /// this workspace's factor and a caller-owned `scratch` matrix for the
    /// shifted copies. The ridge schedule, validation and arithmetic match
    /// `new_with_ridge` exactly; returns the absolute ridge applied.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Cholesky::new_with_ridge`].
    pub fn factorize_with_ridge(
        &mut self,
        a: &Matrix,
        rel_ridge: f64,
        scratch: &mut Matrix,
    ) -> Result<f64> {
        let n = a.rows().max(1);
        let scale = (a.trace() / n as f64).abs().max(f64::MIN_POSITIVE);
        let mut ridge = rel_ridge.max(0.0) * scale;
        match self.factorize(a) {
            Ok(()) if rel_ridge == 0.0 => return Ok(0.0),
            _ => {}
        }
        if ridge == 0.0 {
            ridge = 1e-12 * scale;
        }
        let mut last_err = LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        for _ in 0..8 {
            scratch.copy_from(a);
            scratch.add_ridge(ridge)?;
            match self.factorize(scratch) {
                Ok(()) => return Ok(ridge),
                Err(e) => last_err = e,
            }
            ridge *= 10.0;
        }
        Err(last_err)
    }

    /// Borrow the lower-triangular factor of the last successful
    /// factorization.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the last factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A·x = b` into `x`, using the stored factor and the internal
    /// forward-substitution buffer. Substitution order matches
    /// [`Cholesky::solve`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_into(&mut self, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward: L·y = b
        self.y.clear();
        self.y.resize(n, 0.0);
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * self.y[k];
            }
            self.y[i] = sum / self.l[(i, i)];
        }
        // Backward: Lᵀ·x = y
        x.clear();
        x.resize(n, 0.0);
        for i in (0..n).rev() {
            let mut sum = self.y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
        let rebuilt = l.mul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rebuilt[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_residual_small() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = c.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigvals 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn ridge_rescues_singular() {
        // Rank-1 PSD matrix: singular without ridge.
        let a = Matrix::outer(&[1.0, 2.0], &[1.0, 2.0]);
        assert!(Cholesky::new(&a).is_err());
        let (c, ridge) = Cholesky::new_with_ridge(&a, 1e-9).unwrap();
        assert!(ridge > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn ridge_zero_passthrough_for_spd() {
        let a = spd3();
        let (_, ridge) = Cholesky::new_with_ridge(&a, 0.0).unwrap();
        assert_eq!(ridge, 0.0);
    }

    #[test]
    fn lt_mul_vec_norm_matches_quad_form() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let w = [0.3, -1.2, 0.7];
        let z = c.lt_mul_vec(&w).unwrap();
        let qf = a.quad_form(&w).unwrap();
        let nz: f64 = z.iter().map(|v| v * v).sum();
        assert!((qf - nz).abs() < 1e-12);
    }

    #[test]
    fn det_and_log_det_agree() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        assert!((c.det().ln() - c.log_det()).abs() < 1e-12);
        // Compare against LU determinant.
        let lu_det = a.lu().unwrap().det();
        assert!((c.det() - lu_det).abs() < 1e-9);
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let c = spd3().cholesky().unwrap();
        assert!(c.solve(&[1.0]).is_err());
        assert!(c.lt_mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn identity_factor_is_identity() {
        let c = Cholesky::new(&Matrix::identity(4)).unwrap();
        assert_eq!(c.factor(), &Matrix::identity(4));
        assert_eq!(c.det(), 1.0);
    }

    #[test]
    fn workspace_factor_and_solve_bit_match_allocating_api() {
        let a = spd3();
        let reference = Cholesky::new(&a).unwrap();
        let mut ws = CholeskyWorkspace::new();
        ws.factorize(&a).unwrap();
        assert_eq!(ws.factor(), reference.factor());
        let b = [1.0, -2.0, 0.5];
        let expected = reference.solve(&b).unwrap();
        let mut x = Vec::new();
        ws.solve_into(&b, &mut x).unwrap();
        assert_eq!(x, expected, "solve must be bit-identical");
    }

    #[test]
    fn workspace_reuses_across_dimension_changes() {
        let mut ws = CholeskyWorkspace::new();
        ws.factorize(&Matrix::identity(2)).unwrap();
        assert_eq!(ws.dim(), 2);
        ws.factorize(&spd3()).unwrap();
        assert_eq!(ws.dim(), 3);
        let mut x = Vec::new();
        ws.solve_into(&[1.0, 0.0, 0.0], &mut x).unwrap();
        assert_eq!(x.len(), 3);
        // Shrinking back also works: stale factor state must not leak.
        ws.factorize(&Matrix::identity(2)).unwrap();
        assert_eq!(ws.factor(), &Matrix::identity(2));
    }

    #[test]
    fn workspace_rejects_what_cholesky_rejects() {
        let mut ws = CholeskyWorkspace::new();
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            ws.factorize(&indef),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            ws.factorize(&asym),
            Err(LinalgError::NotSymmetric { .. })
        ));
        assert!(matches!(
            ws.factorize(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn workspace_ridge_matches_allocating_ridge() {
        let a = Matrix::outer(&[1.0, 2.0], &[1.0, 2.0]); // singular PSD
        let (reference, ridge_ref) = Cholesky::new_with_ridge(&a, 1e-9).unwrap();
        let mut ws = CholeskyWorkspace::new();
        let mut scratch = Matrix::zeros(0, 0);
        let ridge = ws.factorize_with_ridge(&a, 1e-9, &mut scratch).unwrap();
        assert_eq!(ridge, ridge_ref);
        assert_eq!(ws.factor(), reference.factor());
    }
}
