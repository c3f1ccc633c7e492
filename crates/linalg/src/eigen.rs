use crate::{LinalgError, Matrix, Result};

/// Eigendecomposition `A = V·Λ·Vᵀ` of a symmetric matrix by the cyclic
/// Jacobi rotation method.
///
/// Jacobi is slower than tridiagonalization+QL for large matrices but is
/// simple, unconditionally stable and plenty fast for the dimensionalities in
/// this workspace (M ≤ a few hundred features). It is used to
///
/// * project nearly-PSD covariance estimates back onto the PSD cone,
/// * compute extremal eigenvalues for solver conditioning diagnostics, and
/// * cross-check the LDA direction against the generalized eigenproblem view.
///
/// Eigenvalues are returned in **descending** order with matching columns in
/// the eigenvector matrix.
///
/// # Example
///
/// ```
/// use ldafp_linalg::Matrix;
///
/// # fn main() -> Result<(), ldafp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = a.symmetric_eigen()?;
/// assert!((eig.eigenvalues()[0] - 3.0).abs() < 1e-10);
/// assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Maximum number of full Jacobi sweeps before declaring convergence
    /// failure. 30 sweeps is far beyond what any well-conditioned symmetric
    /// matrix needs (typical: 6–10).
    const MAX_SWEEPS: usize = 64;

    /// Decomposes a symmetric matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::NotSymmetric`] if asymmetry exceeds `1e-8·max|A|`.
    /// * [`LinalgError::InvalidInput`] if entries are non-finite or the
    ///   iteration fails to converge (practically unreachable for finite
    ///   symmetric input).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { dims: a.dims() });
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidInput {
                reason: "matrix contains non-finite entries".to_string(),
            });
        }
        let asym = a.max_asymmetry()?;
        let tol = 1e-8 * a.max_abs().max(1.0);
        if asym > tol {
            return Err(LinalgError::NotSymmetric {
                max_asymmetry: asym,
            });
        }

        let n = a.rows();
        let mut m = a.clone();
        m.symmetrize()?;
        let mut v = Matrix::identity(n);

        for _sweep in 0..Self::MAX_SWEEPS {
            let off = off_diagonal_norm(&m);
            if off <= 1e-14 * m.max_abs().max(1.0) {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= f64::MIN_POSITIVE {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Compute the rotation that annihilates m[p][q].
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Apply rotation to rows/cols p, q of m.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate eigenvectors.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        let final_off = off_diagonal_norm(&m);
        if final_off > 1e-8 * m.max_abs().max(1.0) {
            return Err(LinalgError::InvalidInput {
                reason: format!("Jacobi iteration failed to converge (off-norm {final_off:e})"),
            });
        }

        // Extract and sort descending.
        let mut pairs: Vec<(f64, Vec<f64>)> = (0..n).map(|j| (m[(j, j)], v.col(j))).collect();
        pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite eigenvalues"));

        let eigenvalues: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let eigenvectors = Matrix::from_fn(n, n, |i, j| pairs[j].1[i]);
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Eigenvalues in descending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Eigenvectors as columns, ordered to match [`Self::eigenvalues`].
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Largest eigenvalue.
    pub fn max_eigenvalue(&self) -> f64 {
        self.eigenvalues[0]
    }

    /// Smallest eigenvalue.
    pub fn min_eigenvalue(&self) -> f64 {
        *self.eigenvalues.last().expect("non-empty spectrum")
    }

    /// Spectral condition number `|λ_max| / |λ_min|` (∞ if `λ_min == 0`).
    pub fn condition_number(&self) -> f64 {
        let lo = self.min_eigenvalue().abs();
        if lo == 0.0 {
            f64::INFINITY
        } else {
            self.max_eigenvalue().abs() / lo
        }
    }

    /// Reconstructs the closest PSD matrix by clamping negative eigenvalues
    /// to `floor` (usually `0.0` or a tiny positive value).
    pub fn psd_projection(&self, floor: f64) -> Matrix {
        let n = self.eigenvalues.len();
        let clamped: Vec<f64> = self.eigenvalues.iter().map(|&l| l.max(floor)).collect();
        let v = &self.eigenvectors;
        // V · diag(λ) · Vᵀ
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            let lk = clamped[k];
            if lk == 0.0 {
                continue;
            }
            for i in 0..n {
                let vik = v[(i, k)] * lk;
                for j in 0..n {
                    out[(i, j)] += vik * v[(j, k)];
                }
            }
        }
        // Clean up tiny asymmetries from floating-point accumulation.
        out.symmetrize().expect("square by construction");
        out
    }
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += m[(i, j)] * m[(i, j)];
            }
        }
    }
    s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &SymmetricEigen) -> Matrix {
        let n = e.eigenvalues().len();
        let v = e.eigenvectors();
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            let lk = e.eigenvalues()[k];
            for i in 0..n {
                for j in 0..n {
                    out[(i, j)] += v[(i, k)] * lk * v[(j, k)];
                }
            }
        }
        out
    }

    #[test]
    fn two_by_two_known_spectrum() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert!((e.eigenvalues()[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_spectrum_sorted() {
        let a = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let e = a.symmetric_eigen().unwrap();
        assert_eq!(e.eigenvalues(), &[5.0, 3.0, 1.0]);
        assert_eq!(e.max_eigenvalue(), 5.0);
        assert_eq!(e.min_eigenvalue(), 1.0);
        assert!((e.condition_number() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a =
            Matrix::from_rows(&[&[4.0, 1.0, -0.5], &[1.0, 3.0, 0.7], &[-0.5, 0.7, 2.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        let r = reconstruct(&e);
        for i in 0..3 {
            for j in 0..3 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a =
            Matrix::from_rows(&[&[4.0, 1.0, -0.5], &[1.0, 3.0, 0.7], &[-0.5, 0.7, 2.0]]).unwrap();
        let v = a.symmetric_eigen().unwrap().eigenvectors().clone();
        let vtv = v.transpose().mul(&v).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn indefinite_matrix_handled() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert!((e.eigenvalues()[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues()[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn psd_projection_clamps_negatives() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let p = a.symmetric_eigen().unwrap().psd_projection(0.0);
        let e2 = p.symmetric_eigen().unwrap();
        assert!(e2.min_eigenvalue() >= -1e-12);
        assert!((e2.max_eigenvalue() - 3.0).abs() < 1e-10);
    }

    #[test]
    fn rejects_asymmetric_and_non_square() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            a.symmetric_eigen(),
            Err(LinalgError::NotSymmetric { .. })
        ));
        assert!(matches!(
            Matrix::zeros(2, 3).symmetric_eigen(),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(
            a.symmetric_eigen(),
            Err(LinalgError::InvalidInput { .. })
        ));
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_diag(&[7.0]);
        let e = a.symmetric_eigen().unwrap();
        assert_eq!(e.eigenvalues(), &[7.0]);
    }
}
