//! Sample-moment estimators for the LDA formulation.
//!
//! These functions implement eqs. 1–6 of the paper: per-class mean vectors,
//! (biased, `1/N`) covariance matrices, the between-class scatter
//! `S_B = (μ_A−μ_B)(μ_A−μ_B)ᵀ` and the within-class scatter
//! `S_W = (Σ_A + Σ_B)/2`.
//!
//! Samples are rows of a [`Matrix`]: an `N×M` matrix is `N` trials of `M`
//! features, matching the paper's `x ∈ ℝᴹ` convention.

use crate::{LinalgError, Matrix, Result};

/// Mean of the rows of `samples` (eq. 3/4 of the paper).
///
/// # Errors
///
/// Returns [`LinalgError::InvalidInput`] if `samples` has zero rows.
///
/// # Example
///
/// ```
/// use ldafp_linalg::{moments, Matrix};
///
/// # fn main() -> Result<(), ldafp_linalg::LinalgError> {
/// let x = Matrix::from_rows(&[&[1.0, 0.0], &[3.0, 4.0]])?;
/// assert_eq!(moments::row_mean(&x)?, vec![2.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn row_mean(samples: &Matrix) -> Result<Vec<f64>> {
    let n = samples.rows();
    if n == 0 {
        return Err(LinalgError::InvalidInput {
            reason: "mean of zero samples".to_string(),
        });
    }
    let m = samples.cols();
    let mut mu = vec![0.0; m];
    for i in 0..n {
        for (mj, &x) in mu.iter_mut().zip(samples.row(i)) {
            *mj += x;
        }
    }
    for mj in &mut mu {
        *mj /= n as f64;
    }
    Ok(mu)
}

/// Biased (`1/N`) sample covariance of the rows of `samples` around the given
/// mean (eq. 5/6 of the paper uses the `1/N` convention).
///
/// # Errors
///
/// Returns [`LinalgError::InvalidInput`] on zero rows, or
/// [`LinalgError::DimensionMismatch`] if `mean.len() != samples.cols()`.
pub fn covariance(samples: &Matrix, mean: &[f64]) -> Result<Matrix> {
    let n = samples.rows();
    if n == 0 {
        return Err(LinalgError::InvalidInput {
            reason: "covariance of zero samples".to_string(),
        });
    }
    let m = samples.cols();
    if mean.len() != m {
        return Err(LinalgError::DimensionMismatch {
            op: "covariance",
            left: (n, m),
            right: (mean.len(), 1),
        });
    }
    let mut cov = Matrix::zeros(m, m);
    let mut centered = vec![0.0; m];
    for i in 0..n {
        for ((c, &x), &mu) in centered.iter_mut().zip(samples.row(i)).zip(mean) {
            *c = x - mu;
        }
        for a in 0..m {
            let ca = centered[a];
            if ca == 0.0 {
                continue;
            }
            for b in a..m {
                cov[(a, b)] += ca * centered[b];
            }
        }
    }
    let inv_n = 1.0 / n as f64;
    for a in 0..m {
        for b in a..m {
            let v = cov[(a, b)] * inv_n;
            cov[(a, b)] = v;
            cov[(b, a)] = v;
        }
    }
    Ok(cov)
}

/// Per-class first and second moments plus LDA scatter matrices for a binary
/// problem — the complete statistical input of formulation (21).
#[derive(Debug, Clone)]
pub struct BinaryClassMoments {
    /// Mean of class A (`μ_A`).
    pub mu_a: Vec<f64>,
    /// Mean of class B (`μ_B`).
    pub mu_b: Vec<f64>,
    /// Covariance of class A (`Σ_A`, biased `1/N`).
    pub sigma_a: Matrix,
    /// Covariance of class B (`Σ_B`, biased `1/N`).
    pub sigma_b: Matrix,
    /// Within-class scatter `S_W = (Σ_A + Σ_B)/2` (eq. 2).
    pub s_w: Matrix,
    /// Between-class scatter `S_B = (μ_A−μ_B)(μ_A−μ_B)ᵀ` (eq. 1).
    pub s_b: Matrix,
    /// Mean difference `d = μ_A − μ_B` (the projection of interest).
    pub mean_diff: Vec<f64>,
}

impl BinaryClassMoments {
    /// Computes all moments from the two classes' sample matrices
    /// (rows = trials, cols = features).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidInput`] if either class is empty.
    /// * [`LinalgError::DimensionMismatch`] if feature counts differ.
    pub fn from_samples(class_a: &Matrix, class_b: &Matrix) -> Result<Self> {
        if class_a.cols() != class_b.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "binary_moments",
                left: class_a.dims(),
                right: class_b.dims(),
            });
        }
        let mu_a = row_mean(class_a)?;
        let mu_b = row_mean(class_b)?;
        let sigma_a = covariance(class_a, &mu_a)?;
        let sigma_b = covariance(class_b, &mu_b)?;
        let s_w = sigma_a.add(&sigma_b)?.scaled(0.5);
        let mean_diff = crate::vecops::sub(&mu_a, &mu_b);
        let s_b = Matrix::outer(&mean_diff, &mean_diff);
        Ok(BinaryClassMoments {
            mu_a,
            mu_b,
            sigma_a,
            sigma_b,
            s_w,
            s_b,
            mean_diff,
        })
    }

    /// Number of features `M`.
    pub fn num_features(&self) -> usize {
        self.mu_a.len()
    }

    /// Midpoint `(μ_A + μ_B)/2` used by the decision threshold (eq. 12).
    pub fn midpoint(&self) -> Vec<f64> {
        self.mu_a
            .iter()
            .zip(&self.mu_b)
            .map(|(&a, &b)| 0.5 * (a + b))
            .collect()
    }

    /// Fisher cost `J(w) = (wᵀ S_W w)/((dᵀw)²)` — the objective of (10)/(21).
    ///
    /// Returns `f64::INFINITY` when `dᵀw = 0` (the direction carries no
    /// class separation, matching the optimization's implicit exclusion of
    /// `t = 0`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on a wrong-length `w`.
    pub fn fisher_cost(&self, w: &[f64]) -> Result<f64> {
        let t = if w.len() == self.mean_diff.len() {
            crate::vecops::dot(&self.mean_diff, w)
        } else {
            return Err(LinalgError::DimensionMismatch {
                op: "fisher_cost",
                left: (self.mean_diff.len(), 1),
                right: (w.len(), 1),
            });
        };
        let num = self.s_w.quad_form(w)?;
        if t == 0.0 {
            return Ok(f64::INFINITY);
        }
        Ok(num / (t * t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_a() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 2.0], &[2.0, 5.0]]).unwrap()
    }

    fn class_b() -> Matrix {
        Matrix::from_rows(&[&[-1.0, 0.0], &[1.0, 0.0]]).unwrap()
    }

    #[test]
    fn mean_matches_hand() {
        assert_eq!(row_mean(&class_a()).unwrap(), vec![2.0, 3.0]);
        assert_eq!(row_mean(&class_b()).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn mean_of_empty_fails() {
        let empty = Matrix::zeros(0, 3);
        assert!(row_mean(&empty).is_err());
    }

    #[test]
    fn covariance_matches_hand() {
        // class_b centered: (-1,0), (1,0); cov = [[1,0],[0,0]]
        let b = class_b();
        let mu = row_mean(&b).unwrap();
        let cov = covariance(&b, &mu).unwrap();
        assert_eq!(cov[(0, 0)], 1.0);
        assert_eq!(cov[(0, 1)], 0.0);
        assert_eq!(cov[(1, 1)], 0.0);
    }

    #[test]
    fn covariance_is_symmetric_psd() {
        let a = class_a();
        let mu = row_mean(&a).unwrap();
        let cov = covariance(&a, &mu).unwrap();
        assert!(cov.max_asymmetry().unwrap() == 0.0);
        for w in [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [-0.3, 2.0]] {
            assert!(cov.quad_form(&w).unwrap() >= -1e-12);
        }
    }

    #[test]
    fn covariance_checks_mean_length() {
        let a = class_a();
        assert!(covariance(&a, &[0.0]).is_err());
    }

    #[test]
    fn binary_moments_shapes_and_values() {
        let m = BinaryClassMoments::from_samples(&class_a(), &class_b()).unwrap();
        assert_eq!(m.num_features(), 2);
        assert_eq!(m.mean_diff, vec![2.0, 3.0]);
        assert_eq!(m.midpoint(), vec![1.0, 1.5]);
        // S_B = d dᵀ
        assert_eq!(m.s_b[(0, 0)], 4.0);
        assert_eq!(m.s_b[(0, 1)], 6.0);
        assert_eq!(m.s_b[(1, 1)], 9.0);
        // S_W = (Σ_A + Σ_B)/2
        let expect = m.sigma_a.add(&m.sigma_b).unwrap().scaled(0.5);
        assert_eq!(m.s_w, expect);
    }

    #[test]
    fn binary_moments_rejects_feature_mismatch() {
        let a = class_a();
        let b = Matrix::zeros(2, 3);
        assert!(BinaryClassMoments::from_samples(&a, &b).is_err());
    }

    #[test]
    fn fisher_cost_scale_invariant() {
        let m = BinaryClassMoments::from_samples(&class_a(), &class_b()).unwrap();
        let w = [0.7, -0.2];
        let j1 = m.fisher_cost(&w).unwrap();
        let j2 = m.fisher_cost(&[w[0] * 5.0, w[1] * 5.0]).unwrap();
        assert!((j1 - j2).abs() < 1e-12 * j1.abs().max(1.0));
    }

    #[test]
    fn fisher_cost_infinite_when_orthogonal() {
        let m = BinaryClassMoments::from_samples(&class_a(), &class_b()).unwrap();
        // d = (2,3); w = (3,-2) is orthogonal.
        assert_eq!(m.fisher_cost(&[3.0, -2.0]).unwrap(), f64::INFINITY);
    }

    #[test]
    fn fisher_cost_rejects_bad_length() {
        let m = BinaryClassMoments::from_samples(&class_a(), &class_b()).unwrap();
        assert!(m.fisher_cost(&[1.0]).is_err());
    }
}
