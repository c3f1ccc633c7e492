use crate::{Result, Rng, StatsError};
use ldafp_linalg::{Cholesky, Matrix};

/// A multivariate Gaussian distribution `N(μ, Σ)` with dense covariance.
///
/// This is the statistical model the paper assumes for the feature vector
/// (eq. 14) and the sampler behind both evaluation workloads. Sampling draws
/// a standard-normal vector `z` (Box–Muller) and maps it through the
/// Cholesky factor: `x = μ + L·z`.
///
/// # Example
///
/// ```
/// use ldafp_linalg::Matrix;
/// use ldafp_stats::MultivariateGaussian;
///
/// # fn main() -> Result<(), ldafp_stats::StatsError> {
/// let cov = Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 2.0]]).map_err(ldafp_stats::StatsError::from)?;
/// let mvn = MultivariateGaussian::new(vec![0.0, 1.0], cov)?;
/// let mut rng = ldafp_stats::Rng::new(7);
/// let x = mvn.sample(&mut rng);
/// assert_eq!(x.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultivariateGaussian {
    mean: Vec<f64>,
    covariance: Matrix,
    chol: Cholesky,
}

impl MultivariateGaussian {
    /// Creates the distribution from a mean vector and covariance matrix.
    ///
    /// A PSD-but-singular covariance is factorized with a tiny ridge (from
    /// `1e-12` of its mean diagonal, ×10 until it factors), so rank-deficient
    /// simulated sensors still sample correctly (within noise floor).
    ///
    /// # Errors
    ///
    /// * [`StatsError::InvalidDistribution`] if dimensions disagree, the
    ///   mean is non-finite, or the covariance is not (nearly) PSD.
    pub fn new(mean: Vec<f64>, covariance: Matrix) -> Result<Self> {
        if covariance.rows() != mean.len() || covariance.cols() != mean.len() {
            return Err(StatsError::InvalidDistribution {
                reason: format!(
                    "mean has dimension {} but covariance is {}x{}",
                    mean.len(),
                    covariance.rows(),
                    covariance.cols()
                ),
            });
        }
        if !ldafp_linalg::vecops::is_finite(&mean) || !covariance.is_finite() {
            return Err(StatsError::InvalidDistribution {
                reason: "non-finite mean or covariance entries".to_string(),
            });
        }
        let (chol, _ridge) = Cholesky::new_with_ridge(&covariance, 0.0).map_err(|e| {
            StatsError::InvalidDistribution {
                reason: format!("covariance is not positive semi-definite: {e}"),
            }
        })?;
        Ok(MultivariateGaussian {
            mean,
            covariance,
            chol,
        })
    }

    /// Dimension `M` of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Borrow the mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Borrow the covariance matrix.
    pub fn covariance(&self) -> &Matrix {
        &self.covariance
    }

    /// Draws one sample `x = μ + L·z` with `z ~ N(0, I)`.
    pub fn sample(&self, rng: &mut Rng) -> Vec<f64> {
        let n = self.dim();
        let z: Vec<f64> = (0..n).map(|_| standard_normal(rng)).collect();
        let l = self.chol.factor();
        let mut x = self.mean.clone();
        for i in 0..n {
            let mut s = 0.0;
            for k in 0..=i {
                s += l[(i, k)] * z[k];
            }
            x[i] += s;
        }
        x
    }

    /// Draws `n` samples as the rows of an `n × M` matrix.
    pub fn sample_matrix(&self, rng: &mut Rng, n: usize) -> Matrix {
        let m = self.dim();
        let mut data = Vec::with_capacity(n * m);
        for _ in 0..n {
            data.extend(self.sample(rng));
        }
        Matrix::from_vec(n, m, data).expect("buffer sized by construction")
    }
}

/// One standard-normal draw via the Box–Muller transform.
///
/// Uses the polar-free (trigonometric) form; one of the two generated values
/// is discarded for implementation simplicity — sampling is nowhere near the
/// workload bottleneck in this project.
pub fn standard_normal(rng: &mut Rng) -> f64 {
    // Guard against u1 == 0 (ln(0) = -inf).
    let u1: f64 = loop {
        let u = rng.unit_f64();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2 = rng.unit_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_linalg::moments;

    #[test]
    fn construction_validates_dimensions() {
        let cov = Matrix::identity(2);
        assert!(MultivariateGaussian::new(vec![0.0; 3], cov).is_err());
    }

    #[test]
    fn construction_rejects_non_finite() {
        let cov = Matrix::identity(2);
        assert!(MultivariateGaussian::new(vec![f64::NAN, 0.0], cov).is_err());
    }

    #[test]
    fn construction_rejects_indefinite() {
        let cov = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(MultivariateGaussian::new(vec![0.0; 2], cov).is_err());
    }

    #[test]
    fn singular_psd_covariance_accepted() {
        // Rank-1 covariance: perfectly correlated pair.
        let cov = Matrix::outer(&[1.0, 2.0], &[1.0, 2.0]);
        let mvn = MultivariateGaussian::new(vec![0.0; 2], cov).unwrap();
        let mut rng = Rng::new(1);
        let x = mvn.sample(&mut rng);
        // x2 should be ~2*x1 up to the tiny ridge noise.
        assert!((x[1] - 2.0 * x[0]).abs() < 1e-3, "x = {x:?}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Rng::new(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn sample_moments_match_target() {
        let cov = Matrix::from_rows(&[&[2.0, 0.8], &[0.8, 1.0]]).unwrap();
        let mvn = MultivariateGaussian::new(vec![1.0, -2.0], cov.clone()).unwrap();
        let mut rng = Rng::new(3);
        let samples = mvn.sample_matrix(&mut rng, 100_000);
        let mu = moments::row_mean(&samples).unwrap();
        assert!((mu[0] - 1.0).abs() < 0.03, "mu = {mu:?}");
        assert!((mu[1] + 2.0).abs() < 0.03, "mu = {mu:?}");
        let c = moments::covariance(&samples, &mu).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    (c[(i, j)] - cov[(i, j)]).abs() < 0.05,
                    "cov[{i}][{j}] = {}",
                    c[(i, j)]
                );
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mvn = MultivariateGaussian::new(vec![0.0], Matrix::identity(1)).unwrap();
        let a = mvn.sample(&mut Rng::new(9));
        let b = mvn.sample(&mut Rng::new(9));
        assert_eq!(a, b);
    }
}
