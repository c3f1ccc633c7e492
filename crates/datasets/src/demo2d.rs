//! Two-dimensional demonstration sets for the paper's Figures 1 and 2.
//!
//! Figure 2's point is that the *continuous* LDA optimum can have a weight
//! ratio that rounds catastrophically: two long, thin, parallel Gaussian
//! clouds whose separating direction needs a precise small/large weight mix.
//! [`rounding_sensitive`] reproduces that geometry; [`well_separated`] is the
//! benign Figure-1-style workload.

use crate::BinaryDataset;
use ldafp_linalg::Matrix;
use ldafp_stats::MultivariateGaussian;
use ldafp_stats::Rng;

/// Generator parameters for the 2-D demos.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demo2dConfig {
    /// Trials per class.
    pub n_per_class: usize,
    /// Rotation angle of the cloud's long axis, radians.
    pub tilt: f64,
    /// Variance along the long axis.
    pub major_var: f64,
    /// Variance along the short axis.
    pub minor_var: f64,
    /// Distance between class means (along the short axis direction).
    pub separation: f64,
}

impl Default for Demo2dConfig {
    fn default() -> Self {
        Demo2dConfig {
            n_per_class: 500,
            tilt: 0.12,
            major_var: 4.0,
            minor_var: 0.02,
            separation: 0.8,
        }
    }
}

/// Figure-2 style: two long thin clouds, almost parallel, separated along
/// their short axis. The LDA weight vector is dominated by the short-axis
/// direction with a delicate correction from the long axis — rounding the
/// correction away rotates the boundary straight through both clouds.
pub fn rounding_sensitive(config: &Demo2dConfig, rng: &mut Rng) -> BinaryDataset {
    let (s, c) = config.tilt.sin_cos();
    // Covariance = R · diag(major, minor) · Rᵀ.
    let cov = Matrix::from_rows(&[
        &[
            config.major_var * c * c + config.minor_var * s * s,
            (config.major_var - config.minor_var) * s * c,
        ],
        &[
            (config.major_var - config.minor_var) * s * c,
            config.major_var * s * s + config.minor_var * c * c,
        ],
    ])
    .expect("fixed shape");
    // Means displaced along the (rotated) short axis.
    let offset = [-s * 0.5 * config.separation, c * 0.5 * config.separation];
    let mu_a = vec![-offset[0], -offset[1]];
    let mu_b = vec![offset[0], offset[1]];
    sample_pair(mu_a, mu_b, cov, config.n_per_class, rng)
}

/// Figure-1 style: two round, comfortably separated clouds — every
/// reasonable boundary classifies them; rounding is harmless.
pub fn well_separated(n_per_class: usize, rng: &mut Rng) -> BinaryDataset {
    let cov = Matrix::identity(2).scaled(0.3);
    sample_pair(vec![-1.0, -0.6], vec![1.0, 0.6], cov, n_per_class, rng)
}

fn sample_pair(
    mu_a: Vec<f64>,
    mu_b: Vec<f64>,
    cov: Matrix,
    n: usize,
    rng: &mut Rng,
) -> BinaryDataset {
    assert!(n > 0, "n_per_class must be positive");
    let da = MultivariateGaussian::new(mu_a, cov.clone()).expect("valid 2-D covariance");
    let db = MultivariateGaussian::new(mu_b, cov).expect("valid 2-D covariance");
    let class_a = da.sample_matrix(rng, n);
    let class_b = db.sample_matrix(rng, n);
    BinaryDataset::new(class_a, class_b).expect("shared feature space")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_linalg::moments::BinaryClassMoments;

    #[test]
    fn shapes() {
        let mut rng = Rng::new(0);
        let d = rounding_sensitive(&Demo2dConfig::default(), &mut rng);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.class_sizes(), (500, 500));
        let w = well_separated(100, &mut rng);
        assert_eq!(w.class_sizes(), (100, 100));
    }

    #[test]
    fn rounding_sensitive_lda_weights_are_imbalanced() {
        // The defining property: the continuous LDA weight vector has a
        // large ratio between its components, so coarse grids break it.
        let mut rng = Rng::new(1);
        let d = rounding_sensitive(&Demo2dConfig::default(), &mut rng);
        let m = BinaryClassMoments::from_samples(&d.class_a, &d.class_b).unwrap();
        let w = m.s_w.cholesky().unwrap().solve(&m.mean_diff).unwrap();
        let ratio = (w[0].abs().max(w[1].abs())) / (w[0].abs().min(w[1].abs()) + 1e-12);
        assert!(ratio > 3.0, "weight ratio {ratio} too tame for the demo");
    }

    #[test]
    fn well_separated_is_easy() {
        let mut rng = Rng::new(2);
        let d = well_separated(400, &mut rng);
        let m = BinaryClassMoments::from_samples(&d.class_a, &d.class_b).unwrap();
        let w = m.s_w.cholesky().unwrap().solve(&m.mean_diff).unwrap();
        let mid = m.midpoint();
        // Count training errors of the float LDA rule.
        let mut errors = 0usize;
        for (x, label) in d.iter_labeled() {
            let score: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>()
                - mid.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>();
            let predicted_a = score >= 0.0;
            // mean_diff = μ_A − μ_B, so class A scores positive.
            let is_a = matches!(label, crate::ClassLabel::A);
            if predicted_a != is_a {
                errors += 1;
            }
        }
        let rate = errors as f64 / 800.0;
        assert!(rate < 0.05, "error rate {rate} too high for the easy demo");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = Demo2dConfig {
            n_per_class: 8,
            ..Demo2dConfig::default()
        };
        let a = rounding_sensitive(&cfg, &mut Rng::new(5));
        let b = rounding_sensitive(&cfg, &mut Rng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_n_panics() {
        well_separated(0, &mut Rng::new(0));
    }
}
