//! A simulated ECoG brain-computer-interface workload.
//!
//! The paper's Table 2 uses proprietary electrocorticography data: 42
//! features extracted from cortical recordings, 70 trials per movement
//! direction (left/right), evaluated with 5-fold cross-validation
//! (Wang et al., *PLOS ONE* 2013). That data is not available, so this
//! module synthesizes a statistical stand-in (DESIGN.md §4 documents why
//! this preserves the experiment):
//!
//! * **42 features** organized as 6 virtual electrodes × 7 spectral bands —
//!   the canonical ECoG band-power feature layout;
//! * class-conditional **multivariate Gaussians** (exactly the model LDA and
//!   the paper's own overflow analysis assume, eq. 14);
//! * a structured covariance `Σ = Σ_spatial ⊗ Σ_spectral` (AR(1) in both
//!   factors) plus per-feature sensor noise — neighboring electrodes and
//!   bands correlate, distant ones do not;
//! * a **minority of informative features**: movement direction shifts the
//!   high-gamma bands of the two "motor-cortex" electrodes, weakly shifts
//!   their neighbors, and leaves the rest untouched;
//! * a **shared low-rank artifact** (common-average-reference residual /
//!   line-noise latent) contaminating every signal channel, observable
//!   through two nearly-duplicate reference channels on the non-motor
//!   "ground" electrode. Cancelling it — which floating-point LDA does —
//!   requires reference weights tens of times larger than the signal
//!   weights, so after unit normalization the signal weights round to zero
//!   at small word lengths. This reproduces, in 42 dimensions, the exact
//!   mechanism of the paper's synthetic construction (eqs. 30–32) and the
//!   collapse of the rounded-LDA column of Table 2;
//! * effect sizes calibrated so floating-point LDA lands near the ≈20 %
//!   5-fold CV error that Table 2 converges to at 7–8 bits.

use crate::BinaryDataset;
use ldafp_linalg::Matrix;
use ldafp_stats::MultivariateGaussian;
use ldafp_stats::Rng;

/// Generator parameters for the simulated ECoG set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BciConfig {
    /// Virtual electrodes (paper-equivalent: 6).
    pub electrodes: usize,
    /// Spectral bands per electrode (paper-equivalent: 7).
    pub bands: usize,
    /// Trials per movement direction (paper: 70).
    pub trials_per_class: usize,
    /// Spatial AR(1) correlation between neighboring electrodes.
    pub spatial_rho: f64,
    /// Spectral AR(1) correlation between neighboring bands.
    pub spectral_rho: f64,
    /// Peak class-mean shift on the informative (motor, high-gamma)
    /// features, in units of feature standard deviation.
    pub effect_size: f64,
    /// Per-feature noise standard deviation.
    pub noise_sigma: f64,
    /// Amplitude of the shared low-rank artifact on signal channels
    /// (0 disables the artifact and the reference channels).
    pub artifact_gain: f64,
    /// Leakage separating the two reference channels: reference 1 sees
    /// `leak·z₁ + z₂`, reference 2 sees `z₂` (the 42-D analogue of the
    /// paper's eq. 31 `0.001·ε₂ + ε₃` construction). Smaller leak ⇒ larger
    /// cancellation weights ⇒ earlier rounded-LDA collapse.
    pub artifact_leak: f64,
}

impl Default for BciConfig {
    fn default() -> Self {
        BciConfig {
            electrodes: 6,
            bands: 7,
            trials_per_class: 70,
            spatial_rho: 0.6,
            spectral_rho: 0.55,
            // Calibrated so float LDA with 140 trials / 42 features sits
            // near Table 2's ≈20% 5-fold CV error plateau (the small-sample
            // regime makes plain LDA overfit, so the per-feature effect must
            // be sizeable to land there).
            effect_size: 1.5,
            noise_sigma: 1.0,
            artifact_gain: 2.5,
            artifact_leak: 0.03,
        }
    }
}

impl BciConfig {
    /// Total feature count `electrodes × bands` (42 with paper defaults).
    pub fn num_features(&self) -> usize {
        self.electrodes * self.bands
    }
}

/// Generates one simulated ECoG dataset.
///
/// Features are scaled so the dataset's maximum absolute value is ≈0.9
/// (inside a `Q1.F` fixed-point range), mirroring the paper's feature
/// pre-scaling step.
///
/// # Panics
///
/// Panics if any dimension parameter is zero.
///
/// # Example
///
/// ```
/// use ldafp_datasets::bci::{generate, BciConfig};
///
/// let mut rng = ldafp_stats::Rng::new(0);
/// let data = generate(&BciConfig::default(), &mut rng);
/// assert_eq!(data.num_features(), 42);
/// assert_eq!(data.class_sizes(), (70, 70));
/// ```
pub fn generate(config: &BciConfig, rng: &mut Rng) -> BinaryDataset {
    assert!(
        config.electrodes > 0 && config.bands > 0 && config.trials_per_class > 0,
        "BCI generator dimensions must be positive"
    );
    let m = config.num_features();

    // Covariance: Kronecker AR(1) ⊗ AR(1), scaled by noise_sigma².
    let cov = kron_ar1(config);

    // Class means: ± half the effect on informative features.
    let shift = class_shift(config);
    let mu_a: Vec<f64> = shift.iter().map(|s| -0.5 * s).collect();
    let mu_b: Vec<f64> = shift.iter().map(|s| 0.5 * s).collect();

    let dist_a = MultivariateGaussian::new(mu_a, cov.clone())
        .expect("AR(1) Kronecker covariance is positive definite");
    let dist_b = MultivariateGaussian::new(mu_b, cov)
        .expect("AR(1) Kronecker covariance is positive definite");

    let mut class_a = dist_a.sample_matrix(rng, config.trials_per_class);
    let mut class_b = dist_b.sample_matrix(rng, config.trials_per_class);
    add_artifact(config, &mut class_a, rng);
    add_artifact(config, &mut class_b, rng);
    let raw = BinaryDataset::new(class_a, class_b).expect("shared feature space");
    debug_assert_eq!(raw.num_features(), m);

    // Pre-scale into fixed-point-friendly range (paper §3).
    raw.scaled_to(0.9).0
}

/// Adds the shared low-rank artifact: two latents `z₁, z₂` contaminate all
/// channels except the two reference channels (features 0 and 1 — the
/// "ground" electrode's lowest bands), which observe the latents directly:
///
/// ```text
/// x_m   += g·(z₁ + z₂)          (m ≥ 2)
/// x_0    = leak·z₁ + z₂ + ν₀    (reference 1, eq. 31 analogue)
/// x_1    = z₂ + ν₁              (reference 2, eq. 32 analogue)
/// ```
///
/// `ν` is small sensor noise keeping the covariance well-conditioned.
fn add_artifact(config: &BciConfig, samples: &mut Matrix, rng: &mut Rng) {
    if config.artifact_gain == 0.0 || samples.cols() < 3 {
        return;
    }
    let g = config.artifact_gain * config.noise_sigma;
    for i in 0..samples.rows() {
        let z1 = ldafp_stats::mvn::standard_normal(rng);
        let z2 = ldafp_stats::mvn::standard_normal(rng);
        let nu0 = 0.02 * ldafp_stats::mvn::standard_normal(rng);
        let nu1 = 0.02 * ldafp_stats::mvn::standard_normal(rng);
        let row = samples.row_mut(i);
        for x in row.iter_mut().skip(2) {
            *x += g * (z1 + z2);
        }
        row[0] = config.artifact_leak * z1 + z2 + nu0;
        row[1] = z2 + nu1;
    }
}

/// The per-feature class-mean shift pattern: electrodes 1 and 2 are "motor"
/// channels whose top two bands (high-gamma) carry the full effect, their
/// remaining bands carry a 25 % echo, and all other electrodes are silent.
fn class_shift(config: &BciConfig) -> Vec<f64> {
    let mut shift = vec![0.0; config.num_features()];
    let motor: [usize; 2] = [1, 2.min(config.electrodes - 1)];
    for &e in &motor {
        for b in 0..config.bands {
            let idx = e * config.bands + b;
            let top_band = b + 2 >= config.bands; // top two bands
            shift[idx] = if top_band {
                config.effect_size * config.noise_sigma
            } else {
                0.25 * config.effect_size * config.noise_sigma
            };
        }
    }
    shift
}

/// `Σ = σ²·(AR1(ρ_s) ⊗ AR1(ρ_f))` with feature index `e·bands + b`.
fn kron_ar1(config: &BciConfig) -> Matrix {
    let m = config.num_features();
    let bands = config.bands;
    Matrix::from_fn(m, m, |i, j| {
        let (ei, bi) = (i / bands, i % bands);
        let (ej, bj) = (j / bands, j % bands);
        let spatial = config.spatial_rho.powi((ei as i32 - ej as i32).abs());
        let spectral = config.spectral_rho.powi((bi as i32 - bj as i32).abs());
        config.noise_sigma * config.noise_sigma * spatial * spectral
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_linalg::moments;

    #[test]
    fn paper_equivalent_shape() {
        let mut rng = Rng::new(0);
        let d = generate(&BciConfig::default(), &mut rng);
        assert_eq!(d.num_features(), 42);
        assert_eq!(d.class_sizes(), (70, 70));
    }

    #[test]
    fn features_prescaled_for_fixed_point() {
        let mut rng = Rng::new(1);
        let d = generate(&BciConfig::default(), &mut rng);
        assert!(d.max_abs() <= 0.9 + 1e-12);
        assert!(d.max_abs() > 0.85);
    }

    #[test]
    fn covariance_is_positive_definite() {
        let cov = kron_ar1(&BciConfig::default());
        assert!(cov.cholesky().is_ok());
        // Kronecker symmetry.
        assert_eq!(cov.max_asymmetry().unwrap(), 0.0);
    }

    #[test]
    fn informative_features_are_minority() {
        let shift = class_shift(&BciConfig::default());
        let informative = shift.iter().filter(|&&s| s != 0.0).count();
        assert_eq!(informative, 14); // 2 motor electrodes × 7 bands
        let strong = shift
            .iter()
            .filter(|&&s| s >= 0.5 * BciConfig::default().effect_size)
            .count();
        assert_eq!(strong, 4); // top-2 bands on 2 electrodes
    }

    #[test]
    fn class_means_differ_only_on_informative_features() {
        let cfg = BciConfig {
            trials_per_class: 4000,
            ..BciConfig::default()
        };
        let mut rng = Rng::new(2);
        let d = generate(&cfg, &mut rng);
        let mu_a = moments::row_mean(&d.class_a).unwrap();
        let mu_b = moments::row_mean(&d.class_b).unwrap();
        let shift = class_shift(&cfg);
        for (j, &s) in shift.iter().enumerate() {
            let observed = mu_b[j] - mu_a[j];
            if s == 0.0 {
                assert!(
                    observed.abs() < 0.05,
                    "feature {j}: spurious shift {observed}"
                );
            }
        }
        // The strongest features show the largest shifts.
        let strongest = shift
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(mu_b[strongest] - mu_a[strongest] > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = BciConfig {
            trials_per_class: 5,
            ..BciConfig::default()
        };
        let a = generate(&cfg, &mut Rng::new(9));
        let b = generate(&cfg, &mut Rng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn custom_grid_sizes() {
        let cfg = BciConfig {
            electrodes: 3,
            bands: 4,
            trials_per_class: 10,
            ..BciConfig::default()
        };
        let mut rng = Rng::new(3);
        let d = generate(&cfg, &mut rng);
        assert_eq!(d.num_features(), 12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let cfg = BciConfig {
            electrodes: 0,
            ..BciConfig::default()
        };
        generate(&cfg, &mut Rng::new(0));
    }
}
