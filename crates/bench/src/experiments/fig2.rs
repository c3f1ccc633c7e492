//! The boundary-robustness illustration behind **Figure 2**.
//!
//! Figure 2 in the paper is a conceptual 2-D sketch: the LDA-optimal
//! boundary `P_N^(LDA)` is so sensitive that a one-rounding-step
//! perturbation (`P_L`, `P_U`) misclassifies a whole class, while a robust
//! boundary `P_N^(Robust)` barely moves. This experiment measures that
//! phenomenon quantitatively on the workload that actually exhibits it —
//! the paper's own synthetic noise-cancellation construction (the
//! mechanism needs the noise-reference features, which is why the sketch's
//! 2-D geometry is realized with the 3-feature set):
//!
//! * the float LDA boundary and its error (the "optimal" boundary);
//! * the rounded LDA boundary, its error, and the errors of its ±1-ulp
//!   weight perturbations (Figure 2a);
//! * the LDA-FP boundary and its ±1-ulp perturbation errors (Figure 2b),
//!   which stay near the nominal value — robustness by construction.

use ldafp_core::{eval, FixedPointClassifier, LdaFpConfig, LdaFpTrainer, LdaModel};
use ldafp_datasets::synthetic::{generate, SyntheticConfig};
use ldafp_datasets::BinaryDataset;
use ldafp_fixedpoint::QFormat;
use ldafp_stats::Rng;

/// Experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Config {
    /// Trials per class (train == boundary-fitting set; a fresh test set of
    /// the same size measures the errors).
    pub n_per_class: usize,
    /// Integer bits of the demonstration format (coarse by design).
    pub k: u32,
    /// Fractional bits.
    pub f: u32,
    /// RNG seed.
    pub seed: u64,
    /// LDA-FP trainer configuration.
    pub trainer: LdaFpConfig,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            n_per_class: 2_000,
            k: 2,
            f: 4, // 6-bit words: squarely in the regime where LDA collapses
            seed: 42,
            trainer: LdaFpConfig::default(),
        }
    }
}

/// Perturbation analysis of one boundary: nominal error plus the errors of
/// every single-weight ±1-ulp neighbour (the paper's `P_L`, `P_U`).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryRobustness {
    /// Grid-exact weight values of the nominal boundary.
    pub weights: Vec<f64>,
    /// Quantized threshold.
    pub threshold: f64,
    /// Error of the nominal boundary.
    pub nominal_error: f64,
    /// Worst error over all ±1-ulp single-weight perturbations.
    pub worst_perturbed_error: f64,
    /// Mean error over the perturbations.
    pub mean_perturbed_error: f64,
}

/// The full Figure 2 report.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Report {
    /// Float LDA error (no quantization anywhere) — the `P_N^(LDA)` ideal.
    pub float_lda_error: f64,
    /// Rounded LDA robustness (Figure 2a).
    pub lda: BoundaryRobustness,
    /// LDA-FP robustness (Figure 2b).
    pub ldafp: BoundaryRobustness,
}

/// Runs the Figure 2 experiment.
///
/// # Panics
///
/// Panics if the demonstration format cannot be constructed.
pub fn run_fig2(config: &Fig2Config) -> Fig2Report {
    let mut rng = Rng::new(config.seed);
    let data_cfg = SyntheticConfig {
        n_per_class: config.n_per_class,
        ..SyntheticConfig::default()
    };
    let train_raw = generate(&data_cfg, &mut rng);
    let test_raw = generate(&data_cfg, &mut rng);
    let (train, factor) = train_raw.scaled_to(0.9);
    let test = BinaryDataset {
        class_a: test_raw.class_a.scaled(factor),
        class_b: test_raw.class_b.scaled(factor),
    };
    let format = QFormat::new(config.k, config.f).expect("valid demo format");

    let lda = LdaModel::train(&train).expect("synthetic data is non-degenerate");
    let float_lda_error = float_error(&lda, &test);

    let lda_clf = lda.quantized(format);
    let lda_rob = perturbation_analysis(&lda_clf, &test, format);

    let trainer = LdaFpTrainer::new(config.trainer.clone());
    let ldafp_rob = match trainer.train(&train, format) {
        Ok(model) => perturbation_analysis(model.classifier(), &test, format),
        Err(_) => BoundaryRobustness {
            weights: vec![],
            threshold: 0.0,
            nominal_error: 0.5,
            worst_perturbed_error: 0.5,
            mean_perturbed_error: 0.5,
        },
    };

    Fig2Report {
        float_lda_error,
        lda: lda_rob,
        ldafp: ldafp_rob,
    }
}

fn float_error(lda: &LdaModel, data: &BinaryDataset) -> f64 {
    let mut errors = 0usize;
    let mut total = 0usize;
    for (x, label) in data.iter_labeled() {
        let is_a = matches!(label, ldafp_datasets::ClassLabel::A);
        if lda.classify(x) != is_a {
            errors += 1;
        }
        total += 1;
    }
    errors as f64 / total as f64
}

fn perturbation_analysis(
    clf: &FixedPointClassifier,
    data: &BinaryDataset,
    format: QFormat,
) -> BoundaryRobustness {
    let weights = clf.weight_values();
    let threshold = clf.threshold().to_f64();
    let nominal_error = eval::error_rate(clf, data);
    let q = format.resolution();
    let mut perturbed = Vec::new();
    for m in 0..weights.len() {
        for sign in [1.0, -1.0] {
            let mut w = weights.clone();
            w[m] = (w[m] + sign * q).clamp(format.min_value(), format.max_value());
            if w[m] == weights[m] {
                continue; // clamped back: not a distinct boundary
            }
            let p =
                FixedPointClassifier::from_float(&w, threshold, format).expect("non-empty weights");
            perturbed.push(eval::error_rate(&p, data));
        }
    }
    let worst = perturbed.iter().copied().fold(nominal_error, f64::max);
    let mean = if perturbed.is_empty() {
        nominal_error
    } else {
        perturbed.iter().sum::<f64>() / perturbed.len() as f64
    };
    BoundaryRobustness {
        weights,
        threshold,
        nominal_error,
        worst_perturbed_error: worst,
        mean_perturbed_error: mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ldafp_boundary_beats_rounded_lda_and_is_robust() {
        let cfg = Fig2Config {
            n_per_class: 400,
            trainer: LdaFpConfig::fast(),
            ..Fig2Config::default()
        };
        let report = run_fig2(&cfg);
        // Float LDA is near the Bayes floor (≈19.4%).
        assert!(
            report.float_lda_error < 0.25,
            "float error {}",
            report.float_lda_error
        );
        // Rounded LDA collapses at 6 bits (the Figure 2a story).
        assert!(
            report.lda.nominal_error > 0.40,
            "rounded LDA unexpectedly survived: {}",
            report.lda.nominal_error
        );
        // LDA-FP's boundary is far better nominally…
        assert!(
            report.ldafp.nominal_error + 0.10 < report.lda.nominal_error,
            "LDA-FP {} vs rounded LDA {}",
            report.ldafp.nominal_error,
            report.lda.nominal_error
        );
        // …and on average its ±1-ulp perturbations stay clearly below
        // LDA's collapsed boundary (the worst single perturbation may zero
        // out a 1-ulp weight, so the mean is the meaningful robustness
        // summary).
        assert!(
            report.ldafp.mean_perturbed_error + 0.05 < report.lda.nominal_error,
            "perturbed LDA-FP mean {} vs collapsed LDA {}",
            report.ldafp.mean_perturbed_error,
            report.lda.nominal_error
        );
    }
}
