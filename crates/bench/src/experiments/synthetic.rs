//! The synthetic-data sweep behind **Table 1** and **Figure 4**.
//!
//! For each word length: train conventional LDA (rounded) and LDA-FP on the
//! same quantized training set, then measure both classifiers' error on a
//! held-out test set with bit-exact fixed-point inference. The LDA-FP
//! weight values per word length are Figure 4's series.

use ldafp_core::{eval, LdaFpConfig, LdaFpTrainer};
use ldafp_datasets::synthetic::{generate, SyntheticConfig};
use ldafp_datasets::BinaryDataset;
use ldafp_stats::Rng;
use std::time::Instant;

/// Sweep parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSweepConfig {
    /// Training trials per class.
    pub train_per_class: usize,
    /// Held-out test trials per class.
    pub test_per_class: usize,
    /// Word lengths to sweep (Table 1 uses 4, 6, 8, 10, 12, 14, 16).
    pub word_lengths: Vec<u32>,
    /// Largest integer-bit split to consider per word length.
    pub max_k: u32,
    /// RNG seed (training and test sets derive from it deterministically).
    pub seed: u64,
    /// LDA-FP trainer configuration.
    pub trainer: LdaFpConfig,
}

impl Default for SyntheticSweepConfig {
    fn default() -> Self {
        SyntheticSweepConfig {
            train_per_class: 2_000,
            test_per_class: 20_000,
            word_lengths: vec![4, 6, 8, 10, 12, 14, 16],
            max_k: 6,
            seed: 20140601, // DAC'14 conference date
            trainer: LdaFpConfig::default(),
        }
    }
}

impl SyntheticSweepConfig {
    /// Reduced-budget variant for smoke tests (`--quick`).
    pub fn quick() -> Self {
        SyntheticSweepConfig {
            train_per_class: 400,
            test_per_class: 2_000,
            word_lengths: vec![4, 8, 12, 16],
            max_k: 4,
            trainer: LdaFpConfig::fast(),
            ..SyntheticSweepConfig::default()
        }
    }
}

/// One row of the sweep: Table 1's columns plus Figure 4's weights.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSweepRow {
    /// Total word length `K + F`.
    pub word_length: u32,
    /// Test error of rounded conventional LDA.
    pub lda_error: f64,
    /// Test error of LDA-FP.
    pub ldafp_error: f64,
    /// LDA-FP training wall-clock seconds (Table 1's runtime column).
    pub ldafp_runtime: f64,
    /// Chosen `QK.F` for the LDA baseline.
    pub lda_format: String,
    /// Chosen `QK.F` for LDA-FP.
    pub ldafp_format: String,
    /// LDA-FP weight values (Figure 4's series; `None` if training failed).
    pub ldafp_weights: Option<Vec<f64>>,
    /// Whether branch-and-bound certified optimality within its budget
    /// (an empirical deployment rescale voids it, see
    /// `LdaFpConfig::empirical_scale_selection`).
    pub certified: bool,
    /// The search's final relative gap (`LdaFpModel::search_gap`; NaN if
    /// training failed).
    pub search_gap: f64,
}

/// Runs the sweep. Word lengths where LDA-FP cannot produce any feasible
/// classifier report chance-level error (0.5) with empty weights — the same
/// convention the paper's 50% entries reflect for the baseline.
pub fn run_synthetic_sweep(config: &SyntheticSweepConfig) -> Vec<SyntheticSweepRow> {
    let mut rng = Rng::new(config.seed);
    let data_cfg = SyntheticConfig {
        n_per_class: config.train_per_class,
        ..SyntheticConfig::default()
    };
    let train_raw = generate(&data_cfg, &mut rng);
    let test_cfg = SyntheticConfig {
        n_per_class: config.test_per_class,
        ..SyntheticConfig::default()
    };
    let test_raw = generate(&test_cfg, &mut rng);

    // One shared scale factor (fit the TRAINING range into ±0.9), applied
    // to both sets — the deployment-faithful preprocessing order.
    let (train, factor) = train_raw.scaled_to(0.9);
    let test = BinaryDataset {
        class_a: test_raw.class_a.scaled(factor),
        class_b: test_raw.class_b.scaled(factor),
    };

    let trainer = LdaFpTrainer::new(config.trainer.clone());
    let mut rows = Vec::with_capacity(config.word_lengths.len());
    for &w in &config.word_lengths {
        // Baseline: float LDA rounded into the best K split (chosen on
        // training error, evaluated on test).
        let (lda_error, lda_format) = match eval::quantized_lda_auto(&train, w, config.max_k) {
            Ok((clf, format)) => (eval::error_rate(&clf, &test), format.to_string()),
            Err(_) => (0.5, "-".to_string()),
        };

        // LDA-FP.
        let start = Instant::now();
        let (ldafp_error, ldafp_format, ldafp_weights, certified, search_gap) =
            match trainer.train_auto(&train, w, config.max_k) {
                Ok((model, format)) => (
                    eval::error_rate(model.classifier(), &test),
                    format.to_string(),
                    Some(model.weights().to_vec()),
                    model.certified(),
                    model.search_gap(),
                ),
                Err(_) => (0.5, "-".to_string(), None, false, f64::NAN),
            };
        let ldafp_runtime = start.elapsed().as_secs_f64();

        rows.push(SyntheticSweepRow {
            word_length: w,
            lda_error,
            ldafp_error,
            ldafp_runtime,
            lda_format,
            ldafp_format,
            ldafp_weights,
            certified,
            search_gap,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_reproduces_table1_shape() {
        let cfg = SyntheticSweepConfig {
            word_lengths: vec![4, 12],
            train_per_class: 300,
            test_per_class: 1_500,
            max_k: 3,
            trainer: LdaFpConfig::fast(),
            ..SyntheticSweepConfig::quick()
        };
        let rows = run_synthetic_sweep(&cfg);
        assert_eq!(rows.len(), 2);
        // The headline: at 4 bits LDA-FP must beat LDA decisively.
        let r4 = &rows[0];
        assert!(
            r4.ldafp_error + 0.05 < r4.lda_error,
            "4-bit: LDA-FP {} vs LDA {}",
            r4.ldafp_error,
            r4.lda_error
        );
        // At 12 bits both approach the Bayes floor (≈19.4%).
        let r12 = &rows[1];
        assert!(
            r12.ldafp_error < 0.30,
            "12-bit LDA-FP error {}",
            r12.ldafp_error
        );
    }
}
