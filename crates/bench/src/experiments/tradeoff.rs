//! Accuracy-vs-power tradeoff curve (derived experiment).
//!
//! The paper's power claims are point comparisons (12→4 bits, 8→6 bits).
//! This experiment traces the whole curve: for every word length, train
//! LDA-FP and the rounded baseline, and report test error against the
//! normalized power of the resulting engine — the data a designer actually
//! needs to pick an operating point. `ldafp wordlength` answers the
//! narrower question (the smallest word length meeting a training-error
//! target) from one explore sweep.

use ldafp_core::{eval, LdaFpConfig, LdaFpTrainer};
use ldafp_datasets::synthetic::{generate, SyntheticConfig};
use ldafp_datasets::BinaryDataset;
use ldafp_hwmodel::power::MacPowerModel;
use ldafp_stats::Rng;

/// Sweep parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffConfig {
    /// Training trials per class.
    pub train_per_class: usize,
    /// Test trials per class.
    pub test_per_class: usize,
    /// Word lengths to trace.
    pub word_lengths: Vec<u32>,
    /// Largest integer-bit split to consider.
    pub max_k: u32,
    /// RNG seed.
    pub seed: u64,
    /// LDA-FP trainer configuration.
    pub trainer: LdaFpConfig,
}

impl Default for TradeoffConfig {
    fn default() -> Self {
        TradeoffConfig {
            train_per_class: 1_000,
            test_per_class: 10_000,
            word_lengths: (3..=16).collect(),
            max_k: 5,
            seed: 2014,
            trainer: LdaFpConfig::default(),
        }
    }
}

impl TradeoffConfig {
    /// Reduced-budget variant (`--quick`).
    pub fn quick() -> Self {
        TradeoffConfig {
            train_per_class: 300,
            test_per_class: 2_000,
            word_lengths: vec![4, 6, 8, 12],
            max_k: 3,
            trainer: LdaFpConfig::fast(),
            ..TradeoffConfig::default()
        }
    }
}

/// One operating point on the curve.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffPoint {
    /// Word length in bits.
    pub word_length: u32,
    /// Normalized power of the engine at this word length (1.0 = the
    /// largest word length in the sweep).
    pub relative_power: f64,
    /// Rounded-LDA test error.
    pub lda_error: f64,
    /// LDA-FP test error.
    pub ldafp_error: f64,
}

/// Traces the curve on the synthetic workload.
pub fn run_tradeoff(config: &TradeoffConfig) -> Vec<TradeoffPoint> {
    let mut rng = Rng::new(config.seed);
    let train_raw = generate(
        &SyntheticConfig {
            n_per_class: config.train_per_class,
            ..SyntheticConfig::default()
        },
        &mut rng,
    );
    let test_raw = generate(
        &SyntheticConfig {
            n_per_class: config.test_per_class,
            ..SyntheticConfig::default()
        },
        &mut rng,
    );
    let (train, factor) = train_raw.scaled_to(0.9);
    let test = BinaryDataset {
        class_a: test_raw.class_a.scaled(factor),
        class_b: test_raw.class_b.scaled(factor),
    };

    let trainer = LdaFpTrainer::new(config.trainer.clone());
    let pm = MacPowerModel::default();
    let m = train.num_features();
    let max_bits = config.word_lengths.iter().copied().max().unwrap_or(16);
    let ref_power = pm.power(max_bits, m);

    config
        .word_lengths
        .iter()
        .map(|&bits| {
            let lda_error = eval::quantized_lda_auto(&train, bits, config.max_k)
                .map(|(clf, _)| eval::error_rate(&clf, &test))
                .unwrap_or(0.5);
            let ldafp_error = trainer
                .train_auto(&train, bits, config.max_k)
                .map(|(model, _)| eval::error_rate(model.classifier(), &test))
                .unwrap_or(0.5);
            TradeoffPoint {
                word_length: bits,
                relative_power: pm.power(bits, m) / ref_power,
                lda_error,
                ldafp_error,
            }
        })
        .collect()
}

/// The "iso-accuracy power saving": for each LDA operating point, the power
/// of the *cheapest LDA-FP point with at-most-equal error*, as a fraction.
/// This is the curve-wide generalization of the paper's 9×/1.8× numbers.
pub fn iso_accuracy_savings(points: &[TradeoffPoint]) -> Vec<(u32, Option<f64>)> {
    points
        .iter()
        .map(|lda_pt| {
            let cheapest = points
                .iter()
                .filter(|p| p.ldafp_error <= lda_pt.lda_error + 1e-12)
                .map(|p| p.relative_power)
                .fold(f64::INFINITY, f64::min);
            let saving = if cheapest.is_finite() {
                Some(lda_pt.relative_power / cheapest)
            } else {
                None
            };
            (lda_pt.word_length, saving)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_shape_and_iso_savings() {
        let cfg = TradeoffConfig {
            train_per_class: 250,
            test_per_class: 1_500,
            word_lengths: vec![4, 8, 12, 16],
            max_k: 3,
            trainer: LdaFpConfig::fast(),
            ..TradeoffConfig::default()
        };
        let points = run_tradeoff(&cfg);
        assert_eq!(points.len(), 4);
        // Power normalized to the largest word length.
        assert!((points.last().unwrap().relative_power - 1.0).abs() < 1e-12);
        assert!(points[0].relative_power < 0.2);
        // LDA-FP dominates or ties everywhere on this workload.
        for p in &points {
            assert!(
                p.ldafp_error <= p.lda_error + 0.02,
                "{} bits: fp {} vs lda {}",
                p.word_length,
                p.ldafp_error,
                p.lda_error
            );
        }
        // The paper's headline shows up as a large iso-accuracy saving at
        // the 12-bit LDA point (its error is matched by 4-bit LDA-FP).
        let savings = iso_accuracy_savings(&points);
        let twelve = savings.iter().find(|(b, _)| *b == 12).unwrap();
        let factor = twelve.1.expect("some LDA-FP point matches 12-bit LDA");
        assert!(
            factor > 4.0,
            "iso-accuracy saving at 12 bits only {factor}x"
        );
    }
}
