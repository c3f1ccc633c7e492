//! Ablation study (our addition; DESIGN.md experiment "A").
//!
//! The paper credits unnamed "additional heuristics" for its solver speed.
//! This experiment quantifies what each documented ingredient of our
//! implementation contributes, on the synthetic workload at a fixed word
//! length: train with one ingredient disabled (or a parameter varied) and
//! report Fisher cost, test error and runtime.

use ldafp_core::{eval, LdaFpConfig, LdaFpTrainer};
use ldafp_datasets::synthetic::{generate, SyntheticConfig};
use ldafp_datasets::BinaryDataset;
use ldafp_fixedpoint::QFormat;
use ldafp_stats::Rng;
use std::time::Instant;

/// Ablation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationConfig {
    /// Training trials per class.
    pub train_per_class: usize,
    /// Test trials per class.
    pub test_per_class: usize,
    /// Word length of the study.
    pub word_length: u32,
    /// Integer bits of the study format.
    pub k: u32,
    /// RNG seed.
    pub seed: u64,
    /// Baseline trainer configuration that the variants perturb.
    pub trainer: LdaFpConfig,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            train_per_class: 1_000,
            test_per_class: 10_000,
            word_length: 6,
            k: 2,
            seed: 99,
            trainer: LdaFpConfig::default(),
        }
    }
}

/// One ablation variant's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant name.
    pub variant: String,
    /// Discrete Fisher cost of the search optimum, before the deployed
    /// weights are rescaled by training error (lower is better; NaN if
    /// infeasible).
    pub fisher_cost: f64,
    /// Test error of the trained classifier.
    pub test_error: f64,
    /// Training wall-clock seconds.
    pub runtime: f64,
    /// Branch-and-bound nodes assessed.
    pub nodes: usize,
}

/// Runs the ablation grid.
pub fn run_ablation(config: &AblationConfig) -> Vec<AblationRow> {
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
    let format = QFormat::new(config.k, config.word_length - config.k).expect("valid study format");

    let base = config.trainer.clone();
    let variants: Vec<(String, LdaFpConfig)> = vec![
        ("full".to_string(), base.clone()),
        ("no scaled rounding".to_string(), {
            let mut c = base.clone();
            c.scaled_rounding = false;
            c
        }),
        ("no b&b (seeds only)".to_string(), {
            let mut c = base.clone();
            c.bnb.max_nodes = 1;
            c
        }),
        ("rho = 0.90".to_string(), {
            let mut c = base.clone();
            c.rho = 0.90;
            c
        }),
        ("rho = 0.9999".to_string(), {
            let mut c = base.clone();
            c.rho = 0.9999;
            c
        }),
    ];

    variants
        .into_iter()
        .map(|(variant, cfg)| {
            let trainer = LdaFpTrainer::new(cfg);
            let start = Instant::now();
            match trainer.train(&train, format) {
                Ok(model) => AblationRow {
                    variant,
                    fisher_cost: model.search_fisher_cost(),
                    test_error: eval::error_rate(model.classifier(), &test),
                    runtime: start.elapsed().as_secs_f64(),
                    nodes: model.stats().nodes_assessed,
                },
                Err(_) => AblationRow {
                    variant,
                    fisher_cost: f64::NAN,
                    test_error: 0.5,
                    runtime: start.elapsed().as_secs_f64(),
                    nodes: 0,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_train_and_full_is_best_or_tied() {
        let cfg = AblationConfig {
            train_per_class: 200,
            test_per_class: 1_000,
            trainer: LdaFpConfig::fast(),
            ..AblationConfig::default()
        };
        let rows = run_ablation(&cfg);
        assert_eq!(rows.len(), 5);
        let full_cost = rows[0].fisher_cost;
        assert!(full_cost.is_finite());
        // The full configuration is never beaten by the pure-subtraction
        // variants on Fisher cost (same ρ; ρ-variants change the problem).
        for row in &rows[1..3] {
            if row.fisher_cost.is_finite() {
                assert!(
                    full_cost <= row.fisher_cost + 1e-9,
                    "'{}' beat full: {} < {}",
                    row.variant,
                    row.fisher_cost,
                    full_cost
                );
            }
        }
    }
}
