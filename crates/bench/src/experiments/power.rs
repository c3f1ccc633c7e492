//! The power-reduction analysis behind the paper's §5 claims.
//!
//! Two layers, per DESIGN.md:
//!
//! 1. the analytic quadratic rule (`ldafp_hwmodel::power`) applied to the
//!    paper's word-length pairs — 12→4 bits (Table 1, "9× power") and
//!    8→6 bits (Table 2, "1.8× power");
//! 2. a gate-level cross-check: actual switching activity of the shift-add
//!    MAC on random classifier workloads at both word lengths.

use ldafp_fixedpoint::{QFormat, RoundingMode};
use ldafp_hwmodel::gates::MacDatapath;
use ldafp_hwmodel::power::MacPowerModel;
use ldafp_stats::Rng;

/// Experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// `(from_bits, to_bits, num_features, label)` comparisons to report.
    pub comparisons: Vec<(u32, u32, usize, String)>,
    /// Number of random dot products per gate-level measurement.
    pub gate_level_trials: usize,
    /// RNG seed for the operand streams.
    pub seed: u64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            comparisons: vec![
                (
                    12,
                    4,
                    3,
                    "Table 1: synthetic, 12-bit LDA vs 4-bit LDA-FP".to_string(),
                ),
                (
                    8,
                    6,
                    42,
                    "Table 2: BCI, 8-bit LDA vs 6-bit LDA-FP".to_string(),
                ),
            ],
            gate_level_trials: 200,
            seed: 7,
        }
    }
}

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerRow {
    /// Human-readable comparison label.
    pub label: String,
    /// Larger word length (the baseline's).
    pub from_bits: u32,
    /// Smaller word length (LDA-FP's).
    pub to_bits: u32,
    /// Feature count of the classifier.
    pub num_features: usize,
    /// Analytic power-reduction factor (quadratic rule).
    pub analytic_reduction: f64,
    /// Gate-level switching-activity reduction factor (measured).
    pub gate_level_reduction: f64,
}

/// Runs the power analysis.
pub fn run_power(config: &PowerConfig) -> Vec<PowerRow> {
    let model = MacPowerModel::default();
    let mut rng = Rng::new(config.seed);
    config
        .comparisons
        .iter()
        .map(|(from, to, m, label)| {
            let analytic = model.power_reduction(*from, *to, *m);
            let act_from = measure_activity(*from, *m, config.gate_level_trials, &mut rng);
            let act_to = measure_activity(*to, *m, config.gate_level_trials, &mut rng);
            PowerRow {
                label: label.clone(),
                from_bits: *from,
                to_bits: *to,
                num_features: *m,
                analytic_reduction: analytic,
                gate_level_reduction: act_from / act_to,
            }
        })
        .collect()
}

/// Mean net toggles per classification at the given word length, driving
/// the gate-level MAC with random in-range fixed-point operands.
fn measure_activity(word_length: u32, num_features: usize, trials: usize, rng: &mut Rng) -> f64 {
    let format = QFormat::new(2.min(word_length), word_length.saturating_sub(2))
        .or_else(|_| QFormat::new(1, word_length - 1))
        .expect("word length ≥ 1");
    let datapath = MacDatapath::new(word_length as usize);
    let mut total = 0u64;
    for _ in 0..trials {
        let w: Vec<_> = (0..num_features)
            .map(|_| format.quantize(rng.range_f64(-1.0..1.0), RoundingMode::NearestEven))
            .collect();
        let x: Vec<_> = (0..num_features)
            .map(|_| format.quantize(rng.range_f64(-0.9..0.9), RoundingMode::NearestEven))
            .collect();
        let (_, stats) = datapath.simulate_fx_dot(&w, &x);
        total += stats.net_toggles;
    }
    total as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_matches_paper_claims() {
        let rows = run_power(&PowerConfig {
            gate_level_trials: 40,
            ..PowerConfig::default()
        });
        assert_eq!(rows.len(), 2);
        assert!(
            (rows[0].analytic_reduction - 9.0).abs() < 1.5,
            "9× claim: {}",
            rows[0].analytic_reduction
        );
        assert!(
            (rows[1].analytic_reduction - 1.8).abs() < 0.3,
            "1.8× claim: {}",
            rows[1].analytic_reduction
        );
    }

    #[test]
    fn gate_level_confirms_direction_and_magnitude() {
        let rows = run_power(&PowerConfig {
            gate_level_trials: 60,
            ..PowerConfig::default()
        });
        for row in &rows {
            assert!(
                row.gate_level_reduction > 1.0,
                "{}: smaller words must toggle less ({}×)",
                row.label,
                row.gate_level_reduction
            );
            // Same order of magnitude as the analytic rule.
            let ratio = row.gate_level_reduction / row.analytic_reduction;
            assert!(
                ratio > 0.3 && ratio < 3.0,
                "{}: gate-level {}× vs analytic {}×",
                row.label,
                row.gate_level_reduction,
                row.analytic_reduction
            );
        }
    }
}
