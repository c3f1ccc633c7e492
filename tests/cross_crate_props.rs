//! Cross-crate property tests: invariants that tie the trainer, the
//! constraint machinery, the fixed-point substrate and the hardware model
//! together on randomized workloads.

use lda_fp::core::{LdaFpConfig, LdaFpTrainer, LdaModel, TrainingProblem};
use lda_fp::datasets::BinaryDataset;
use lda_fp::fixedpoint::{QFormat, RoundingMode};
use lda_fp::hwmodel::gates::MacDatapath;
use lda_fp::kernels::mac_row_fx;
use lda_fp::linalg::Matrix;
use lda_fp::stats::rng::check;
use lda_fp::stats::Rng;

/// Case count of every property in this file.
const CASES: u32 = 24;

/// A small random 2-feature dataset whose class means differ.
fn dataset(rng: &mut Rng) -> BinaryDataset {
    let cloud = |rng: &mut Rng| -> Vec<f64> { (0..12).map(|_| rng.range_f64(-0.4..0.4)).collect() };
    let (a, b) = (cloud(rng), cloud(rng));
    let sep = rng.range_f64(0.05..0.5);
    let ca = Matrix::from_fn(6, 2, |i, j| a[i * 2 + j] - sep);
    let cb = Matrix::from_fn(6, 2, |i, j| b[i * 2 + j] + sep);
    BinaryDataset::new(ca, cb).expect("non-empty classes")
}

fn format(rng: &mut Rng) -> QFormat {
    let k = rng.range_i64(1..=3) as u32;
    let f = rng.range_i64(1..=5) as u32;
    QFormat::new(k, f).expect("bounded")
}

/// Between one and seven raw words in `-200..200`.
fn raws(rng: &mut Rng) -> Vec<i64> {
    let len = 1 + rng.below(7);
    (0..len).map(|_| rng.range_i64(-200..=199)).collect()
}

/// Whatever LDA-FP returns is on the grid, feasible for (18)+(20), and
/// costs no more than the rounded-LDA seed when that seed is feasible.
/// (Empirical scale selection is disabled here: it deliberately trades
/// Fisher cost for bit-exact training error, which would relax the J
/// invariant being checked.)
#[test]
fn trained_weights_grid_feasible_and_no_worse_than_seed() {
    check(
        CASES,
        |rng| (dataset(rng), format(rng)),
        |(data, format)| {
            let format = *format;
            let mut cfg = LdaFpConfig::fast();
            cfg.empirical_scale_selection = false;
            let trainer = LdaFpTrainer::new(cfg);
            let Ok(model) = trainer.train(data, format) else {
                // Degenerate quantization is an acceptable outcome; nothing to
                // check.
                return;
            };
            for &w in model.weights() {
                assert!(format.contains(w), "off-grid weight {w}");
            }
            let tp = TrainingProblem::from_dataset(data, format, 0.99, RoundingMode::NearestEven)
                .expect("model trained, so the problem builds");
            assert!(tp.is_feasible(model.weights()));
            assert!((model.fisher_cost() - tp.fisher_cost(model.weights())).abs() < 1e-9);

            if let Ok(lda) = LdaModel::from_moments(tp.moments()) {
                let rounded = format.round_slice_to_grid(lda.weights(), RoundingMode::NearestEven);
                let seed_cost = tp.fisher_cost(&rounded);
                if seed_cost.is_finite() && tp.is_feasible(&rounded) {
                    assert!(
                        model.fisher_cost() <= seed_cost + 1e-9,
                        "trained cost {} worse than seed {}",
                        model.fisher_cost(),
                        seed_cost
                    );
                }
            }
        },
    );
}

/// With empirical scale selection ON (the default), the deployed
/// classifier's bit-exact training error never exceeds that of the
/// J-only variant — the selection step only ever improves the metric
/// it optimizes.
#[test]
fn scale_selection_never_hurts_training_error() {
    check(
        CASES,
        |rng| (dataset(rng), format(rng)),
        |(data, format)| {
            let mut plain_cfg = LdaFpConfig::fast();
            plain_cfg.empirical_scale_selection = false;
            let plain = LdaFpTrainer::new(plain_cfg).train(data, *format);
            let tuned = LdaFpTrainer::new(LdaFpConfig::fast()).train(data, *format);
            if let (Ok(p), Ok(t)) = (plain, tuned) {
                let pe = lda_fp::core::eval::error_rate(p.classifier(), data);
                let te = lda_fp::core::eval::error_rate(t.classifier(), data);
                assert!(
                    te <= pe + 1e-12,
                    "scale selection worsened training error: {te} > {pe}"
                );
            }
        },
    );
}

/// The gate-level datapath and the behavioral fixed-point model agree
/// on arbitrary operand streams.
#[test]
fn gate_level_equals_behavioral() {
    check(
        CASES,
        |rng| (format(rng), raws(rng), raws(rng)),
        |(format, w_raw, x_raw)| {
            let n = w_raw.len().min(x_raw.len());
            let w: Vec<_> = w_raw[..n].iter().map(|&r| format.from_raw(r)).collect();
            let x: Vec<_> = x_raw[..n].iter().map(|&r| format.from_raw(r)).collect();
            let datapath = MacDatapath::new(format.word_length() as usize);
            let (raw, stats) = datapath.simulate_fx_dot(&w, &x);
            let (behavioral, _) = mac_row_fx(*format, RoundingMode::Floor, &w, &x);
            assert_eq!(raw, behavioral);
            assert!(stats.cycles >= n as u64);
        },
    );
}

/// Fixed-point inference at generous word lengths matches the float
/// decision rule built from the same grid weights.
#[test]
fn high_precision_classifier_matches_float_reference() {
    check(CASES, dataset, |data| {
        let format = QFormat::new(3, 18).unwrap();
        let Ok(lda) = LdaModel::train(data) else {
            return;
        };
        let clf = lda.quantized(format);
        for (x, _) in data.iter_labeled() {
            assert_eq!(clf.classify(x), clf.classify_float_reference(x));
        }
    });
}

/// The Fisher cost of the trained model never exceeds the cost of any
/// feasible grid point the case samples (optimality probe).
#[test]
fn no_sampled_grid_point_beats_trained_model() {
    let case = |rng: &mut Rng| {
        let data = dataset(rng);
        let probe_raw: Vec<i64> = (0..2).map(|_| rng.range_i64(-16..=15)).collect();
        (data, probe_raw)
    };
    check(CASES, case, |(data, probe_raw)| {
        let format = QFormat::new(2, 3).unwrap();
        let mut cfg = LdaFpConfig::default();
        cfg.bnb.max_nodes = 50_000;
        cfg.bnb.relative_gap = 1e-9;
        cfg.empirical_scale_selection = false; // keep the pure J optimum
        let trainer = LdaFpTrainer::new(cfg);
        let Ok(model) = trainer.train(data, format) else {
            return;
        };
        if !model.certified() {
            return; // only certified runs make the global claim
        }
        let tp = TrainingProblem::from_dataset(data, format, 0.99, RoundingMode::NearestEven)
            .expect("model trained");
        let probe: Vec<f64> = probe_raw
            .iter()
            .map(|&r| format.from_raw(r).to_f64())
            .collect();
        let cost = tp.fisher_cost(&probe);
        if cost.is_finite() && tp.is_feasible(&probe) {
            assert!(
                model.fisher_cost() <= cost + 1e-6 * cost.abs().max(1e-9),
                "sampled grid point {:?} (cost {}) beats certified optimum ({})",
                probe,
                cost,
                model.fisher_cost()
            );
        }
    });
}
