//! Cross-crate integration tests: the full pipeline from workload
//! generation through training to bit-exact inference and hardware cost.

use lda_fp::core::{eval, LdaFpConfig, LdaFpTrainer, LdaModel};
use lda_fp::datasets::synthetic::{generate, SyntheticConfig};
use lda_fp::datasets::{bci, demo2d, BinaryDataset};
use lda_fp::fixedpoint::{QFormat, RoundingMode};
use lda_fp::hwmodel::gates::MacDatapath;
use lda_fp::hwmodel::power::MacPowerModel;
use ldafp_stats::Rng;

fn synthetic_pair(train_n: usize, test_n: usize, seed: u64) -> (BinaryDataset, BinaryDataset) {
    let mut rng = Rng::new(seed);
    let train_raw = generate(
        &SyntheticConfig {
            n_per_class: train_n,
            ..SyntheticConfig::default()
        },
        &mut rng,
    );
    let test_raw = generate(
        &SyntheticConfig {
            n_per_class: test_n,
            ..SyntheticConfig::default()
        },
        &mut rng,
    );
    let (train, factor) = train_raw.scaled_to(0.9);
    let test = BinaryDataset {
        class_a: test_raw.class_a.scaled(factor),
        class_b: test_raw.class_b.scaled(factor),
    };
    (train, test)
}

#[test]
fn table1_headline_ldafp_beats_lda_at_4_bits() {
    let (train, test) = synthetic_pair(400, 2_000, 1);
    let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
    let (model, _) = trainer.train_auto(&train, 4, 3).expect("training succeeds");
    let ldafp_err = eval::error_rate(model.classifier(), &test);
    let (lda_clf, _) = eval::quantized_lda_auto(&train, 4, 3).expect("baseline succeeds");
    let lda_err = eval::error_rate(&lda_clf, &test);
    assert!(
        ldafp_err + 0.05 < lda_err,
        "LDA-FP {ldafp_err} should beat rounded LDA {lda_err} at 4 bits"
    );
    assert!(
        ldafp_err < 0.40,
        "LDA-FP should be far below chance, got {ldafp_err}"
    );
}

#[test]
fn large_word_lengths_converge_to_float_performance() {
    let (train, test) = synthetic_pair(400, 2_000, 2);
    let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
    let (model, _) = trainer
        .train_auto(&train, 16, 3)
        .expect("training succeeds");
    let fp16 = eval::error_rate(model.classifier(), &test);
    let (lda_clf, _) = eval::quantized_lda_auto(&train, 16, 3).expect("baseline succeeds");
    let lda16 = eval::error_rate(&lda_clf, &test);
    // Both within 3 points of each other and near the ≈19.4% Bayes floor.
    assert!((fp16 - lda16).abs() < 0.03, "fp {fp16} vs lda {lda16}");
    assert!(fp16 < 0.25, "16-bit LDA-FP error {fp16}");
}

#[test]
fn bci_pipeline_runs_end_to_end() {
    let cfg = bci::BciConfig {
        trials_per_class: 45,
        ..bci::BciConfig::default()
    };
    let mut rng = Rng::new(3);
    let data = bci::generate(&cfg, &mut rng);
    let mut tcfg = LdaFpConfig::fast();
    tcfg.bnb.max_nodes = 10;
    let trainer = LdaFpTrainer::new(tcfg);
    let mut fold_rng = Rng::new(4);
    let report = eval::cross_validate(&data, 3, &mut fold_rng, |train| {
        Ok(trainer.train_auto(train, 6, 1)?.0.classifier().clone())
    })
    .expect("cross-validation runs");
    assert_eq!(report.fold_errors.len(), 3);
    // 30 train trials/class for 42 features is brutally small-sample; the
    // pipeline check asks for "clearly informative", not Table-2 accuracy.
    assert!(
        report.mean_error < 0.45,
        "better than chance: {}",
        report.mean_error
    );
}

#[test]
fn classifier_serde_roundtrip_preserves_decisions() {
    let mut rng = Rng::new(5);
    let data = demo2d::well_separated(120, &mut rng);
    let lda = LdaModel::train(&data).unwrap();
    let clf = lda.quantized(QFormat::new(2, 5).unwrap());
    // Round-trip through the deployment serialization path: the serving
    // artifact stores raw two's-complement integers, so reconstruction is
    // exact by construction, and the envelope checksum must verify.
    let json = lda_fp::serve::ModelArtifact::binary(clf.clone()).to_json_string();
    let back = lda_fp::serve::ModelArtifact::from_json_str(&json).expect("deserializes");
    let lda_fp::serve::ServedModel::Binary(back) = back.model else {
        panic!("binary artifact came back as a different model kind");
    };
    assert_eq!(back, clf);
    for (x, _) in data.iter_labeled() {
        assert_eq!(back.classify(x), clf.classify(x));
    }
}

#[test]
fn gate_level_datapath_agrees_with_behavioral_model_on_trained_classifier() {
    let (train, test) = synthetic_pair(200, 100, 6);
    let format = QFormat::new(2, 4).unwrap();
    let model = LdaFpTrainer::new(LdaFpConfig::fast())
        .train(&train, format)
        .expect("training succeeds");
    let clf = model.classifier();
    let datapath = MacDatapath::new(clf.word_length() as usize);
    for (x, _) in test.iter_labeled().take(50) {
        let xq = format.quantize_slice(x, RoundingMode::NearestEven);
        let (raw, _) = datapath.simulate_fx_dot(clf.weights(), &xq);
        let (behavioral, _) =
            lda_fp::kernels::mac_row_fx(format, RoundingMode::Floor, clf.weights(), &xq);
        assert_eq!(raw, behavioral, "gate-level/behavioral divergence");
    }
}

#[test]
fn overflow_constraints_prevent_projection_wraps_in_practice() {
    // On the training distribution, the final projection should essentially
    // never leave the representable range (ρ = 0.99 ⇒ ≤ ~1% per class).
    let (train, test) = synthetic_pair(400, 1_000, 7);
    let format = QFormat::new(2, 2).unwrap();
    let model = LdaFpTrainer::new(LdaFpConfig::fast())
        .train(&train, format)
        .expect("training succeeds");
    let clf = model.classifier();
    let mut wraps = 0usize;
    let mut total = 0usize;
    for (x, _) in test.iter_labeled() {
        let exact: f64 = clf
            .weights()
            .iter()
            .zip(x)
            .map(|(w, xi)| w.to_f64() * xi)
            .sum();
        if exact > format.max_value() || exact < format.min_value() {
            wraps += 1;
        }
        total += 1;
    }
    let rate = wraps as f64 / total as f64;
    assert!(
        rate < 0.05,
        "projection wrap rate {rate} too high for rho=0.99"
    );
}

#[test]
fn power_model_consistent_with_paper_claims() {
    let pm = MacPowerModel::default();
    let nine_x = pm.power_reduction(12, 4, 3);
    assert!((nine_x - 9.0).abs() < 1.5);
    let small = pm.power_reduction(8, 6, 42);
    assert!((small - 1.8).abs() < 0.3);
}

#[test]
fn trainer_is_deterministic() {
    let (train, _) = synthetic_pair(200, 100, 8);
    let format = QFormat::new(2, 3).unwrap();
    let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
    let a = trainer.train(&train, format).unwrap();
    let b = trainer.train(&train, format).unwrap();
    assert_eq!(a.weights(), b.weights());
    assert_eq!(a.fisher_cost(), b.fisher_cost());
}

#[test]
fn umbrella_reexports_compile_and_link() {
    // Touch one item from every re-exported crate.
    let _ = lda_fp::linalg::Matrix::identity(2);
    let _ = lda_fp::stats::normal::cdf(0.0);
    let _ = lda_fp::fixedpoint::QFormat::new(2, 2).unwrap();
    let _ = lda_fp::bnb::BnbConfig::default();
    let _ = lda_fp::solver::SolverConfig::default();
    let _ = lda_fp::hwmodel::power::MacPowerModel::default();
    let _ = lda_fp::datasets::synthetic::SyntheticConfig::default();
    let _ = lda_fp::core::LdaFpConfig::default();
}
