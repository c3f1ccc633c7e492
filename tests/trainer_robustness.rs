//! Failure-injection tests for the training pipeline: degenerate datasets
//! must produce structured errors or sane classifiers — never panics.

use lda_fp::core::{LdaFpConfig, LdaFpTrainer, LdaModel};
use lda_fp::datasets::BinaryDataset;
use lda_fp::fixedpoint::QFormat;
use lda_fp::linalg::Matrix;

fn trainer() -> LdaFpTrainer {
    LdaFpTrainer::new(LdaFpConfig::fast())
}

fn fmt() -> QFormat {
    QFormat::new(2, 3).unwrap()
}

#[test]
fn single_sample_per_class() {
    let d = BinaryDataset::new(
        Matrix::from_rows(&[&[-0.5, 0.2]]).unwrap(),
        Matrix::from_rows(&[&[0.5, -0.2]]).unwrap(),
    )
    .unwrap();
    // Covariances are zero matrices — ridge handling must cope.
    match trainer().train(&d, fmt()) {
        Ok(model) => {
            assert!(model.fisher_cost().is_finite());
            // Perfectly separable single pair: both samples classified.
            assert!(model.classifier().classify(&[-0.5, 0.2]));
            assert!(!model.classifier().classify(&[0.5, -0.2]));
        }
        Err(e) => panic!("single-sample training should work with ridges: {e}"),
    }
}

#[test]
fn identical_classes_rejected_cleanly() {
    let same = Matrix::from_rows(&[&[0.1, 0.2], &[0.3, -0.1], &[-0.2, 0.0]]).unwrap();
    let d = BinaryDataset::new(same.clone(), same).unwrap();
    assert!(trainer().train(&d, fmt()).is_err());
    assert!(LdaModel::train(&d).is_err());
}

#[test]
fn constant_feature_columns() {
    // Feature 1 is identically 0.3 in both classes: zero variance.
    let d = BinaryDataset::new(
        Matrix::from_rows(&[&[-0.5, 0.3], &[-0.4, 0.3], &[-0.6, 0.3]]).unwrap(),
        Matrix::from_rows(&[&[0.5, 0.3], &[0.4, 0.3], &[0.6, 0.3]]).unwrap(),
    )
    .unwrap();
    let model = trainer()
        .train(&d, fmt())
        .expect("constant features are benign");
    assert!(model.fisher_cost().is_finite());
}

#[test]
fn separation_below_quantum_is_detected() {
    // Class means differ by 0.001 but the grid resolution is 0.125: the
    // quantized means coincide and training must fail with the documented
    // error, not return a garbage classifier.
    let d = BinaryDataset::new(
        Matrix::from_rows(&[&[0.0005], &[0.0006], &[0.0004]]).unwrap(),
        Matrix::from_rows(&[&[-0.0005], &[-0.0006], &[-0.0004]]).unwrap(),
    )
    .unwrap();
    let r = trainer().train(&d, fmt());
    assert!(r.is_err(), "sub-quantum separation must be rejected");
}

#[test]
fn saturating_outlier_features() {
    // One wild outlier far outside the representable range: quantization
    // saturates it; training must still succeed.
    let d = BinaryDataset::new(
        Matrix::from_rows(&[&[-0.5, 0.1], &[-0.4, -0.1], &[-0.6, 1000.0]]).unwrap(),
        Matrix::from_rows(&[&[0.5, -0.1], &[0.4, 0.1], &[0.6, -1000.0]]).unwrap(),
    )
    .unwrap();
    let model = trainer()
        .train(&d, fmt())
        .expect("saturated outliers are survivable");
    assert!(model.fisher_cost().is_finite());
}

#[test]
fn heavily_unbalanced_classes() {
    let big = Matrix::from_fn(60, 2, |i, j| -0.4 + 0.01 * ((i * 2 + j) % 7) as f64);
    let tiny = Matrix::from_rows(&[&[0.5, 0.5]]).unwrap();
    let d = BinaryDataset::new(big, tiny).unwrap();
    match trainer().train(&d, fmt()) {
        Ok(model) => assert!(model.fisher_cost().is_finite()),
        Err(e) => panic!("unbalanced classes should train: {e}"),
    }
}

#[test]
fn one_bit_fraction_format() {
    // Q1.1: 4 representable values. Extreme but legal.
    let d = BinaryDataset::new(
        Matrix::from_rows(&[&[-0.5], &[-0.4], &[-0.45]]).unwrap(),
        Matrix::from_rows(&[&[0.5], &[0.4], &[0.45]]).unwrap(),
    )
    .unwrap();
    let format = QFormat::new(1, 1).unwrap();
    // A 2-bit grid may legitimately have no useful classifier (Err is fine).
    if let Ok(model) = trainer().train(&d, format) {
        for &w in model.weights() {
            assert!(format.contains(w));
        }
    }
}

#[test]
fn widest_supported_format() {
    let d = BinaryDataset::new(
        Matrix::from_rows(&[&[-0.5, 0.2], &[-0.3, -0.1]]).unwrap(),
        Matrix::from_rows(&[&[0.5, -0.2], &[0.3, 0.1]]).unwrap(),
    )
    .unwrap();
    let format = QFormat::new(2, 29).unwrap(); // 31-bit words (the cap)
    let model = trainer().train(&d, format).expect("wide formats are easy");
    assert!(model.fisher_cost().is_finite());
}
