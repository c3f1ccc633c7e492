//! Evaluation protocols: fixed-point error rates and the paper's 5-fold
//! cross-validation (Table 2).

use crate::{FixedPointClassifier, LdaModel, Result};
use ldafp_datasets::{BinaryDataset, ClassLabel};
use ldafp_fixedpoint::{Fx, QFormat};
use ldafp_kernels::{mac_gemm_into, GemmScratch, KernelKind, QBatchBuf};
use ldafp_stats::Rng;
use ldafp_stats::StratifiedKFold;

/// Rows per kernel dispatch inside [`error_rate`] — bounds the SoA
/// staging buffer while keeping each GEMV large enough to tile well.
const EVAL_CHUNK_ROWS: usize = 1024;

/// Classification error of a fixed-point classifier on a dataset, using the
/// bit-exact wrapping datapath (the numbers reported in Tables 1–2).
///
/// Rows are quantized into an SoA batch and scored through the shared
/// wrapping-MAC kernel in chunks, one head — bit-identical to calling
/// [`FixedPointClassifier::classify`] per row (both run the kernels' scalar
/// loop or a path pinned to it), but vectorizable, which is what makes
/// large exploration sweeps affordable.
pub fn error_rate(clf: &FixedPointClassifier, data: &BinaryDataset) -> f64 {
    let format = clf.format();
    let rounding = clf.rounding();
    let weights: Vec<i64> = clf.weights().iter().map(Fx::raw).collect();
    let threshold = clf.threshold().raw();
    let kernel = KernelKind::best();
    let mut batch = QBatchBuf::new(format, weights.len());
    let mut is_a_chunk: Vec<bool> = Vec::with_capacity(EVAL_CHUNK_ROWS);
    let mut scratch = GemmScratch::default();
    let (mut out, mut wraps) = (Vec::new(), Vec::new());
    let mut errors = 0usize;
    let mut total = 0usize;
    let mut flush = |batch: &mut QBatchBuf, is_a_chunk: &mut Vec<bool>, errors: &mut usize| {
        mac_gemm_into(
            kernel,
            &batch.as_batch(),
            &weights,
            1,
            rounding,
            &mut scratch,
            &mut out,
            &mut wraps,
        )
        .expect("batch and weights share the classifier's format and width");
        for (y_raw, is_a) in out.iter().zip(is_a_chunk.iter()) {
            // Same comparison as `classify`: y.raw ≥ T.raw picks class A.
            if (*y_raw >= threshold) != *is_a {
                *errors += 1;
            }
        }
        batch.clear();
        is_a_chunk.clear();
    };
    for (x, label) in data.iter_labeled() {
        assert_eq!(
            x.len(),
            weights.len(),
            "feature count mismatch: {} vs {}",
            x.len(),
            weights.len()
        );
        batch
            .push_row_f64(x, rounding)
            .expect("row width checked above");
        is_a_chunk.push(matches!(label, ClassLabel::A));
        total += 1;
        if is_a_chunk.len() == EVAL_CHUNK_ROWS {
            flush(&mut batch, &mut is_a_chunk, &mut errors);
        }
    }
    if !is_a_chunk.is_empty() {
        flush(&mut batch, &mut is_a_chunk, &mut errors);
    }
    errors as f64 / total as f64
}

/// Per-fold and aggregate results of a cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValReport {
    /// Test error of each fold.
    pub fold_errors: Vec<f64>,
    /// Mean test error across folds.
    pub mean_error: f64,
}

/// Stratified k-fold cross-validation: `train_fn` builds a classifier from
/// each training split; the returned report aggregates test errors — the
/// protocol of the paper's Table 2.
///
/// # Errors
///
/// Propagates split failures and any error from `train_fn`.
pub fn cross_validate<F>(
    data: &BinaryDataset,
    k: usize,
    rng: &mut Rng,
    mut train_fn: F,
) -> Result<CrossValReport>
where
    F: FnMut(&BinaryDataset) -> Result<FixedPointClassifier>,
{
    let (n_a, n_b) = data.class_sizes();
    let folds = StratifiedKFold::new(k)?.split(n_a, n_b, rng)?;
    let mut fold_errors = Vec::with_capacity(k);
    for fold in &folds {
        let (train, test) = data.split_fold(fold);
        let clf = train_fn(&train)?;
        fold_errors.push(error_rate(&clf, &test));
    }
    let mean_error = fold_errors.iter().sum::<f64>() / fold_errors.len() as f64;
    Ok(CrossValReport {
        fold_errors,
        mean_error,
    })
}

/// The conventional baseline at a given word length with the `K`-split
/// chosen by training-set error (mirror of `LdaFpTrainer::train_auto`, so
/// Tables 1–2 compare like for like): trains float LDA once, then rounds it
/// into every candidate format and keeps the best.
///
/// # Errors
///
/// Propagates LDA training failures; format construction failures for every
/// `K` yield the underlying fixed-point error.
pub fn quantized_lda_auto(
    data: &BinaryDataset,
    word_length: u32,
    max_k: u32,
) -> Result<(FixedPointClassifier, QFormat)> {
    let lda = LdaModel::train(data)?;
    let mut best: Option<(FixedPointClassifier, QFormat, f64)> = None;
    let mut last_err = None;
    for k in 1..=max_k.min(word_length) {
        match QFormat::new(k, word_length - k) {
            Ok(format) => {
                let clf = lda.quantized(format);
                let err = error_rate(&clf, data);
                if best.as_ref().is_none_or(|(_, _, e)| err < *e) {
                    best = Some((clf, format, err));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some((clf, format, _)) => Ok((clf, format)),
        None => Err(last_err.expect("at least one K attempted").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_linalg::Matrix;

    fn data() -> BinaryDataset {
        BinaryDataset::new(
            Matrix::from_rows(&[
                &[-0.4, 0.1],
                &[-0.3, -0.1],
                &[-0.5, 0.0],
                &[-0.35, 0.05],
                &[-0.45, -0.05],
                &[-0.25, 0.08],
            ])
            .unwrap(),
            Matrix::from_rows(&[
                &[0.4, 0.0],
                &[0.3, 0.1],
                &[0.5, -0.1],
                &[0.35, -0.05],
                &[0.45, 0.05],
                &[0.25, -0.08],
            ])
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn error_rate_perfect_and_chance() {
        let d = data();
        // A good classifier: w = (1, 0) classifies B (positive x) as A…
        // wait: class A has negative feature 0, so w = (−1, 0), T = 0.
        let good = FixedPointClassifier::from_float(&[-1.0, 0.0], 0.0, QFormat::new(2, 6).unwrap())
            .unwrap();
        assert_eq!(error_rate(&good, &d), 0.0);
        // Inverted weights: 100% error.
        let bad = FixedPointClassifier::from_float(&[1.0, 0.0], 0.0, QFormat::new(2, 6).unwrap())
            .unwrap();
        assert_eq!(error_rate(&bad, &d), 1.0);
    }

    #[test]
    fn cross_validation_runs_all_folds() {
        let d = data();
        let mut rng = Rng::new(0);
        let report = cross_validate(&d, 3, &mut rng, |train| {
            let lda = LdaModel::train(train)?;
            Ok(lda.quantized(QFormat::new(2, 8).unwrap()))
        })
        .unwrap();
        assert_eq!(report.fold_errors.len(), 3);
        let mean: f64 = report.fold_errors.iter().sum::<f64>() / 3.0;
        assert!((report.mean_error - mean).abs() < 1e-15);
        // Linearly separable data at 10 bits: error should be 0.
        assert_eq!(report.mean_error, 0.0);
    }

    #[test]
    fn cross_validation_rejects_bad_k() {
        let d = data();
        let mut rng = Rng::new(0);
        let r = cross_validate(&d, 50, &mut rng, |_| unreachable!("split must fail first"));
        assert!(r.is_err());
    }

    #[test]
    fn quantized_lda_auto_picks_low_error_format() {
        let d = data();
        let (clf, format) = quantized_lda_auto(&d, 8, 4).unwrap();
        assert_eq!(format.word_length(), 8);
        assert!(error_rate(&clf, &d) <= 0.5);
    }
}
