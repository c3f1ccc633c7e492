//! One-vs-rest multiclass classification on fixed-point hardware — the
//! "broad range of emerging applications" extension the paper's conclusion
//! gestures at.
//!
//! Each class gets its own binary LDA-FP classifier trained against the
//! union of the others. At inference, every per-class engine computes its
//! projection margin `y_c − T_c` on the shared `QK.F` datapath and the
//! class with the largest margin wins. Margins are compared on **raw
//! integers** (a subtractor + comparator tree in hardware), so the
//! multiclass head adds no multipliers.

use crate::{FixedPointClassifier, LdaFpTrainer, Result};
use ldafp_datasets::multiclass::MulticlassDataset;
use ldafp_fixedpoint::QFormat;

/// A one-vs-rest ensemble of fixed-point binary classifiers.
///
/// Raw projection margins are not comparable across heads whose weight
/// vectors have different norms (LDA-FP picks whatever scale minimizes the
/// Fisher cost on the grid), so each head carries a `margin_scale ∝ 1/‖w‖`
/// calibration factor. In hardware this is one constant multiplier per
/// head in front of the comparator tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OneVsRestClassifier {
    heads: Vec<FixedPointClassifier>,
    margin_scales: Vec<f64>,
}

impl OneVsRestClassifier {
    /// Trains one LDA-FP head per class.
    ///
    /// All heads share the same `QK.F` format (one datapath, `C` weight
    /// ROMs).
    ///
    /// # Errors
    ///
    /// Propagates the first head's training failure; a class whose
    /// one-vs-rest problem is infeasible fails the whole ensemble (a
    /// partial ensemble could not classify that class at all).
    pub fn train(
        trainer: &LdaFpTrainer,
        data: &MulticlassDataset,
        format: QFormat,
    ) -> Result<Self> {
        // One-vs-rest heads are class-unbalanced (1 : C−1), so the eq. 12
        // midpoint threshold is systematically misplaced; enable the
        // empirical grid-threshold scan for the heads.
        let mut cfg = trainer.config().clone();
        cfg.empirical_threshold_selection = true;
        let head_trainer = LdaFpTrainer::new(cfg);
        let mut heads = Vec::with_capacity(data.num_classes());
        for c in 0..data.num_classes() {
            let binary = data.one_vs_rest(c);
            let model = head_trainer.train(&binary, format)?;
            heads.push(model.classifier().clone());
        }
        Ok(Self::with_calibration(heads))
    }

    /// Builds the ensemble, deriving each head's margin calibration from
    /// its weight norm.
    fn with_calibration(heads: Vec<FixedPointClassifier>) -> Self {
        let margin_scales = heads
            .iter()
            .map(|h| {
                let norm = ldafp_linalg::vecops::norm2(&h.weight_values());
                if norm == 0.0 {
                    1.0
                } else {
                    1.0 / norm
                }
            })
            .collect();
        OneVsRestClassifier {
            heads,
            margin_scales,
        }
    }

    /// Reassembles an ensemble from its parts — the deserialization path for
    /// persisted model artifacts. `margin_scales` must carry one calibration
    /// factor per head; the values are adopted verbatim (not re-derived from
    /// weight norms) so a save → load round trip predicts bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidTrainingData`] when there are no
    /// heads, the scale count disagrees with the head count, a scale is not
    /// finite, or the heads disagree on format or feature count (one shared
    /// datapath serves every head).
    pub fn from_parts(heads: Vec<FixedPointClassifier>, margin_scales: Vec<f64>) -> Result<Self> {
        let invalid = |reason: String| crate::CoreError::InvalidTrainingData { reason };
        if heads.is_empty() {
            return Err(invalid("ensemble needs at least one head".to_string()));
        }
        if heads.len() != margin_scales.len() {
            return Err(invalid(format!(
                "{} heads but {} margin scales",
                heads.len(),
                margin_scales.len()
            )));
        }
        let (format, features) = (heads[0].format(), heads[0].num_features());
        for (c, head) in heads.iter().enumerate() {
            if head.format() != format || head.num_features() != features {
                return Err(invalid(format!(
                    "head {c} is {} with {} features; expected {format} with {features}",
                    head.format(),
                    head.num_features()
                )));
            }
        }
        if let Some(s) = margin_scales.iter().find(|s| !s.is_finite()) {
            return Err(invalid(format!("margin scale {s} is not finite")));
        }
        Ok(OneVsRestClassifier {
            heads,
            margin_scales,
        })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.heads.len()
    }

    /// The per-head margin calibration factors (`∝ 1/‖w_c‖`), in class
    /// order. Persisted alongside the heads so reconstruction does not
    /// re-derive them.
    pub fn margin_scales(&self) -> &[f64] {
        &self.margin_scales
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.heads[0].num_features()
    }

    /// Borrow the per-class binary heads.
    pub fn heads(&self) -> &[FixedPointClassifier] {
        &self.heads
    }

    /// Classifies a feature vector: the class whose head reports the
    /// largest calibrated margin `(y_c − T_c)/‖w_c‖`. Ties resolve to the
    /// lowest class index (a fixed priority encoder in hardware).
    ///
    /// # Panics
    ///
    /// Panics on feature-count mismatch.
    pub fn classify(&self, x: &[f64]) -> usize {
        let mut best_class = 0usize;
        let mut best_margin = f64::NEG_INFINITY;
        for (c, (head, scale)) in self.heads.iter().zip(&self.margin_scales).enumerate() {
            let raw = head.project(x).raw() - head.threshold().raw();
            let margin = raw as f64 * scale;
            if margin > best_margin {
                best_margin = margin;
                best_class = c;
            }
        }
        best_class
    }

    /// Error rate over a multiclass dataset.
    pub fn error_rate(&self, data: &MulticlassDataset) -> f64 {
        let mut errors = 0usize;
        let mut total = 0usize;
        for (x, label) in data.iter_labeled() {
            if self.classify(x) != label {
                errors += 1;
            }
            total += 1;
        }
        errors as f64 / total as f64
    }
}

/// Convenience: train and evaluate in one call, returning the ensemble and
/// its training error.
///
/// # Errors
///
/// Propagates [`OneVsRestClassifier::train`] failures.
pub fn train_one_vs_rest(
    trainer: &LdaFpTrainer,
    data: &MulticlassDataset,
    format: QFormat,
) -> Result<(OneVsRestClassifier, f64)> {
    let clf = OneVsRestClassifier::train(trainer, data, format)?;
    let err = clf.error_rate(data);
    Ok((clf, err))
}

/// Baseline counterpart: rounded conventional LDA heads (for comparisons).
///
/// # Errors
///
/// Propagates LDA training failures.
pub fn train_one_vs_rest_baseline(
    data: &MulticlassDataset,
    format: QFormat,
) -> Result<(OneVsRestClassifier, f64)> {
    let mut heads = Vec::with_capacity(data.num_classes());
    for c in 0..data.num_classes() {
        let binary = data.one_vs_rest(c);
        let lda = crate::LdaModel::train(&binary)?;
        heads.push(lda.quantized(format));
    }
    let clf = OneVsRestClassifier::with_calibration(heads);
    let err = clf.error_rate(data);
    Ok((clf, err))
}

/// Evaluation on a held-out multiclass set (mirrors
/// [`eval::error_rate`](crate::eval::error_rate) for the binary case).
pub fn error_rate(clf: &OneVsRestClassifier, data: &MulticlassDataset) -> f64 {
    clf.error_rate(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LdaFpConfig;
    use ldafp_datasets::multiclass::{blobs, BlobsConfig};
    use ldafp_stats::Rng;

    fn blob_data(seed: u64) -> MulticlassDataset {
        let mut rng = Rng::new(seed);
        blobs(
            &BlobsConfig {
                num_classes: 3,
                num_features: 2,
                n_per_class: 60,
                radius: 0.6,
                sigma: 0.12,
            },
            &mut rng,
        )
        .scaled_to(0.9)
        .0
    }

    #[test]
    fn trains_and_classifies_blobs() {
        let data = blob_data(1);
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let format = QFormat::new(2, 5).unwrap();
        let (clf, train_err) = train_one_vs_rest(&trainer, &data, format).unwrap();
        assert_eq!(clf.num_classes(), 3);
        assert_eq!(clf.num_features(), 2);
        assert!(train_err < 0.10, "training error {train_err}");
        // Generalizes to a fresh draw of the same blobs.
        let test = blob_data(2);
        assert!(clf.error_rate(&test) < 0.15);
    }

    #[test]
    fn beats_or_matches_rounded_baseline_at_small_words() {
        let data = blob_data(3);
        let format = QFormat::new(1, 3).unwrap(); // 4-bit words
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let fp = train_one_vs_rest(&trainer, &data, format);
        let base = train_one_vs_rest_baseline(&data, format);
        if let (Ok((_, fp_err)), Ok((_, base_err))) = (fp, base) {
            assert!(
                fp_err <= base_err + 0.05,
                "LDA-FP OvR {fp_err} much worse than baseline {base_err}"
            );
        }
    }

    #[test]
    fn classify_is_deterministic_and_in_range() {
        let data = blob_data(4);
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let format = QFormat::new(2, 4).unwrap();
        let (clf, _) = train_one_vs_rest(&trainer, &data, format).unwrap();
        for (x, _) in data.iter_labeled().take(30) {
            let c = clf.classify(x);
            assert!(c < 3);
            assert_eq!(c, clf.classify(x));
        }
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let data = blob_data(6);
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let format = QFormat::new(2, 4).unwrap();
        let (clf, _) = train_one_vs_rest(&trainer, &data, format).unwrap();
        let back =
            OneVsRestClassifier::from_parts(clf.heads().to_vec(), clf.margin_scales().to_vec())
                .unwrap();
        assert_eq!(back, clf);
        for (x, _) in data.iter_labeled().take(20) {
            assert_eq!(back.classify(x), clf.classify(x));
        }

        assert!(OneVsRestClassifier::from_parts(vec![], vec![]).is_err());
        assert!(
            OneVsRestClassifier::from_parts(clf.heads().to_vec(), vec![1.0]).is_err(),
            "scale count mismatch must be rejected"
        );
        let mut bad_scales = clf.margin_scales().to_vec();
        bad_scales[0] = f64::NAN;
        assert!(OneVsRestClassifier::from_parts(clf.heads().to_vec(), bad_scales).is_err());
        let mut mixed = clf.heads().to_vec();
        mixed[0] = FixedPointClassifier::from_float(
            &clf.heads()[0].weight_values(),
            0.0,
            QFormat::new(3, 3).unwrap(),
        )
        .unwrap();
        assert!(
            OneVsRestClassifier::from_parts(mixed, clf.margin_scales().to_vec()).is_err(),
            "format disagreement must be rejected"
        );
    }
}
