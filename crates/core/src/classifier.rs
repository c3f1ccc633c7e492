use crate::Result;
use ldafp_fixedpoint::{Fx, QFormat, RoundingMode};
use ldafp_kernels::mac_row_fx;

/// A bit-exact fixed-point linear classifier — the artifact that would be
/// burned into the ASIC.
///
/// Inference follows the paper's eq. 12 on the wrapping MAC datapath:
///
/// 1. features are quantized to the classifier's `QK.F` format;
/// 2. `y = wᵀx` is computed by [`mac_row_fx`], the serving kernels'
///    scalar loop (same-width wrapping accumulator: the exact sum of the
///    rounded products wrapped once, which is the per-step wrapping
///    result);
/// 3. `y` is compared against the quantized threshold by a plain
///    comparator — no subtraction, so the comparison itself cannot
///    overflow.
///
/// # Example
///
/// ```
/// use ldafp_core::FixedPointClassifier;
/// use ldafp_fixedpoint::QFormat;
///
/// # fn main() -> Result<(), ldafp_core::CoreError> {
/// let format = QFormat::new(2, 6)?;
/// let clf = FixedPointClassifier::from_float(&[1.0, -0.5], 0.25, format)?;
/// assert!(clf.classify(&[1.0, 0.5])); // 1 − 0.25 = 0.75 ≥ 0.25 → class A
/// assert!(!clf.classify(&[0.0, 0.5])); // −0.25 < 0.25 → class B
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPointClassifier {
    format: QFormat,
    weights: Vec<Fx>,
    threshold: Fx,
    rounding: RoundingMode,
}

impl FixedPointClassifier {
    /// Builds a classifier by quantizing float weights and threshold into
    /// `format` (round-to-nearest-even, saturating).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidTrainingData`] for an empty weight
    /// vector.
    pub fn from_float(weights: &[f64], threshold: f64, format: QFormat) -> Result<Self> {
        if weights.is_empty() {
            return Err(crate::CoreError::InvalidTrainingData {
                reason: "classifier needs at least one weight".to_string(),
            });
        }
        let rounding = RoundingMode::NearestEven;
        Ok(FixedPointClassifier {
            weights: format.quantize_slice(weights, rounding),
            threshold: format.quantize(threshold, rounding),
            format,
            rounding,
        })
    }

    /// Reconstructs a classifier from raw two's-complement integers — the
    /// deserialization path for persisted model artifacts, where weights are
    /// stored as the exact integers the hardware would hold.
    ///
    /// Unlike [`Self::from_float`] nothing is re-quantized: the raw values
    /// are adopted verbatim, so a save → load round trip is bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidTrainingData`] for an empty weight
    /// vector or any raw value outside the format's representable range
    /// (artifacts must not silently wrap corrupted weights into range).
    pub fn from_raw_parts(
        format: QFormat,
        raw_weights: &[i64],
        raw_threshold: i64,
        rounding: RoundingMode,
    ) -> Result<Self> {
        if raw_weights.is_empty() {
            return Err(crate::CoreError::InvalidTrainingData {
                reason: "classifier needs at least one weight".to_string(),
            });
        }
        let check = |raw: i64, what: &str| -> Result<()> {
            if raw < format.min_raw() || raw > format.max_raw() {
                return Err(crate::CoreError::InvalidTrainingData {
                    reason: format!(
                        "{what} raw value {raw} outside {format} range [{}, {}]",
                        format.min_raw(),
                        format.max_raw()
                    ),
                });
            }
            Ok(())
        };
        for &raw in raw_weights {
            check(raw, "weight")?;
        }
        check(raw_threshold, "threshold")?;
        Ok(FixedPointClassifier {
            weights: raw_weights.iter().map(|&r| format.from_raw(r)).collect(),
            threshold: format.from_raw(raw_threshold),
            format,
            rounding,
        })
    }

    /// The classifier's fixed-point format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Word length `K + F` of every register in the datapath.
    pub fn word_length(&self) -> u32 {
        self.format.word_length()
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.weights.len()
    }

    /// The quantized weights.
    pub fn weights(&self) -> &[Fx] {
        &self.weights
    }

    /// The quantized weights as grid-exact real values.
    pub fn weight_values(&self) -> Vec<f64> {
        self.weights.iter().map(Fx::to_f64).collect()
    }

    /// The quantized decision threshold.
    pub fn threshold(&self) -> Fx {
        self.threshold
    }

    /// The rounding mode used for feature quantization and products.
    pub fn rounding(&self) -> RoundingMode {
        self.rounding
    }

    /// Computes the projection `y = wᵀx` on the bit-exact datapath.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_features()` — feature-count mismatch
    /// is a wiring error, not a data condition.
    pub fn project(&self, x: &[f64]) -> Fx {
        assert_eq!(
            x.len(),
            self.num_features(),
            "feature count mismatch: {} vs {}",
            x.len(),
            self.num_features()
        );
        let xq = self.format.quantize_slice(x, self.rounding);
        // Weights and quantized features share `self.format` by construction.
        let (word, _) = mac_row_fx(self.format, self.rounding, &self.weights, &xq);
        self.format.from_raw(word)
    }

    /// Classifies a feature vector: `true` = class A (`y ≥ threshold`,
    /// eq. 12), `false` = class B.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_features()`.
    pub fn classify(&self, x: &[f64]) -> bool {
        self.project(x).raw() >= self.threshold.raw()
    }

    /// The float-reference decision (no quantization of features, exact
    /// arithmetic on the *grid values* of the weights). Used in tests to
    /// quantify how much the datapath itself — not the weight rounding —
    /// changes decisions.
    pub fn classify_float_reference(&self, x: &[f64]) -> bool {
        let score: f64 = self
            .weights
            .iter()
            .zip(x)
            .map(|(w, xi)| w.to_f64() * xi)
            .sum();
        score >= self.threshold.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(k: u32, f: u32) -> QFormat {
        QFormat::new(k, f).unwrap()
    }

    #[test]
    fn construction_quantizes() {
        let clf = FixedPointClassifier::from_float(&[0.3, -0.8], 0.1, fmt(2, 2)).unwrap();
        // Resolution 0.25: 0.3 → 0.25, −0.8 → −0.75, 0.1 → 0.0 (ties-even: 0.1*4=0.4→0)
        assert_eq!(clf.weight_values(), vec![0.25, -0.75]);
        assert_eq!(clf.threshold().to_f64(), 0.0);
        assert_eq!(clf.word_length(), 4);
        assert_eq!(clf.num_features(), 2);
    }

    #[test]
    fn empty_weights_rejected() {
        assert!(FixedPointClassifier::from_float(&[], 0.0, fmt(2, 2)).is_err());
    }

    #[test]
    fn from_raw_parts_roundtrips_bit_identically() {
        let clf = FixedPointClassifier::from_float(&[0.3, -0.8], 0.1, fmt(2, 4)).unwrap();
        let raws: Vec<i64> = clf.weights().iter().map(|w| w.raw()).collect();
        let back = FixedPointClassifier::from_raw_parts(
            clf.format(),
            &raws,
            clf.threshold().raw(),
            clf.rounding(),
        )
        .unwrap();
        assert_eq!(back, clf);
    }

    #[test]
    fn from_raw_parts_rejects_out_of_range_and_empty() {
        let format = fmt(2, 2); // raw range [-8, 7]
        assert!(
            FixedPointClassifier::from_raw_parts(format, &[], 0, RoundingMode::NearestEven)
                .is_err()
        );
        assert!(
            FixedPointClassifier::from_raw_parts(format, &[8], 0, RoundingMode::NearestEven)
                .is_err()
        );
        assert!(
            FixedPointClassifier::from_raw_parts(format, &[0], -9, RoundingMode::NearestEven)
                .is_err()
        );
        assert!(FixedPointClassifier::from_raw_parts(
            format,
            &[-8, 7],
            3,
            RoundingMode::NearestEven
        )
        .is_ok());
    }

    #[test]
    fn classify_sign_convention() {
        // w = (1), T = 0: x ≥ 0 → class A.
        let clf = FixedPointClassifier::from_float(&[1.0], 0.0, fmt(3, 4)).unwrap();
        assert!(clf.classify(&[0.5]));
        assert!(clf.classify(&[0.0])); // boundary goes to A per eq. 12's ≥
        assert!(!clf.classify(&[-0.5]));
    }

    #[test]
    fn project_matches_hand_mac() {
        let format = fmt(3, 2);
        let clf = FixedPointClassifier::from_float(&[1.5, -2.0], 0.0, format).unwrap();
        let y = clf.project(&[1.0, 0.5]);
        // 1.5·1.0 + (−2.0)·0.5 = 0.5 — all values on grid, no rounding.
        assert_eq!(y.to_f64(), 0.5);
    }

    #[test]
    fn wrapping_changes_decisions_at_small_words() {
        // Big weights, big features: the projection wraps and flips signs —
        // the very failure mode the LDA-FP constraints exist to prevent.
        let format = fmt(3, 0); // range [-4, 3]
        let clf = FixedPointClassifier::from_float(&[3.0, 3.0], 0.0, format).unwrap();
        // True score 3+3 = 6 > 0, but wraps to −2 < 0.
        assert!(!clf.classify(&[1.0, 1.0]));
        assert!(clf.classify_float_reference(&[1.0, 1.0]));
    }

    /// `project` serves the traced reference's word: across random
    /// `QK.F` formats, every rounding mode, and weights and features
    /// drawn over the whole range (so products round and sums wrap).
    #[test]
    fn project_matches_traced_reference_all_modes() {
        use ldafp_fixedpoint::mac_dot_traced;
        use ldafp_stats::Rng;
        let mut rng = Rng::new(12);
        let mut wrapped = 0usize;
        for _ in 0..200 {
            let format = fmt(rng.range_i64(1..=16) as u32, rng.range_i64(0..=14) as u32);
            let features = 1 + rng.below(12);
            let (lo, hi) = (format.min_raw(), format.max_raw());
            let weights: Vec<i64> = (0..features).map(|_| rng.range_i64(lo..=hi)).collect();
            let x: Vec<f64> = (0..features)
                .map(|_| rng.range_f64(-1.2..1.2) * format.max_value())
                .collect();
            for mode in [
                RoundingMode::NearestEven,
                RoundingMode::NearestAway,
                RoundingMode::Floor,
                RoundingMode::Ceil,
                RoundingMode::TowardZero,
            ] {
                let clf = FixedPointClassifier::from_raw_parts(format, &weights, 0, mode).unwrap();
                let xq = format.quantize_slice(&x, mode);
                let (want, trace) = mac_dot_traced(clf.weights(), &xq, mode).unwrap();
                assert_eq!(clf.project(&x).raw(), want.raw(), "{format} {mode:?}");
                wrapped += usize::from(trace.intermediate_overflows > 0);
            }
        }
        assert!(wrapped > 100, "the sweep must exercise wraps ({wrapped})");
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn project_checks_length() {
        let clf = FixedPointClassifier::from_float(&[0.5, 0.5], 0.0, fmt(2, 5)).unwrap();
        clf.project(&[1.0]);
    }

    #[test]
    fn high_resolution_matches_float_reference() {
        // At 20+ bits the datapath agrees with the float rule on
        // comfortably-scaled data.
        let format = fmt(4, 20);
        let clf = FixedPointClassifier::from_float(&[0.37, -0.81, 0.22], 0.05, format).unwrap();
        for i in 0..200 {
            let t = i as f64 / 200.0;
            let x = [t - 0.5, 0.3 * t, 0.9 - t];
            assert_eq!(
                clf.classify(&x),
                clf.classify_float_reference(&x),
                "disagreement at t = {t}"
            );
        }
    }
}
