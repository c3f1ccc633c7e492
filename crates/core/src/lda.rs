use crate::{CoreError, FixedPointClassifier, Result};
use ldafp_datasets::BinaryDataset;
use ldafp_fixedpoint::QFormat;
use ldafp_linalg::moments::BinaryClassMoments;
use ldafp_linalg::{vecops, Cholesky};

/// Conventional linear discriminant analysis (the paper's baseline).
///
/// Training solves eq. 11, `w ∝ S_W⁻¹(μ_A − μ_B)`, normalizes `w` to unit
/// length and sets the threshold at the projected class midpoint (eq. 12).
/// Quantizing the result after the fact ([`LdaModel::quantized`]) is exactly
/// the "conventional approach" that Tables 1–2 show collapsing at small
/// word lengths.
///
/// # Example
///
/// ```
/// use ldafp_core::LdaModel;
/// use ldafp_datasets::demo2d;
///
/// # fn main() -> Result<(), ldafp_core::CoreError> {
/// let mut rng = ldafp_stats::Rng::new(0);
/// let data = demo2d::well_separated(100, &mut rng);
/// let lda = LdaModel::train(&data)?;
/// assert_eq!(lda.weights().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LdaModel {
    weights: Vec<f64>,
    threshold: f64,
    fisher_cost: f64,
}

impl LdaModel {
    /// Trains conventional LDA on float features.
    ///
    /// A tiny relative ridge rescues singular within-class scatter (more
    /// features than trials — the BCI regime), matching standard practice.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidTrainingData`] when the class means coincide
    ///   (no direction separates the classes) or scatter factorization
    ///   fails even with the ridge.
    pub fn train(data: &BinaryDataset) -> Result<Self> {
        let m = BinaryClassMoments::from_samples(&data.class_a, &data.class_b)?;
        Self::from_moments(&m)
    }

    /// Trains shrinkage-regularized LDA: the within-class scatter is
    /// replaced by the convex combination
    /// `(1 − γ)·S_W + γ·(tr(S_W)/M)·I` before solving eq. 11.
    ///
    /// Shrinkage (`γ ∈ [0, 1]`) is the standard remedy for the
    /// high-dimension/low-trial regime of the paper's BCI application
    /// (42 features, 140 trials), where the plain scatter estimate is
    /// ill-conditioned. `γ = 0` reduces to [`LdaModel::train`]; `γ = 1`
    /// uses only the diagonal energy (nearest-mean-like).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidTrainingData`] for `γ` outside `[0, 1]` or
    ///   degenerate data (same failure modes as [`LdaModel::train`]).
    pub fn train_shrinkage(data: &BinaryDataset, gamma: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&gamma) {
            return Err(CoreError::InvalidTrainingData {
                reason: format!("shrinkage gamma must be in [0, 1], got {gamma}"),
            });
        }
        let mut m = BinaryClassMoments::from_samples(&data.class_a, &data.class_b)?;
        let n = m.s_w.rows();
        let target = m.s_w.trace() / n as f64;
        let mut shrunk = m.s_w.scaled(1.0 - gamma);
        for i in 0..n {
            shrunk[(i, i)] += gamma * target;
        }
        m.s_w = shrunk;
        Self::from_moments(&m)
    }

    /// Trains from precomputed class moments (used by the LDA-FP pipeline,
    /// which computes moments from *quantized* data).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`LdaModel::train`].
    pub fn from_moments(m: &BinaryClassMoments) -> Result<Self> {
        if vecops::norm2(&m.mean_diff) == 0.0 {
            return Err(CoreError::InvalidTrainingData {
                reason: "class means coincide; no discriminant direction exists".to_string(),
            });
        }
        let (chol, _ridge) = Cholesky::new_with_ridge(&m.s_w, 1e-9)?;
        let w_raw = chol.solve(&m.mean_diff)?;
        let weights = vecops::normalized(&w_raw).ok_or_else(|| CoreError::InvalidTrainingData {
            reason: "scatter solve produced a zero direction".to_string(),
        })?;
        let threshold = vecops::dot(&weights, &m.midpoint());
        let fisher_cost = m.fisher_cost(&weights)?;
        Ok(LdaModel {
            weights,
            threshold,
            fisher_cost,
        })
    }

    /// The unit-length float weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The float decision threshold `wᵀ(μ_A + μ_B)/2`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Fisher cost `J(w)` of the float solution (the optimum of eq. 10).
    pub fn fisher_cost(&self) -> f64 {
        self.fisher_cost
    }

    /// Float-arithmetic decision for a feature vector (`true` = class A).
    ///
    /// # Panics
    ///
    /// Panics on feature-count mismatch.
    pub fn classify(&self, x: &[f64]) -> bool {
        vecops::dot(&self.weights, x) >= self.threshold
    }

    /// The conventional fixed-point flow: round the trained weights and
    /// threshold into `format` (paper §2's "rounded to its fixed-point
    /// representation").
    ///
    /// # Panics
    ///
    /// Never panics: weights are non-empty by construction.
    pub fn quantized(&self, format: QFormat) -> FixedPointClassifier {
        FixedPointClassifier::from_float(&self.weights, self.threshold, format)
            .expect("trained model always has weights")
    }

    /// Like [`Self::quantized`], but first rescales the weight vector by
    /// `scale` (and the threshold with it — the decision rule is invariant
    /// to a positive rescaling in exact arithmetic, but emphatically not
    /// after rounding). This is the "scaled rounding" heuristic knob.
    pub fn quantized_scaled(&self, scale: f64, format: QFormat) -> FixedPointClassifier {
        let w: Vec<f64> = vecops::scale(&self.weights, scale);
        FixedPointClassifier::from_float(&w, self.threshold * scale, format)
            .expect("trained model always has weights")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_linalg::Matrix;

    fn separable() -> BinaryDataset {
        // Class A around (−1, 0), class B around (1, 0).
        BinaryDataset::new(
            Matrix::from_rows(&[&[-1.2, 0.1], &[-0.8, -0.2], &[-1.0, 0.3], &[-1.1, -0.1]]).unwrap(),
            Matrix::from_rows(&[&[1.2, 0.2], &[0.8, -0.1], &[1.0, -0.3], &[0.9, 0.1]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn trains_unit_norm_direction() {
        let lda = LdaModel::train(&separable()).unwrap();
        assert!((vecops::norm2(lda.weights()) - 1.0).abs() < 1e-12);
        // Direction points from B to A on feature 0 (μ_A − μ_B < 0).
        assert!(lda.weights()[0] < 0.0);
    }

    #[test]
    fn classifies_training_data_correctly() {
        let data = separable();
        let lda = LdaModel::train(&data).unwrap();
        for (x, label) in data.iter_labeled() {
            let is_a = matches!(label, ldafp_datasets::ClassLabel::A);
            assert_eq!(lda.classify(x), is_a, "x = {x:?}");
        }
    }

    #[test]
    fn midpoint_threshold() {
        let data = separable();
        let lda = LdaModel::train(&data).unwrap();
        let m = BinaryClassMoments::from_samples(&data.class_a, &data.class_b).unwrap();
        let expect = vecops::dot(lda.weights(), &m.midpoint());
        assert!((lda.threshold() - expect).abs() < 1e-12);
    }

    #[test]
    fn identical_means_rejected() {
        let same = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 0.0], &[-1.0, 1.0]]).unwrap();
        let d = BinaryDataset::new(same.clone(), same).unwrap();
        assert!(matches!(
            LdaModel::train(&d),
            Err(CoreError::InvalidTrainingData { .. })
        ));
    }

    #[test]
    fn singular_scatter_rescued_by_ridge() {
        // Two features perfectly correlated: S_W is rank 1.
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 5.0], &[6.0, 6.0], &[7.0, 7.0]]).unwrap();
        let d = BinaryDataset::new(a, b).unwrap();
        let lda = LdaModel::train(&d).unwrap();
        assert!(vecops::is_finite(lda.weights()));
    }

    #[test]
    fn quantized_roundtrip_preserves_decisions_at_high_precision() {
        let data = separable();
        let lda = LdaModel::train(&data).unwrap();
        let clf = lda.quantized(QFormat::new(3, 20).unwrap());
        for (x, _) in data.iter_labeled() {
            assert_eq!(lda.classify(x), clf.classify(x), "x = {x:?}");
        }
    }

    #[test]
    fn quantized_scaled_changes_grid_point() {
        let data = separable();
        let lda = LdaModel::train(&data).unwrap();
        let format = QFormat::new(2, 2).unwrap(); // coarse grid
        let a = lda.quantized_scaled(1.0, format);
        let b = lda.quantized_scaled(1.6, format);
        assert_ne!(a.weight_values(), b.weight_values());
    }

    #[test]
    fn shrinkage_zero_matches_plain_lda() {
        let data = separable();
        let plain = LdaModel::train(&data).unwrap();
        let shrunk = LdaModel::train_shrinkage(&data, 0.0).unwrap();
        for (a, b) in plain.weights().iter().zip(shrunk.weights()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn shrinkage_one_is_mean_difference_direction() {
        let data = separable();
        let shrunk = LdaModel::train_shrinkage(&data, 1.0).unwrap();
        // With S_W ∝ I, the LDA direction is the (normalized) mean diff.
        let m = BinaryClassMoments::from_samples(&data.class_a, &data.class_b).unwrap();
        let d = vecops::normalized(&m.mean_diff).unwrap();
        let cos: f64 = vecops::dot(shrunk.weights(), &d).abs();
        assert!(cos > 0.999, "cosine {cos}");
    }

    #[test]
    fn shrinkage_validates_gamma() {
        let data = separable();
        assert!(LdaModel::train_shrinkage(&data, -0.1).is_err());
        assert!(LdaModel::train_shrinkage(&data, 1.1).is_err());
        assert!(LdaModel::train_shrinkage(&data, 0.5).is_ok());
    }

    #[test]
    fn shrinkage_still_separates_training_data() {
        let data = separable();
        let model = LdaModel::train_shrinkage(&data, 0.3).unwrap();
        for (x, label) in data.iter_labeled() {
            let is_a = matches!(label, ldafp_datasets::ClassLabel::A);
            assert_eq!(model.classify(x), is_a);
        }
    }

    #[test]
    fn fisher_cost_is_the_continuous_optimum() {
        // Any other direction must have cost ≥ the trained one.
        let data = separable();
        let lda = LdaModel::train(&data).unwrap();
        let m = BinaryClassMoments::from_samples(&data.class_a, &data.class_b).unwrap();
        for probe in [[1.0, 0.0], [0.0, 1.0], [0.7, -0.7], [-0.9, 0.1]] {
            let j = m.fisher_cost(&probe).unwrap();
            assert!(
                j >= lda.fisher_cost() - 1e-9,
                "probe {probe:?} has lower cost"
            );
        }
    }
}
