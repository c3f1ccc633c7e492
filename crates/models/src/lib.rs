//! Pluggable fixed-point model families on the shared LDA-FP substrate.
//!
//! The paper's contribution is a *method* — co-designing word lengths and
//! overflow behavior with training — and this crate generalizes it beyond
//! LDA. Every family implements [`FixedPointModel`]: quantized parameters
//! living on a [`QFormat`] grid, an integer-only decision rule running on
//! the same wrapping-MAC datapath as the serving engine, and explicit
//! overflow accounting (overflowed sums + saturated inputs) so that the
//! explore engine can sweep `(family, K, F, rho, rounding)` uniformly.
//!
//! Two concrete families ship here:
//!
//! * [`NaiveBayesModel`] — Gaussian naive Bayes with **integer
//!   log-likelihood tables** indexed by the high bits of each quantized
//!   feature. Training quantizes the samples through the same
//!   grid-rounding path the recovering solver uses, then scales the
//!   tables so the wrapped score accumulation is provably wrap-free
//!   (the `rho` knob reserves headroom, mirroring eq. 18's β(ρ) margin).
//! * [`OsElmModel`] — an online OS-ELM-style sequential learner with a
//!   seeded random fixed-point hidden layer and integer output-weight
//!   updates clamped to [`wrap_free_output_bound`], so both the updates
//!   and the output-layer MACs can never wrap (Tsukada & Matsutani-style
//!   provable bit-width guarantees, searched by [`choose_format`]).
//!
//! The LDA family itself stays in `ldafp-core`; `ldafp-serve` dispatches
//! all three through its `family`-tagged artifact format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod naive_bayes;
mod oselm;

pub use naive_bayes::{NaiveBayesModel, NaiveBayesTrainer};
pub use oselm::{choose_format, wrap_free_output_bound, OsElmConfig, OsElmModel, OsElmTrainer};

use ldafp_fixedpoint::{Fx, InputScale, QFormat, RoundingMode};
use std::fmt;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, ModelError>;

/// The model families the substrate can train, serve and sweep.
///
/// Stable names (used in artifacts, cache keys, CLI flags and obs tags):
/// `"lda"`, `"naive-bayes"`, `"os-elm"`. These strings are part of the
/// on-disk artifact format — never repurpose them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelFamily {
    /// Fixed-point LDA trained by the branch-and-bound search
    /// (`ldafp-core`); the paper's original workload.
    Lda,
    /// Gaussian naive Bayes with integer log-likelihood tables.
    NaiveBayes,
    /// Online OS-ELM-style sequential learner with wrap-free updates.
    OsElm,
}

impl ModelFamily {
    /// Every family, in stable (artifact-name) order.
    pub const ALL: [ModelFamily; 3] = [
        ModelFamily::Lda,
        ModelFamily::NaiveBayes,
        ModelFamily::OsElm,
    ];

    /// The stable artifact/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ModelFamily::Lda => "lda",
            ModelFamily::NaiveBayes => "naive-bayes",
            ModelFamily::OsElm => "os-elm",
        }
    }

    /// Parses a stable name; `None` for anything unknown (callers turn
    /// that into their own positional diagnostic).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "lda" => Some(ModelFamily::Lda),
            "naive-bayes" => Some(ModelFamily::NaiveBayes),
            "os-elm" => Some(ModelFamily::OsElm),
            _ => None,
        }
    }
}

impl fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors reported by model-family training and inference.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A constructor or trainer parameter is out of range. `context`
    /// names the offending parameter positionally (artifact-style).
    InvalidParameter {
        /// Which parameter (e.g. `"hidden_units"`, `"tables[0][2]"`).
        context: String,
        /// What was wrong with it.
        message: String,
    },
    /// A row's feature count does not match the model's.
    FeatureMismatch {
        /// Features the model was trained on.
        expected: usize,
        /// Features the offending row supplied.
        got: usize,
    },
    /// Training failed (degenerate data, infeasible format, …).
    Train(String),
    /// An underlying fixed-point operation failed (format mismatch).
    FixedPoint(ldafp_fixedpoint::FixedPointError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidParameter { context, message } => {
                write!(f, "invalid parameter {context}: {message}")
            }
            ModelError::FeatureMismatch { expected, got } => {
                write!(
                    f,
                    "feature mismatch: model expects {expected}, row has {got}"
                )
            }
            ModelError::Train(msg) => write!(f, "training failed: {msg}"),
            ModelError::FixedPoint(e) => write!(f, "fixed-point error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<ldafp_fixedpoint::FixedPointError> for ModelError {
    fn from(e: ldafp_fixedpoint::FixedPointError) -> Self {
        ModelError::FixedPoint(e)
    }
}

/// One integer-only classification decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Winning class index (ties break to the lowest index).
    pub class_index: usize,
    /// The winning class's raw score on the model's grid (two's
    /// complement, `F` fractional bits) — bit-exact, so serving can be
    /// verified against the in-process datapath.
    pub score_raw: i64,
    /// Scores of this row whose exact sum left the format's range (each
    /// MAC or table sum counts at most once; intermediate wraps are
    /// harmless and not counted).
    pub accumulator_wraps: u64,
}

/// Aggregate outcome of [`FixedPointModel::classify_batch`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Per-row decisions, in input order.
    pub decisions: Vec<Decision>,
    /// Overflowed sums across the batch (see
    /// [`Decision::accumulator_wraps`]).
    pub accumulator_wraps: u64,
    /// Inputs that fell outside the format's representable range and
    /// were saturated during quantization.
    pub saturated_inputs: u64,
}

/// A classifier whose parameters live on a fixed-point grid and whose
/// decision rule runs integer-only on the wrapping-MAC datapath.
///
/// The contract (DESIGN.md §13):
///
/// 1. `classify_quantized` consumes *already quantized* rows in the
///    model's own [`QFormat`] and must perform only integer arithmetic —
///    wrapping adds/MACs on raw two's-complement words — so hardware and
///    the serving engine reproduce it bit-exactly.
/// 2. Every sum whose exact value leaves the format's range must be
///    counted in [`Decision::accumulator_wraps`], even when the family's
///    training guarantees the count is zero (the proof is checked, not
///    assumed). Intermediate wraps do not change the final word and are
///    not counted.
/// 3. `classify` and `classify_batch` quantize floats with the model's
///    own rounding mode and count range saturations, mirroring the
///    serving engine's input path.
pub trait FixedPointModel {
    /// Which family this model belongs to.
    fn family(&self) -> ModelFamily;
    /// The fixed-point format all parameters and scores live in.
    fn format(&self) -> QFormat;
    /// Rounding mode used for input quantization and MAC products.
    fn rounding(&self) -> RoundingMode;
    /// Number of input features.
    fn num_features(&self) -> usize;
    /// Number of classes the decision rule separates.
    fn num_classes(&self) -> usize;

    /// Integer-only decision over a quantized row.
    ///
    /// # Errors
    ///
    /// [`ModelError::FeatureMismatch`] when `xq.len()` differs from
    /// [`Self::num_features`]; [`ModelError::FixedPoint`] if a value's
    /// format disagrees with the model's.
    fn classify_quantized(&self, xq: &[Fx]) -> Result<Decision>;

    /// Quantizes a float row with the model's format/rounding, then
    /// classifies it. Mirrors the serving engine's input path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::classify_quantized`].
    fn classify(&self, x: &[f64]) -> Result<Decision> {
        self.classify_quantized(&self.format().quantize_slice(x, self.rounding()))
    }

    /// Classifies a batch, accumulating overflow statistics.
    ///
    /// # Errors
    ///
    /// Fails on the first row whose feature count mismatches.
    fn classify_batch(&self, rows: &[Vec<f64>]) -> Result<BatchOutcome> {
        let format = self.format();
        let mode = self.rounding();
        let mut out = BatchOutcome {
            decisions: Vec::with_capacity(rows.len()),
            ..BatchOutcome::default()
        };
        let (mut words, mut xq) = (Vec::new(), Vec::new());
        for row in rows {
            words.resize(row.len(), 0);
            out.saturated_inputs +=
                format.quantize_into(row, InputScale::Identity, mode, &mut words);
            xq.clear();
            xq.extend(words.iter().map(|&w| format.from_raw(w)));
            let d = self.classify_quantized(&xq)?;
            out.accumulator_wraps += d.accumulator_wraps;
            out.decisions.push(d);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_round_trip() {
        for fam in ModelFamily::ALL {
            assert_eq!(ModelFamily::from_name(fam.name()), Some(fam));
            assert_eq!(fam.to_string(), fam.name());
        }
        assert_eq!(ModelFamily::from_name("quantum-forest"), None);
        assert_eq!(ModelFamily::from_name(""), None);
    }

    #[test]
    fn kernel_wrap_once_flags_exactly_the_out_of_range_sums() {
        // The families finish their exact sums through the serving
        // kernels' WrapCtx; pin its semantics from this side of the crate
        // boundary.
        let q = QFormat::new(3, 0).unwrap(); // raw range [-4, 3]
        let ctx = ldafp_kernels::WrapCtx::new(q);
        assert_eq!(ctx.wrap_once(4), (-4, true));
        assert_eq!(ctx.wrap_once(3), (3, false));
        assert_eq!(ctx.wrap_once(-4), (-4, false));
        assert_eq!(ctx.wrap_once(-5), (3, true));
        // 3 + 3 − 4 wraps twice step by step, but the exact sum is 2.
        assert_eq!(ctx.wrap_once(3 + 3 - 4), (2, false));
    }
}
