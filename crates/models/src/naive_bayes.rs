//! Fixed-point Gaussian naive Bayes with integer log-likelihood tables.
//!
//! Training estimates per-class, per-feature Gaussian moments from samples
//! quantized through the same grid-rounding path the recovering solver
//! uses ([`TrainingProblem::from_dataset`] quantizes identically), tabulates
//! the log-likelihood over `2^index_bits` buckets spanning the format's
//! range, and then centers + scales the tables so the wrapped integer
//! score accumulation is **provably wrap-free**: the worst-case absolute
//! score (sum of per-feature maxima plus the prior) is held below
//! `rho · (max_value − (M+1)·resolution)`, reserving both the eq. 18-style
//! `rho` headroom and one quantization step of slack per summed term.
//!
//! Inference is pure integer: bucket each quantized feature by its high
//! bits, sum the table words exactly, wrap the sum once into the word
//! length (flagging a sum outside the range), pick the argmax.

use crate::{Decision, FixedPointModel, ModelError, ModelFamily, Result};
use ldafp_datasets::{BinaryDataset, ClassLabel};
use ldafp_fixedpoint::{Fx, InputScale, QFormat, RoundingMode};
use ldafp_linalg::Matrix;
use ldafp_obs as obs;
use std::time::Instant;

/// Widest bucket index the auto-sizing picks: 2^8 table rows per feature
/// keeps tables SRAM-sized even for Q16+ formats.
const MAX_AUTO_INDEX_BITS: u32 = 8;

/// A trained fixed-point Gaussian naive Bayes classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayesModel {
    format: QFormat,
    rounding: RoundingMode,
    index_bits: u32,
    num_features: usize,
    /// `tables[class][feature][bucket]`: raw log-likelihood words.
    tables: Vec<Vec<Vec<i64>>>,
    /// `priors[class]`: raw log-prior words.
    priors: Vec<i64>,
}

impl NaiveBayesModel {
    /// Reassembles a model from raw two's-complement table words, e.g.
    /// when loading a serialized artifact. Adopts every word verbatim so
    /// reloaded models classify bit-identically.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] with a positional `context` when
    /// shapes disagree, `index_bits` is out of range, or any raw word
    /// falls outside the format's representable range.
    pub fn from_raw_parts(
        format: QFormat,
        rounding: RoundingMode,
        index_bits: u32,
        tables: Vec<Vec<Vec<i64>>>,
        priors: Vec<i64>,
    ) -> Result<Self> {
        if index_bits == 0 || index_bits > format.word_length() {
            return Err(ModelError::InvalidParameter {
                context: "index_bits".to_string(),
                message: format!(
                    "must be in 1..={} for {}-bit words, got {index_bits}",
                    format.word_length(),
                    format.word_length()
                ),
            });
        }
        if tables.len() < 2 {
            return Err(ModelError::InvalidParameter {
                context: "tables".to_string(),
                message: format!("need at least 2 classes, got {}", tables.len()),
            });
        }
        if priors.len() != tables.len() {
            return Err(ModelError::InvalidParameter {
                context: "priors".to_string(),
                message: format!("{} priors for {} classes", priors.len(), tables.len()),
            });
        }
        let num_features = tables[0].len();
        if num_features == 0 {
            return Err(ModelError::InvalidParameter {
                context: "tables[0]".to_string(),
                message: "need at least one feature".to_string(),
            });
        }
        let buckets = 1usize << index_bits;
        let (lo, hi) = (format.min_raw(), format.max_raw());
        for (c, class_table) in tables.iter().enumerate() {
            if class_table.len() != num_features {
                return Err(ModelError::InvalidParameter {
                    context: format!("tables[{c}]"),
                    message: format!(
                        "class has {} feature tables, class 0 has {num_features}",
                        class_table.len()
                    ),
                });
            }
            for (j, feature_table) in class_table.iter().enumerate() {
                if feature_table.len() != buckets {
                    return Err(ModelError::InvalidParameter {
                        context: format!("tables[{c}][{j}]"),
                        message: format!(
                            "feature table has {} buckets, index_bits={index_bits} needs {buckets}",
                            feature_table.len()
                        ),
                    });
                }
                for (b, raw) in feature_table.iter().enumerate() {
                    if *raw < lo || *raw > hi {
                        return Err(ModelError::InvalidParameter {
                            context: format!("tables[{c}][{j}][{b}]"),
                            message: format!("raw word {raw} outside [{lo}, {hi}]"),
                        });
                    }
                }
            }
        }
        for (c, raw) in priors.iter().enumerate() {
            if *raw < lo || *raw > hi {
                return Err(ModelError::InvalidParameter {
                    context: format!("priors[{c}]"),
                    message: format!("raw word {raw} outside [{lo}, {hi}]"),
                });
            }
        }
        Ok(NaiveBayesModel {
            format,
            rounding,
            index_bits,
            num_features,
            tables,
            priors,
        })
    }

    /// Table rows per feature are indexed by this many high bits of the
    /// quantized feature word.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Raw table words, `[class][feature][bucket]` — for serialization.
    pub fn tables_raw(&self) -> &[Vec<Vec<i64>>] {
        &self.tables
    }

    /// Raw log-prior words, one per class — for serialization.
    pub fn priors_raw(&self) -> &[i64] {
        &self.priors
    }

    /// Maps a raw feature word to its table bucket (its high
    /// `index_bits` bits, offset so the most negative word is bucket 0).
    fn bucket_of(&self, raw: i64) -> usize {
        let shift = self.format.word_length() - self.index_bits;
        let idx = ((raw - self.format.min_raw()).max(0) >> shift) as usize;
        idx.min((1usize << self.index_bits) - 1)
    }

    /// Fraction of `data` rows the model misclassifies (class A = 0).
    pub fn error_rate(&self, data: &BinaryDataset) -> f64 {
        error_rate_of(self, data)
    }
}

impl FixedPointModel for NaiveBayesModel {
    fn family(&self) -> ModelFamily {
        ModelFamily::NaiveBayes
    }

    fn format(&self) -> QFormat {
        self.format
    }

    fn rounding(&self) -> RoundingMode {
        self.rounding
    }

    fn num_features(&self) -> usize {
        self.num_features
    }

    fn num_classes(&self) -> usize {
        self.tables.len()
    }

    fn classify_quantized(&self, xq: &[Fx]) -> Result<Decision> {
        if xq.len() != self.num_features {
            return Err(ModelError::FeatureMismatch {
                expected: self.num_features,
                got: xq.len(),
            });
        }
        let mut best = Decision {
            class_index: 0,
            score_raw: i64::MIN,
            accumulator_wraps: 0,
        };
        let mut total_wraps = 0u64;
        // One wrap context for the whole row — the same wrap-once finish
        // the batched GEMM kernels run, hoisted out of the scoring loops.
        let ctx = ldafp_kernels::WrapCtx::new(self.format);
        for (c, class_table) in self.tables.iter().enumerate() {
            // In-range words summed exactly: `i64` holds far more than
            // any feature count's worth of them.
            let mut sum = self.priors[c];
            for (j, x) in xq.iter().enumerate() {
                if x.format() != self.format {
                    return Err(ModelError::FixedPoint(
                        ldafp_fixedpoint::FixedPointError::FormatMismatch {
                            left: (self.format.k(), self.format.f()),
                            right: (x.format().k(), x.format().f()),
                        },
                    ));
                }
                sum += class_table[j][self.bucket_of(x.raw())];
            }
            let (acc, overflowed) = ctx.wrap_once(sum);
            total_wraps += u64::from(overflowed);
            // Strict `>` keeps ties on the lowest class index.
            if c == 0 || acc > best.score_raw {
                best.class_index = c;
                best.score_raw = acc;
            }
        }
        best.accumulator_wraps = total_wraps;
        Ok(best)
    }
}

/// Trains [`NaiveBayesModel`]s from binary datasets.
#[derive(Debug, Clone, Copy)]
pub struct NaiveBayesTrainer {
    /// Fixed-point format for inputs, tables and scores.
    pub format: QFormat,
    /// Rounding mode for sample quantization and table quantization.
    pub rounding: RoundingMode,
    /// Overflow-headroom confidence knob, `(0, 1]`: tables are scaled so
    /// the worst-case score magnitude stays below `rho` times the
    /// wrap-free budget (mirrors eq. 18's β(ρ) margin for LDA).
    pub rho: f64,
    /// Bucket index width; `0` auto-sizes to `min(word_length, 8)`.
    pub index_bits: u32,
}

impl NaiveBayesTrainer {
    /// A trainer with auto-sized tables.
    pub fn new(format: QFormat, rounding: RoundingMode, rho: f64) -> Self {
        NaiveBayesTrainer {
            format,
            rounding,
            rho,
            index_bits: 0,
        }
    }

    /// Trains a model. Deterministic: same data + config ⇒ bit-identical
    /// tables.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] on a bad `rho`/`index_bits`;
    /// [`ModelError::Train`] when the format is too narrow to hold
    /// wrap-free tables for this feature count.
    pub fn train(&self, data: &BinaryDataset) -> Result<NaiveBayesModel> {
        let start = Instant::now();
        if !(self.rho > 0.0 && self.rho <= 1.0) {
            return Err(ModelError::InvalidParameter {
                context: "rho".to_string(),
                message: format!("must be in (0, 1], got {}", self.rho),
            });
        }
        let format = self.format;
        let index_bits = if self.index_bits == 0 {
            format.word_length().min(MAX_AUTO_INDEX_BITS)
        } else if self.index_bits <= format.word_length() {
            self.index_bits
        } else {
            return Err(ModelError::InvalidParameter {
                context: "index_bits".to_string(),
                message: format!(
                    "must be <= word length {}, got {}",
                    format.word_length(),
                    self.index_bits
                ),
            });
        };
        let m = data.num_features();
        let (na, nb) = data.class_sizes();
        if obs::enabled() {
            obs::emit(
                obs::Event::new("train.start")
                    .with("family", ModelFamily::NaiveBayes.name())
                    .with("format", format.to_string())
                    .with("features", m)
                    .with("rows", na + nb),
            );
        }

        // Same quantization path as the recovering solver's
        // TrainingProblem: snap every sample onto the format grid before
        // estimating moments, so the tables model the datapath's view of
        // the data rather than the ideal floats.
        let class_moments = |class: &Matrix| -> Vec<(f64, f64)> {
            let n = class.rows() as f64;
            (0..m)
                .map(|j| {
                    let mut mean = 0.0;
                    for i in 0..class.rows() {
                        mean += format.round_to_grid(class[(i, j)], self.rounding);
                    }
                    mean /= n;
                    let mut var = 0.0;
                    for i in 0..class.rows() {
                        let d = format.round_to_grid(class[(i, j)], self.rounding) - mean;
                        var += d * d;
                    }
                    (mean, var / n)
                })
                .collect()
        };
        let stats = [class_moments(&data.class_a), class_moments(&data.class_b)];

        // Quantization-noise variance floor: a feature constant on the
        // grid still carries ±resolution/2 of rounding uncertainty.
        let res = format.resolution();
        let var_floor = (res * res / 12.0).max(1e-12);

        let buckets = 1usize << index_bits;
        let shift = format.word_length() - index_bits;
        let bucket_width = res * (1u64 << shift) as f64;
        let base = format.min_value();

        // Float log-likelihood tables over bucket centers, then a
        // decision-invariant normalization: per-feature midrange centering
        // (shifting all classes equally never changes the argmax) followed
        // by one shared positive scale chosen for wrap-free accumulation.
        let mut float_tables = vec![vec![vec![0.0f64; buckets]; m]; 2];
        for (c, table) in float_tables.iter_mut().enumerate() {
            for (j, feature) in table.iter_mut().enumerate() {
                let (mean, var) = stats[c][j];
                let var = var.max(var_floor);
                let norm = -0.5 * (2.0 * std::f64::consts::PI * var).ln();
                for (b, slot) in feature.iter_mut().enumerate() {
                    let center = base + (b as f64 + 0.5) * bucket_width;
                    let d = center - mean;
                    *slot = norm - d * d / (2.0 * var);
                }
            }
        }
        let total = (na + nb) as f64;
        let mut float_priors = [(na as f64 / total).ln(), (nb as f64 / total).ln()];
        let prior_mid = (float_priors[0] + float_priors[1]) / 2.0;
        float_priors[0] -= prior_mid;
        float_priors[1] -= prior_mid;

        let mut worst = float_priors[0].abs().max(float_priors[1].abs());
        for j in 0..m {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for table in &float_tables {
                for v in &table[j] {
                    lo = lo.min(*v);
                    hi = hi.max(*v);
                }
            }
            let mid = (lo + hi) / 2.0;
            for table in float_tables.iter_mut() {
                for v in table[j].iter_mut() {
                    *v -= mid;
                }
            }
            worst += (hi - mid).abs().max((lo - mid).abs());
        }

        // Wrap-free budget: rho headroom plus one rounding step of slack
        // per summed term (M feature words + the prior word).
        let budget = self.rho * (format.max_value() - (m as f64 + 1.0) * res);
        if budget <= 0.0 {
            return Err(ModelError::Train(format!(
                "format {format} too narrow for wrap-free naive Bayes tables over {m} features"
            )));
        }
        let scale = if worst > 0.0 { budget / worst } else { 1.0 };

        let quantize = |values: &[f64]| {
            let mut words = vec![0; values.len()];
            format.quantize_into(
                values,
                InputScale::Uniform(scale),
                self.rounding,
                &mut words,
            );
            words
        };
        let tables: Vec<Vec<Vec<i64>>> = float_tables
            .iter()
            .map(|table| table.iter().map(|feature| quantize(feature)).collect())
            .collect();
        let priors = quantize(&float_priors);

        let model = NaiveBayesModel {
            format,
            rounding: self.rounding,
            index_bits,
            num_features: m,
            tables,
            priors,
        };
        if obs::enabled() {
            obs::emit(
                obs::Event::new("train.done")
                    .with("family", ModelFamily::NaiveBayes.name())
                    .with("format", format.to_string())
                    .with("elapsed_us", start.elapsed().as_micros() as u64),
            );
        }
        Ok(model)
    }
}

/// Shared error-rate helper over any family.
pub(crate) fn error_rate_of<M: FixedPointModel>(model: &M, data: &BinaryDataset) -> f64 {
    let mut wrong = 0usize;
    let mut total = 0usize;
    for (row, label) in data.iter_labeled() {
        let want = match label {
            ClassLabel::A => 0,
            ClassLabel::B => 1,
        };
        if let Ok(d) = model.classify(row) {
            wrong += (d.class_index != want) as usize;
        } else {
            wrong += 1;
        }
        total += 1;
    }
    if total == 0 {
        0.0
    } else {
        wrong as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data() -> BinaryDataset {
        let a = Matrix::from_rows(&[&[-0.5, 0.3], &[-0.4, 0.2], &[-0.6, 0.25]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, -0.3], &[0.45, -0.2], &[0.55, -0.35]]).unwrap();
        BinaryDataset::new(a, b).unwrap()
    }

    #[test]
    fn trains_and_separates_the_toy_problem() {
        let q = QFormat::new(2, 6).unwrap();
        let trainer = NaiveBayesTrainer::new(q, RoundingMode::NearestEven, 0.95);
        let model = trainer.train(&toy_data()).unwrap();
        assert_eq!(model.num_classes(), 2);
        assert_eq!(model.num_features(), 2);
        assert_eq!(model.error_rate(&toy_data()), 0.0);
    }

    #[test]
    fn scoring_never_wraps_by_construction() {
        let q = QFormat::new(3, 5).unwrap();
        let trainer = NaiveBayesTrainer::new(q, RoundingMode::Floor, 1.0);
        let model = trainer.train(&toy_data()).unwrap();
        // Every representable input, not just training rows.
        for x0 in q.enumerate() {
            let d = model.classify_quantized(&[x0, q.zero()]).unwrap();
            assert_eq!(d.accumulator_wraps, 0);
        }
    }

    #[test]
    fn raw_round_trip_is_bit_identical() {
        let q = QFormat::new(2, 6).unwrap();
        let trainer = NaiveBayesTrainer::new(q, RoundingMode::NearestEven, 0.9);
        let model = trainer.train(&toy_data()).unwrap();
        let rebuilt = NaiveBayesModel::from_raw_parts(
            q,
            model.rounding(),
            model.index_bits(),
            model.tables_raw().to_vec(),
            model.priors_raw().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, model);
        for x in q.enumerate() {
            for y in [q.zero(), x] {
                let a = model.classify_quantized(&[x, y]).unwrap();
                let b = rebuilt.classify_quantized(&[x, y]).unwrap();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn from_raw_parts_rejects_out_of_range_words_positionally() {
        let q = QFormat::new(2, 4).unwrap();
        let bad = q.max_raw() + 1;
        let tables = vec![vec![vec![0; 64]; 1], vec![vec![0; 64]; 1]];
        let mut corrupt = tables.clone();
        corrupt[1][0][3] = bad;
        let err = NaiveBayesModel::from_raw_parts(q, RoundingMode::Floor, 6, corrupt, vec![0, 0])
            .unwrap_err();
        match err {
            ModelError::InvalidParameter { context, .. } => {
                assert_eq!(context, "tables[1][0][3]");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn feature_mismatch_is_an_error_not_a_panic() {
        let q = QFormat::new(2, 6).unwrap();
        let trainer = NaiveBayesTrainer::new(q, RoundingMode::NearestEven, 0.9);
        let model = trainer.train(&toy_data()).unwrap();
        let err = model.classify_quantized(&[q.zero()]).unwrap_err();
        assert!(matches!(
            err,
            ModelError::FeatureMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn training_is_deterministic() {
        let q = QFormat::new(2, 7).unwrap();
        let trainer = NaiveBayesTrainer::new(q, RoundingMode::NearestAway, 0.99);
        let a = trainer.train(&toy_data()).unwrap();
        let b = trainer.train(&toy_data()).unwrap();
        assert_eq!(a, b);
    }
}
