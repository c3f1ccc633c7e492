//! Online OS-ELM-style sequential learner with provably wrap-free updates.
//!
//! The architecture follows the OS-ELM digital circuits of Tsukada &
//! Matsutani (PAPERS.md): a fixed random hidden layer maps quantized
//! inputs through the wrapping-MAC datapath, and only the output layer
//! learns — sequentially, one sample at a time, in pure integer
//! arithmetic. Where their work derives bit-widths that make the circuit
//! provably overflow-free, here the output-layer weights are clamped to
//! [`wrap_free_output_bound`]: the largest raw magnitude `B` such that
//! `H · (⌊B · max_raw / 2^F⌋ + 1) ≤ max_raw`, which guarantees no MAC
//! partial sum over `H` hidden units can ever leave the representable
//! range, for *any* input. [`choose_format`] searches `(K, F)` splits
//! against that bound the same way the B&B word-length machinery walks
//! formats against eq. 18's overflow constraint: monotone bound, prune on
//! first violation. The statistical eq. 18 check itself is available via
//! [`OsElmTrainer::certify_output_layer`], which routes the hidden-layer
//! activations through `ldafp-core`'s [`TrainingProblem`].

use crate::naive_bayes::error_rate_of;
use crate::{Decision, FixedPointModel, ModelError, ModelFamily, Result};
use ldafp_core::TrainingProblem;
use ldafp_datasets::BinaryDataset;
use ldafp_fixedpoint::{Fx, QFormat, RoundingMode};
use ldafp_kernels::mac_row_fx;
use ldafp_linalg::Matrix;
use ldafp_obs as obs;
use ldafp_stats::Rng;
use std::time::Instant;

/// The largest output-weight raw magnitude that keeps every output-layer
/// MAC over `hidden_units` terms wrap-free.
///
/// Each MAC step contributes a product word of magnitude at most
/// `⌊|β| · max_raw / 2^F⌋ + 1` (the `+1` absorbs product rounding), so if
/// `hidden_units` such terms summed with one sign still fit in
/// `max_raw`, no partial sum — under any sign pattern — can wrap.
/// Returns `0` when the format cannot support even ±1 weights.
pub fn wrap_free_output_bound(format: QFormat, hidden_units: usize) -> i64 {
    if hidden_units == 0 {
        return 0;
    }
    let max_raw = format.max_raw() as i128;
    let per_term_cap = max_raw / hidden_units as i128;
    if per_term_cap < 1 {
        return 0;
    }
    // ⌊B·max_raw/2^F⌋ + 1 ≤ cap  ⟺  B·max_raw ≤ (cap·2^F) − 1.
    let b = ((per_term_cap << format.f()) - 1) / max_raw;
    b.clamp(0, max_raw) as i64
}

/// Searches `word_length`-bit `(K, F)` splits for the most precise format
/// whose wrap-free output bound still leaves useful weight range.
///
/// The bound is monotone in `K` (more integer bits ⇒ more headroom), so
/// the search walks fractional bits downward and prunes the rest of the
/// branch the moment the bound clears the target — the same
/// overflow-constraint pruning the B&B word-length sweep applies to
/// eq. 18. Prefers a bound of at least 8 quanta (room for the sequential
/// updates to move), falling back to the first split with any admissible
/// weight at all.
///
/// # Errors
///
/// [`ModelError::Train`] when no split of `word_length` bits admits a
/// nonzero wrap-free weight for `hidden_units`.
pub fn choose_format(word_length: u32, hidden_units: usize) -> Result<QFormat> {
    const USEFUL_BOUND: i64 = 8;
    let mut fallback = None;
    for k in 1..word_length {
        let f = word_length - k;
        let Ok(q) = QFormat::new(k, f) else { continue };
        let bound = wrap_free_output_bound(q, hidden_units);
        if bound >= USEFUL_BOUND {
            // Most fractional bits first: the first hit is optimal and
            // every remaining (larger-K) split is pruned.
            return Ok(q);
        }
        if bound >= 1 && fallback.is_none() {
            fallback = Some(q);
        }
    }
    fallback.ok_or_else(|| {
        ModelError::Train(format!(
            "no {word_length}-bit (K, F) split admits wrap-free output weights \
             for {hidden_units} hidden units"
        ))
    })
}

/// A trained (and still online-trainable) OS-ELM-style classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct OsElmModel {
    format: QFormat,
    rounding: RoundingMode,
    seed: u64,
    lr_shift: u32,
    weight_bound_raw: i64,
    /// `[hidden][feature]` random projection, fixed after seeding.
    input_weights: Vec<Vec<Fx>>,
    /// `[class][hidden]` learned output weights, |raw| ≤ bound.
    output_weights: Vec<Vec<Fx>>,
}

impl OsElmModel {
    /// Reassembles a model from raw two's-complement words (artifact
    /// loading). Adopts every word verbatim so reloaded models classify
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] with a positional `context` on
    /// shape mismatches, words outside the format range, an output word
    /// above `weight_bound_raw`, or a bound above what
    /// [`wrap_free_output_bound`] allows (which would void the wrap-free
    /// guarantee).
    pub fn from_raw_parts(
        format: QFormat,
        rounding: RoundingMode,
        seed: u64,
        lr_shift: u32,
        weight_bound_raw: i64,
        input_weights: Vec<Vec<i64>>,
        output_weights: Vec<Vec<i64>>,
    ) -> Result<Self> {
        let hidden = input_weights.len();
        if hidden == 0 {
            return Err(ModelError::InvalidParameter {
                context: "input_weights".to_string(),
                message: "need at least one hidden unit".to_string(),
            });
        }
        let num_features = input_weights[0].len();
        if num_features == 0 {
            return Err(ModelError::InvalidParameter {
                context: "input_weights[0]".to_string(),
                message: "need at least one feature".to_string(),
            });
        }
        if output_weights.len() < 2 {
            return Err(ModelError::InvalidParameter {
                context: "output_weights".to_string(),
                message: format!("need at least 2 classes, got {}", output_weights.len()),
            });
        }
        let max_bound = wrap_free_output_bound(format, hidden);
        if weight_bound_raw < 1 || weight_bound_raw > max_bound {
            return Err(ModelError::InvalidParameter {
                context: "weight_bound_raw".to_string(),
                message: format!(
                    "bound {weight_bound_raw} outside [1, {max_bound}] for {hidden} hidden \
                     units in {format}"
                ),
            });
        }
        let (lo, hi) = (format.min_raw(), format.max_raw());
        let adopt = |name: &str, rows: &[Vec<i64>], width: usize, cap: Option<i64>| {
            let mut out = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                if row.len() != width {
                    return Err(ModelError::InvalidParameter {
                        context: format!("{name}[{i}]"),
                        message: format!("row has {} words, expected {width}", row.len()),
                    });
                }
                let mut fx_row = Vec::with_capacity(width);
                for (j, raw) in row.iter().enumerate() {
                    if *raw < lo || *raw > hi {
                        return Err(ModelError::InvalidParameter {
                            context: format!("{name}[{i}][{j}]"),
                            message: format!("raw word {raw} outside [{lo}, {hi}]"),
                        });
                    }
                    if let Some(cap) = cap {
                        if raw.abs() > cap {
                            return Err(ModelError::InvalidParameter {
                                context: format!("{name}[{i}][{j}]"),
                                message: format!(
                                    "raw word {raw} exceeds the wrap-free bound {cap}"
                                ),
                            });
                        }
                    }
                    fx_row.push(format.from_raw(*raw));
                }
                out.push(fx_row);
            }
            Ok(out)
        };
        let input_weights = adopt("input_weights", &input_weights, num_features, None)?;
        let output_weights = adopt(
            "output_weights",
            &output_weights,
            hidden,
            Some(weight_bound_raw),
        )?;
        Ok(OsElmModel {
            format,
            rounding,
            seed,
            lr_shift,
            weight_bound_raw,
            input_weights,
            output_weights,
        })
    }

    /// Hidden-layer width.
    pub fn hidden_units(&self) -> usize {
        self.input_weights.len()
    }

    /// The PRNG seed the hidden layer was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Learning-rate shift for online updates (`Δ = h / 2^lr_shift`).
    pub fn lr_shift(&self) -> u32 {
        self.lr_shift
    }

    /// The clamp keeping output weights (and thus output MACs) wrap-free.
    pub fn weight_bound_raw(&self) -> i64 {
        self.weight_bound_raw
    }

    /// Raw input-projection words, `[hidden][feature]` — for serialization.
    pub fn input_weights_raw(&self) -> Vec<Vec<i64>> {
        raws_of(&self.input_weights)
    }

    /// Raw output words, `[class][hidden]` — for serialization.
    pub fn output_weights_raw(&self) -> Vec<Vec<i64>> {
        raws_of(&self.output_weights)
    }

    /// Quantized hidden representation of a quantized row, plus the
    /// number of hidden MACs whose exact sum overflowed. The activation is a rectifier
    /// (`max(y, 0)`) — one comparator in hardware, nonlinear, sign
    /// sensitive, and bounded by `max_raw`, which gives the output
    /// layer's wrap-free proof its hard input bound.
    fn hidden_of(&self, xq: &[Fx]) -> Result<(Vec<Fx>, u64)> {
        // The row kernel takes the format as given, so validate the
        // inputs up front (the counted-dot path used to do this per MAC).
        for x in xq {
            if x.format() != self.format {
                return Err(ModelError::FixedPoint(
                    ldafp_fixedpoint::FixedPointError::FormatMismatch {
                        left: (self.format.k(), self.format.f()),
                        right: (x.format().k(), x.format().f()),
                    },
                ));
            }
        }
        let mut wraps = 0u64;
        let mut hidden = Vec::with_capacity(self.input_weights.len());
        for w in &self.input_weights {
            let (y, n) = mac_row_fx(self.format, self.rounding, w, xq);
            wraps += u64::from(n);
            hidden.push(self.format.from_raw(y.max(0)));
        }
        Ok((hidden, wraps))
    }

    /// One sequential update: classify `x`, and on a mistake nudge the
    /// target/predicted output rows by `±h / 2^lr_shift`, clamping every
    /// word to the wrap-free bound. Pure integer arithmetic; returns the
    /// decision made *before* the update.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FixedPointModel::classify`].
    pub fn learn_one(&mut self, x: &[f64], target_class: usize) -> Result<Decision> {
        if target_class >= self.output_weights.len() {
            return Err(ModelError::InvalidParameter {
                context: "target_class".to_string(),
                message: format!(
                    "class {target_class} out of range for {} classes",
                    self.output_weights.len()
                ),
            });
        }
        let xq = self.format.quantize_slice(x, self.rounding);
        let decision = self.classify_quantized(&xq)?;
        let predicted = decision.class_index;
        if predicted != target_class {
            let (hidden, _) = self.hidden_of(&xq)?;
            let bound = self.weight_bound_raw;
            for (i, h) in hidden.iter().enumerate() {
                // Truncating division keeps the step symmetric in sign;
                // i64 cannot overflow since |β| ≤ bound ≤ max_raw and
                // |Δ| ≤ max_raw.
                let delta = h.raw() / (1i64 << self.lr_shift);
                let up = (self.output_weights[target_class][i].raw() + delta).clamp(-bound, bound);
                self.output_weights[target_class][i] = self.format.from_raw(up);
                let down = (self.output_weights[predicted][i].raw() - delta).clamp(-bound, bound);
                self.output_weights[predicted][i] = self.format.from_raw(down);
            }
        }
        Ok(decision)
    }

    /// Fraction of `data` rows the model misclassifies (class A = 0).
    pub fn error_rate(&self, data: &BinaryDataset) -> f64 {
        error_rate_of(self, data)
    }
}

fn raws_of(rows: &[Vec<Fx>]) -> Vec<Vec<i64>> {
    rows.iter()
        .map(|row| row.iter().map(Fx::raw).collect())
        .collect()
}

impl FixedPointModel for OsElmModel {
    fn family(&self) -> ModelFamily {
        ModelFamily::OsElm
    }

    fn format(&self) -> QFormat {
        self.format
    }

    fn rounding(&self) -> RoundingMode {
        self.rounding
    }

    fn num_features(&self) -> usize {
        self.input_weights[0].len()
    }

    fn num_classes(&self) -> usize {
        self.output_weights.len()
    }

    fn classify_quantized(&self, xq: &[Fx]) -> Result<Decision> {
        if xq.len() != self.num_features() {
            return Err(ModelError::FeatureMismatch {
                expected: self.num_features(),
                got: xq.len(),
            });
        }
        let (hidden, mut wraps) = self.hidden_of(xq)?;
        let mut best = Decision {
            class_index: 0,
            score_raw: i64::MIN,
            accumulator_wraps: 0,
        };
        for (c, beta) in self.output_weights.iter().enumerate() {
            let (score_raw, n) = mac_row_fx(self.format, self.rounding, beta, &hidden);
            // The clamp makes this zero; counted anyway — the proof is
            // checked on every row, never assumed.
            wraps += u64::from(n);
            if c == 0 || score_raw > best.score_raw {
                best.class_index = c;
                best.score_raw = score_raw;
            }
        }
        best.accumulator_wraps = wraps;
        Ok(best)
    }
}

/// Hyperparameters for [`OsElmTrainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsElmConfig {
    /// Hidden-layer width (random projection rows).
    pub hidden_units: usize,
    /// Sequential passes over the training data.
    pub epochs: usize,
    /// Learning-rate shift: updates move by `h / 2^lr_shift`.
    pub lr_shift: u32,
    /// Seed for the deterministic hidden-layer draw.
    pub seed: u64,
    /// Confidence level for the eq. 18 statistical certification of the
    /// output layer ([`OsElmTrainer::certify_output_layer`]).
    pub rho: f64,
}

impl Default for OsElmConfig {
    fn default() -> Self {
        OsElmConfig {
            hidden_units: 8,
            epochs: 3,
            lr_shift: 3,
            seed: 0x5EED_1DAF,
            rho: 0.95,
        }
    }
}

/// Trains [`OsElmModel`]s sequentially from binary datasets.
#[derive(Debug, Clone, Copy)]
pub struct OsElmTrainer {
    /// Fixed-point format for inputs, weights and scores.
    pub format: QFormat,
    /// Rounding mode for quantization and MAC products.
    pub rounding: RoundingMode,
    /// Hyperparameters.
    pub config: OsElmConfig,
}

impl OsElmTrainer {
    /// A trainer with default hyperparameters.
    pub fn new(format: QFormat, rounding: RoundingMode) -> Self {
        OsElmTrainer {
            format,
            rounding,
            config: OsElmConfig::default(),
        }
    }

    /// Seeds the hidden layer, then feeds the dataset through
    /// [`OsElmModel::learn_one`] sample-by-sample (classes interleaved)
    /// for `epochs` passes. Deterministic: same data + config ⇒
    /// bit-identical weights.
    ///
    /// # Errors
    ///
    /// [`ModelError::Train`] when the format admits no wrap-free output
    /// weights for the configured hidden width;
    /// [`ModelError::InvalidParameter`] on degenerate hyperparameters.
    pub fn train(&self, data: &BinaryDataset) -> Result<OsElmModel> {
        let start = Instant::now();
        let cfg = self.config;
        if cfg.hidden_units == 0 {
            return Err(ModelError::InvalidParameter {
                context: "hidden_units".to_string(),
                message: "must be at least 1".to_string(),
            });
        }
        if cfg.lr_shift >= 63 {
            return Err(ModelError::InvalidParameter {
                context: "lr_shift".to_string(),
                message: format!("must be below 63, got {}", cfg.lr_shift),
            });
        }
        let format = self.format;
        let bound = wrap_free_output_bound(format, cfg.hidden_units);
        if bound < 1 {
            return Err(ModelError::Train(format!(
                "format {format} admits no wrap-free output weights for {} hidden units; \
                 try choose_format({}, {})",
                cfg.hidden_units,
                format.word_length(),
                cfg.hidden_units
            )));
        }
        let m = data.num_features();
        let (na, nb) = data.class_sizes();
        if obs::enabled() {
            obs::emit(
                obs::Event::new("train.start")
                    .with("family", ModelFamily::OsElm.name())
                    .with("format", format.to_string())
                    .with("features", m)
                    .with("rows", na + nb)
                    .with("hidden", cfg.hidden_units),
            );
        }

        // Deterministic hidden layer: symmetric uniform raw words from the
        // seeded workspace generator, so the draw is stable across
        // platforms and versions.
        let mut rng = Rng::new(cfg.seed);
        let max_raw = format.max_raw();
        let input_weights: Vec<Vec<i64>> = (0..cfg.hidden_units)
            .map(|_| (0..m).map(|_| rng.range_i64(-max_raw..=max_raw)).collect())
            .collect();
        let output_weights = vec![vec![0i64; cfg.hidden_units]; 2];
        let mut model = OsElmModel::from_raw_parts(
            format,
            self.rounding,
            cfg.seed,
            cfg.lr_shift,
            bound,
            input_weights,
            output_weights,
        )?;

        // Interleaved sequential presentation: A, B, A, B, … so neither
        // class dominates the online updates.
        for _ in 0..cfg.epochs.max(1) {
            let rows = data.class_a.rows().max(data.class_b.rows());
            for i in 0..rows {
                if i < data.class_a.rows() {
                    model.learn_one(data.class_a.row(i), 0)?;
                }
                if i < data.class_b.rows() {
                    model.learn_one(data.class_b.row(i), 1)?;
                }
            }
        }

        if obs::enabled() {
            obs::emit(
                obs::Event::new("train.done")
                    .with("family", ModelFamily::OsElm.name())
                    .with("format", format.to_string())
                    .with("elapsed_us", start.elapsed().as_micros() as u64),
            );
        }
        Ok(model)
    }

    /// Statistically certifies the trained output layer against eq. 18:
    /// maps the dataset into the model's hidden space and asks
    /// `ldafp-core`'s [`TrainingProblem`] whether each output row keeps
    /// its projection within the representable range at confidence
    /// `rho` — the same per-feature overflow constraint the B&B search
    /// enforces for LDA. Returns `false` (never errors) when the check
    /// cannot be run, e.g. on degenerate hidden representations.
    pub fn certify_output_layer(&self, model: &OsElmModel, data: &BinaryDataset) -> bool {
        let hidden_floats = |class: &Matrix| -> Option<Matrix> {
            let mut rows = Vec::with_capacity(class.rows());
            for i in 0..class.rows() {
                let xq = self.format.quantize_slice(class.row(i), self.rounding);
                let (hidden, _) = model.hidden_of(&xq).ok()?;
                rows.push(hidden.iter().map(|h| h.to_f64()).collect::<Vec<f64>>());
            }
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            Matrix::from_rows(&refs).ok()
        };
        let (Some(a), Some(b)) = (hidden_floats(&data.class_a), hidden_floats(&data.class_b))
        else {
            return false;
        };
        let Some(hidden_data) = BinaryDataset::new(a, b) else {
            return false;
        };
        let Ok(problem) = TrainingProblem::from_dataset(
            &hidden_data,
            self.format,
            self.config.rho,
            self.rounding,
        ) else {
            return false;
        };
        model.output_weights.iter().all(|beta| {
            let w: Vec<f64> = beta.iter().map(|b| b.to_f64()).collect();
            problem.satisfies_elementwise(&w)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data() -> BinaryDataset {
        let a = Matrix::from_rows(&[&[-0.5, 0.3], &[-0.4, 0.2], &[-0.6, 0.25], &[-0.45, 0.35]])
            .unwrap();
        let b = Matrix::from_rows(&[&[0.5, -0.3], &[0.45, -0.2], &[0.55, -0.35], &[0.4, -0.25]])
            .unwrap();
        BinaryDataset::new(a, b).unwrap()
    }

    #[test]
    fn bound_is_exactly_wrap_free_at_the_edge() {
        for (k, f) in [(2u32, 6u32), (3, 5), (4, 8), (1, 10)] {
            let q = QFormat::new(k, f).unwrap();
            for hidden in [1usize, 2, 5, 8, 16] {
                let b = wrap_free_output_bound(q, hidden);
                if b == 0 {
                    continue;
                }
                let per_term = ((b as i128 * q.max_raw() as i128) >> q.f()) + 1;
                assert!(
                    per_term * hidden as i128 <= q.max_raw() as i128,
                    "bound {b} not wrap-free for Q{k}.{f} x{hidden}"
                );
                // Maximality: b+1 must violate the cap.
                let per_term_next = (((b + 1) as i128 * q.max_raw() as i128) >> q.f()) + 1;
                assert!(
                    per_term_next * hidden as i128 > q.max_raw() as i128 || b + 1 > q.max_raw(),
                    "bound {b} not maximal for Q{k}.{f} x{hidden}"
                );
            }
        }
    }

    #[test]
    fn choose_format_prefers_precision_and_errors_when_impossible() {
        let q = choose_format(8, 8).unwrap();
        assert_eq!(q.word_length(), 8);
        assert!(wrap_free_output_bound(q, 8) >= 8);
        // Any split with more fractional bits must miss the target.
        if q.f() + 1 < 8 {
            let finer = QFormat::new(q.k() - 1, q.f() + 1).unwrap();
            assert!(wrap_free_output_bound(finer, 8) < 8);
        }
        assert!(choose_format(2, 1_000_000).is_err());
    }

    #[test]
    fn trains_deterministically_and_round_trips_bit_identically() {
        let q = choose_format(10, 6).unwrap();
        let mut trainer = OsElmTrainer::new(q, RoundingMode::NearestEven);
        trainer.config.hidden_units = 6;
        let a = trainer.train(&toy_data()).unwrap();
        let b = trainer.train(&toy_data()).unwrap();
        assert_eq!(a, b);

        let rebuilt = OsElmModel::from_raw_parts(
            q,
            a.rounding(),
            a.seed(),
            a.lr_shift(),
            a.weight_bound_raw(),
            a.input_weights_raw(),
            a.output_weights_raw(),
        )
        .unwrap();
        assert_eq!(rebuilt, a);
        for x in [[-0.5, 0.3], [0.5, -0.3], [0.0, 0.0], [0.9, 0.9]] {
            assert_eq!(a.classify(&x).unwrap(), rebuilt.classify(&x).unwrap());
        }
    }

    /// Trains on the toy data in `QK.F` with the hidden layer drawn from
    /// `seed`, and checks both layers' raw words.
    fn assert_trains_to(k: u32, f: u32, seed: u64, input: [[i64; 2]; 8], output: [[i64; 8]; 2]) {
        let mut trainer = OsElmTrainer::new(QFormat::new(k, f).unwrap(), RoundingMode::NearestEven);
        trainer.config.seed = seed;
        let model = trainer.train(&toy_data()).unwrap();
        assert_eq!(
            model.input_weights_raw(),
            input.map(Vec::from).to_vec(),
            "Q{k}.{f}"
        );
        assert_eq!(
            model.output_weights_raw(),
            output.map(Vec::from).to_vec(),
            "Q{k}.{f}"
        );
    }

    #[test]
    fn training_output_is_pinned() {
        // Captured from the build that still drew the hidden layer with a
        // private SplitMix64 copy: the shared generator must reproduce it
        // word for word, and training must land on the same output layer.
        assert_trains_to(
            2,
            6,
            0x5EED_1DAF,
            [
                [94, 78],
                [74, 73],
                [-87, 120],
                [-80, -113],
                [-115, 102],
                [-87, 53],
                [2, -105],
                [-120, -119],
            ],
            [[-3, -1, 0, 0, 0, 0, -4, 0], [3, 1, 0, 0, 0, 0, 4, 0]],
        );
        assert_trains_to(
            3,
            5,
            7,
            [
                [-25, -103],
                [89, 71],
                [-18, 38],
                [-24, -10],
                [-17, -122],
                [66, -51],
                [53, 102],
                [-67, -22],
            ],
            [[-2, -2, 0, 0, -3, -3, 0, 0], [2, 2, 0, 0, 3, 3, 0, 0]],
        );
    }

    #[test]
    fn output_layer_never_wraps() {
        let q = choose_format(8, 4).unwrap();
        let mut trainer = OsElmTrainer::new(q, RoundingMode::Floor);
        trainer.config.hidden_units = 4;
        let model = trainer.train(&toy_data()).unwrap();
        // Exhaustively: every representable 1-D slice of inputs. The
        // input layer may wrap (counted); the *output* layer cannot, so
        // wraps from a zero-projection input must be zero end to end.
        let zeros = vec![q.zero(); 2];
        let d = model.classify_quantized(&zeros).unwrap();
        assert_eq!(d.accumulator_wraps, 0);
        // And the clamp held for every learned word.
        for row in model.output_weights_raw() {
            for w in row {
                assert!(w.abs() <= model.weight_bound_raw());
            }
        }
    }

    #[test]
    fn from_raw_parts_rejects_bound_violations_positionally() {
        let q = QFormat::new(3, 5).unwrap();
        let bound = wrap_free_output_bound(q, 2);
        assert!(bound >= 1);
        let err = OsElmModel::from_raw_parts(
            q,
            RoundingMode::Floor,
            1,
            3,
            bound,
            vec![vec![0, 0], vec![0, 0]],
            vec![vec![0, bound + 1], vec![0, 0]],
        )
        .unwrap_err();
        match err {
            ModelError::InvalidParameter { context, .. } => {
                assert_eq!(context, "output_weights[0][1]");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn learning_separates_the_toy_problem() {
        let q = choose_format(12, 8).unwrap();
        let mut trainer = OsElmTrainer::new(q, RoundingMode::NearestEven);
        trainer.config.hidden_units = 8;
        trainer.config.epochs = 10;
        let model = trainer.train(&toy_data()).unwrap();
        assert!(model.error_rate(&toy_data()) <= 0.25);
    }

    #[test]
    fn certification_runs_on_the_toy_problem() {
        let q = choose_format(12, 8).unwrap();
        let trainer = OsElmTrainer::new(q, RoundingMode::NearestEven);
        let model = trainer.train(&toy_data()).unwrap();
        // The answer depends on the data; the call must simply not panic
        // and must be deterministic.
        let a = trainer.certify_output_layer(&model, &toy_data());
        let b = trainer.certify_output_layer(&model, &toy_data());
        assert_eq!(a, b);
    }
}
