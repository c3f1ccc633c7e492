//! Integer-only batched inference.
//!
//! The engine reproduces the deployed datapath exactly: features are
//! scaled (per the artifact's input-scaling metadata), quantized to the
//! model's `QK.F` grid with the model's rounding mode, and pushed through
//! the same wrapping MAC the training-time classifier uses. Every
//! decision this engine emits is bit-identical to calling
//! [`FixedPointClassifier::classify`] / [`OneVsRestClassifier::classify`]
//! on the in-memory model — the property tests assert it.
//!
//! Batch paths run on the `ldafp-kernels` SoA datapath. A float batch
//! (or each segment of one) has every row's width checked, then is
//! quantized into a contiguous [`QBatchBuf`] in one
//! [`QBatchBuf::push_rows_scaled`] call: the AVX2 build of the fused
//! quantizer, with row prefetch, where the kernels' `simd` feature is on
//! and the CPU has AVX2, else the portable build, with the same words
//! either way. Raw wire words are borrowed zero-copy as a [`QBatch`].
//! Every linear model — binary LDA and every one-vs-rest head — then goes
//! through one wrap-once MAC GEMM per batch (AVX2 where detected and
//! exact, else the scalar loop). A single row takes the kernels' one-row
//! entry instead, once per head, on weights packed once at construction:
//! the same AVX2 chunks in one accumulator, or the same scalar loop. The
//! kernels return a per-(row, head) overflow flag (the exact sum left the
//! format's range), so the overflow/saturation counters and
//! `predict_segmented`'s per-segment attribution are exactly what the
//! row-at-a-time path produces. Table-driven families (naive Bayes,
//! OS-ELM) decide on their own integer datapath, which rides the same
//! kernel primitives inside `ldafp-models`.
//!
//! Floats appear in exactly two advisory places, never in a decision:
//! the reported `score` (a human-readable margin) and the one-vs-rest
//! margin calibration, which mirrors the in-memory ensemble verbatim.
//!
//! [`FixedPointClassifier::classify`]: ldafp_core::FixedPointClassifier::classify
//! [`OneVsRestClassifier::classify`]: ldafp_core::multiclass::OneVsRestClassifier::classify

use crate::artifact::{ModelArtifact, ServedModel};
use crate::error::{Result, ServeError};
use ldafp_core::FixedPointClassifier;
use ldafp_fixedpoint::{Fx, InputScale, QFormat, RoundingMode};
use ldafp_kernels::{
    mac_gemm_into, mac_row_packed, GemmScratch, KernelKind, PackedWeights, QBatch, QBatchBuf,
};
use ldafp_models::FixedPointModel;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

/// Per-thread working buffers for row-at-a-time work: the single-row
/// path's raw words, and the `Fx` row the table-driven families take on
/// both paths. They keep their allocations between calls, so a warm
/// `predict_row` allocates nothing and takes no lock.
struct RowScratch {
    words: Vec<i64>,
    quantized: Vec<Fx>,
}

thread_local! {
    static ROW_SCRATCH: RefCell<RowScratch> = const {
        RefCell::new(RowScratch {
            words: Vec::new(),
            quantized: Vec::new(),
        })
    };
}

/// Engine-owned working memory for the batch paths, reused across
/// batches (not just across the rows of one batch): the float path's SoA
/// word buffer and the decide step's buffers all keep their allocations
/// between calls. Shared across engine clones behind one lock, so clones
/// serialize their batch calls: a batch on one thread waits while a clone
/// on another thread holds the scratch.
#[derive(Debug)]
struct EngineScratch {
    /// The float path's quantized batch; the raw-word path decides the
    /// wire buffer in place instead.
    batch: QBatchBuf,
    decide: DecideScratch,
}

/// The buffers [`InferenceEngine::decide_rows`] writes: the kernel tile
/// scratch, and the GEMM's output words and wrap flags.
#[derive(Debug, Default)]
struct DecideScratch {
    gemm: GemmScratch,
    out: Vec<i64>,
    wraps: Vec<u32>,
}

/// How batches of the served model are decided, fixed at construction.
#[derive(Debug)]
enum KernelPlan {
    /// Linear heads (binary LDA = one head; one-vs-rest = one per class):
    /// a batch runs through a single wrapping-MAC GEMM over the flattened
    /// `heads × features` raw weight words, and a single row through the
    /// one-row MAC per head on the same weights, packed once here.
    Linear {
        weights: PackedWeights,
        /// Per-head decision threshold raws.
        thresholds: Vec<i64>,
        /// One-vs-rest margin calibration; `None` for binary, whose score
        /// is the raw margin in value units.
        scales: Option<Vec<f64>>,
    },
    /// Table-driven families decide row-at-a-time on their own integer
    /// datapath (`classify_quantized`, itself on the kernels primitives).
    Family,
}

impl KernelPlan {
    fn of(model: &ServedModel, kernel: KernelKind, features: usize) -> KernelPlan {
        let pack = |heads: &[FixedPointClassifier]| {
            let words = heads
                .iter()
                .flat_map(|h| h.weights().iter().map(Fx::raw))
                .collect();
            PackedWeights::new(kernel, model.format(), features, heads.len(), words)
                .expect("validated artifact heads have one weight per feature")
        };
        match model {
            ServedModel::Binary(clf) => KernelPlan::Linear {
                weights: pack(std::slice::from_ref(clf)),
                thresholds: vec![clf.threshold().raw()],
                scales: None,
            },
            ServedModel::OneVsRest(clf) => KernelPlan::Linear {
                weights: pack(clf.heads()),
                thresholds: clf.heads().iter().map(|h| h.threshold().raw()).collect(),
                scales: Some(clf.margin_scales().to_vec()),
            },
            ServedModel::NaiveBayes(_) | ServedModel::OsElm(_) => KernelPlan::Family,
        }
    }
}

/// Row-invariant classification state (see [`InferenceEngine::row_context`]).
struct RowContext<'a> {
    format: QFormat,
    rounding: RoundingMode,
    num_features: usize,
    /// The artifact's input scaling, applied inside the quantizer's pass.
    scale: InputScale<'a>,
    model: &'a ServedModel,
}

/// One classified row: plain data, so a batch's epilogue writes two
/// words per row and nothing else. The label is not carried per row;
/// replies read it once from the artifact's `class_labels`, indexed by
/// `class_index`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Winning class index (binary: 0 = `y ≥ T`, 1 otherwise).
    pub class_index: usize,
    /// Advisory decision margin in value units (binary: `(y − T)·2⁻ᶠ`;
    /// one-vs-rest: the winner's calibrated margin). Not used to decide.
    pub score: f64,
}

/// Datapath event counters for a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Rows classified.
    pub rows: usize,
    /// MACs in the batch whose exact sum left the format's range: at
    /// most one per (row, head), set when the served word differs from
    /// the true sum of the rounded products — the overflow eq. 20 bounds
    /// with confidence ρ, and the only one that can flip a decision.
    /// Intermediate accumulator wraps are harmless (paper §3) and not
    /// counted. A rate above `1 − ρ` flags inputs outside the training
    /// distribution. The name predates this meaning; it is kept so the
    /// field and both wire codecs stay unchanged.
    pub accumulator_wraps: u64,
    /// Inputs that fell outside the representable range `[min, max]` of the
    /// `QK.F` format *before* quantization clipped them.
    pub saturated_inputs: u64,
}

/// A classified batch: predictions in input order plus datapath counters.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutput {
    /// One prediction per input row, in input order.
    pub predictions: Vec<Prediction>,
    /// Aggregated counters.
    pub stats: BatchStats,
}

/// The inference runtime around one loaded artifact.
///
/// Cheap to clone (the artifact is behind an `Arc`), `Send + Sync`, and
/// stateless between calls. Clones share one batch scratch, so their
/// batch calls serialize. Single-row calls never touch it: they run on a
/// per-thread scratch and the one-row MAC, so a warm
/// [`Self::predict_row`] allocates nothing and takes no lock. Predictions
/// name classes by index; the label text stays in the artifact's
/// `class_labels`, read once per reply.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    artifact: Arc<ModelArtifact>,
    /// Packed linear weights (or the family marker), built once.
    plan: Arc<KernelPlan>,
    /// The fastest bit-identical kernel on this build/CPU, probed once.
    kernel: KernelKind,
    /// Engine-owned batch working memory; see [`EngineScratch`].
    scratch: Arc<Mutex<EngineScratch>>,
}

impl InferenceEngine {
    /// Wraps a validated artifact.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelArtifact::validate`] failures.
    pub fn new(artifact: ModelArtifact) -> Result<Self> {
        artifact.validate()?;
        let kernel = KernelKind::best();
        let plan = Arc::new(KernelPlan::of(
            &artifact.model,
            kernel,
            artifact.num_features(),
        ));
        let scratch = Arc::new(Mutex::new(EngineScratch {
            batch: QBatchBuf::new(artifact.model.format(), artifact.num_features()),
            decide: DecideScratch::default(),
        }));
        Ok(InferenceEngine {
            artifact: Arc::new(artifact),
            plan,
            kernel,
            scratch,
        })
    }

    /// Runs `f` with the engine-owned scratch, waiting while a clone
    /// holds it. A poisoned lock is recovered — scratch holds no
    /// invariants between calls.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut EngineScratch) -> R) -> R {
        f(&mut self.scratch.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The artifact being served.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.artifact.num_features()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.artifact.model.num_classes()
    }

    /// The rounding mode the served model quantizes inputs with. A client
    /// that pre-quantizes rows for the raw-word predict path lands on the
    /// exact grid the float path would when it first multiplies each row
    /// by the artifact's `input_scale` (one factor, or one per feature),
    /// then quantizes with [`ServedModel::format`] and this mode.
    pub fn rounding(&self) -> RoundingMode {
        match &self.artifact.model {
            ServedModel::Binary(clf) => clf.rounding(),
            ServedModel::OneVsRest(clf) => clf.heads()[0].rounding(),
            ServedModel::NaiveBayes(m) => m.rounding(),
            ServedModel::OsElm(m) => m.rounding(),
        }
    }

    /// Classifies one row: quantized into a per-thread scratch, then one
    /// one-row MAC per linear head ([`mac_row_packed`], on the weights
    /// packed at construction) or the family's own datapath, then the
    /// batch path's epilogue. Bit-identical to the row's answer in
    /// [`Self::predict_batch`]; allocates nothing once the thread's
    /// scratch has grown to the row width.
    ///
    /// # Errors
    ///
    /// [`ServeError::FeatureMismatch`] when the row length disagrees with
    /// the model.
    pub fn predict_row(&self, row: &[f64]) -> Result<(Prediction, BatchStats)> {
        let ctx = self.row_context();
        if row.len() != ctx.num_features {
            return Err(ServeError::FeatureMismatch {
                expected: ctx.num_features,
                got: row.len(),
                row: 0,
            });
        }
        Ok(ROW_SCRATCH.with_borrow_mut(|scratch| self.predict_row_with(&ctx, row, scratch)))
    }

    /// Classifies a batch sequentially, preserving input order.
    ///
    /// Rows are quantized once into the engine-owned SoA batch buffer and
    /// decided by the kernel plan — one wrapping-MAC GEMM for linear
    /// models — bit-identically to the row-at-a-time path.
    ///
    /// # Errors
    ///
    /// The first [`ServeError::FeatureMismatch`] encountered, carrying the
    /// offending row's batch index.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Result<BatchOutput> {
        let ctx = self.row_context();
        self.with_scratch(|scratch| self.predict_batch_in(&ctx, rows, scratch))
    }

    /// The float batch hot path: validate every row's width, then scale,
    /// quantize and count the saturated inputs of the whole batch into
    /// the SoA buffer in one call, then decide the whole batch.
    fn predict_batch_in(
        &self,
        ctx: &RowContext<'_>,
        rows: &[Vec<f64>],
        scratch: &mut EngineScratch,
    ) -> Result<BatchOutput> {
        let EngineScratch { batch, decide } = scratch;
        if let Some(i) = rows.iter().position(|r| r.len() != ctx.num_features) {
            return Err(ServeError::FeatureMismatch {
                expected: ctx.num_features,
                got: rows[i].len(),
                row: i,
            });
        }
        batch.clear();
        let saturated_inputs = batch
            .push_rows_scaled(rows, ctx.scale, ctx.rounding)
            .expect("row widths and scale length validated");
        Ok(self.decide_rows(ctx, &batch.as_batch(), saturated_inputs, decide))
    }

    /// Decides every row of an SoA batch per the kernel plan. Linear
    /// models run one wrapping-MAC GEMM over the whole batch; families
    /// decide row-at-a-time on their own integer datapath. Shared by the
    /// float path (after scale + quantize) and the raw-word path
    /// (zero-copy over the wire buffer).
    fn decide_rows(
        &self,
        ctx: &RowContext<'_>,
        batch: &QBatch<'_>,
        saturated_inputs: u64,
        work: &mut DecideScratch,
    ) -> BatchOutput {
        let DecideScratch { gemm, out, wraps } = work;
        let n = batch.rows();
        let mut predictions = Vec::with_capacity(n);
        let mut accumulator_wraps = 0u64;
        match &*self.plan {
            KernelPlan::Linear {
                weights,
                thresholds,
                scales,
            } => {
                let heads = weights.heads();
                mac_gemm_into(
                    self.kernel,
                    batch,
                    weights.words(),
                    heads,
                    ctx.rounding,
                    gemm,
                    out,
                    wraps,
                )
                .expect("plan shapes match the validated artifact");
                let resolution = ctx.format.resolution();
                for r in 0..n {
                    let (class_index, score) = linear_decision(
                        out[r * heads..(r + 1) * heads].iter().copied(),
                        thresholds,
                        scales.as_deref(),
                        resolution,
                    );
                    accumulator_wraps += wraps[r * heads..(r + 1) * heads]
                        .iter()
                        .map(|&w| u64::from(w))
                        .sum::<u64>();
                    predictions.push(Prediction { class_index, score });
                }
            }
            KernelPlan::Family => ROW_SCRATCH.with_borrow_mut(|scratch| {
                for r in 0..n {
                    let (class_index, score, w) =
                        family_decision(ctx, batch.row(r), &mut scratch.quantized);
                    accumulator_wraps += w;
                    predictions.push(Prediction { class_index, score });
                }
            }),
        }
        BatchOutput {
            predictions,
            stats: BatchStats {
                rows: n,
                accumulator_wraps,
                saturated_inputs,
            },
        }
    }

    /// Snapshots everything row-invariant — format, rounding mode, input
    /// scale, the model-kind dispatch — so the batch path pays for them
    /// once per batch instead of once per row. The single-row path
    /// rebuilds it per call, as a one-shot API must.
    fn row_context(&self) -> RowContext<'_> {
        RowContext {
            format: self.artifact.model.format(),
            rounding: self.rounding(),
            num_features: self.num_features(),
            scale: InputScale::from_slice(&self.artifact.input_scale),
            model: &self.artifact.model,
        }
    }

    /// The single-row path after the width check: quantize into the
    /// thread's scratch, then decide per the kernel plan.
    fn predict_row_with(
        &self,
        ctx: &RowContext<'_>,
        row: &[f64],
        scratch: &mut RowScratch,
    ) -> (Prediction, BatchStats) {
        let RowScratch { words, quantized } = scratch;
        words.resize(ctx.num_features, 0);
        let saturated_inputs = ctx
            .format
            .quantize_into(row, ctx.scale, ctx.rounding, words);
        let (class_index, score, wraps) = match &*self.plan {
            KernelPlan::Linear {
                weights,
                thresholds,
                scales,
            } => {
                let mut wraps = 0u64;
                let acc = (0..weights.heads()).map(|h| {
                    let (y, w) = mac_row_packed(weights, h, ctx.rounding, words);
                    wraps += u64::from(w);
                    y
                });
                let (class_index, score) =
                    linear_decision(acc, thresholds, scales.as_deref(), ctx.format.resolution());
                (class_index, score, wraps)
            }
            KernelPlan::Family => family_decision(ctx, words, quantized),
        };
        let prediction = Prediction { class_index, score };
        let stats = BatchStats {
            rows: 1,
            accumulator_wraps: wraps,
            saturated_inputs,
        };
        (prediction, stats)
    }

    /// Classifies several row batches ("segments") in one pass over the
    /// shared row-invariant context and scratch buffers, returning one
    /// [`BatchOutput`] per segment.
    ///
    /// This is the micro-batching entry point for the evented tier: rows
    /// coalesced from many connections run through a single hot loop —
    /// format bounds, rounding dispatch and scratch allocation are paid
    /// once for the whole coalesced batch — while wrap/saturation counters
    /// stay attributable to each originating request. Results are
    /// bit-identical to calling [`Self::predict_batch`] once per segment.
    ///
    /// # Errors
    ///
    /// The first [`ServeError::FeatureMismatch`] encountered; `row` is the
    /// offending row's index *within its segment*, and earlier segments'
    /// outputs are discarded (callers validate shapes up front).
    pub fn predict_segmented<'a>(
        &self,
        segments: impl IntoIterator<Item = &'a [Vec<f64>]>,
    ) -> Result<Vec<BatchOutput>> {
        let ctx = self.row_context();
        self.with_scratch(|scratch| {
            segments
                .into_iter()
                .map(|segment| self.predict_batch_in(&ctx, segment, scratch))
                .collect()
        })
    }

    /// Classifies rows already on the model's `QK.F` grid, delivered as a
    /// flat row-major buffer of raw two's-complement words — the binary
    /// wire protocol's quantized mode, where the client produced the exact
    /// hardware words. Input scaling and quantization are bypassed, so
    /// `saturated_inputs` stays 0; words outside the format's raw range
    /// wrap exactly as the hardware register would.
    ///
    /// # Errors
    ///
    /// [`ServeError::FeatureMismatch`] when the buffer is not a whole
    /// number of rows (`row` reports the complete-row count, `got` the
    /// trailing word count).
    pub fn predict_raw_batch(&self, words: &[i64]) -> Result<BatchOutput> {
        let ctx = self.row_context();
        self.with_scratch(|scratch| self.predict_raw_in(&ctx, words, scratch))
    }

    /// Classifies several raw-word row buffers ("segments") in one pass
    /// over the shared row-invariant context and scratch buffers — the
    /// quantized-mode counterpart of [`Self::predict_segmented`], used by
    /// the evented tier to run a coalesced group of binary-protocol
    /// requests through a single kernel dispatch per segment while keeping
    /// counters attributable per request.
    ///
    /// # Errors
    ///
    /// The first torn-row [`ServeError::FeatureMismatch`] encountered
    /// (same shape as [`Self::predict_raw_batch`]); earlier segments'
    /// outputs are discarded.
    pub fn predict_raw_segmented<'a>(
        &self,
        segments: impl IntoIterator<Item = &'a [i64]>,
    ) -> Result<Vec<BatchOutput>> {
        let ctx = self.row_context();
        self.with_scratch(|scratch| {
            segments
                .into_iter()
                .map(|words| self.predict_raw_in(&ctx, words, scratch))
                .collect()
        })
    }

    /// The raw-word hot path: wrap the wire buffer as a zero-copy SoA
    /// batch (no scaling, no quantization, `saturated_inputs` stays 0)
    /// and decide it per the kernel plan.
    fn predict_raw_in(
        &self,
        ctx: &RowContext<'_>,
        words: &[i64],
        scratch: &mut EngineScratch,
    ) -> Result<BatchOutput> {
        let m = ctx.num_features;
        if m == 0 || !words.len().is_multiple_of(m) {
            return Err(ServeError::FeatureMismatch {
                expected: m,
                got: words.len() % m.max(1),
                row: words.len() / m.max(1),
            });
        }
        let batch = QBatch::from_words(ctx.format, m, words).expect("whole rows validated above");
        Ok(self.decide_rows(ctx, &batch, 0, &mut scratch.decide))
    }
}

/// The linear epilogue shared by the batch and single-row paths: one
/// row's per-head accumulators, in head order, to `(class, advisory
/// score)`. Binary
/// (no margin scales) mirrors `FixedPointClassifier::classify`:
/// `y.raw ≥ T.raw` picks class 0, and the score is the raw margin in
/// value units. One-vs-rest mirrors `OneVsRestClassifier::classify`:
/// per-head raw margins calibrated by `margin_scale`, argmax with ties
/// to the lowest class index.
fn linear_decision(
    mut acc: impl Iterator<Item = i64>,
    thresholds: &[i64],
    scales: Option<&[f64]>,
    resolution: f64,
) -> (usize, f64) {
    match scales {
        None => {
            let y = acc.next().expect("a binary plan has one head");
            let margin_raw = y - thresholds[0];
            (usize::from(margin_raw < 0), margin_raw as f64 * resolution)
        }
        Some(scales) => {
            let mut best_class = 0usize;
            let mut best_margin = f64::NEG_INFINITY;
            for (h, ((y, &t), &scale)) in acc.zip(thresholds).zip(scales).enumerate() {
                let margin = (y - t) as f64 * scale;
                if margin > best_margin {
                    best_margin = margin;
                    best_class = h;
                }
            }
            (best_class, best_margin)
        }
    }
}

/// Decision for a table-driven family over one row of raw words, viewed
/// as `Fx` in `quantized` (the thread's scratch). The model's own integer
/// datapath decides; the advisory score is the winning class's raw score
/// converted to value units.
fn family_decision(
    ctx: &RowContext<'_>,
    words: &[i64],
    quantized: &mut Vec<Fx>,
) -> (usize, f64, u64) {
    quantized.clear();
    quantized.extend(words.iter().map(|&w| ctx.format.from_raw(w)));
    let xq = &quantized[..];
    let d = match ctx.model {
        ServedModel::NaiveBayes(m) => m.classify_quantized(xq),
        ServedModel::OsElm(m) => m.classify_quantized(xq),
        ServedModel::Binary(_) | ServedModel::OneVsRest(_) => {
            unreachable!("linear models run on the kernel plan")
        }
    }
    .expect("row length and format are validated by the engine");
    (
        d.class_index,
        d.score_raw as f64 * ctx.format.resolution(),
        d.accumulator_wraps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_fixedpoint::QFormat;
    use ldafp_stats::Rng;

    fn binary_engine() -> (InferenceEngine, FixedPointClassifier) {
        let format = QFormat::new(2, 6).unwrap();
        let clf =
            FixedPointClassifier::from_float(&[0.75, -0.5, 0.25, 1.0], 0.125, format).unwrap();
        let engine = InferenceEngine::new(ModelArtifact::binary(clf.clone())).unwrap();
        (engine, clf)
    }

    fn random_rows(n: usize, m: usize, seed: u64, amp: f64) -> Vec<Vec<f64>> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| (0..m).map(|_| rng.range_f64(-amp..amp)).collect())
            .collect()
    }

    #[test]
    fn binary_matches_in_memory_classifier_bit_for_bit() {
        let (engine, clf) = binary_engine();
        for row in random_rows(200, 4, 7, 1.8) {
            let (p, _) = engine.predict_row(&row).unwrap();
            let expected = usize::from(!clf.classify(&row));
            assert_eq!(p.class_index, expected, "row {row:?}");
        }
    }

    #[test]
    fn batch_order_is_input_order() {
        let (engine, _) = binary_engine();
        let rows = random_rows(257, 4, 11, 1.5);
        let batch = engine.predict_batch(&rows).unwrap();
        assert_eq!(batch.predictions.len(), rows.len());
        assert_eq!(batch.stats.rows, rows.len());
        for (row, p) in rows.iter().zip(&batch.predictions) {
            assert_eq!(*p, engine.predict_row(row).unwrap().0, "row {row:?}");
        }
    }

    #[test]
    fn feature_mismatch_carries_global_row_index() {
        let (engine, _) = binary_engine();
        let mut rows = random_rows(100, 4, 3, 1.0);
        rows[73] = vec![0.0; 5];
        match engine.predict_batch(&rows) {
            Err(ServeError::FeatureMismatch { expected, got, row }) => {
                assert_eq!((expected, got, row), (4, 5, 73));
            }
            other => panic!("expected FeatureMismatch, got {other:?}"),
        }
    }

    /// At 0, 1, 255, 256 and 257 rows, under an identity, a uniform and
    /// a per-feature input scale, the batch path (one quantizer call per
    /// batch) answers every row exactly as `predict_row` does, and its
    /// counters are the rows' sums. A torn row at index `k`, longer or
    /// shorter, is still reported as row `k`.
    #[test]
    fn batch_equals_rows_at_every_batch_size() {
        let (_, clf) = binary_engine();
        let edges = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 2.0, -2.0];
        for input_scale in [vec![1.0], vec![0.5], vec![0.5, 2.0, 1.0, 0.25]] {
            let mut artifact = ModelArtifact::binary(clf.clone());
            artifact.input_scale = input_scale;
            let engine = InferenceEngine::new(artifact).unwrap();
            for n in [0usize, 1, 255, 256, 257] {
                let mut rows = random_rows(n, 4, 40 + n as u64, 3.0);
                for (r, row) in rows.iter_mut().enumerate().step_by(5) {
                    row[r % 4] = edges[r % edges.len()];
                }
                let batch = engine.predict_batch(&rows).unwrap();
                let mut want = BatchStats::default();
                for (row, p) in rows.iter().zip(&batch.predictions) {
                    let (single, stats) = engine.predict_row(row).unwrap();
                    assert_eq!(*p, single, "n={n} row {row:?}");
                    want.rows += 1;
                    want.accumulator_wraps += stats.accumulator_wraps;
                    want.saturated_inputs += stats.saturated_inputs;
                }
                assert_eq!(batch.stats, want, "n={n}");
                for k in [0, n / 2, n.saturating_sub(1)]
                    .into_iter()
                    .filter(|_| n > 0)
                {
                    for width in [3, 5] {
                        let mut torn = rows.clone();
                        torn[k].resize(width, 0.0);
                        match engine.predict_batch(&torn) {
                            Err(ServeError::FeatureMismatch { expected, got, row }) => {
                                assert_eq!((expected, got, row), (4, width, k));
                            }
                            other => panic!("expected FeatureMismatch, got {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn saturation_counter_sees_out_of_range_inputs() {
        let (engine, _) = binary_engine();
        // Q2.6 represents [-2, 2); 100.0 is far outside.
        let (_, stats) = engine.predict_row(&[100.0, 0.0, 0.0, -100.0]).unwrap();
        assert_eq!(stats.saturated_inputs, 2);
        let (_, clean) = engine.predict_row(&[0.5, 0.5, 0.5, 0.5]).unwrap();
        assert_eq!(clean.saturated_inputs, 0);
    }

    #[test]
    fn input_scale_is_applied_before_quantization() {
        let (_, clf) = binary_engine();
        let mut artifact = ModelArtifact::binary(clf.clone());
        artifact.input_scale = vec![0.5];
        let engine = InferenceEngine::new(artifact).unwrap();
        for row in random_rows(50, 4, 13, 3.0) {
            let halved: Vec<f64> = row.iter().map(|x| x * 0.5).collect();
            let (p, _) = engine.predict_row(&row).unwrap();
            assert_eq!(p.class_index, usize::from(!clf.classify(&halved)));
        }
    }

    fn family_dataset() -> ldafp_datasets::BinaryDataset {
        let a = ldafp_linalg::Matrix::from_rows(&[
            &[0.6, 0.5, 0.4][..],
            &[0.5, 0.7, 0.3][..],
            &[0.7, 0.4, 0.5][..],
        ])
        .unwrap();
        let b = ldafp_linalg::Matrix::from_rows(&[
            &[-0.5, -0.6, -0.4][..],
            &[-0.6, -0.4, -0.5][..],
            &[-0.4, -0.5, -0.6][..],
        ])
        .unwrap();
        ldafp_datasets::BinaryDataset::new(a, b).unwrap()
    }

    /// Engine predictions for a family model are bit-identical to calling
    /// the in-process `classify_batch`, wraps and all — the tentpole's
    /// round-trip contract at the serve layer.
    #[test]
    fn naive_bayes_engine_matches_in_memory_model_bit_for_bit() {
        let format = QFormat::new(3, 6).unwrap();
        let trainer = ldafp_models::NaiveBayesTrainer::new(format, RoundingMode::NearestEven, 0.95);
        let model = trainer.train(&family_dataset()).unwrap();
        let engine = InferenceEngine::new(ModelArtifact::naive_bayes(model.clone())).unwrap();
        let rows = random_rows(120, 3, 29, 1.5);
        let served = engine.predict_batch(&rows).unwrap();
        let direct = model.classify_batch(&rows).unwrap();
        assert_eq!(served.stats.accumulator_wraps, direct.accumulator_wraps);
        assert_eq!(served.stats.saturated_inputs, direct.saturated_inputs);
        for (p, d) in served.predictions.iter().zip(&direct.decisions) {
            assert_eq!(p.class_index, d.class_index);
        }
    }

    #[test]
    fn os_elm_engine_matches_in_memory_model_bit_for_bit() {
        let format = ldafp_models::choose_format(10, 4).unwrap();
        let mut trainer = ldafp_models::OsElmTrainer::new(format, RoundingMode::Floor);
        trainer.config.hidden_units = 4;
        let model = trainer.train(&family_dataset()).unwrap();
        let engine = InferenceEngine::new(ModelArtifact::os_elm(model.clone())).unwrap();
        let rows = random_rows(120, 3, 31, 1.5);
        let served = engine.predict_batch(&rows).unwrap();
        let direct = model.classify_batch(&rows).unwrap();
        assert_eq!(served.stats.accumulator_wraps, direct.accumulator_wraps);
        assert_eq!(served.stats.saturated_inputs, direct.saturated_inputs);
        for (p, d) in served.predictions.iter().zip(&direct.decisions) {
            assert_eq!(p.class_index, d.class_index);
        }
    }

    /// Quantizing client-side and shipping raw words must land on the same
    /// decisions as shipping floats: both run the identical `decide` path.
    #[test]
    fn raw_word_batch_matches_the_float_path_bit_for_bit() {
        let (engine, clf) = binary_engine();
        let rows = random_rows(64, 4, 17, 1.5);
        let format = clf.format();
        let words: Vec<i64> = rows
            .iter()
            .flat_map(|r| {
                r.iter()
                    .map(|&x| format.quantize(x, clf.rounding()).raw())
                    .collect::<Vec<_>>()
            })
            .collect();
        let float_out = engine.predict_batch(&rows).unwrap();
        let raw_out = engine.predict_raw_batch(&words).unwrap();
        assert_eq!(float_out.predictions, raw_out.predictions);
        assert_eq!(
            float_out.stats.accumulator_wraps,
            raw_out.stats.accumulator_wraps
        );
        assert_eq!(raw_out.stats.saturated_inputs, 0);
    }

    /// The micro-batcher's segmented pass must equal per-segment
    /// `predict_batch` calls exactly — predictions and per-segment
    /// wrap/saturation counters alike.
    #[test]
    fn segmented_batch_matches_independent_batches_bit_for_bit() {
        let (engine, _) = binary_engine();
        let a = random_rows(13, 4, 21, 1.5);
        let b = random_rows(1, 4, 22, 3.0);
        let c = random_rows(40, 4, 23, 0.25);
        let segmented = engine
            .predict_segmented([a.as_slice(), b.as_slice(), c.as_slice()])
            .unwrap();
        let independent = [
            engine.predict_batch(&a).unwrap(),
            engine.predict_batch(&b).unwrap(),
            engine.predict_batch(&c).unwrap(),
        ];
        assert_eq!(segmented.as_slice(), independent.as_slice());
        // Empty segments are legal (a drained queue slot) and yield empty
        // outputs without disturbing their neighbours.
        let with_empty = engine.predict_segmented([a.as_slice(), &[]]).unwrap();
        assert_eq!(with_empty[0], independent[0]);
        assert!(with_empty[1].predictions.is_empty());
    }

    #[test]
    fn raw_word_batch_rejects_torn_rows() {
        let (engine, _) = binary_engine();
        match engine.predict_raw_batch(&[1, 2, 3, 4, 5]) {
            Err(ServeError::FeatureMismatch { expected, got, row }) => {
                assert_eq!((expected, got, row), (4, 1, 1));
            }
            other => panic!("expected FeatureMismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrap_counter_fires_on_adversarial_weights() {
        // Large same-sign weights and inputs force accumulator wraps in Q2.x.
        let format = QFormat::new(2, 4).unwrap();
        let clf = FixedPointClassifier::from_float(&[1.9; 8], 0.0, format).unwrap();
        let engine = InferenceEngine::new(ModelArtifact::binary(clf)).unwrap();
        let (_, stats) = engine.predict_row(&[1.9; 8]).unwrap();
        assert!(stats.accumulator_wraps > 0);
    }
}
