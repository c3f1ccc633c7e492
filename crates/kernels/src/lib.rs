//! Structure-of-arrays batches and wrap-once MAC kernels.
//!
//! The paper's datapath is `y = wᵀx` on a fixed-width wrapping MAC
//! (§1/§3); at serving time that product *is* the hot loop. Two's-
//! complement wrapping is arithmetic mod `2^wl`, so the served word
//! `wrap(Σ wrap(pᵢ))` of the rounded products `pᵢ` equals `wrap(Σ pᵢ)`:
//! intermediate wraps are harmless, and the only overflow that can flip a
//! decision is the exact sum leaving `[min, max]` — the event eq. 20
//! bounds with confidence ρ. Every kernel here therefore sums the rounded
//! products exactly and wraps once per (row, head):
//!
//! * [`QBatch`] / [`QBatchBuf`] — one contiguous row-major `i64` word
//!   buffer plus a single [`QFormat`] tag, converted once at the
//!   boundary (floats are quantized on append, a whole batch per
//!   [`QBatchBuf::push_rows_scaled`] call, in an AVX2 build with row
//!   prefetch where available; raw wire words are borrowed **zero-copy**
//!   and wrapped on load by their low bits).
//! * [`mac_gemm_into`] — the batch kernel, monomorphized per rounding
//!   mode: the scalar loop run row at a time, or an optional x86_64 AVX2
//!   path (behind runtime detection and the `simd` cargo feature) in
//!   32-bit lanes, used when they are exact. It returns per-(row, head)
//!   words and a 0/1 overflow flag in the `wraps` output — 1 when that
//!   exact sum left the word range — so the serving engine's counters and
//!   `predict_segmented` attribution count rows whose sum overflowed.
//! * [`PackedWeights`] / [`mac_row_packed`] — the one-row entry the
//!   serving engine's `predict_row` runs per head: a linear model's
//!   weights packed once into the AVX2 kernel's chunk lanes, then one
//!   8-lane accumulator per row and one wrap-once, with no allocation.
//!   It runs the scalar loop wherever `Simd` would run `Reference`, and
//!   for rows narrower than 8 features.
//! * [`mac_row`] / [`mac_row_fx`] and [`WrapCtx`] — the scalar loop for
//!   row-at-a-time callers (`ldafp-models`' families and the core
//!   classifier's `project`), so every tier serves the same words and
//!   flags.
//!
//! Bit-identity is the crate's contract: every kernel's word equals
//! `ldafp_fixedpoint::mac_dot_traced`'s per-step wrapping result, and its
//! flag equals "the traced reference's `exact_sum` lies outside the
//! range". The exhaustive tests and the proptests in `tests/proptests.rs`
//! enforce both for every rounding mode; the scalar loop is therefore
//! always a safe drop-in when no SIMD path is compiled, detected or
//! exact.

#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod scalar;
#[cfg(feature = "simd")]
#[allow(unsafe_code)]
mod simd;

pub use batch::{QBatch, QBatchBuf};

use ldafp_fixedpoint::{Fx, QFormat, RoundingMode};
use scalar::{mode_code, GemmOut, MacSpec};
use std::fmt;

/// Errors reported by batch construction and kernel entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// A flat word buffer is not a whole number of rows.
    TornRows {
        /// Features per row.
        features: usize,
        /// Complete rows before the tear.
        full_rows: usize,
        /// Leftover words after the last complete row.
        trailing: usize,
    },
    /// A dimension disagrees with the batch shape.
    ShapeMismatch {
        /// Which dimension (e.g. `"weights"`, `"row length"`).
        context: &'static str,
        /// The value the batch shape requires.
        expected: usize,
        /// The value supplied.
        got: usize,
    },
    /// An `Fx` element is on a different `(K, F)` grid than the batch.
    FormatMismatch {
        /// The batch's `(K, F)`.
        expected: (u32, u32),
        /// The element's `(K, F)`.
        got: (u32, u32),
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::TornRows {
                features,
                full_rows,
                trailing,
            } => write!(
                f,
                "torn rows: {trailing} trailing words after {full_rows} complete \
                 {features}-feature rows"
            ),
            KernelError::ShapeMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "shape mismatch: {context} expected {expected}, got {got}"
            ),
            KernelError::FormatMismatch { expected, got } => write!(
                f,
                "format mismatch: batch is Q{}.{}, element is Q{}.{}",
                expected.0, expected.1, got.0, got.1
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, KernelError>;

/// Which kernel implementation to run. Both variants are bit-identical —
/// served word and overflow flag — and differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The scalar loop behind [`mac_row`], one exact sum per (row, head),
    /// feature by feature, in `i64` (or `i128` where `i64` could
    /// overflow). Always available; pure safe code.
    /// The ≥2x throughput gate (`crates/bench/tests/kernels_gate.rs`)
    /// times every kind, this one included, against a per-step wrapping
    /// loop called once per row, not against this kind.
    Reference,
    /// The x86_64 AVX2 kernel in 32-bit lanes: row-major for rows of at
    /// least 8 features, an 8-row column tile for narrower ones. Runs
    /// [`KernelKind::Reference`] instead — silently, because the outputs
    /// are bit-identical — when the `simd` feature is off, the CPU lacks
    /// AVX2 (aarch64 has no intrinsic path), or 32-bit lanes are not
    /// exact for the format and row width (word length above 16 bits,
    /// or `features · 2^(2·wl−2−F) ≥ 2^31`).
    Simd,
}

impl KernelKind {
    /// The fastest kernel available on this build and CPU.
    pub fn best() -> Self {
        if Self::simd_available() {
            KernelKind::Simd
        } else {
            KernelKind::Reference
        }
    }

    /// Whether the intrinsic path is compiled in *and* this CPU supports
    /// it.
    pub fn simd_available() -> bool {
        #[cfg(feature = "simd")]
        {
            simd::detected()
        }
        #[cfg(not(feature = "simd"))]
        {
            false
        }
    }

    /// Every kernel that will actually run as itself (not fall back) on
    /// this build and CPU, for differential tests and benches.
    pub fn available() -> Vec<KernelKind> {
        let mut kinds = vec![KernelKind::Reference];
        if Self::simd_available() {
            kinds.push(KernelKind::Simd);
        }
        kinds
    }

    /// Stable display name (`"reference"`, `"simd"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Reference => "reference",
            KernelKind::Simd => "simd",
        }
    }
}

/// Reusable scratch for the AVX2 kernel's 32-bit weight chunks or column
/// tile. One per engine (or per thread); reusing it removes the only
/// allocation in the kernel path. Empty without the `simd` feature.
#[derive(Debug, Default, Clone)]
pub struct GemmScratch {
    #[cfg(feature = "simd")]
    lanes: Vec<i32>,
}

/// Multi-head wrap-once MAC GEMM: `out[r·H + h]` is the served word of
/// `w_h · x_r` — the rounded products summed exactly and wrapped once into
/// the word length, which equals [`ldafp_fixedpoint::mac_dot_traced`]'s
/// per-step wrapping result — and `wraps[r·H + h]` is 1 when that exact
/// sum left `[min, max]`, 0 otherwise (the overflow eq. 20 bounds with
/// confidence ρ; intermediate wraps are harmless and not counted).
/// Single-head callers pass `heads = 1`.
///
/// `weights` is row-major `heads × features` raw words on the batch's
/// grid (model parameters, i.e. `Fx::raw` values — in range by
/// construction). Batch words are wrapped into range on load, matching
/// [`QFormat::from_raw`]. `out` and `wraps` are cleared and resized to
/// `rows × heads`.
///
/// # Errors
///
/// [`KernelError::ShapeMismatch`] when `weights.len() ≠ heads × features`.
pub fn mac_gemm_into(
    kernel: KernelKind,
    batch: &QBatch<'_>,
    weights: &[i64],
    heads: usize,
    mode: RoundingMode,
    scratch: &mut GemmScratch,
    out: &mut Vec<i64>,
    wraps: &mut Vec<u32>,
) -> Result<()> {
    let features = batch.features();
    if weights.len() != heads * features {
        return Err(KernelError::ShapeMismatch {
            context: "weights",
            expected: heads * features,
            got: weights.len(),
        });
    }
    let rows = batch.rows();
    out.clear();
    out.resize(rows * heads, 0);
    wraps.clear();
    wraps.resize(rows * heads, 0);
    let spec = MacSpec::new(batch.format());
    let code = mode_code(mode, batch.format().f());
    let dst = GemmOut { out, wraps };
    #[cfg(not(feature = "simd"))]
    let _ = scratch;
    match kernel {
        #[cfg(feature = "simd")]
        KernelKind::Simd if simd::detected() && simd::lanes32_exact(&spec, features) => {
            simd::gemm_simd(&spec, code, batch, weights, heads, dst, &mut scratch.lanes)
        }
        KernelKind::Reference | KernelKind::Simd => {
            macro_rules! run {
                ($m:expr, $s:ty) => {
                    scalar::gemm_reference::<{ $m }, $s>(&spec, batch, weights, heads, dst)
                };
            }
            scalar::dispatch!(code, spec.sum_fits(features, 64), run)
        }
    }
    Ok(())
}

/// Single-row wrap-once MAC dot product over raw words: the scalar loop
/// [`KernelKind::Reference`] runs per (row, head). `x` words are wrapped
/// into range on load; `w` holds in-range grid words. Returns the served
/// word (equal to [`ldafp_fixedpoint::mac_dot_traced`]'s) and a 0/1
/// flag: 1 when the exact sum of the rounded products left `[min, max]`.
/// The sum is exact in `i64`, or in `i128` where `i64` could overflow.
///
/// # Panics
///
/// When the slices differ in length (callers validate shapes; this is
/// the innermost loop of a hot path).
pub fn mac_row(format: QFormat, mode: RoundingMode, w: &[i64], x: &[i64]) -> (i64, u32) {
    assert_eq!(w.len(), x.len(), "mac_row operand lengths differ");
    let spec = MacSpec::new(format);
    let code = mode_code(mode, format.f());
    scalar::mac_row_pairs(
        &spec,
        code,
        w.len(),
        w.iter().copied().zip(x.iter().copied()),
    )
}

/// [`mac_row`] over `Fx` slices whose formats the caller has already
/// validated against `format` (the models crate validates per its own
/// error taxonomy before dispatching here; the core classifier holds
/// weights and quantized features on one format by construction).
/// Zero-allocation: the raws stream straight into the same scalar loop.
///
/// # Panics
///
/// When the slices differ in length.
pub fn mac_row_fx(format: QFormat, mode: RoundingMode, w: &[Fx], x: &[Fx]) -> (i64, u32) {
    assert_eq!(w.len(), x.len(), "mac_row_fx operand lengths differ");
    let spec = MacSpec::new(format);
    let code = mode_code(mode, format.f());
    scalar::mac_row_pairs(
        &spec,
        code,
        w.len(),
        w.iter().zip(x).map(|(a, b)| (a.raw(), b.raw())),
    )
}

/// A linear model's raw weights, `heads × features` row-major words on
/// one `QK.F` grid, packed once for [`mac_row_packed`]. Where the AVX2
/// one-row path runs — the [`KernelKind::Simd`] conditions hold and rows
/// have at least 8 features — the weights are also laid out in the
/// kernel's 32-bit chunk lanes, the layout the batch kernel builds per
/// call; elsewhere only the words are kept and the scalar loop runs.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    spec: MacSpec,
    features: usize,
    heads: usize,
    words: Vec<i64>,
    /// `heads · ⌈M/8⌉ · 8` chunk lanes; empty where the scalar loop runs.
    #[cfg(feature = "simd")]
    lanes: Vec<i32>,
}

impl PackedWeights {
    /// Packs `words` (`heads × features`, in range on `format`'s grid —
    /// model parameters) for `kernel` on this build and CPU.
    ///
    /// # Errors
    ///
    /// [`KernelError::ShapeMismatch`] when `words.len() ≠ heads × features`.
    pub fn new(
        kernel: KernelKind,
        format: QFormat,
        features: usize,
        heads: usize,
        words: Vec<i64>,
    ) -> Result<Self> {
        if words.len() != heads * features {
            return Err(KernelError::ShapeMismatch {
                context: "weights",
                expected: heads * features,
                got: words.len(),
            });
        }
        let spec = MacSpec::new(format);
        #[cfg(not(feature = "simd"))]
        let _ = kernel;
        #[cfg(feature = "simd")]
        let lanes = {
            let mut lanes = Vec::new();
            if kernel == KernelKind::Simd
                && simd::detected()
                && features >= 8
                && simd::lanes32_exact(&spec, features)
            {
                simd::pack_chunks(&words, features, &mut lanes);
            }
            lanes
        };
        Ok(PackedWeights {
            spec,
            features,
            heads,
            words,
            #[cfg(feature = "simd")]
            lanes,
        })
    }

    /// The raw weight words, `heads × features` row-major, as
    /// [`mac_gemm_into`] takes them.
    pub fn words(&self) -> &[i64] {
        &self.words
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The kernel [`mac_row_packed`] runs: [`KernelKind::Simd`] where the
    /// chunk lanes were packed, [`KernelKind::Reference`] elsewhere.
    pub fn kernel(&self) -> KernelKind {
        #[cfg(feature = "simd")]
        if !self.lanes.is_empty() {
            return KernelKind::Simd;
        }
        KernelKind::Reference
    }
}

/// One row's wrap-once MAC against head `head` of packed weights: the
/// same served word and 0/1 overflow flag as [`mac_row`] on that head's
/// words, computed in one 8-lane accumulator over the row's chunks where
/// [`PackedWeights::kernel`] is [`KernelKind::Simd`], by the scalar loop
/// elsewhere. `x` words are wrapped into range on load. Allocates
/// nothing.
///
/// # Panics
///
/// When `x.len()` differs from the packed feature count or `head` is out
/// of range (callers validate shapes; this is a hot path).
pub fn mac_row_packed(
    packed: &PackedWeights,
    head: usize,
    mode: RoundingMode,
    x: &[i64],
) -> (i64, u32) {
    let (spec, m) = (&packed.spec, packed.features);
    assert_eq!(x.len(), m, "mac_row_packed row length differs");
    let code = mode_code(mode, spec.f);
    #[cfg(feature = "simd")]
    if !packed.lanes.is_empty() {
        let per_head = m.div_ceil(8) * 8;
        let lanes = &packed.lanes[head * per_head..(head + 1) * per_head];
        return simd::row_simd(spec, code, lanes, x);
    }
    let w = &packed.words[head * m..(head + 1) * m];
    scalar::mac_row_pairs(spec, code, m, w.iter().copied().zip(x.iter().copied()))
}

/// The branchless two's-complement wrap shared with the table-driven
/// families: naive Bayes gathers table words instead of computing
/// products, sums them exactly, and wraps and flags once like the MAC
/// kernels.
#[derive(Debug, Clone, Copy)]
pub struct WrapCtx {
    spec: MacSpec,
}

impl WrapCtx {
    /// Wrap context for a format.
    pub fn new(format: QFormat) -> Self {
        WrapCtx {
            spec: MacSpec::new(format),
        }
    }

    /// Two's-complement wrap into the word length — identical to
    /// [`QFormat::wrap_raw`] for every `i64`.
    #[inline]
    pub fn wrap(&self, v: i64) -> i64 {
        self.spec.wrap(v)
    }

    /// The served word of an exact sum — the sum wrapped once — and
    /// whether the sum overflowed, i.e. lay outside `[min, max]`.
    #[inline]
    pub fn wrap_once(&self, sum: i64) -> (i64, bool) {
        let word = self.wrap(sum);
        (word, word != sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_fixedpoint::{mac_dot_traced, InputScale};
    use ldafp_stats::Rng;

    const ALL_MODES: [RoundingMode; 5] = [
        RoundingMode::NearestEven,
        RoundingMode::NearestAway,
        RoundingMode::Floor,
        RoundingMode::Ceil,
        RoundingMode::TowardZero,
    ];

    fn q(k: u32, f: u32) -> QFormat {
        QFormat::new(k, f).unwrap()
    }

    fn random_words(format: QFormat, n: usize, rng: &mut Rng) -> Vec<i64> {
        let (lo, hi) = (format.min_raw(), format.max_raw());
        (0..n).map(|_| rng.range_i64(lo..=hi)).collect()
    }

    /// The overflow flag the kernels must return for a traced MAC: 1 when
    /// the exact rounded-product sum lies outside the word range.
    fn overflow_flag(format: QFormat, exact_sum: i128) -> u32 {
        let (lo, hi) = (format.min_raw() as i128, format.max_raw() as i128);
        u32::from(exact_sum < lo || exact_sum > hi)
    }

    /// Per-(row, head) expected `(word, flag)` via the element-wise
    /// traced reference — the slowest, most independent oracle: the word
    /// is its per-step wrapping result, the flag its exact sum out of
    /// range.
    fn traced_expectation(
        format: QFormat,
        mode: RoundingMode,
        words: &[i64],
        features: usize,
        weights: &[i64],
        heads: usize,
    ) -> (Vec<i64>, Vec<u32>) {
        let rows = words.len() / features;
        let mut out = Vec::with_capacity(rows * heads);
        let mut flags = Vec::with_capacity(rows * heads);
        for r in 0..rows {
            let x: Vec<Fx> = words[r * features..(r + 1) * features]
                .iter()
                .map(|&v| format.from_raw(v))
                .collect();
            for h in 0..heads {
                let w: Vec<Fx> = weights[h * features..(h + 1) * features]
                    .iter()
                    .map(|&v| format.from_raw(v))
                    .collect();
                let (y, trace) = mac_dot_traced(&w, &x, mode).unwrap();
                out.push(y.raw());
                flags.push(overflow_flag(format, trace.exact_sum));
            }
        }
        (out, flags)
    }

    /// Every kernel variant that runs on this build/CPU reproduces the
    /// traced element-wise reference — served word *and* overflow flag —
    /// for every rounding mode, across formats on both sides of the
    /// 32-bit-lane bound (`wl ≤ 16` and `M·2^(2·wl−2−F) < 2^31`) and of
    /// the `i64` exact-sum bound, row widths on both sides of the
    /// row-major threshold (and not multiples of 8), 1–3 heads, and 0, 1
    /// and 257 rows. Batch words span up to ±2^40 and are wrapped on
    /// load; each case scales its words down by a random shift so both
    /// flag values occur.
    #[test]
    fn all_kernels_match_traced_reference_all_modes() {
        let mut rng = Rng::new(2014);
        let kinds = KernelKind::available();
        assert!(kinds.contains(&KernelKind::Reference));
        let formats = [
            (1u32, 5u32), // bci42's Q1.5
            (2, 6),
            (3, 0),
            (1, 12),
            (4, 1),
            (8, 8),   // wl = 16: lanes hold any M < 512
            (12, 4),  // wl = 16: lanes hold M < 32 only
            (16, 0),  // wl = 16: lanes hold M = 1 only
            (9, 8),   // wl = 17: never in lanes
            (16, 15), // wl = 31, i64 sums
            (30, 1),  // i64 holds M < 16 only
            (31, 0),  // i64 holds M < 8 only
        ];
        let mut seen = [0usize; 2];
        for (k, f) in formats {
            let format = q(k, f);
            for (i, features) in [1usize, 3, 7, 8, 9, 42, 50].into_iter().enumerate() {
                let heads = 1 + i % 3;
                for rows in [0usize, 1, 257] {
                    let shift = rng.below(format.word_length() as usize) as u32;
                    let words: Vec<i64> = (0..rows * features)
                        .map(|_| {
                            let v = rng.range_i64(-(1i64 << 40)..=(1i64 << 40));
                            // Scale an in-range draw down, or keep a wide one.
                            if rng.below(4) == 0 {
                                v
                            } else {
                                format.from_raw(v).raw() >> shift
                            }
                        })
                        .collect();
                    let weights = random_words(format, heads * features, &mut rng);
                    let batch = QBatch::from_words(format, features, &words).unwrap();
                    for mode in ALL_MODES {
                        let (want_out, want_flags) =
                            traced_expectation(format, mode, &words, features, &weights, heads);
                        for flag in &want_flags {
                            seen[*flag as usize] += 1;
                        }
                        for &kind in &kinds {
                            let mut scratch = GemmScratch::default();
                            let (mut out, mut flags) = (Vec::new(), Vec::new());
                            mac_gemm_into(
                                kind,
                                &batch,
                                &weights,
                                heads,
                                mode,
                                &mut scratch,
                                &mut out,
                                &mut flags,
                            )
                            .unwrap();
                            assert_eq!(
                                (out, flags),
                                (want_out.clone(), want_flags.clone()),
                                "kernel={} Q{k}.{f} {mode:?} rows={rows} m={features} \
                                 heads={heads}",
                                kind.name()
                            );
                        }
                        for r in 0..rows {
                            let (word, flag) =
                                mac_row(format, mode, &weights[..features], batch.row(r));
                            assert_eq!((word, flag), (want_out[r * heads], want_flags[r * heads]));
                        }
                    }
                }
            }
        }
        assert!(
            seen[0] > 1000 && seen[1] > 1000,
            "both flag values occur: {seen:?}"
        );
    }

    /// Exhaustive small-format sweep: every (w, x) pair of a Q2.2 grid
    /// through every kernel and mode serves the traced reference's word,
    /// and flags exactly the sums it puts out of range.
    #[test]
    fn exhaustive_small_format_all_pairs() {
        let format = q(2, 2);
        let vals: Vec<i64> = (format.min_raw()..=format.max_raw()).collect();
        let kinds = KernelKind::available();
        for &w0 in &vals {
            for &x0 in &vals {
                let weights = [w0, 3, -5];
                let words = [x0, -7, 6];
                let wfx: Vec<Fx> = weights.iter().map(|&v| format.from_raw(v)).collect();
                let xfx: Vec<Fx> = words.iter().map(|&v| format.from_raw(v)).collect();
                let batch = QBatch::from_words(format, 3, &words).unwrap();
                for mode in ALL_MODES {
                    let (want, trace) = mac_dot_traced(&wfx, &xfx, mode).unwrap();
                    let want = (want.raw(), overflow_flag(format, trace.exact_sum));
                    for &kind in &kinds {
                        let mut scratch = GemmScratch::default();
                        let (mut out, mut flags) = (Vec::new(), Vec::new());
                        mac_gemm_into(
                            kind,
                            &batch,
                            &weights,
                            1,
                            mode,
                            &mut scratch,
                            &mut out,
                            &mut flags,
                        )
                        .unwrap();
                        assert_eq!((out[0], flags[0]), want, "kernel={} {mode:?}", kind.name());
                    }
                    assert_eq!(mac_row(format, mode, &weights, &words), want);
                    assert_eq!(mac_row_fx(format, mode, &wfx, &xfx), want);
                }
            }
        }
    }

    /// The one-row entry serves `mac_row`'s word and flag, head by head,
    /// for every rounding mode and every kernel on this build/CPU, at
    /// widths on both sides of 8 and of its multiples. On Q2.2 every
    /// (w, x) pair sits at every feature position, the other features
    /// drawn in range or (for words) up to ±2^40, wrapped on load; Q1.5
    /// (bci42's format) takes random rows. Q9.8 (`wl = 17`) packs no
    /// lanes, so it runs the scalar loop under either kernel.
    #[test]
    fn packed_row_matches_mac_row_all_pairs() {
        let mut rng = Rng::new(38);
        let mut seen = [0usize; 2];
        for (k, f) in [(2u32, 2u32), (1, 5), (9, 8)] {
            let format = q(k, f);
            let grid: Vec<i64> = (format.min_raw()..=format.max_raw()).collect();
            for m in [1usize, 3, 7, 8, 9, 15, 16, 17, 42] {
                let draw_x = |rng: &mut Rng| {
                    if rng.below(8) == 0 {
                        rng.range_i64(-(1i64 << 40)..=(1i64 << 40))
                    } else {
                        random_words(format, 1, rng)[0]
                    }
                };
                let mut cases: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
                if grid.len() <= 16 {
                    for pos in 0..m {
                        for &a in &grid {
                            for &b in &grid {
                                let mut w = random_words(format, 2 * m, &mut rng);
                                let mut x: Vec<i64> = (0..m).map(|_| draw_x(&mut rng)).collect();
                                (w[pos], x[pos]) = (a, b);
                                cases.push((w, x));
                            }
                        }
                    }
                } else {
                    for _ in 0..200 {
                        let w = random_words(format, 2 * m, &mut rng);
                        cases.push((w, (0..m).map(|_| draw_x(&mut rng)).collect()));
                    }
                }
                for kind in KernelKind::available() {
                    for (w, x) in &cases {
                        let packed = PackedWeights::new(kind, format, m, 2, w.clone()).unwrap();
                        let simd = kind == KernelKind::Simd && m >= 8 && format.word_length() <= 16;
                        assert_eq!(packed.kernel() == KernelKind::Simd, simd, "Q{k}.{f} m={m}");
                        for mode in ALL_MODES {
                            for h in 0..2 {
                                let want = mac_row(format, mode, &w[h * m..(h + 1) * m], x);
                                seen[want.1 as usize] += 1;
                                assert_eq!(
                                    mac_row_packed(&packed, h, mode, x),
                                    want,
                                    "kernel={} Q{k}.{f} {mode:?} m={m} head {h} w={w:?} x={x:?}",
                                    kind.name()
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(
            seen[0] > 1000 && seen[1] > 1000,
            "both flag values occur: {seen:?}"
        );
    }

    /// An exact sum can need more than 64 bits: in Q31.0 sixteen products
    /// of two minimum words sum to `16 · 2^60 = 2^64`, which wraps an
    /// `i64` to 0 — inside the word range — while the true sum is far
    /// outside it. Every kernel must still flag it.
    #[test]
    fn exact_sums_wider_than_i64_are_flagged() {
        let format = q(31, 0);
        let min = format.min_raw();
        for features in [8usize, 16] {
            let words = vec![min; 3 * features];
            let weights = vec![min; features];
            let batch = QBatch::from_words(format, features, &words).unwrap();
            let want = traced_expectation(
                format,
                RoundingMode::NearestEven,
                &words,
                features,
                &weights,
                1,
            );
            assert_eq!(want, (vec![0; 3], vec![1; 3]), "m={features}");
            for kind in KernelKind::available() {
                let mut scratch = GemmScratch::default();
                let (mut out, mut flags) = (Vec::new(), Vec::new());
                mac_gemm_into(
                    kind,
                    &batch,
                    &weights,
                    1,
                    RoundingMode::NearestEven,
                    &mut scratch,
                    &mut out,
                    &mut flags,
                )
                .unwrap();
                assert_eq!((out, flags), want, "kernel={} m={features}", kind.name());
            }
            assert_eq!(
                mac_row(format, RoundingMode::Floor, &weights, batch.row(0)),
                (0, 1)
            );
        }
    }

    /// Batch words outside the raw range wrap on load exactly like
    /// `QFormat::from_raw` — the zero-copy wire-word contract.
    #[test]
    fn out_of_range_words_wrap_like_from_raw() {
        let format = q(2, 6);
        let mut rng = Rng::new(7);
        let features = 5;
        let rows = 11;
        let words: Vec<i64> = (0..rows * features)
            .map(|_| rng.range_i64(-(1i64 << 40)..=(1i64 << 40)))
            .collect();
        let wrapped: Vec<i64> = words.iter().map(|&v| format.from_raw(v).raw()).collect();
        let weights = random_words(format, features, &mut rng);
        for kind in KernelKind::available() {
            let mut scratch = GemmScratch::default();
            let (mut out_a, mut wraps_a) = (Vec::new(), Vec::new());
            let (mut out_b, mut wraps_b) = (Vec::new(), Vec::new());
            let raw_batch = QBatch::from_words(format, features, &words).unwrap();
            let pre_batch = QBatch::from_words(format, features, &wrapped).unwrap();
            let mode = RoundingMode::NearestEven;
            mac_gemm_into(
                kind,
                &raw_batch,
                &weights,
                1,
                mode,
                &mut scratch,
                &mut out_a,
                &mut wraps_a,
            )
            .unwrap();
            mac_gemm_into(
                kind,
                &pre_batch,
                &weights,
                1,
                mode,
                &mut scratch,
                &mut out_b,
                &mut wraps_b,
            )
            .unwrap();
            assert_eq!((out_a, wraps_a), (out_b, wraps_b), "kernel={}", kind.name());
        }
    }

    #[test]
    fn batch_shape_errors() {
        let format = q(2, 6);
        assert_eq!(
            QBatch::from_words(format, 0, &[1, 2, 3]).unwrap_err(),
            KernelError::ShapeMismatch {
                context: "features",
                expected: 1,
                got: 0
            }
        );
        assert_eq!(
            QBatch::from_words(format, 4, &[1, 2, 3, 4, 5]).unwrap_err(),
            KernelError::TornRows {
                features: 4,
                full_rows: 1,
                trailing: 1
            }
        );
        let words = [1i64, 2, 3, 4];
        let batch = QBatch::from_words(format, 2, &words).unwrap();
        assert_eq!(batch.rows(), 2);
        assert_eq!(batch.row(1), &[3, 4]);
        let mut scratch = GemmScratch::default();
        let (mut out, mut wraps) = (Vec::new(), Vec::new());
        assert_eq!(
            mac_gemm_into(
                KernelKind::Reference,
                &batch,
                &[1, 2, 3],
                2,
                RoundingMode::Floor,
                &mut scratch,
                &mut out,
                &mut wraps,
            )
            .unwrap_err(),
            KernelError::ShapeMismatch {
                context: "weights",
                expected: 4,
                got: 3
            }
        );
    }

    #[test]
    fn empty_batch_yields_empty_outputs() {
        let format = q(2, 6);
        let batch = QBatch::from_words(format, 3, &[]).unwrap();
        assert_eq!(batch.rows(), 0);
        let mut scratch = GemmScratch::default();
        let mut out = vec![99];
        let mut wraps = vec![99];
        for kind in KernelKind::available() {
            mac_gemm_into(
                kind,
                &batch,
                &[1, 2, 3],
                1,
                RoundingMode::Floor,
                &mut scratch,
                &mut out,
                &mut wraps,
            )
            .unwrap();
            assert!(out.is_empty() && wraps.is_empty(), "kernel={}", kind.name());
        }
    }

    /// `QBatchBuf::push_row_f64` lands on the exact same raw words as the
    /// scalar `quantize_raw` reference, and counts saturating inputs the
    /// way the engine's counter does (outside `[min, max]` before
    /// clipping).
    #[test]
    fn batch_buf_quantizes_like_the_row_path() {
        let format = q(2, 6);
        let mut rng = Rng::new(21);
        let mut buf = QBatchBuf::new(format, 4);
        let mut expect_words = Vec::new();
        let mut expect_sat = 0u64;
        let mut total_sat = 0u64;
        for _ in 0..13 {
            let row: Vec<f64> = (0..4).map(|_| rng.range_f64(-4.0..4.0)).collect();
            total_sat += buf.push_row_f64(&row, RoundingMode::NearestEven).unwrap();
            expect_words.extend(
                row.iter()
                    .map(|&x| format.quantize_raw(x, RoundingMode::NearestEven)),
            );
            expect_sat += row
                .iter()
                .filter(|x| **x < format.min_value() || **x > format.max_value())
                .count() as u64;
        }
        assert_eq!(buf.as_batch().words(), expect_words.as_slice());
        assert_eq!(total_sat, expect_sat);
        assert!(
            total_sat > 0,
            "amplitude 4.0 must exercise saturation in Q2.6"
        );
        assert_eq!(buf.rows(), 13);

        // A cleared builder overwrites its old rows in place; none of
        // the 13 earlier rows leak into the new batch.
        buf.clear();
        buf.push_row_f64(&[0.5, -0.25, 9.0, 0.0], RoundingMode::NearestEven)
            .unwrap();
        assert_eq!(buf.rows(), 1);
        assert_eq!(buf.as_batch().words(), &[32, -16, 127, 0]);
    }

    /// A scaled input `y` aimed at the quantizer's edges: NaN, ±inf, ±0,
    /// exact half-ties, grid points, one ulp outside either range end, the
    /// ends themselves, and plain draws across twice the range.
    fn edge_value(format: QFormat, rng: &mut Rng) -> f64 {
        let n = rng.range_i64(format.min_raw()..=format.max_raw()) as f64;
        let res = format.resolution();
        match rng.below(13) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5 => (n + 0.5) * res,
            6 => -(n + 0.5) * res,
            7 => n * res,
            8 => format.min_value().next_down(),
            9 => format.max_value().next_up(),
            10 => format.min_value(),
            11 => format.max_value(),
            _ => rng.range_f64(2.0 * format.min_value()..2.0 * format.max_value()),
        }
    }

    /// The batch quantizer's AVX2 build, where it is compiled in and this
    /// CPU has AVX2.
    fn quantize_rows_avx2(
        format: QFormat,
        rows: &[Vec<f64>],
        scale: InputScale<'_>,
        mode: RoundingMode,
        out: &mut [i64],
    ) -> Option<u64> {
        #[cfg(feature = "simd")]
        if simd::detected() {
            return Some(simd::quantize_rows_avx2(format, rows, scale, mode, out));
        }
        let _ = (format, rows, scale, mode, out);
        None
    }

    /// Both builds of the batch quantizer, each called directly — the
    /// AVX2 build with row prefetch wherever this CPU has AVX2, and the
    /// portable build — and the dispatching `QBatchBuf::push_rows_scaled`
    /// write `quantize_raw(x·s)` for every element and count exactly the
    /// scaled inputs outside `[min, max]`. Cases cover every rounding
    /// mode with every scale kind (identity, uniform, per-feature) and row
    /// count (0, 1, 255, 256, 257), at every width from 1 to 64, so every
    /// vector remainder occurs. Inputs are drawn as scaled values on the
    /// quantizer's edges and divided by power-of-two scales (exactly), or
    /// by others now and then.
    #[test]
    fn batch_quantizer_builds_match_quantize_raw() {
        const ROWS: [usize; 5] = [0, 1, 255, 256, 257];
        const SCALES: [f64; 7] = [0.5, 2.0, 0.25, 4.0, 1.0, 0.1, 3.0];
        let mut rng = Rng::new(29);
        let mut avx2_cases = 0;
        for width in 1..=64usize {
            for (m, mode) in ALL_MODES.into_iter().enumerate() {
                let rows = ROWS[(width + m) % ROWS.len()];
                let format = q(1 + rng.below(16) as u32, rng.below(16) as u32);
                let factors: Vec<f64> = match (width + 2 * m) % 3 {
                    0 => vec![1.0],
                    1 => vec![SCALES[rng.below(SCALES.len())]],
                    _ => (0..width)
                        .map(|_| SCALES[rng.below(SCALES.len())])
                        .collect(),
                };
                let scale = match factors.len() {
                    1 if factors[0] == 1.0 => InputScale::Identity,
                    1 => InputScale::Uniform(factors[0]),
                    _ => InputScale::PerFeature(&factors),
                };
                let factor = |i: usize| factors[i % factors.len()];
                let xs: Vec<Vec<f64>> = (0..rows)
                    .map(|_| {
                        (0..width)
                            .map(|i| edge_value(format, &mut rng) / factor(i))
                            .collect()
                    })
                    .collect();
                let mut want = Vec::with_capacity(rows * width);
                let mut want_saturated = 0u64;
                for row in &xs {
                    for (i, &x) in row.iter().enumerate() {
                        let y = x * factor(i);
                        want.push(format.quantize_raw(y, mode));
                        want_saturated +=
                            u64::from(y < format.min_value() || y > format.max_value());
                    }
                }
                let case = format!("{format} {mode:?} {scale:?} rows={rows} m={width}");
                let mut out = vec![i64::MIN; rows * width];
                let saturated = batch::quantize_rows_portable(format, &xs, scale, mode, &mut out);
                assert_eq!(
                    (&out, saturated),
                    (&want, want_saturated),
                    "portable {case}"
                );
                out.fill(i64::MIN);
                if let Some(saturated) = quantize_rows_avx2(format, &xs, scale, mode, &mut out) {
                    assert_eq!((&out, saturated), (&want, want_saturated), "avx2 {case}");
                    avx2_cases += 1;
                }
                let mut buf = QBatchBuf::new(format, width);
                let saturated = buf.push_rows_scaled(&xs, scale, mode).unwrap();
                assert_eq!(
                    (buf.as_batch().words(), saturated),
                    (want.as_slice(), want_saturated),
                    "push_rows_scaled {case}"
                );
            }
        }
        assert_eq!(avx2_cases > 0, KernelKind::simd_available());
    }

    #[test]
    fn batch_buf_rejects_bad_rows() {
        let format = q(2, 6);
        let mut buf = QBatchBuf::new(format, 3);
        assert_eq!(
            buf.push_row_f64(&[0.0; 4], RoundingMode::Floor)
                .unwrap_err(),
            KernelError::ShapeMismatch {
                context: "row length",
                expected: 3,
                got: 4
            }
        );
        assert_eq!(
            buf.push_rows_scaled(&[[0.0; 3]], InputScale::Identity, RoundingMode::Floor)
                .unwrap(),
            0
        );
        assert_eq!(
            buf.push_rows_scaled(
                &[vec![0.0; 3], vec![0.0; 2]],
                InputScale::Identity,
                RoundingMode::Floor
            )
            .unwrap_err(),
            KernelError::ShapeMismatch {
                context: "row length",
                expected: 3,
                got: 2
            }
        );
        assert_eq!(
            buf.push_rows_scaled(
                &[[0.0; 3]],
                InputScale::PerFeature(&[1.0; 2]),
                RoundingMode::Floor
            )
            .unwrap_err(),
            KernelError::ShapeMismatch {
                context: "input scale",
                expected: 3,
                got: 2
            }
        );
        assert_eq!(
            buf.push_row_fx(&[format.zero(); 2]).unwrap_err(),
            KernelError::ShapeMismatch {
                context: "row length",
                expected: 3,
                got: 2
            }
        );
        let other = q(3, 1);
        assert_eq!(
            buf.push_row_fx(&[other.zero(); 3]).unwrap_err(),
            KernelError::FormatMismatch {
                expected: (2, 6),
                got: (3, 1)
            }
        );
        // Only the good batch and this row were appended.
        buf.push_row_fx(&[format.zero(); 3]).unwrap();
        assert_eq!(buf.rows(), 2);
        buf.clear();
        assert_eq!(buf.rows(), 0);
    }

    /// `WrapCtx::wrap` is `QFormat::wrap_raw` over the whole `i64`
    /// range, and `wrap_once` flags exactly the sums outside the range.
    #[test]
    fn wrap_ctx_matches_wrap_raw() {
        for (k, f) in [(2u32, 6u32), (3, 0), (1, 12)] {
            let format = q(k, f);
            let ctx = WrapCtx::new(format);
            let mut rng = Rng::new(5);
            for _ in 0..2_000 {
                let v = rng.range_i64(-(1i64 << 60)..=(1i64 << 60));
                assert_eq!(ctx.wrap(v), format.wrap_raw(v as i128), "Q{k}.{f} v={v}");
                let sum = v >> rng.below(62);
                assert_eq!(
                    ctx.wrap_once(sum),
                    (
                        format.wrap_raw(sum as i128),
                        overflow_flag(format, sum as i128) == 1
                    )
                );
            }
        }
    }

    /// The `Simd` kind is always safe to request: when no intrinsic path
    /// is compiled or detected it silently runs the reference kernel, and
    /// the outputs are identical either way.
    #[test]
    fn simd_kind_is_safe_everywhere() {
        let format = q(2, 6);
        let mut rng = Rng::new(3);
        let words = random_words(format, 10 * 7, &mut rng);
        let weights = random_words(format, 2 * 7, &mut rng);
        let batch = QBatch::from_words(format, 7, &words).unwrap();
        let mut scratch = GemmScratch::default();
        let (mut out_s, mut wraps_s) = (Vec::new(), Vec::new());
        let (mut out_b, mut wraps_b) = (Vec::new(), Vec::new());
        mac_gemm_into(
            KernelKind::Simd,
            &batch,
            &weights,
            2,
            RoundingMode::NearestAway,
            &mut scratch,
            &mut out_s,
            &mut wraps_s,
        )
        .unwrap();
        mac_gemm_into(
            KernelKind::Reference,
            &batch,
            &weights,
            2,
            RoundingMode::NearestAway,
            &mut scratch,
            &mut out_b,
            &mut wraps_b,
        )
        .unwrap();
        assert_eq!((out_s, wraps_s), (out_b, wraps_b));
        assert_eq!(
            KernelKind::best().name(),
            if KernelKind::simd_available() {
                "simd"
            } else {
                "reference"
            }
        );
    }
}
