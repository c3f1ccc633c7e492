//! Structure-of-arrays batches and vectorized wrapping-MAC kernels.
//!
//! The paper's datapath is `y = wᵀx` on a fixed-width wrapping MAC
//! (§1/§3); at serving time that product *is* the hot loop. The
//! row-at-a-time path carries `(raw, format)` pairs per element and
//! re-dispatches the rounding mode per product. This crate restructures
//! the batch side of that loop:
//!
//! * [`QBatch`] / [`QBatchBuf`] — one contiguous row-major `i64` word
//!   buffer plus a single [`QFormat`] tag, converted once at the
//!   boundary (floats are quantized on append; raw wire words are
//!   borrowed **zero-copy** and wrapped on load).
//! * [`mac_gemm_into`] / [`mac_gemv_into`] — cache-blocked tile kernels
//!   (8 rows per tile, column-major packed scratch, 8 independent
//!   accumulator chains) monomorphized per rounding mode, with an
//!   optional `core::arch` path (x86_64 AVX2 / aarch64 NEON, behind
//!   runtime detection and the `simd` cargo feature). Every kernel
//!   returns per-row/per-head accumulator-wrap counts, so the serving
//!   engine's counters and `predict_segmented` attribution are exactly
//!   preserved.
//! * [`mac_row`] / [`mac_row_fx`] and [`WrapCtx`] — the same
//!   monomorphized scalar datapath for row-at-a-time callers
//!   (`ldafp-models`' families), so every tier executes one rounding /
//!   wrap implementation.
//!
//! Bit-identity is the crate's contract: all kernels — scalar blocked,
//! AVX2, NEON — reproduce `ldafp_fixedpoint::mac_dot_counted` (itself
//! pinned to the element-wise traced reference) value-for-value and
//! wrap-count-for-wrap-count. The exhaustive tests and the proptests in
//! `tests/proptests.rs` enforce it for every rounding mode; the scalar
//! fallback is therefore always a safe drop-in when no SIMD path is
//! compiled or detected.

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
            } => write!(f, "shape mismatch: {context} expected {expected}, got {got}"),
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

/// Which kernel implementation to run. All variants are bit-identical;
/// they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The row-at-a-time `mac_dot_counted` loop lifted onto raw words.
    /// The ≥2x throughput gate (`crates/bench/tests/kernels_gate.rs`)
    /// times every kind, this one included, against one
    /// `mac_dot_counted` call per row, not against this kind.
    Reference,
    /// Cache-blocked scalar tiles (8 rows, column-major packed scratch).
    /// Always available; pure safe code.
    Blocked,
    /// The `core::arch` intrinsic tile kernel (AVX2 on x86_64, NEON on
    /// aarch64). Falls back to [`KernelKind::Blocked`] when the `simd`
    /// feature is off or the CPU lacks the instructions — silently,
    /// because the outputs are bit-identical either way.
    Simd,
}

impl KernelKind {
    /// The fastest kernel available on this build and CPU.
    pub fn best() -> Self {
        if Self::simd_available() {
            KernelKind::Simd
        } else {
            KernelKind::Blocked
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
        let mut kinds = vec![KernelKind::Reference, KernelKind::Blocked];
        if Self::simd_available() {
            kinds.push(KernelKind::Simd);
        }
        kinds
    }

    /// Stable display name (`"reference"`, `"blocked"`, `"simd"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Reference => "reference",
            KernelKind::Blocked => "blocked",
            KernelKind::Simd => "simd",
        }
    }
}

/// Reusable packing scratch for the tile kernels. One per engine (or per
/// thread); reusing it removes the only allocation in the kernel path.
#[derive(Debug, Default, Clone)]
pub struct GemmScratch {
    pack: Vec<i64>,
}

/// Multi-head wrapping-MAC GEMM: `out[r·H + h] = wrap-MAC(w_h, x_r)`,
/// `wraps[r·H + h]` the per-step accumulator wrap count of that MAC —
/// exactly [`ldafp_fixedpoint::mac_dot_counted`] per (row, head) pair.
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
    match kernel {
        KernelKind::Reference => dispatch_reference(&spec, code, batch, weights, heads, dst),
        KernelKind::Blocked => {
            dispatch_blocked(&spec, code, batch, weights, heads, dst, &mut scratch.pack)
        }
        KernelKind::Simd => {
            #[cfg(feature = "simd")]
            {
                if simd::detected() {
                    simd::gemm_simd(
                        &spec,
                        code,
                        batch.words(),
                        rows,
                        features,
                        weights,
                        heads,
                        dst.out,
                        dst.wraps,
                        &mut scratch.pack,
                    );
                    return Ok(());
                }
            }
            dispatch_blocked(&spec, code, batch, weights, heads, dst, &mut scratch.pack)
        }
    }
    Ok(())
}

/// Single-head convenience wrapper over [`mac_gemm_into`].
///
/// # Errors
///
/// Same conditions as [`mac_gemm_into`].
pub fn mac_gemv_into(
    kernel: KernelKind,
    batch: &QBatch<'_>,
    weights: &[i64],
    mode: RoundingMode,
    scratch: &mut GemmScratch,
    out: &mut Vec<i64>,
    wraps: &mut Vec<u32>,
) -> Result<()> {
    mac_gemm_into(kernel, batch, weights, 1, mode, scratch, out, wraps)
}

fn dispatch_reference(
    spec: &MacSpec,
    code: u8,
    batch: &QBatch<'_>,
    w: &[i64],
    heads: usize,
    dst: GemmOut<'_>,
) {
    macro_rules! run {
        ($m:expr) => {
            scalar::gemm_reference::<{ $m }>(spec, batch, w, heads, dst)
        };
    }
    match code {
        scalar::MODE_FLOOR => run!(scalar::MODE_FLOOR),
        scalar::MODE_CEIL => run!(scalar::MODE_CEIL),
        scalar::MODE_TOWARD_ZERO => run!(scalar::MODE_TOWARD_ZERO),
        scalar::MODE_NEAREST_AWAY => run!(scalar::MODE_NEAREST_AWAY),
        scalar::MODE_NEAREST_EVEN => run!(scalar::MODE_NEAREST_EVEN),
        _ => run!(scalar::MODE_EXACT),
    }
}

fn dispatch_blocked(
    spec: &MacSpec,
    code: u8,
    batch: &QBatch<'_>,
    w: &[i64],
    heads: usize,
    dst: GemmOut<'_>,
    pack: &mut Vec<i64>,
) {
    macro_rules! run {
        ($m:expr) => {
            scalar::gemm_blocked::<{ $m }>(spec, batch, w, heads, dst, pack)
        };
    }
    match code {
        scalar::MODE_FLOOR => run!(scalar::MODE_FLOOR),
        scalar::MODE_CEIL => run!(scalar::MODE_CEIL),
        scalar::MODE_TOWARD_ZERO => run!(scalar::MODE_TOWARD_ZERO),
        scalar::MODE_NEAREST_AWAY => run!(scalar::MODE_NEAREST_AWAY),
        scalar::MODE_NEAREST_EVEN => run!(scalar::MODE_NEAREST_EVEN),
        _ => run!(scalar::MODE_EXACT),
    }
}

/// Single-row wrapping-MAC dot product over raw words, on the same
/// monomorphized datapath as the tile kernels. `x` words are wrapped
/// into range on load; `w` holds in-range grid words. Returns the final
/// wrapped accumulator and the per-step wrap count — exactly
/// [`ldafp_fixedpoint::mac_dot_counted`].
///
/// # Panics
///
/// When the slices differ in length (callers validate shapes; this is
/// the innermost loop of a hot path).
pub fn mac_row(format: QFormat, mode: RoundingMode, w: &[i64], x: &[i64]) -> (i64, u32) {
    assert_eq!(w.len(), x.len(), "mac_row operand lengths differ");
    let spec = MacSpec::new(format);
    let code = mode_code(mode, format.f());
    scalar::mac_row_pairs(&spec, code, w.iter().copied().zip(x.iter().copied()))
}

/// [`mac_row`] over `Fx` slices whose formats the caller has already
/// validated against `format` (the models crate validates per its own
/// error taxonomy before dispatching here). Zero-allocation: the raws
/// stream straight into the shared monomorphized step.
///
/// # Panics
///
/// When the slices differ in length.
pub fn mac_row_fx(format: QFormat, mode: RoundingMode, w: &[Fx], x: &[Fx]) -> (i64, u32) {
    assert_eq!(w.len(), x.len(), "mac_row_fx operand lengths differ");
    let spec = MacSpec::new(format);
    let code = mode_code(mode, format.f());
    scalar::mac_row_pairs(&spec, code, w.iter().zip(x).map(|(a, b)| (a.raw(), b.raw())))
}

/// The branchless two's-complement wrap/accumulate primitive shared with
/// the table-driven families (naive Bayes gathers table words instead of
/// computing products, but wraps and counts identically).
#[derive(Debug, Clone, Copy)]
pub struct WrapCtx {
    mask: i64,
    half_modulus: i64,
}

impl WrapCtx {
    /// Wrap context for a format.
    pub fn new(format: QFormat) -> Self {
        let spec = MacSpec::new(format);
        WrapCtx {
            mask: spec.mask,
            half_modulus: spec.half_modulus,
        }
    }

    /// Two's-complement wrap into the word length — identical to
    /// [`QFormat::wrap_raw`] for any in-kernel magnitude.
    #[inline]
    pub fn wrap(&self, v: i64) -> i64 {
        ((v & self.mask) ^ self.half_modulus) - self.half_modulus
    }

    /// One wrapping accumulator step over in-range words: returns the
    /// wrapped sum and whether it wrapped.
    #[inline]
    pub fn acc_step(&self, acc: i64, term: i64) -> (i64, bool) {
        let unbounded = acc + term;
        let next = self.wrap(unbounded);
        (next, next != unbounded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_fixedpoint::{mac_dot_counted, mac_dot_traced, InputScale};
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

    /// Per-(row, head) expected `(value, wraps)` via the element-wise
    /// traced reference — the slowest, most independent oracle.
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
        let mut wraps = Vec::with_capacity(rows * heads);
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
                wraps.push(trace.intermediate_overflows as u32);
            }
        }
        (out, wraps)
    }

    /// Every kernel variant that runs on this build/CPU reproduces the
    /// traced element-wise reference — final value *and* wrap count — for
    /// every rounding mode, across formats (fraction-heavy, integer-only,
    /// wide) and shapes crossing the 8-row tile boundary.
    #[test]
    fn all_kernels_match_traced_reference_all_modes() {
        let mut rng = Rng::new(2014);
        let kinds = KernelKind::available();
        assert!(kinds.contains(&KernelKind::Reference));
        assert!(kinds.contains(&KernelKind::Blocked));
        for (k, f) in [(2u32, 6u32), (3, 0), (1, 12), (16, 15), (4, 1)] {
            let format = q(k, f);
            for &(rows, features, heads) in
                &[(1usize, 1usize, 1usize), (7, 3, 2), (8, 5, 1), (9, 4, 3), (17, 11, 2)]
            {
                let words = random_words(format, rows * features, &mut rng);
                let weights = random_words(format, heads * features, &mut rng);
                let batch = QBatch::from_words(format, features, &words).unwrap();
                for mode in ALL_MODES {
                    let (want_out, want_wraps) =
                        traced_expectation(format, mode, &words, features, &weights, heads);
                    for &kind in &kinds {
                        let mut scratch = GemmScratch::default();
                        let (mut out, mut wraps) = (Vec::new(), Vec::new());
                        mac_gemm_into(
                            kind, &batch, &weights, heads, mode, &mut scratch, &mut out,
                            &mut wraps,
                        )
                        .unwrap();
                        assert_eq!(
                            (out, wraps),
                            (want_out.clone(), want_wraps.clone()),
                            "kernel={} Q{k}.{f} {mode:?} rows={rows} m={features} heads={heads}",
                            kind.name()
                        );
                    }
                }
            }
        }
    }

    /// Exhaustive small-format sweep: every (w, x) pair of a Q2.2 grid
    /// through every kernel and mode equals `mac_dot_counted`.
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
                    let (want, want_wraps) = mac_dot_counted(&wfx, &xfx, mode).unwrap();
                    for &kind in &kinds {
                        let mut scratch = GemmScratch::default();
                        let (mut out, mut wraps) = (Vec::new(), Vec::new());
                        mac_gemv_into(kind, &batch, &weights, mode, &mut scratch, &mut out, &mut wraps)
                            .unwrap();
                        assert_eq!(out, [want.raw()], "kernel={} {mode:?}", kind.name());
                        assert_eq!(wraps, [want_wraps as u32], "kernel={} {mode:?}", kind.name());
                    }
                    let (row_y, row_w) = mac_row(format, mode, &weights, &words);
                    assert_eq!((row_y, row_w), (want.raw(), want_wraps as u32));
                    let (fx_y, fx_w) = mac_row_fx(format, mode, &wfx, &xfx);
                    assert_eq!((fx_y, fx_w), (want.raw(), want_wraps as u32));
                }
            }
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
            mac_gemv_into(kind, &raw_batch, &weights, mode, &mut scratch, &mut out_a, &mut wraps_a)
                .unwrap();
            mac_gemv_into(kind, &pre_batch, &weights, mode, &mut scratch, &mut out_b, &mut wraps_b)
                .unwrap();
            assert_eq!((out_a, wraps_a), (out_b, wraps_b), "kernel={}", kind.name());
        }
    }

    #[test]
    fn batch_shape_errors() {
        let format = q(2, 6);
        assert_eq!(
            QBatch::from_words(format, 0, &[1, 2, 3]).unwrap_err(),
            KernelError::ShapeMismatch { context: "features", expected: 1, got: 0 }
        );
        assert_eq!(
            QBatch::from_words(format, 4, &[1, 2, 3, 4, 5]).unwrap_err(),
            KernelError::TornRows { features: 4, full_rows: 1, trailing: 1 }
        );
        let words = [1i64, 2, 3, 4];
        let batch = QBatch::from_words(format, 2, &words).unwrap();
        assert_eq!(batch.rows(), 2);
        assert_eq!(batch.row(1), &[3, 4]);
        let mut scratch = GemmScratch::default();
        let (mut out, mut wraps) = (Vec::new(), Vec::new());
        assert_eq!(
            mac_gemm_into(
                KernelKind::Blocked, &batch, &[1, 2, 3], 2, RoundingMode::Floor, &mut scratch,
                &mut out, &mut wraps,
            )
            .unwrap_err(),
            KernelError::ShapeMismatch { context: "weights", expected: 4, got: 3 }
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
            mac_gemv_into(kind, &batch, &[1, 2, 3], RoundingMode::Floor, &mut scratch, &mut out, &mut wraps)
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
        assert!(total_sat > 0, "amplitude 4.0 must exercise saturation in Q2.6");
        assert_eq!(buf.rows(), 13);

        // A cleared builder overwrites its old rows in place; none of
        // the 13 earlier rows leak into the new batch.
        buf.clear();
        buf.push_row_f64(&[0.5, -0.25, 9.0, 0.0], RoundingMode::NearestEven)
            .unwrap();
        assert_eq!(buf.rows(), 1);
        assert_eq!(buf.as_batch().words(), &[32, -16, 127, 0]);
    }

    #[test]
    fn batch_buf_rejects_bad_rows() {
        let format = q(2, 6);
        let mut buf = QBatchBuf::new(format, 3);
        assert_eq!(
            buf.push_row_f64(&[0.0; 4], RoundingMode::Floor).unwrap_err(),
            KernelError::ShapeMismatch { context: "row length", expected: 3, got: 4 }
        );
        assert_eq!(
            buf.push_row_scaled(
                &[0.0; 3],
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
            KernelError::ShapeMismatch { context: "row length", expected: 3, got: 2 }
        );
        let other = q(3, 1);
        assert_eq!(
            buf.push_row_fx(&[other.zero(); 3]).unwrap_err(),
            KernelError::FormatMismatch { expected: (2, 6), got: (3, 1) }
        );
        buf.push_row_fx(&[format.zero(); 3]).unwrap();
        assert_eq!(buf.rows(), 1);
        buf.clear();
        assert_eq!(buf.rows(), 0);
    }

    /// `WrapCtx::wrap` is `QFormat::wrap_raw` over the kernel-intermediate
    /// magnitude range, and `acc_step` reports wraps exactly like the
    /// reference accumulator.
    #[test]
    fn wrap_ctx_matches_wrap_raw() {
        for (k, f) in [(2u32, 6u32), (3, 0), (1, 12)] {
            let format = q(k, f);
            let ctx = WrapCtx::new(format);
            let mut rng = Rng::new(5);
            for _ in 0..2_000 {
                let v = rng.range_i64(-(1i64 << 60)..=(1i64 << 60));
                assert_eq!(ctx.wrap(v), format.wrap_raw(v as i128), "Q{k}.{f} v={v}");
            }
            let (lo, hi) = (format.min_raw(), format.max_raw());
            for _ in 0..500 {
                let acc = rng.range_i64(lo..=hi);
                let term = rng.range_i64(lo..=hi);
                let (next, wrapped) = ctx.acc_step(acc, term);
                let unbounded = acc + term;
                assert_eq!(next, format.wrap_raw(unbounded as i128));
                assert_eq!(wrapped, next != unbounded);
            }
        }
    }

    /// The `Simd` kind is always safe to request: when no intrinsic path
    /// is compiled or detected it silently runs the blocked kernel, and
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
            KernelKind::Simd, &batch, &weights, 2, RoundingMode::NearestAway, &mut scratch,
            &mut out_s, &mut wraps_s,
        )
        .unwrap();
        mac_gemm_into(
            KernelKind::Blocked, &batch, &weights, 2, RoundingMode::NearestAway, &mut scratch,
            &mut out_b, &mut wraps_b,
        )
        .unwrap();
        assert_eq!((out_s, wraps_s), (out_b, wraps_b));
        assert_eq!(KernelKind::best().name(), if KernelKind::simd_available() { "simd" } else { "blocked" });
    }
}
