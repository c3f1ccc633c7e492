//! The scalar wrap-once MAC loop: [`dot`], run per (row, head) by the
//! reference kernel and per row by `mac_row` / `mac_row_fx`.
//!
//! Two's-complement wrapping is arithmetic mod `2^wl`, so the served word
//! `wrap(Σ wrap(pᵢ))` equals `wrap(Σ pᵢ)` over the rounded products `pᵢ`
//! (paper §3). The loop therefore sums the rounded products exactly — in
//! `i64`, or in `i128` when the format and row width could overflow
//! `i64` — and wraps once per (row, head). The overflow flag it returns is
//! 1 exactly when that sum lies outside the word range: the event eq. 20
//! bounds with confidence ρ, and the only one that can change a decision.
//! The rounding mode is monomorphized via a `const MODE: u8` parameter so
//! the per-element increment compiles to straight-line branch-free code
//! (Fixflow's observation: per-element rounding dispatch, not the MAC
//! itself, dominates light-weight fixed-point inference loops).

use crate::QBatch;
use ldafp_fixedpoint::{QFormat, RoundingMode};
use std::ops::Add;

/// Expands `$run!(MODE, S)` for a rounding code and an exact-sum width:
/// `S = i64` when `$fits_i64`, `i128` otherwise.
macro_rules! dispatch {
    ($code:expr, $fits_i64:expr, $run:ident) => {{
        use $crate::scalar::{
            MODE_CEIL, MODE_EXACT, MODE_FLOOR, MODE_NEAREST_AWAY, MODE_NEAREST_EVEN,
            MODE_TOWARD_ZERO,
        };
        match ($code, $fits_i64) {
            (MODE_FLOOR, true) => $run!(MODE_FLOOR, i64),
            (MODE_FLOOR, false) => $run!(MODE_FLOOR, i128),
            (MODE_CEIL, true) => $run!(MODE_CEIL, i64),
            (MODE_CEIL, false) => $run!(MODE_CEIL, i128),
            (MODE_TOWARD_ZERO, true) => $run!(MODE_TOWARD_ZERO, i64),
            (MODE_TOWARD_ZERO, false) => $run!(MODE_TOWARD_ZERO, i128),
            (MODE_NEAREST_AWAY, true) => $run!(MODE_NEAREST_AWAY, i64),
            (MODE_NEAREST_AWAY, false) => $run!(MODE_NEAREST_AWAY, i128),
            (MODE_NEAREST_EVEN, true) => $run!(MODE_NEAREST_EVEN, i64),
            (MODE_NEAREST_EVEN, false) => $run!(MODE_NEAREST_EVEN, i128),
            (_, true) => $run!(MODE_EXACT, i64),
            (_, false) => $run!(MODE_EXACT, i128),
        }
    }};
}
pub(crate) use dispatch;

/// Monomorphization codes for [`RoundingMode`], plus `MODE_EXACT` for
/// `F = 0` formats where products carry no fractional bits and rounding
/// is the identity (dispatching `F = 0` through `NearestEven` would
/// misapply the tie rule, since the "remainder" degenerates to `0 == 0`).
pub(crate) const MODE_FLOOR: u8 = 0;
pub(crate) const MODE_CEIL: u8 = 1;
pub(crate) const MODE_TOWARD_ZERO: u8 = 2;
pub(crate) const MODE_NEAREST_AWAY: u8 = 3;
pub(crate) const MODE_NEAREST_EVEN: u8 = 4;
pub(crate) const MODE_EXACT: u8 = 5;

/// Maps a rounding mode (and the format's `F`) to its kernel instantiation.
pub(crate) fn mode_code(mode: RoundingMode, f: u32) -> u8 {
    if f == 0 {
        return MODE_EXACT;
    }
    match mode {
        RoundingMode::Floor => MODE_FLOOR,
        RoundingMode::Ceil => MODE_CEIL,
        RoundingMode::TowardZero => MODE_TOWARD_ZERO,
        RoundingMode::NearestAway => MODE_NEAREST_AWAY,
        RoundingMode::NearestEven => MODE_NEAREST_EVEN,
    }
}

/// Precomputed per-format constants for the shift/mask datapath. Word
/// lengths are ≤ 31 bits, so raws are bounded by `2^30` and every product
/// and rounded product fits `i64`; only their sum may need `i128`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MacSpec {
    pub(crate) wl: u32,
    pub(crate) f: u32,
    /// `2^wl − 1`: the word-selection mask.
    pub(crate) mask: i64,
    /// `2^(wl−1)`: the sign-bit value for the branchless wrap.
    pub(crate) half_modulus: i64,
    /// `2^F − 1` (`0` when `F = 0`).
    pub(crate) frac_mask: i64,
    /// `2^(F−1)` (`0` when `F = 0`): the rounding tie point.
    pub(crate) half: i64,
}

impl MacSpec {
    pub(crate) fn new(format: QFormat) -> Self {
        let wl = format.word_length();
        let f = format.f();
        MacSpec {
            wl,
            f,
            mask: (1i64 << wl) - 1,
            half_modulus: 1i64 << (wl - 1),
            frac_mask: if f == 0 { 0 } else { (1i64 << f) - 1 },
            half: if f == 0 { 0 } else { 1i64 << (f - 1) },
        }
    }

    /// Two's-complement wrap into the word length, branch-free:
    /// `(v mod 2^wl)` sign-extended via the xor/sub trick. Identical to
    /// `QFormat::wrap_raw` for every `i64`.
    #[inline(always)]
    pub(crate) fn wrap(&self, v: i64) -> i64 {
        ((v & self.mask) ^ self.half_modulus) - self.half_modulus
    }

    /// Whether the exact sum of `features` rounded products always fits a
    /// signed `bits`-bit integer. Each rounded product of two in-range
    /// words has magnitude at most `2^(2·wl−2−F)` (the product of two
    /// minimum words, which needs no rounding), so the sum — and every
    /// partial sum in any order — is bounded by `features · 2^(2·wl−2−F)`.
    pub(crate) fn sum_fits(&self, features: usize, bits: u32) -> bool {
        let product_bits = 2 * self.wl - 2 - self.f;
        (features as u128) << product_bits < 1u128 << (bits - 1)
    }
}

/// The product `w·x` rounded to `F` bits, before any wrap: a per-mode
/// bias added below the binary point, then an arithmetic (flooring)
/// shift. `x` must already be wrapped into range; `w` is in range by the
/// crate contract (model parameters come off the `Fx` grid). `MODE`
/// resolves at compile time; `MODE_EXACT` has `F = 0`, so its shift is
/// the identity.
#[inline(always)]
fn rounded_product<const MODE: u8>(spec: &MacSpec, w: i64, x: i64) -> i64 {
    let wide = w * x;
    // `wide >> 63` is −1 for a negative product, 0 otherwise.
    let bias = match MODE {
        MODE_FLOOR | MODE_EXACT => 0,
        MODE_CEIL => spec.frac_mask,
        MODE_TOWARD_ZERO => (wide >> 63) & spec.frac_mask,
        // Ties go up for a non-negative product, down for a negative one.
        MODE_NEAREST_AWAY => spec.half + (wide >> 63),
        // Ties go up exactly when the floor quotient is odd.
        _ => spec.half - 1 + ((wide >> spec.f) & 1),
    };
    (wide + bias) >> spec.f
}

/// An exact accumulator for rounded products: `i64` when
/// [`MacSpec::sum_fits`] holds at 64 bits, `i128` otherwise.
pub(crate) trait ExactSum:
    Copy + Default + Add<Output = Self> + From<i64> + PartialEq
{
    /// The low 64 bits: all the final wrap reads (word lengths ≤ 31).
    fn low64(self) -> i64;
}

impl ExactSum for i64 {
    #[inline(always)]
    fn low64(self) -> i64 {
        self
    }
}

impl ExactSum for i128 {
    #[inline(always)]
    fn low64(self) -> i64 {
        self as i64
    }
}

/// The served word and overflow flag of an exact sum: the sum wrapped
/// once into the word length, and 1 when wrapping moved it (the sum lay
/// outside `[min, max]`).
#[inline(always)]
fn finish<S: ExactSum>(spec: &MacSpec, sum: S) -> (i64, u32) {
    let word = spec.wrap(sum.low64());
    (word, u32::from(S::from(word) != sum))
}

/// Where a GEMM writes: `out[r·H + h]` and `wraps[r·H + h]` for row `r`
/// and head `h`, both `rows × heads` long.
pub(crate) struct GemmOut<'a> {
    pub(crate) out: &'a mut [i64],
    pub(crate) wraps: &'a mut [u32],
}

/// One dot product over `(w, x)` pairs: the crate's only scalar MAC loop,
/// which the reference kernel runs per (row, head). `x` words are wrapped
/// on load.
#[inline(always)]
fn dot<const MODE: u8, S: ExactSum, I>(spec: &MacSpec, pairs: I) -> (i64, u32)
where
    I: Iterator<Item = (i64, i64)>,
{
    let mut sum = S::default();
    for (w, x) in pairs {
        sum = sum + S::from(rounded_product::<MODE>(spec, w, spec.wrap(x)));
    }
    finish(spec, sum)
}

/// Row-at-a-time reference: one exact [`dot`] per (row, head), in feature
/// order.
pub(crate) fn gemm_reference<const MODE: u8, S: ExactSum>(
    spec: &MacSpec,
    batch: &QBatch<'_>,
    w: &[i64],
    heads: usize,
    dst: GemmOut<'_>,
) {
    let features = batch.features();
    for r in 0..batch.rows() {
        let row = batch.row(r);
        for h in 0..heads {
            let wrow = &w[h * features..(h + 1) * features];
            let (word, flag) =
                dot::<MODE, S, _>(spec, wrow.iter().copied().zip(row.iter().copied()));
            dst.out[r * heads + h] = word;
            dst.wraps[r * heads + h] = flag;
        }
    }
}

/// [`dot`] dispatched on the rounding code and on the sum width that
/// `features` pairs need: the shared scalar routine `ldafp-models` and
/// other row-at-a-time callers run.
pub(crate) fn mac_row_pairs<I>(spec: &MacSpec, code: u8, features: usize, pairs: I) -> (i64, u32)
where
    I: Iterator<Item = (i64, i64)>,
{
    macro_rules! run {
        ($m:expr, $s:ty) => {
            dot::<{ $m }, $s, _>(spec, pairs)
        };
    }
    dispatch!(code, spec.sum_fits(features, 64), run)
}
