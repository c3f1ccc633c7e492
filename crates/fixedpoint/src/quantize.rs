//! The fused slice quantizer: the one loop every `f64` takes onto the
//! `QK.F` grid on its way into the datapath.
//!
//! Each element is scaled, clamped, rounded, read back as an integer and
//! counted as saturated or not in a single branch-free pass:
//!
//! 1. `c = (x·s)·2^F`, in that order (the serving artifact's input scale
//!    first, then the grid's);
//! 2. NaN becomes 0, and `c` is clamped to `[min_raw, max_raw]` as `f64`;
//! 3. the element counts as saturated when the clamp moved it, that is
//!    when `c < min_raw` or `c > max_raw` — the same set as
//!    `x·s < min_value || x·s > max_value`, because multiplying by `2^F`
//!    is exact and monotone;
//! 4. adding and subtracting `1.5·2⁵²` rounds `c` to the nearest integer,
//!    ties to even, and the integer is read straight from the bits of the
//!    biased sum; the other rounding modes adjust that integer by one
//!    using exact comparisons against `c`.
//!
//! This is exact, not approximate. Word lengths are at most 31 bits, so
//! the clamped `|c| ≤ 2³⁰` — far inside the `2⁵¹` range where the biased
//! sum has a unit ulp. Rounding is monotone and both bounds are integers,
//! so clamping before rounding lands where rounding before clamping did,
//! ±inf included. [`QFormat::quantize_raw`] remains the scalar
//! reference; the differential tests hold this loop to it word for word
//! and count for count.

use crate::{QFormat, RoundingMode};

/// How an input is scaled on its way onto the grid: `x` enters as
/// `(x·s)·2^F`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputScale<'a> {
    /// `s = 1`.
    Identity,
    /// One factor `s` for every element.
    Uniform(f64),
    /// One factor per element; its length must equal the row's.
    PerFeature(&'a [f64]),
}

impl<'a> InputScale<'a> {
    /// Reads the serving artifact's `input_scale` convention: one entry
    /// applies to every feature (and `[1.0]` is the identity); otherwise
    /// there is one entry per feature.
    pub fn from_slice(scale: &'a [f64]) -> Self {
        match scale {
            [s] if *s == 1.0 => InputScale::Identity,
            [s] => InputScale::Uniform(*s),
            _ => InputScale::PerFeature(scale),
        }
    }
}

/// `1.5·2⁵²`: adding it to any `|c| ≤ 2⁵¹` lands in `[2⁵², 2⁵³)`, where
/// the ulp is 1, so the sum is `c` rounded to an integer (ties to even)
/// and its low mantissa bits hold that integer offset.
const ROUND_BIAS: f64 = 6_755_399_441_055_744.0;

const NEAREST_EVEN: u8 = 0;
const NEAREST_AWAY: u8 = 1;
const FLOOR: u8 = 2;
const CEIL: u8 = 3;
const TOWARD_ZERO: u8 = 4;

/// The per-format constants, computed once per slice.
struct Grid {
    pow: f64,
    lo: f64,
    hi: f64,
}

/// One element: the raw word and whether `c` lay outside the range.
/// `MODE` resolves at compile time, so the body is straight-line code.
#[inline(always)]
fn quantize_one<const MODE: u8>(grid: &Grid, y: f64) -> (i64, u64) {
    let c = y * grid.pow;
    let c = if c.is_nan() { 0.0 } else { c };
    let clamped = if c < grid.lo { grid.lo } else { c };
    let clamped = if clamped > grid.hi { grid.hi } else { clamped };
    // Clamping moved `c` exactly when it lay outside `[lo, hi]`.
    let saturated = u64::from(clamped != c);
    let c = clamped;
    let biased = c + ROUND_BIAS;
    let r = biased - ROUND_BIAS;
    let n = biased.to_bits() as i64 - ROUND_BIAS.to_bits() as i64;
    let n = match MODE {
        FLOOR => n - i64::from(r > c),
        CEIL => n + i64::from(r < c),
        TOWARD_ZERO => n - i64::from((r > c) & (c > 0.0)) + i64::from((r < c) & (c < 0.0)),
        NEAREST_AWAY => {
            // `c − r` is exact; a tie rounded to even is moved away.
            let d = c - r;
            n + i64::from((d == 0.5) & (c > 0.0)) - i64::from((d == -0.5) & (c < 0.0))
        }
        _ => n,
    };
    (n, saturated)
}

/// The quantization loop: `xs[i]·scale(i)` onto the grid into `out[i]`,
/// returning the saturated count.
#[inline(always)]
fn run<const MODE: u8>(
    grid: &Grid,
    xs: &[f64],
    scale: impl Fn(usize) -> f64,
    out: &mut [i64],
) -> u64 {
    let mut saturated = 0;
    for (i, (o, &x)) in out.iter_mut().zip(xs).enumerate() {
        let (n, sat) = quantize_one::<MODE>(grid, x * scale(i));
        *o = n;
        saturated += sat;
    }
    saturated
}

fn run_scaled<const MODE: u8>(
    grid: &Grid,
    xs: &[f64],
    scale: InputScale<'_>,
    out: &mut [i64],
) -> u64 {
    match scale {
        InputScale::Identity => run::<MODE>(grid, xs, |_| 1.0, out),
        InputScale::Uniform(s) => run::<MODE>(grid, xs, |_| s, out),
        InputScale::PerFeature(scales) => {
            assert_eq!(
                scales.len(),
                xs.len(),
                "per-feature scale length differs from the row"
            );
            run::<MODE>(grid, xs, |i| scales[i], out)
        }
    }
}

impl QFormat {
    /// Quantizes `xs`, scaled by `scale`, onto the grid into `out`,
    /// returning how many inputs lay outside `[min_value, max_value]`
    /// after scaling and were saturated.
    ///
    /// Word for word the same as [`Self::quantize_raw`] of `x·s` (NaN to
    /// 0, saturating), in one branch-free pass; see the module notes for
    /// why it is exact.
    ///
    /// # Panics
    ///
    /// When `out`, or a [`InputScale::PerFeature`] scale, differs in
    /// length from `xs`.
    pub fn quantize_into(
        &self,
        xs: &[f64],
        scale: InputScale<'_>,
        mode: RoundingMode,
        out: &mut [i64],
    ) -> u64 {
        assert_eq!(out.len(), xs.len(), "output length differs from the row");
        let grid = Grid {
            // `2^F` from its exponent bits: exact, without a `powi` call.
            pow: f64::from_bits(u64::from(1023 + self.f()) << 52),
            lo: self.min_raw() as f64,
            hi: self.max_raw() as f64,
        };
        match mode {
            RoundingMode::NearestEven => run_scaled::<NEAREST_EVEN>(&grid, xs, scale, out),
            RoundingMode::NearestAway => run_scaled::<NEAREST_AWAY>(&grid, xs, scale, out),
            RoundingMode::Floor => run_scaled::<FLOOR>(&grid, xs, scale, out),
            RoundingMode::Ceil => run_scaled::<CEIL>(&grid, xs, scale, out),
            RoundingMode::TowardZero => run_scaled::<TOWARD_ZERO>(&grid, xs, scale, out),
        }
    }
}
