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
//!
//! [`QFormat::quantize_rows_into`] runs the loop over a whole batch of
//! rows: the grid constants, the rounding-mode dispatch and the scale
//! dispatch are set up once per batch, and a caller-supplied hook runs
//! before each row (the serving kernels prefetch rows ahead from it).
//! It is `#[inline(always)]`, so a caller can compile the same loop for
//! a wider instruction set by calling it from a `#[target_feature]`
//! function. [`QFormat::quantize_into`] is its one-row form: there is one
//! element loop.

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

/// The per-format constants, computed once per batch.
struct Grid {
    pow: f64,
    lo: f64,
    hi: f64,
}

impl Grid {
    #[inline(always)]
    fn of(format: &QFormat) -> Grid {
        Grid {
            // `2^F` from its exponent bits: exact, without a `powi` call.
            pow: f64::from_bits(u64::from(1023 + format.f()) << 52),
            lo: format.min_raw() as f64,
            hi: format.max_raw() as f64,
        }
    }
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

/// The element loop: `xs[i]·scale(i)` onto the grid into `out[i]`,
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

/// Chooses the scale closure once per batch.
#[inline(always)]
fn rows_scaled<const MODE: u8, R: AsRef<[f64]>>(
    grid: &Grid,
    rows: &[R],
    scale: InputScale<'_>,
    out: &mut [i64],
    before_row: impl FnMut(usize),
) -> u64 {
    match scale {
        InputScale::Identity => each_row::<MODE, R>(grid, rows, |_| 1.0, None, out, before_row),
        InputScale::Uniform(s) => each_row::<MODE, R>(grid, rows, |_| s, None, out, before_row),
        InputScale::PerFeature(scales) => each_row::<MODE, R>(
            grid,
            rows,
            |i| scales[i],
            Some(scales.len()),
            out,
            before_row,
        ),
    }
}

/// Runs the element loop on each row in turn, writing the rows one after
/// another into `out`. `scale_len` is the per-feature scale's length,
/// checked against every row.
#[inline(always)]
fn each_row<const MODE: u8, R: AsRef<[f64]>>(
    grid: &Grid,
    rows: &[R],
    scale: impl Fn(usize) -> f64 + Copy,
    scale_len: Option<usize>,
    out: &mut [i64],
    mut before_row: impl FnMut(usize),
) -> u64 {
    let total: usize = rows.iter().map(|row| row.as_ref().len()).sum();
    assert_eq!(out.len(), total, "output length differs from the rows");
    let mut saturated = 0;
    let mut start = 0;
    for (r, row) in rows.iter().enumerate() {
        before_row(r);
        let xs = row.as_ref();
        if let Some(len) = scale_len {
            assert_eq!(
                len,
                xs.len(),
                "per-feature scale length differs from the row"
            );
        }
        let end = start + xs.len();
        saturated += run::<MODE>(grid, xs, scale, &mut out[start..end]);
        start = end;
    }
    saturated
}

impl QFormat {
    /// Quantizes `xs`, scaled by `scale`, onto the grid into `out`,
    /// returning how many inputs lay outside `[min_value, max_value]`
    /// after scaling and were saturated.
    ///
    /// Word for word the same as [`Self::quantize_raw`] of `x·s` (NaN to
    /// 0, saturating), in one branch-free pass; see the module notes for
    /// why it is exact. It is [`Self::quantize_rows_into`] of one row.
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
        self.quantize_rows_into(&[xs], scale, mode, out, |_| {})
    }

    /// [`Self::quantize_into`] of a batch: quantizes each row of `rows`,
    /// scaled by `scale`, into consecutive words of `out` (row `r` lands
    /// right after row `r − 1`), returning the batch's saturated count.
    /// `before_row(r)` runs just before row `r` is read.
    ///
    /// The words and the count are those of one [`Self::quantize_into`]
    /// call per row; only the set-up is paid once per batch. Inlined
    /// into its caller, so a `#[target_feature]` caller compiles the loop
    /// for its instruction set.
    ///
    /// # Panics
    ///
    /// When `out` differs in length from the rows' total, or a
    /// [`InputScale::PerFeature`] scale differs in length from a row.
    #[inline(always)]
    pub fn quantize_rows_into<R: AsRef<[f64]>>(
        &self,
        rows: &[R],
        scale: InputScale<'_>,
        mode: RoundingMode,
        out: &mut [i64],
        before_row: impl FnMut(usize),
    ) -> u64 {
        let grid = Grid::of(self);
        match mode {
            RoundingMode::NearestEven => {
                rows_scaled::<NEAREST_EVEN, R>(&grid, rows, scale, out, before_row)
            }
            RoundingMode::NearestAway => {
                rows_scaled::<NEAREST_AWAY, R>(&grid, rows, scale, out, before_row)
            }
            RoundingMode::Floor => rows_scaled::<FLOOR, R>(&grid, rows, scale, out, before_row),
            RoundingMode::Ceil => rows_scaled::<CEIL, R>(&grid, rows, scale, out, before_row),
            RoundingMode::TowardZero => {
                rows_scaled::<TOWARD_ZERO, R>(&grid, rows, scale, out, before_row)
            }
        }
    }
}
