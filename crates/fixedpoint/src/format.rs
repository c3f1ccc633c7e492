use crate::{FixedPointError, Fx, InputScale, Result};
use std::fmt;

/// How a real value is mapped onto the fixed-point grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundingMode {
    /// Round to nearest, ties to even (IEEE default; bias-free).
    NearestEven,
    /// Round to nearest, ties away from zero (classic DSP "round").
    NearestAway,
    /// Round toward −∞ (truncation of the two's-complement bit pattern).
    Floor,
    /// Round toward +∞.
    Ceil,
    /// Round toward zero.
    TowardZero,
}

impl RoundingMode {
    /// Stable kebab-case name: the spelling artifacts, explore cache keys,
    /// reports and the CLI's `--rounding` option all use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RoundingMode::NearestEven => "nearest-even",
            RoundingMode::NearestAway => "nearest-away",
            RoundingMode::Floor => "floor",
            RoundingMode::Ceil => "ceil",
            RoundingMode::TowardZero => "toward-zero",
        }
    }

    /// Parses a stable name; `None` for anything unknown (callers turn
    /// that into their own diagnostic).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "nearest-even" => Some(RoundingMode::NearestEven),
            "nearest-away" => Some(RoundingMode::NearestAway),
            "floor" => Some(RoundingMode::Floor),
            "ceil" => Some(RoundingMode::Ceil),
            "toward-zero" => Some(RoundingMode::TowardZero),
            _ => None,
        }
    }
}

/// A `QK.F` two's-complement fixed-point format (paper §3, Figure 3).
///
/// `K` integer bits — **including** the sign bit — and `F` fractional bits,
/// for a total word length of `K + F`. The representable grid is
///
/// ```text
/// { n · 2⁻F : n ∈ [−2^(K+F−1), 2^(K+F−1) − 1] }  =  [−2^(K−1), 2^(K−1) − 2⁻F]
/// ```
///
/// # Example
///
/// ```
/// use ldafp_fixedpoint::QFormat;
///
/// # fn main() -> Result<(), ldafp_fixedpoint::FixedPointError> {
/// let q = QFormat::new(2, 3)?; // Q2.3, word length 5
/// assert_eq!(q.word_length(), 5);
/// assert_eq!(q.min_value(), -2.0);
/// assert_eq!(q.max_value(), 2.0 - 0.125);
/// assert_eq!(q.resolution(), 0.125);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    k: u32,
    f: u32,
}

impl QFormat {
    /// Largest supported word length. Keeps raw products of two words inside
    /// `i64` with headroom (`2·31 = 62` bits), which the multiplier model
    /// relies on.
    pub const MAX_WORD_LENGTH: u32 = 31;

    /// Creates a format with `k` integer bits (including sign) and `f`
    /// fractional bits.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::InvalidFormat`] when `k == 0` (two's
    /// complement needs at least the sign bit) or `k + f` exceeds
    /// [`Self::MAX_WORD_LENGTH`].
    pub fn new(k: u32, f: u32) -> Result<Self> {
        if k == 0 {
            return Err(FixedPointError::InvalidFormat {
                k,
                f,
                reason: "two's complement needs at least one integer (sign) bit",
            });
        }
        if k + f > Self::MAX_WORD_LENGTH {
            return Err(FixedPointError::InvalidFormat {
                k,
                f,
                reason: "word length exceeds the supported maximum of 31 bits",
            });
        }
        Ok(QFormat { k, f })
    }

    /// Picks the format of total word length `word_length` whose integer part
    /// is just wide enough to represent `±max_abs` without saturation,
    /// spending every remaining bit on fraction.
    ///
    /// This is the "careful scaling" policy the paper applies to features
    /// (§3): the caller knows the dynamic range of a signal and wants maximal
    /// resolution under that range.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::InvalidFormat`] when no `K ≤ word_length`
    /// covers the requested range, or the word length is out of bounds.
    pub fn for_range(word_length: u32, max_abs: f64) -> Result<Self> {
        if word_length == 0 || word_length > Self::MAX_WORD_LENGTH {
            return Err(FixedPointError::InvalidFormat {
                k: word_length,
                f: 0,
                reason: "word length must be in 1..=31",
            });
        }
        let max_abs = max_abs.abs();
        // Need 2^(K-1) >= max_abs  =>  K >= log2(max_abs) + 1.
        let mut k = 1u32;
        while ((1u64 << (k - 1)) as f64) < max_abs {
            k += 1;
            if k > word_length {
                return Err(FixedPointError::InvalidFormat {
                    k: word_length,
                    f: 0,
                    reason: "range does not fit in the requested word length",
                });
            }
        }
        QFormat::new(k, word_length - k)
    }

    /// Integer bits `K` (including sign).
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Fractional bits `F`.
    pub fn f(&self) -> u32 {
        self.f
    }

    /// Total word length `K + F`.
    pub fn word_length(&self) -> u32 {
        self.k + self.f
    }

    /// Grid spacing `2⁻F` — the paper's `2^-F` term in eq. 18/20.
    pub fn resolution(&self) -> f64 {
        (2.0f64).powi(-(self.f as i32))
    }

    /// Smallest representable raw integer `−2^(K+F−1)`.
    pub fn min_raw(&self) -> i64 {
        -(1i64 << (self.word_length() - 1))
    }

    /// Largest representable raw integer `2^(K+F−1) − 1`.
    pub fn max_raw(&self) -> i64 {
        (1i64 << (self.word_length() - 1)) - 1
    }

    /// Smallest representable value `−2^(K−1)`.
    pub fn min_value(&self) -> f64 {
        self.min_raw() as f64 * self.resolution()
    }

    /// Largest representable value `2^(K−1) − 2⁻F`.
    pub fn max_value(&self) -> f64 {
        self.max_raw() as f64 * self.resolution()
    }

    /// Number of representable values, `2^(K+F)`.
    pub fn cardinality(&self) -> u64 {
        1u64 << self.word_length()
    }

    /// Wraps an arbitrarily wide raw integer into this format's raw range,
    /// reproducing two's-complement modular arithmetic.
    pub fn wrap_raw(&self, raw: i128) -> i64 {
        let w = self.word_length();
        let modulus = 1i128 << w;
        let mut r = raw.rem_euclid(modulus);
        if r >= (1i128 << (w - 1)) {
            r -= modulus;
        }
        r as i64
    }

    /// Clamps an arbitrarily wide raw integer into this format's raw range.
    pub fn saturate_raw(&self, raw: i128) -> i64 {
        raw.clamp(self.min_raw() as i128, self.max_raw() as i128) as i64
    }

    /// Quantizes a real value to the grid with the given rounding mode,
    /// saturating at the representable range.
    ///
    /// `NaN` quantizes to zero (the least-surprising total behavior; the
    /// training pipeline never feeds `NaN` here, and tests pin the choice).
    pub fn quantize(&self, x: f64, mode: RoundingMode) -> Fx {
        Fx::from_raw_parts(self.quantize_raw(x, mode), *self)
    }

    /// Raw-integer result of [`Self::quantize`]: one value at a time,
    /// through libm rounding. This is the scalar reference the fused
    /// slice loop ([`Self::quantize_into`]) is tested against.
    pub fn quantize_raw(&self, x: f64, mode: RoundingMode) -> i64 {
        if x.is_nan() {
            return 0;
        }
        let scaled = x * (2.0f64).powi(self.f as i32);
        let rounded = round_f64(scaled, mode);
        if rounded <= self.min_raw() as f64 {
            self.min_raw()
        } else if rounded >= self.max_raw() as f64 {
            self.max_raw()
        } else {
            rounded as i64
        }
    }

    /// Value-level quantization: the nearest (per `mode`) on-grid `f64`.
    pub fn round_to_grid(&self, x: f64, mode: RoundingMode) -> f64 {
        self.quantize(x, mode).to_f64()
    }

    /// Largest grid value `≤ x` (clamped to the representable range).
    pub fn floor_to_grid(&self, x: f64) -> f64 {
        self.round_to_grid(x, RoundingMode::Floor)
    }

    /// Smallest grid value `≥ x` (clamped to the representable range).
    pub fn ceil_to_grid(&self, x: f64) -> f64 {
        self.round_to_grid(x, RoundingMode::Ceil)
    }

    /// True when `x` lies exactly on the grid and within range.
    pub fn contains(&self, x: f64) -> bool {
        if !x.is_finite() || x < self.min_value() || x > self.max_value() {
            return false;
        }
        let scaled = x * (2.0f64).powi(self.f as i32);
        scaled == scaled.trunc()
    }

    /// The zero value in this format.
    pub fn zero(&self) -> Fx {
        Fx::from_raw_parts(0, *self)
    }

    /// Constructs a value from a raw integer, wrapping into range.
    pub fn from_raw(&self, raw: i64) -> Fx {
        Fx::from_raw_parts(self.wrap_raw(raw as i128), *self)
    }

    /// Iterates over every representable value in ascending order.
    ///
    /// Useful for exhaustive verification on narrow formats and for
    /// enumerating branch-and-bound leaves.
    pub fn enumerate(&self) -> impl Iterator<Item = Fx> + '_ {
        let fmt = *self;
        (self.min_raw()..=self.max_raw()).map(move |raw| Fx::from_raw_parts(raw, fmt))
    }

    /// Quantizes a slice of real values (saturating, shared rounding
    /// mode) through the fused loop of [`Self::quantize_into`].
    pub fn quantize_slice(&self, xs: &[f64], mode: RoundingMode) -> Vec<Fx> {
        self.quantize_words(xs, mode)
            .into_iter()
            .map(|raw| Fx::from_raw_parts(raw, *self))
            .collect()
    }

    /// Value-level grid rounding for a slice.
    pub fn round_slice_to_grid(&self, xs: &[f64], mode: RoundingMode) -> Vec<f64> {
        self.quantize_words(xs, mode)
            .into_iter()
            .map(|raw| Fx::from_raw_parts(raw, *self).to_f64())
            .collect()
    }

    fn quantize_words(&self, xs: &[f64], mode: RoundingMode) -> Vec<i64> {
        let mut raws = vec![0; xs.len()];
        self.quantize_into(xs, InputScale::Identity, mode, &mut raws);
        raws
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.k, self.f)
    }
}

fn round_f64(x: f64, mode: RoundingMode) -> f64 {
    match mode {
        RoundingMode::NearestEven => {
            // f64::round ties away from zero; implement ties-to-even on top.
            let r = x.round();
            if (x - x.trunc()).abs() == 0.5 {
                // Tie: pick the even neighbour.
                let floor = x.floor();
                let ceil = x.ceil();
                if (floor as i64) % 2 == 0 {
                    floor
                } else {
                    ceil
                }
            } else {
                r
            }
        }
        RoundingMode::NearestAway => x.round(),
        RoundingMode::Floor => x.floor(),
        RoundingMode::Ceil => x.ceil(),
        RoundingMode::TowardZero => x.trunc(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_mode_names_roundtrip() {
        // The spellings are on-disk vocabulary (artifact `rounding`, explore
        // cache keys): pin them so a rename cannot silently break old files.
        for (mode, name) in [
            (RoundingMode::NearestEven, "nearest-even"),
            (RoundingMode::NearestAway, "nearest-away"),
            (RoundingMode::Floor, "floor"),
            (RoundingMode::Ceil, "ceil"),
            (RoundingMode::TowardZero, "toward-zero"),
        ] {
            assert_eq!(mode.name(), name);
            assert_eq!(RoundingMode::from_name(name), Some(mode));
        }
        assert_eq!(RoundingMode::from_name("stochastic"), None);
        assert_eq!(RoundingMode::from_name("NearestEven"), None);
    }

    #[test]
    fn construction_validates() {
        assert!(QFormat::new(0, 4).is_err());
        assert!(QFormat::new(1, 31).is_err());
        assert!(QFormat::new(1, 30).is_ok());
        assert!(QFormat::new(31, 0).is_ok());
    }

    #[test]
    fn slice_quantization_is_bit_identical_to_scalar() {
        // The fused slice loop rounds without libm and clamps before
        // rounding; it must agree with `quantize` on every input class —
        // in-range values, exact ties, both saturation sides, NaN, ±inf.
        let inputs: Vec<f64> = vec![
            0.0,
            0.5,
            -0.5,
            0.078125,
            -0.078125,
            0.15625,
            1.999,
            -2.0,
            100.0,
            -100.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-12,
            -1e-12,
            0.9999999,
        ];
        for (k, f) in [(2u32, 6u32), (3, 0), (1, 10), (4, 4)] {
            let q = QFormat::new(k, f).unwrap();
            for mode in [
                RoundingMode::NearestEven,
                RoundingMode::NearestAway,
                RoundingMode::Floor,
                RoundingMode::Ceil,
                RoundingMode::TowardZero,
            ] {
                let fast = q.quantize_slice(&inputs, mode);
                for (x, got) in inputs.iter().zip(&fast) {
                    assert_eq!(
                        got.raw(),
                        q.quantize(*x, mode).raw(),
                        "Q{k}.{f} {mode:?} x={x}"
                    );
                }
                // The fused raw-word loop lands on the identical words.
                let mut raws = vec![-1i64; inputs.len()];
                q.quantize_into(&inputs, InputScale::Identity, mode, &mut raws);
                let expected: Vec<i64> = fast.iter().map(Fx::raw).collect();
                assert_eq!(raws, expected, "Q{k}.{f} {mode:?}");
            }
        }
    }

    #[test]
    fn q3_0_range_matches_paper_example() {
        // Paper §3: "the range of Q3.0 is [-4, 3]".
        let q = QFormat::new(3, 0).unwrap();
        assert_eq!(q.min_value(), -4.0);
        assert_eq!(q.max_value(), 3.0);
        assert_eq!(q.resolution(), 1.0);
        assert_eq!(q.cardinality(), 8);
    }

    #[test]
    fn range_formula_matches_eq_28() {
        // Eq. 28: −2^(K−1) ≤ w ≤ 2^(K−1) − 2^−F.
        for k in 1..=4u32 {
            for f in 0..=4u32 {
                let q = QFormat::new(k, f).unwrap();
                assert_eq!(q.min_value(), -(2.0f64).powi(k as i32 - 1));
                assert_eq!(
                    q.max_value(),
                    (2.0f64).powi(k as i32 - 1) - (2.0f64).powi(-(f as i32))
                );
            }
        }
    }

    #[test]
    fn wrap_raw_two_complement() {
        let q = QFormat::new(3, 0).unwrap(); // range [-4, 3]
        assert_eq!(q.wrap_raw(3), 3);
        assert_eq!(q.wrap_raw(4), -4);
        assert_eq!(q.wrap_raw(6), -2); // the paper's 3+3 example
        assert_eq!(q.wrap_raw(-5), 3);
        assert_eq!(q.wrap_raw(8), 0);
        assert_eq!(q.wrap_raw(-4), -4);
    }

    #[test]
    fn paper_intermediate_overflow_example() {
        // 3 + 3 − 4 in Q3.0: intermediate wraps to −2, final result is 2.
        let q = QFormat::new(3, 0).unwrap();
        let step1 = q.wrap_raw(3 + 3);
        assert_eq!(step1, -2);
        let step2 = q.wrap_raw(step1 as i128 + (-4));
        assert_eq!(step2, 2);
    }

    #[test]
    fn saturate_raw_clamps() {
        let q = QFormat::new(3, 0).unwrap();
        assert_eq!(q.saturate_raw(100), 3);
        assert_eq!(q.saturate_raw(-100), -4);
        assert_eq!(q.saturate_raw(2), 2);
    }

    #[test]
    fn quantize_rounding_modes() {
        let q = QFormat::new(3, 1).unwrap(); // resolution 0.5
        assert_eq!(q.quantize(1.3, RoundingMode::Floor).to_f64(), 1.0);
        assert_eq!(q.quantize(1.3, RoundingMode::Ceil).to_f64(), 1.5);
        assert_eq!(q.quantize(1.3, RoundingMode::NearestAway).to_f64(), 1.5);
        assert_eq!(q.quantize(-1.3, RoundingMode::TowardZero).to_f64(), -1.0);
        assert_eq!(q.quantize(-1.3, RoundingMode::Floor).to_f64(), -1.5);
    }

    #[test]
    fn nearest_even_ties() {
        let q = QFormat::new(4, 0).unwrap();
        assert_eq!(q.quantize(0.5, RoundingMode::NearestEven).to_f64(), 0.0);
        assert_eq!(q.quantize(1.5, RoundingMode::NearestEven).to_f64(), 2.0);
        assert_eq!(q.quantize(2.5, RoundingMode::NearestEven).to_f64(), 2.0);
        assert_eq!(q.quantize(-0.5, RoundingMode::NearestEven).to_f64(), 0.0);
        assert_eq!(q.quantize(-1.5, RoundingMode::NearestEven).to_f64(), -2.0);
    }

    #[test]
    fn nearest_away_ties() {
        let q = QFormat::new(4, 0).unwrap();
        assert_eq!(q.quantize(0.5, RoundingMode::NearestAway).to_f64(), 1.0);
        assert_eq!(q.quantize(-0.5, RoundingMode::NearestAway).to_f64(), -1.0);
    }

    #[test]
    fn quantize_saturates() {
        let q = QFormat::new(2, 2).unwrap(); // range [-2, 1.75]
        assert_eq!(q.quantize(10.0, RoundingMode::NearestEven).to_f64(), 1.75);
        assert_eq!(q.quantize(-10.0, RoundingMode::NearestEven).to_f64(), -2.0);
        assert_eq!(
            q.quantize(f64::INFINITY, RoundingMode::Floor).to_f64(),
            1.75
        );
        assert_eq!(
            q.quantize(f64::NEG_INFINITY, RoundingMode::Ceil).to_f64(),
            -2.0
        );
    }

    #[test]
    fn nan_quantizes_to_zero() {
        let q = QFormat::new(4, 4).unwrap();
        assert_eq!(
            q.quantize(f64::NAN, RoundingMode::NearestEven).to_f64(),
            0.0
        );
    }

    #[test]
    fn contains_grid_membership() {
        let q = QFormat::new(2, 2).unwrap();
        assert!(q.contains(0.25));
        assert!(q.contains(-2.0));
        assert!(q.contains(1.75));
        assert!(!q.contains(2.0)); // above max
        assert!(!q.contains(0.3)); // off grid
        assert!(!q.contains(f64::NAN));
    }

    #[test]
    fn enumerate_counts_and_sorts() {
        let q = QFormat::new(2, 1).unwrap(); // 8 values: -2.0..1.5 step 0.5
        let vals: Vec<f64> = q.enumerate().map(|v| v.to_f64()).collect();
        assert_eq!(vals.len(), 8);
        assert_eq!(vals[0], -2.0);
        assert_eq!(*vals.last().unwrap(), 1.5);
        assert!(vals.windows(2).all(|w| w[1] - w[0] == 0.5));
    }

    #[test]
    fn for_range_picks_minimal_k() {
        let q = QFormat::for_range(8, 0.9).unwrap();
        assert_eq!(q.k(), 1); // 2^0 = 1 >= 0.9
        assert_eq!(q.f(), 7);
        let q = QFormat::for_range(8, 1.0).unwrap();
        assert_eq!(q.k(), 1);
        let q = QFormat::for_range(8, 1.1).unwrap();
        assert_eq!(q.k(), 2);
        let q = QFormat::for_range(8, 5.0).unwrap();
        assert_eq!(q.k(), 4); // 2^3 = 8 >= 5
        assert!(QFormat::for_range(2, 100.0).is_err());
        assert!(QFormat::for_range(0, 1.0).is_err());
    }

    #[test]
    fn round_trip_grid_values() {
        let q = QFormat::new(3, 4).unwrap();
        for v in q.enumerate() {
            let x = v.to_f64();
            assert!(q.contains(x));
            assert_eq!(q.quantize(x, RoundingMode::NearestEven).raw(), v.raw());
        }
    }

    #[test]
    fn floor_ceil_bracket() {
        let q = QFormat::new(3, 2).unwrap();
        let x = 1.3;
        assert!(q.floor_to_grid(x) <= x);
        assert!(q.ceil_to_grid(x) >= x);
        assert_eq!(q.ceil_to_grid(x) - q.floor_to_grid(x), q.resolution());
    }

    #[test]
    fn display_format() {
        assert_eq!(QFormat::new(2, 6).unwrap().to_string(), "Q2.6");
    }

    #[test]
    fn slice_helpers() {
        let q = QFormat::new(2, 1).unwrap();
        let vals = q.quantize_slice(&[0.3, -0.8], RoundingMode::NearestAway);
        assert_eq!(vals[0].to_f64(), 0.5);
        assert_eq!(vals[1].to_f64(), -1.0);
        let grid = q.round_slice_to_grid(&[0.3, -0.8], RoundingMode::NearestAway);
        assert_eq!(grid, vec![0.5, -1.0]);
    }
}
