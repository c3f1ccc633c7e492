use crate::{FixedPointError, QFormat, Result, RoundingMode};
use std::cmp::Ordering;
use std::fmt;

/// A fixed-point value: a raw two's-complement integer paired with its
/// [`QFormat`].
///
/// All arithmetic is **format-checked**: combining values of different
/// formats is an error, mirroring a real datapath where every register has
/// one wiring-time width. Overflow behavior is explicit at each call site —
/// `wrapping_*` models the paper's hardware (two's-complement wrap),
/// `saturating_*` models a saturation-protected datapath for comparison
/// studies.
///
/// # Example
///
/// ```
/// use ldafp_fixedpoint::{QFormat, RoundingMode};
///
/// # fn main() -> Result<(), ldafp_fixedpoint::FixedPointError> {
/// let q = QFormat::new(2, 6)?;
/// let a = q.quantize(0.75, RoundingMode::NearestEven);
/// let b = q.quantize(0.5, RoundingMode::NearestEven);
/// let p = a.wrapping_mul(b, RoundingMode::NearestEven)?;
/// assert_eq!(p.to_f64(), 0.375);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fx {
    raw: i64,
    format: QFormat,
}

impl Fx {
    /// Constructs from a raw integer already known to be in range.
    ///
    /// Internal constructor — public creation goes through
    /// [`QFormat::quantize`] / [`QFormat::from_raw`], which enforce range.
    pub(crate) fn from_raw_parts(raw: i64, format: QFormat) -> Self {
        debug_assert!(
            raw >= format.min_raw() && raw <= format.max_raw(),
            "raw {raw} out of range for {format}"
        );
        Fx { raw, format }
    }

    /// The raw two's-complement integer (`value · 2^F`).
    pub fn raw(&self) -> i64 {
        self.raw
    }

    /// The value's format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The real value this word represents.
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 * self.format.resolution()
    }

    /// The `K+F`-bit two's-complement bit pattern, as an unsigned word.
    ///
    /// Bit `K+F−1` is the sign bit, exactly as drawn in the paper's Figure 3.
    pub fn to_bits(&self) -> u64 {
        let w = self.format.word_length();
        (self.raw as u64) & ((1u64 << w) - 1)
    }

    /// Reconstructs a value from a `K+F`-bit pattern produced by
    /// [`Self::to_bits`].
    pub fn from_bits(bits: u64, format: QFormat) -> Self {
        let w = format.word_length();
        let masked = bits & ((1u64 << w) - 1);
        let raw = if masked >= (1u64 << (w - 1)) {
            masked as i64 - (1i64 << w)
        } else {
            masked as i64
        };
        Fx::from_raw_parts(raw, format)
    }

    /// True when the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.raw == 0
    }

    fn check_format(&self, other: &Fx, _op: &'static str) -> Result<()> {
        if self.format != other.format {
            return Err(FixedPointError::FormatMismatch {
                left: (self.format.k(), self.format.f()),
                right: (other.format.k(), other.format.f()),
            });
        }
        Ok(())
    }

    /// Addition with two's-complement wrap-around (the hardware adder).
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::FormatMismatch`] when formats differ.
    pub fn wrapping_add(&self, other: Fx) -> Result<Fx> {
        self.check_format(&other, "wrapping_add")?;
        let raw = self.format.wrap_raw(self.raw as i128 + other.raw as i128);
        Ok(Fx::from_raw_parts(raw, self.format))
    }

    /// Subtraction with two's-complement wrap-around.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::FormatMismatch`] when formats differ.
    pub fn wrapping_sub(&self, other: Fx) -> Result<Fx> {
        self.check_format(&other, "wrapping_sub")?;
        let raw = self.format.wrap_raw(self.raw as i128 - other.raw as i128);
        Ok(Fx::from_raw_parts(raw, self.format))
    }

    /// Addition with saturation at the format's range.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::FormatMismatch`] when formats differ.
    pub fn saturating_add(&self, other: Fx) -> Result<Fx> {
        self.check_format(&other, "saturating_add")?;
        let raw = self
            .format
            .saturate_raw(self.raw as i128 + other.raw as i128);
        Ok(Fx::from_raw_parts(raw, self.format))
    }

    /// Multiplication: the full-precision `2F`-fraction product is rounded
    /// back to `F` fractional bits with `mode`, then **wrapped** into range.
    ///
    /// This models a hardware multiplier whose output register has the same
    /// `QK.F` width as its inputs.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::FormatMismatch`] when formats differ.
    pub fn wrapping_mul(&self, other: Fx, mode: RoundingMode) -> Result<Fx> {
        self.check_format(&other, "wrapping_mul")?;
        let raw = self.format.wrap_raw(self.mul_rounded_raw(other, mode));
        Ok(Fx::from_raw_parts(raw, self.format))
    }

    /// Multiplication with saturation instead of wrap.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::FormatMismatch`] when formats differ.
    pub fn saturating_mul(&self, other: Fx, mode: RoundingMode) -> Result<Fx> {
        self.check_format(&other, "saturating_mul")?;
        let raw = self.format.saturate_raw(self.mul_rounded_raw(other, mode));
        Ok(Fx::from_raw_parts(raw, self.format))
    }

    /// Full product re-scaled to `F` fractional bits with rounding, before
    /// any range reduction. The result may exceed the format's raw range.
    pub(crate) fn mul_rounded_raw(&self, other: Fx, mode: RoundingMode) -> i128 {
        let wide = self.raw as i128 * other.raw as i128; // 2F fractional bits
        let f = self.format.f();
        if f == 0 {
            return wide;
        }
        let divisor = 1i128 << f;
        let q = wide.div_euclid(divisor); // floor quotient
        let r = wide.rem_euclid(divisor); // in [0, 2^F)
        match mode {
            RoundingMode::Floor => q,
            RoundingMode::Ceil => {
                if r > 0 {
                    q + 1
                } else {
                    q
                }
            }
            RoundingMode::TowardZero => {
                if wide < 0 && r > 0 {
                    q + 1
                } else {
                    q
                }
            }
            RoundingMode::NearestAway => {
                let half = divisor / 2;
                if r > half || (r == half && wide >= 0) {
                    q + 1
                } else if r == half {
                    // negative tie: away from zero = toward −∞ here = q
                    q
                } else {
                    q
                }
            }
            RoundingMode::NearestEven => {
                let half = divisor / 2;
                match r.cmp(&half) {
                    std::cmp::Ordering::Greater => q + 1,
                    std::cmp::Ordering::Less => q,
                    std::cmp::Ordering::Equal => {
                        if q % 2 == 0 {
                            q
                        } else {
                            q + 1
                        }
                    }
                }
            }
        }
    }

    /// Two's-complement negation (wraps: negating the minimum value yields
    /// the minimum value again, as in hardware).
    pub fn wrapping_neg(&self) -> Fx {
        let raw = self.format.wrap_raw(-(self.raw as i128));
        Fx::from_raw_parts(raw, self.format)
    }

    /// Absolute quantization error against a reference real value.
    pub fn error_vs(&self, reference: f64) -> f64 {
        (self.to_f64() - reference).abs()
    }
}

impl PartialOrd for Fx {
    /// Values of different formats are incomparable (returns `None`);
    /// same-format values compare by magnitude.
    fn partial_cmp(&self, other: &Fx) -> Option<Ordering> {
        if self.format != other.format {
            return None;
        }
        self.raw.partial_cmp(&other.raw)
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(k: u32, f: u32) -> QFormat {
        QFormat::new(k, f).unwrap()
    }

    #[test]
    fn to_f64_and_bits_roundtrip() {
        let fmt = q(2, 3); // 5-bit words
        for v in fmt.enumerate() {
            let bits = v.to_bits();
            assert!(bits < 32);
            let back = Fx::from_bits(bits, fmt);
            assert_eq!(back, v);
        }
    }

    #[test]
    fn sign_bit_is_msb() {
        let fmt = q(3, 0);
        let neg = fmt.quantize(-1.0, RoundingMode::NearestEven);
        assert_eq!(neg.to_bits(), 0b111); // -1 in 3-bit two's complement
        let pos = fmt.quantize(3.0, RoundingMode::NearestEven);
        assert_eq!(pos.to_bits(), 0b011);
    }

    #[test]
    fn wrapping_add_overflows_like_hardware() {
        let fmt = q(3, 0);
        let three = fmt.quantize(3.0, RoundingMode::NearestEven);
        let sum = three.wrapping_add(three).unwrap();
        assert_eq!(sum.to_f64(), -2.0); // 011 + 011 = 110
    }

    #[test]
    fn saturating_add_clamps() {
        let fmt = q(3, 0);
        let three = fmt.quantize(3.0, RoundingMode::NearestEven);
        assert_eq!(three.saturating_add(three).unwrap().to_f64(), 3.0);
        let m4 = fmt.quantize(-4.0, RoundingMode::NearestEven);
        assert_eq!(m4.saturating_add(m4).unwrap().to_f64(), -4.0);
    }

    #[test]
    fn wrapping_sub_matches_add_of_neg() {
        let fmt = q(3, 2);
        for a in fmt.enumerate() {
            for b in fmt.enumerate() {
                let s1 = a.wrapping_sub(b).unwrap();
                let s2 = a.wrapping_add(b.wrapping_neg()).unwrap();
                assert_eq!(s1, s2, "a={a}, b={b}");
            }
        }
    }

    #[test]
    fn mul_basic_fractional() {
        let fmt = q(2, 6);
        let a = fmt.quantize(0.75, RoundingMode::NearestEven);
        let b = fmt.quantize(0.5, RoundingMode::NearestEven);
        assert_eq!(
            a.wrapping_mul(b, RoundingMode::NearestEven)
                .unwrap()
                .to_f64(),
            0.375
        );
    }

    #[test]
    fn mul_rounding_direction() {
        let fmt = q(2, 2); // resolution 0.25
        let a = fmt.quantize(0.75, RoundingMode::NearestEven);
        // 0.75 * 0.75 = 0.5625; floor→0.5, ceil→0.75, nearest→0.5 (0.5625 closer to 0.5)
        assert_eq!(
            a.wrapping_mul(a, RoundingMode::Floor).unwrap().to_f64(),
            0.5
        );
        assert_eq!(
            a.wrapping_mul(a, RoundingMode::Ceil).unwrap().to_f64(),
            0.75
        );
        assert_eq!(
            a.wrapping_mul(a, RoundingMode::NearestEven)
                .unwrap()
                .to_f64(),
            0.5
        );
    }

    #[test]
    fn mul_negative_floor_vs_toward_zero() {
        let fmt = q(3, 1); // resolution 0.5
        let a = fmt.quantize(-1.5, RoundingMode::NearestEven);
        let b = fmt.quantize(0.5, RoundingMode::NearestEven);
        // -0.75: floor → -1.0, toward zero → -0.5, ceil → -0.5
        assert_eq!(
            a.wrapping_mul(b, RoundingMode::Floor).unwrap().to_f64(),
            -1.0
        );
        assert_eq!(
            a.wrapping_mul(b, RoundingMode::TowardZero)
                .unwrap()
                .to_f64(),
            -0.5
        );
        assert_eq!(
            a.wrapping_mul(b, RoundingMode::Ceil).unwrap().to_f64(),
            -0.5
        );
    }

    #[test]
    fn mul_wraps_on_overflow() {
        let fmt = q(2, 2); // range [-2, 1.75]
        let a = fmt.quantize(1.75, RoundingMode::NearestEven);
        let b = fmt.quantize(1.75, RoundingMode::NearestEven);
        // 3.0625 → nearest grid 3.0 → wraps into [-2, 1.75]: 3.0 - 4.0 = -1.0
        let wrapped = a.wrapping_mul(b, RoundingMode::NearestEven).unwrap();
        assert_eq!(wrapped.to_f64(), -1.0);
        let sat = a.saturating_mul(b, RoundingMode::NearestEven).unwrap();
        assert_eq!(sat.to_f64(), 1.75);
    }

    #[test]
    fn neg_of_min_wraps_to_min() {
        let fmt = q(3, 0);
        let min = fmt.quantize(-4.0, RoundingMode::NearestEven);
        assert_eq!(min.wrapping_neg().to_f64(), -4.0);
        let one = fmt.quantize(1.0, RoundingMode::NearestEven);
        assert_eq!(one.wrapping_neg().to_f64(), -1.0);
    }

    #[test]
    fn format_mismatch_rejected() {
        let a = q(2, 2).zero();
        let b = q(3, 1).zero();
        assert!(matches!(
            a.wrapping_add(b),
            Err(FixedPointError::FormatMismatch { .. })
        ));
        assert!(a.wrapping_mul(b, RoundingMode::Floor).is_err());
        assert!(a.partial_cmp(&b).is_none());
    }

    #[test]
    fn ordering_within_format() {
        let fmt = q(3, 1);
        let a = fmt.quantize(-1.0, RoundingMode::NearestEven);
        let b = fmt.quantize(0.5, RoundingMode::NearestEven);
        assert!(a < b);
        assert!(b > a);
    }

    #[test]
    fn exhaustive_mul_matches_reference_q2_2() {
        // For every pair in Q2.2, wrapping_mul(Floor) must equal the
        // mathematically derived wrap(floor(a·b / 2^F)).
        let fmt = q(2, 2);
        for a in fmt.enumerate() {
            for b in fmt.enumerate() {
                let exact = a.to_f64() * b.to_f64();
                let scaled = (exact * 4.0).floor() as i128; // 2^F = 4
                let expect = fmt.wrap_raw(scaled);
                let got = a.wrapping_mul(b, RoundingMode::Floor).unwrap().raw();
                assert_eq!(got, expect, "a={a}, b={b}");
            }
        }
    }

    #[test]
    fn exhaustive_mul_nearest_away_matches_reference_q2_2() {
        // NearestAway reference: round half away from zero on the exact
        // real product, then wrap.
        let fmt = q(2, 2);
        for a in fmt.enumerate() {
            for b in fmt.enumerate() {
                let exact = a.to_f64() * b.to_f64();
                let scaled = exact * 4.0; // 2^F
                let rounded = if scaled >= 0.0 {
                    (scaled + 0.5).floor()
                } else {
                    (scaled - 0.5).ceil()
                };
                let expect = fmt.wrap_raw(rounded as i128);
                let got = a.wrapping_mul(b, RoundingMode::NearestAway).unwrap().raw();
                assert_eq!(got, expect, "a={a}, b={b}, exact={exact}");
            }
        }
    }

    #[test]
    fn exhaustive_mul_ceil_matches_reference_q2_2() {
        let fmt = q(2, 2);
        for a in fmt.enumerate() {
            for b in fmt.enumerate() {
                let exact = a.to_f64() * b.to_f64();
                let expect = fmt.wrap_raw((exact * 4.0).ceil() as i128);
                let got = a.wrapping_mul(b, RoundingMode::Ceil).unwrap().raw();
                assert_eq!(got, expect, "a={a}, b={b}");
            }
        }
    }

    #[test]
    fn error_vs_reference() {
        let fmt = q(2, 2);
        let v = fmt.quantize(0.3, RoundingMode::NearestEven);
        assert!((v.error_vs(0.3) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn display_shows_value_and_format() {
        let fmt = q(2, 1);
        let v = fmt.quantize(0.5, RoundingMode::NearestEven);
        assert_eq!(v.to_string(), "0.5 (Q2.1)");
    }
}
