//! Standard-normal special functions.
//!
//! Implements `erf`, the standard normal PDF/CDF and the inverse CDF `Φ⁻¹`
//! to near machine precision — `Φ⁻¹` is what turns the paper's confidence
//! level `ρ` into the overflow-constraint multiplier `β` (eq. 16):
//!
//! ```text
//! β = Φ⁻¹(0.5 + 0.5·ρ)
//! ```

use crate::{Result, StatsError};

/// The error function `erf(x)`, accurate to ~1e-15.
///
/// Uses the complementary-error-function rational expansion of
/// W. J. Cody (1969) split over the canonical three ranges.
///
/// # Example
///
/// ```
/// let v = ldafp_stats::normal::erf(1.0);
/// assert!((v - 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Keeps full relative accuracy in the far right tail where `erf(x) → 1`
/// would lose all precision — exactly the regime of high confidence levels
/// (`ρ → 1`) used by the overflow constraints.
pub fn erfc(x: f64) -> f64 {
    // Cody-style implementation: for |x| <= 0.5 use the erf series-like
    // rational; otherwise use the continued-fraction-flavoured rationals.
    let ax = x.abs();
    if ax <= 0.5 {
        return 1.0 - erf_small(x);
    }
    let v = if ax <= 4.0 {
        erfc_mid(ax)
    } else {
        erfc_large(ax)
    };
    if x >= 0.0 {
        v
    } else {
        2.0 - v
    }
}

/// erf on |x| <= 0.5 (rational approximation, Cody 1969).
fn erf_small(x: f64) -> f64 {
    const A: [f64; 5] = [
        3.161_123_743_870_565_5,
        1.138_641_541_510_501_6e2,
        3.774_852_376_853_02e2,
        3.209_377_589_138_469_4e3,
        1.857_777_061_846_031_5e-1,
    ];
    const B: [f64; 4] = [
        2.360_129_095_234_412_2e1,
        2.440_246_379_344_441_7e2,
        1.282_616_526_077_372_3e3,
        2.844_236_833_439_171e3,
    ];
    let z = x * x;
    let num = ((A[4] * z + A[0]) * z + A[1]) * z + A[2];
    let num = num * z + A[3];
    let den = (((z + B[0]) * z + B[1]) * z + B[2]) * z + B[3];
    x * num / den
}

/// erfc on 0.5 < x <= 4 (rational approximation, Cody 1969).
fn erfc_mid(x: f64) -> f64 {
    const C: [f64; 9] = [
        5.641_884_969_886_701e-1,
        8.883_149_794_388_377,
        6.611_919_063_714_163e1,
        2.986_351_381_974_001e2,
        8.819_522_212_417_69e2,
        1.712_047_612_634_070_7e3,
        2.051_078_377_826_071_6e3,
        1.230_339_354_797_997_2e3,
        2.153_115_354_744_038_3e-8,
    ];
    const D: [f64; 8] = [
        1.574_492_611_070_983_5e1,
        1.176_939_508_913_125e2,
        5.371_811_018_620_099e2,
        1.621_389_574_566_690_3e3,
        3.290_799_235_733_459_7e3,
        4.362_619_090_143_247e3,
        3.439_367_674_143_721_6e3,
        1.230_339_354_803_749_5e3,
    ];
    let mut num = C[8] * x;
    let mut den = x;
    for i in 0..7 {
        num = (num + C[i]) * x;
        den = (den + D[i]) * x;
    }
    let r = (num + C[7]) / (den + D[7]);
    scaled_to_erfc(x, r)
}

/// erfc on x > 4 (rational approximation in 1/x², Cody 1969).
fn erfc_large(x: f64) -> f64 {
    const P: [f64; 6] = [
        3.053_266_349_612_323_6e-1,
        3.603_448_999_498_044_5e-1,
        1.257_817_261_112_292_6e-1,
        1.608_378_514_874_227_5e-2,
        6.587_491_615_298_378e-4,
        1.631_538_713_730_209_7e-2,
    ];
    const Q: [f64; 5] = [
        2.568_520_192_289_822,
        1.872_952_849_923_460_4,
        5.279_051_029_514_285e-1,
        6.051_834_131_244_132e-2,
        2.335_204_976_268_691_8e-3,
    ];
    const INV_SQRT_PI: f64 = 0.564_189_583_547_756_3; // 1/√π
    let z = 1.0 / (x * x);
    let mut num = P[5] * z;
    let mut den = z;
    for i in 0..4 {
        num = (num + P[i]) * z;
        den = (den + Q[i]) * z;
    }
    let r = z * (num + P[4]) / (den + Q[4]);
    let r = (INV_SQRT_PI - r) / x;
    scaled_to_erfc(x, r)
}

/// Converts the scaled result `r ≈ exp(x²)·erfc(x)` to `erfc(x)` while
/// avoiding premature underflow (split x² into a rounded and residual part).
fn scaled_to_erfc(x: f64, r: f64) -> f64 {
    let xsq = (x * 16.0).trunc() / 16.0;
    let del = (x - xsq) * (x + xsq);
    (-xsq * xsq).exp() * (-del).exp() * r
}

/// Standard normal probability density `φ(x)`.
pub fn pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.3989422804014327;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal cumulative distribution `Φ(x)`.
///
/// # Example
///
/// ```
/// let p = ldafp_stats::normal::cdf(0.0);
/// assert!((p - 0.5).abs() < 1e-15);
/// ```
pub fn cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Inverse standard normal CDF `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Acklam's rational approximation (relative error < 1.15e-9) refined with
/// one Halley step against the high-precision [`cdf`], giving near
/// machine-precision results over the whole open interval.
///
/// # Errors
///
/// Returns [`StatsError::InvalidProbability`] when `p` is not strictly
/// inside `(0, 1)` or is not finite.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ldafp_stats::StatsError> {
/// let z = ldafp_stats::normal::inv_cdf(0.975)?;
/// assert!((z - 1.959963984540054).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn inv_cdf(p: f64) -> Result<f64> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::InvalidProbability {
            value: p,
            expected: "open interval (0, 1)",
        });
    }
    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step: x ← x − f/(f' − f·f''/(2f')) with
    // f = Φ(x) − p, f' = φ(x), f'' = −x·φ(x).
    let e = cdf(x) - p;
    let u = e / pdf(x);
    let x = x - u / (1.0 + 0.5 * x * u);
    Ok(x)
}

/// The paper's confidence multiplier `β = Φ⁻¹(0.5 + 0.5·ρ)` (eq. 16).
///
/// `ρ` is the two-sided confidence level: the probability mass that the
/// overflow constraints must cover. Typical values are 0.99–0.9999.
///
/// # Errors
///
/// Returns [`StatsError::InvalidProbability`] when `ρ` is not in `(0, 1)`.
pub fn confidence_multiplier(rho: f64) -> Result<f64> {
    if !(rho > 0.0 && rho < 1.0) {
        return Err(StatsError::InvalidProbability {
            value: rho,
            expected: "confidence level in (0, 1)",
        });
    }
    inv_cdf(0.5 + 0.5 * rho)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun / mpmath.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
            (-1.0, -0.8427007929497149),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-13, "erf({x}) = {}", erf(x));
        }
    }

    #[test]
    fn erfc_tail_accuracy() {
        // erfc(5) = 1.5374597944280349e-12 — must keep relative accuracy.
        let v = erfc(5.0);
        assert!(
            (v / 1.537_459_794_428_035e-12 - 1.0).abs() < 1e-10,
            "erfc(5) = {v:e}"
        );
        // erfc(10) = 2.0884875837625446e-45
        let v = erfc(10.0);
        assert!(
            (v / 2.0884875837625446e-45 - 1.0).abs() < 1e-9,
            "erfc(10) = {v:e}"
        );
    }

    #[test]
    fn erf_odd_symmetry() {
        for i in 0..100 {
            let x = i as f64 * 0.07;
            assert!((erf(x) + erf(-x)).abs() < 1e-15);
        }
    }

    #[test]
    fn cdf_reference_values() {
        assert!((cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((cdf(1.0) - 0.8413447460685429).abs() < 1e-13);
        assert!((cdf(-1.959963984540054) - 0.025).abs() < 1e-13);
        assert!((cdf(3.0) - 0.9986501019683699).abs() < 1e-13);
    }

    #[test]
    fn inv_cdf_reference_values() {
        let cases = [
            (0.5, 0.0),
            (0.8413447460685429, 1.0),
            (0.975, 1.959963984540054),
            (0.995, 2.5758293035489004),
            (0.9999, 3.719016485455709),
            (0.0001, -3.719016485455709),
        ];
        for (p, want) in cases {
            let z = inv_cdf(p).unwrap();
            assert!((z - want).abs() < 1e-9, "inv_cdf({p}) = {z}, want {want}");
        }
    }

    #[test]
    fn inv_cdf_roundtrip() {
        for i in 1..999 {
            let p = i as f64 / 1000.0;
            let z = inv_cdf(p).unwrap();
            assert!((cdf(z) - p).abs() < 1e-12, "roundtrip failed at p={p}");
        }
    }

    #[test]
    fn inv_cdf_extreme_tails_roundtrip() {
        for &p in &[1e-10, 1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-10] {
            let z = inv_cdf(p).unwrap();
            let back = cdf(z);
            assert!(
                (back - p).abs() < 1e-11 * p.max(1.0 - p).max(1e-8),
                "p={p}, z={z}, back={back}"
            );
        }
    }

    #[test]
    fn inv_cdf_rejects_out_of_range() {
        for &p in &[0.0, 1.0, -0.5, 1.5, f64::NAN] {
            assert!(inv_cdf(p).is_err(), "p={p} should be rejected");
        }
    }

    #[test]
    fn confidence_multiplier_reference() {
        // ρ = 0.95 → β = Φ⁻¹(0.975) = 1.96
        let b = confidence_multiplier(0.95).unwrap();
        assert!((b - 1.959963984540054).abs() < 1e-9);
        // ρ = 0.99 → 2.5758…
        let b = confidence_multiplier(0.99).unwrap();
        assert!((b - 2.5758293035489004).abs() < 1e-9);
        assert!(confidence_multiplier(1.0).is_err());
        assert!(confidence_multiplier(0.0).is_err());
    }

    #[test]
    fn pdf_is_symmetric_and_normalizedish() {
        assert!((pdf(0.0) - 0.3989422804014327).abs() < 1e-15);
        assert_eq!(pdf(2.0), pdf(-2.0));
        // Trapezoidal integral over [-8, 8] should be ~1.
        let n = 16000;
        let h = 16.0 / n as f64;
        let mut s = 0.0;
        for i in 0..=n {
            let x = -8.0 + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            s += w * pdf(x);
        }
        assert!((s * h - 1.0).abs() < 1e-10);
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = cdf(-6.0);
        for i in 1..1200 {
            let x = -6.0 + i as f64 * 0.01;
            let c = cdf(x);
            assert!(c >= prev);
            prev = c;
        }
    }
}
