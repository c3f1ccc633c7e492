//! Statistical analysis of quantization and datapath error.
//!
//! The paper's premise is that rounding error is not noise to be ignored
//! but a structured effect to be modeled. This module provides the
//! measurement side of that premise:
//!
//! * [`quantization_error_stats`] — empirical moments of the quantization
//!   error of a value stream against the theoretical uniform-error model
//!   (`var = q²/12` for round-to-nearest);
//! * [`DotErrorReport`] / [`analyze_dot_error`] — decomposition of a MAC
//!   datapath's total error into *product rounding* and *final wrap*
//!   contributions, against the exact real-valued dot product.

use crate::{exact_dot_value, mac_dot_traced, wide_dot, Fx, QFormat, Result, RoundingMode};

/// Empirical statistics of a quantization error stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantErrorStats {
    /// Number of samples measured.
    pub count: usize,
    /// Mean signed error (bias; ≈ 0 for round-to-nearest).
    pub mean: f64,
    /// Error variance.
    pub variance: f64,
    /// Largest absolute error observed.
    pub max_abs: f64,
    /// The theoretical uniform-model variance `q²/12`.
    pub uniform_model_variance: f64,
}

/// Quantizes every value and reports the error statistics.
///
/// For inputs well inside the representable range and round-to-nearest
/// modes, `mean ≈ 0` and `variance ≈ q²/12` (the classic uniform
/// quantization-noise model from the DSP literature the paper builds on).
/// Saturation at the range edges shows up as `max_abs` outliers.
pub fn quantization_error_stats(
    format: QFormat,
    values: &[f64],
    mode: RoundingMode,
) -> QuantErrorStats {
    let q = format.resolution();
    let mut mean = 0.0;
    let mut max_abs = 0.0f64;
    let errors: Vec<f64> = values
        .iter()
        .map(|&x| {
            let e = format.round_to_grid(x, mode) - x;
            mean += e;
            max_abs = max_abs.max(e.abs());
            e
        })
        .collect();
    let n = values.len().max(1) as f64;
    mean /= n;
    let variance = errors.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
    QuantErrorStats {
        count: values.len(),
        mean,
        variance,
        max_abs,
        uniform_model_variance: q * q / 12.0,
    }
}

/// Error decomposition of one MAC dot-product evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DotErrorReport {
    /// Exact real-valued dot product of the represented operands.
    pub exact: f64,
    /// Result of the hardware-faithful wrapping MAC.
    pub mac_value: f64,
    /// Result of the idealized wide-accumulator path.
    pub wide_value: f64,
    /// `|mac − exact|` — the total datapath error.
    pub total_error: f64,
    /// `|wide − exact|` — error attributable to the single final rounding.
    pub final_rounding_error: f64,
    /// `|mac − wide|` — error attributable to per-product rounding and
    /// (when the exact value is out of range) wrap-around.
    pub accumulation_error: f64,
    /// Whether the exact result was outside the representable range (so a
    /// wrap necessarily corrupted the MAC result).
    pub exact_out_of_range: bool,
}

/// Analyzes one dot product on both datapaths.
///
/// # Errors
///
/// Propagates length/format mismatches from the underlying kernels.
pub fn analyze_dot_error(w: &[Fx], x: &[Fx], mode: RoundingMode) -> Result<DotErrorReport> {
    let (mac, _) = mac_dot_traced(w, x, mode)?;
    let wide = wide_dot(w, x, mode)?;
    let exact = exact_dot_value(w, x);
    let fmt = w[0].format();
    Ok(DotErrorReport {
        exact,
        mac_value: mac.to_f64(),
        wide_value: wide.to_f64(),
        total_error: (mac.to_f64() - exact).abs(),
        final_rounding_error: (wide.to_f64() - exact).abs(),
        accumulation_error: (mac.to_f64() - wide.to_f64()).abs(),
        exact_out_of_range: exact > fmt.max_value() || exact < fmt.min_value(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_noise_model_holds_for_nearest() {
        let format = QFormat::new(2, 6).unwrap();
        // A dense in-range ramp exercises all rounding offsets.
        let values: Vec<f64> = (0..20_000)
            .map(|i| -1.8 + 3.6 * i as f64 / 20_000.0)
            .collect();
        let stats = quantization_error_stats(format, &values, RoundingMode::NearestEven);
        assert!(stats.mean.abs() < 1e-4, "bias {}", stats.mean);
        let ratio = stats.variance / stats.uniform_model_variance;
        assert!((0.9..1.1).contains(&ratio), "variance ratio {ratio}");
        assert!(stats.max_abs <= format.resolution() / 2.0 + 1e-12);
    }

    #[test]
    fn floor_mode_has_negative_bias() {
        let format = QFormat::new(2, 4).unwrap();
        let values: Vec<f64> = (0..5_000)
            .map(|i| -1.5 + 3.0 * i as f64 / 5_000.0)
            .collect();
        let stats = quantization_error_stats(format, &values, RoundingMode::Floor);
        // Floor always rounds down: mean error ≈ −q/2.
        assert!(
            stats.mean < -0.4 * format.resolution(),
            "bias {}",
            stats.mean
        );
    }

    #[test]
    fn saturation_shows_as_outlier() {
        let format = QFormat::new(1, 3).unwrap(); // range [−1, 0.875]
        let stats = quantization_error_stats(format, &[5.0], RoundingMode::NearestEven);
        assert!(stats.max_abs > 4.0);
    }

    #[test]
    fn dot_error_decomposition_in_range() {
        let format = QFormat::new(3, 3).unwrap();
        let w = format.quantize_slice(&[0.625, -1.25], RoundingMode::NearestEven);
        let x = format.quantize_slice(&[0.375, 0.5], RoundingMode::NearestEven);
        let r = analyze_dot_error(&w, &x, RoundingMode::NearestEven).unwrap();
        assert!(!r.exact_out_of_range);
        // exact = 0.234375 − 0.625 = −0.390625; on a 1/8 grid.
        assert!((r.exact + 0.390625).abs() < 1e-12);
        // Triangle inequality of the decomposition.
        assert!(r.total_error <= r.final_rounding_error + r.accumulation_error + 1e-12);
        // Final rounding error bounded by half a quantum.
        assert!(r.final_rounding_error <= format.resolution() / 2.0 + 1e-12);
    }

    #[test]
    fn wrap_detected_when_exact_out_of_range() {
        let format = QFormat::new(3, 0).unwrap(); // [−4, 3]
        let w = format.quantize_slice(&[3.0, 3.0], RoundingMode::NearestEven);
        let x = format.quantize_slice(&[1.0, 1.0], RoundingMode::NearestEven);
        let r = analyze_dot_error(&w, &x, RoundingMode::NearestEven).unwrap();
        assert!(r.exact_out_of_range);
        assert_eq!(r.exact, 6.0);
        assert_eq!(r.mac_value, -2.0); // wrapped
        assert!(r.total_error == 8.0);
    }

    #[test]
    fn empty_stats_are_sane() {
        let format = QFormat::new(2, 2).unwrap();
        let s = quantization_error_stats(format, &[], RoundingMode::NearestEven);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.variance, 0.0);
    }
}
