//! Property-based tests for the fixed-point substrate, including the
//! paper's §3 claim that intermediate accumulator overflow is harmless under
//! two's-complement wrapping.

use ldafp_fixedpoint::{mac_dot_traced, wide_dot, Fx, InputScale, QFormat, RoundingMode};
use ldafp_stats::rng::{check, CASES};
use ldafp_stats::Rng;

fn format(rng: &mut Rng) -> QFormat {
    let k = rng.range_i64(1..=6) as u32;
    let f = rng.range_i64(0..=6) as u32;
    QFormat::new(k, f).expect("bounded params")
}

fn mode(rng: &mut Rng) -> RoundingMode {
    const MODES: [RoundingMode; 5] = [
        RoundingMode::NearestEven,
        RoundingMode::NearestAway,
        RoundingMode::Floor,
        RoundingMode::Ceil,
        RoundingMode::TowardZero,
    ];
    MODES[rng.below(MODES.len())]
}

/// Between `min_len` and `max_len - 1` raw words in the half-open `lo..hi`.
fn raws(rng: &mut Rng, min_len: usize, max_len: usize, lo: i64, hi: i64) -> Vec<i64> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len).map(|_| rng.range_i64(lo..=hi - 1)).collect()
}

/// The first `min(ws.len(), xs.len())` pairs of `ws`, `xs` read as raw
/// words of `fmt`.
fn paired(fmt: QFormat, ws: &[i64], xs: &[i64]) -> (Vec<Fx>, Vec<Fx>) {
    let n = ws.len().min(xs.len());
    let w = ws[..n].iter().map(|&r| fmt.from_raw(r)).collect();
    let x = xs[..n].iter().map(|&r| fmt.from_raw(r)).collect();
    (w, x)
}

fn exact_dot(w: &[Fx], x: &[Fx]) -> f64 {
    w.iter().zip(x).map(|(a, b)| a.to_f64() * b.to_f64()).sum()
}

#[test]
fn quantize_is_idempotent() {
    check(
        CASES,
        |rng| (format(rng), rng.range_f64(-40.0..40.0), mode(rng)),
        |&(fmt, x, mode)| {
            let v = fmt.quantize(x, mode);
            let again = fmt.quantize(v.to_f64(), mode);
            assert_eq!(v.raw(), again.raw());
        },
    );
}

#[test]
fn quantize_error_bounded() {
    check(
        CASES,
        |rng| (format(rng), rng.range_f64(-1.0..1.0), mode(rng)),
        |&(fmt, x, mode)| {
            // Any x inside the representable range quantizes within one quantum.
            let clamped = x.clamp(fmt.min_value(), fmt.max_value());
            let v = fmt.quantize(clamped, mode);
            assert!(v.error_vs(clamped) <= fmt.resolution() + 1e-15);
        },
    );
}

#[test]
fn quantized_value_in_range() {
    check(
        CASES,
        |rng| (format(rng), rng.range_f64(-1e6..1e6), mode(rng)),
        |&(fmt, x, mode)| {
            let v = fmt.quantize(x, mode);
            assert!(v.to_f64() >= fmt.min_value());
            assert!(v.to_f64() <= fmt.max_value());
        },
    );
}

#[test]
fn floor_ceil_bracket_value() {
    check(
        CASES,
        |rng| (format(rng), rng.range_f64(-3.0..3.0)),
        |&(fmt, x)| {
            let clamped = x.clamp(fmt.min_value(), fmt.max_value());
            assert!(fmt.floor_to_grid(clamped) <= clamped + 1e-12);
            assert!(fmt.ceil_to_grid(clamped) >= clamped - 1e-12);
        },
    );
}

#[test]
fn wrap_is_modular() {
    check(
        CASES,
        |rng| (format(rng), i128::from(rng.range_i64(-100_000..=99_999))),
        |&(fmt, raw)| {
            let w = fmt.wrap_raw(raw);
            assert!(w >= fmt.min_raw() && w <= fmt.max_raw());
            // Difference must be a multiple of 2^(K+F).
            let modulus = 1i128 << fmt.word_length();
            assert_eq!((raw - w as i128).rem_euclid(modulus), 0);
        },
    );
}

#[test]
fn bits_roundtrip() {
    check(
        CASES,
        |rng| (format(rng), rng.next_u64() as i64),
        |&(fmt, raw)| {
            let v = fmt.from_raw(raw);
            let back = Fx::from_bits(v.to_bits(), fmt);
            assert_eq!(v, back);
        },
    );
}

#[test]
fn add_is_commutative_and_associative_under_wrap() {
    check(
        CASES,
        |rng| (format(rng), [(); 3].map(|()| rng.range_i64(-1000..=999))),
        |&(fmt, [a, b, c])| {
            let (a, b, c) = (fmt.from_raw(a), fmt.from_raw(b), fmt.from_raw(c));
            let ab = a.wrapping_add(b).unwrap();
            let ba = b.wrapping_add(a).unwrap();
            assert_eq!(ab, ba);
            let ab_c = ab.wrapping_add(c).unwrap();
            let a_bc = a.wrapping_add(b.wrapping_add(c).unwrap()).unwrap();
            assert_eq!(ab_c, a_bc, "wrapping addition must stay associative");
        },
    );
}

#[test]
fn saturating_add_never_exceeds_range() {
    check(
        CASES,
        |rng| {
            (
                format(rng),
                rng.range_i64(-1000..=999),
                rng.range_i64(-1000..=999),
            )
        },
        |&(fmt, a, b)| {
            let (a, b) = (fmt.from_raw(a), fmt.from_raw(b));
            let s = a.saturating_add(b).unwrap();
            assert!(s.to_f64() >= fmt.min_value() && s.to_f64() <= fmt.max_value());
            // Saturating result is at least as close to the true sum as wrapping.
            let true_sum = a.to_f64() + b.to_f64();
            let wrap = a.wrapping_add(b).unwrap();
            assert!((s.to_f64() - true_sum).abs() <= (wrap.to_f64() - true_sum).abs() + 1e-12);
        },
    );
}

#[test]
fn mul_matches_exact_when_no_rounding_or_overflow() {
    check(
        CASES,
        |rng| {
            let fmt = format(rng);
            (
                fmt,
                rng.range_i64(-1000..=999),
                rng.range_i64(-1000..=999),
                mode(rng),
            )
        },
        |&(fmt, a, b, mode)| {
            let (a, b) = (fmt.from_raw(a), fmt.from_raw(b));
            let exact = a.to_f64() * b.to_f64();
            if fmt.contains(exact) {
                let p = a.wrapping_mul(b, mode).unwrap();
                assert_eq!(p.to_f64(), exact);
            }
        },
    );
}

/// The paper's §3 property: with an integer format (F = 0, so products
/// are exact), the wrapping MAC equals the true dot product whenever the
/// true final sum is representable — no matter how many intermediate
/// overflows occurred. Cases are drawn until the final sum is representable.
#[test]
fn intermediate_overflow_harmless_integer_format() {
    let representable = |rng: &mut Rng| loop {
        let k = rng.range_i64(2..=6) as u32;
        let ws = raws(rng, 1, 12, -1000, 1000);
        let xs = raws(rng, 1, 12, -1000, 1000);
        let fmt = QFormat::new(k, 0).unwrap();
        let (w, x) = paired(fmt, &ws, &xs);
        let exact = exact_dot(&w, &x);
        if exact >= fmt.min_value() && exact <= fmt.max_value() {
            break (k, ws, xs);
        }
    };
    check(CASES, representable, |(k, ws, xs)| {
        let fmt = QFormat::new(*k, 0).unwrap();
        let (w, x) = paired(fmt, ws, xs);
        let exact = exact_dot(&w, &x);
        let (y, trace) = mac_dot_traced(&w, &x, RoundingMode::Floor).unwrap();
        assert_eq!(
            y.to_f64(),
            exact,
            "wrapping MAC diverged from exact sum despite representable result \
             ({} intermediate overflows)",
            trace.intermediate_overflows
        );
    });
}

/// Fractional generalisation: when every per-step product happens to be
/// exactly representable (no product rounding), the wrapping MAC again
/// equals the exact value whenever it is representable. Cases are drawn
/// until the final sum is representable.
#[test]
fn intermediate_overflow_harmless_when_products_exact() {
    // Make x integer-valued so products w·x stay on the F-bit grid.
    fn operands(fmt: QFormat, ws: &[i64], xs: &[i64]) -> (Vec<Fx>, Vec<Fx>) {
        let n = ws.len().min(xs.len());
        let w = ws[..n].iter().map(|&r| fmt.from_raw(r)).collect();
        let x = xs[..n]
            .iter()
            .map(|&r| fmt.quantize(r.clamp(-4, 3) as f64, RoundingMode::Floor))
            .collect();
        (w, x)
    }
    let representable = |rng: &mut Rng| loop {
        let f = rng.range_i64(1..=4) as u32;
        let ws = raws(rng, 1, 10, -64, 64);
        let xs = raws(rng, 1, 10, -8, 8);
        let fmt = QFormat::new(3, f).unwrap();
        let (w, x) = operands(fmt, &ws, &xs);
        let exact = exact_dot(&w, &x);
        if exact >= fmt.min_value() && exact <= fmt.max_value() {
            break (f, ws, xs);
        }
    };
    check(CASES, representable, |(f, ws, xs)| {
        let fmt = QFormat::new(3, *f).unwrap();
        let (w, x) = operands(fmt, ws, xs);
        let (y, _) = mac_dot_traced(&w, &x, RoundingMode::Floor).unwrap();
        assert_eq!(y.to_f64(), exact_dot(&w, &x));
    });
}

#[test]
fn wide_dot_equals_mac_for_integer_formats() {
    check(
        CASES,
        |rng| {
            let k = rng.range_i64(2..=6) as u32;
            (
                k,
                raws(rng, 1, 10, -1000, 1000),
                raws(rng, 1, 10, -1000, 1000),
            )
        },
        |(k, ws, xs)| {
            // With F = 0 neither path rounds, so they agree identically (both
            // reduce mod 2^W and the sum of wrapped steps equals the wrapped sum).
            let fmt = QFormat::new(*k, 0).unwrap();
            let (w, x) = paired(fmt, ws, xs);
            let (a, _) = mac_dot_traced(&w, &x, RoundingMode::Floor).unwrap();
            let b = wide_dot(&w, &x, RoundingMode::Floor).unwrap();
            assert_eq!(a, b);
        },
    );
}

#[test]
fn for_range_covers_and_is_minimal() {
    check(
        CASES,
        |rng| (rng.range_i64(2..=16) as u32, rng.range_f64(0.01..100.0)),
        |&(word, max_abs)| {
            if let Ok(fmt) = QFormat::for_range(word, max_abs) {
                assert!(fmt.word_length() == word);
                assert!(
                    fmt.max_value() + fmt.resolution() >= max_abs,
                    "range must cover max_abs"
                );
                // Minimality: one fewer integer bit must NOT cover (unless k = 1).
                if fmt.k() > 1 {
                    let half = (2.0f64).powi(fmt.k() as i32 - 2);
                    assert!(
                        half < max_abs,
                        "K not minimal: 2^(K-2) = {half} >= {max_abs}"
                    );
                }
            }
        },
    );
}

/// How a fused-quantizer case scales its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScaleKind {
    Identity,
    Uniform,
    PerFeature,
}

/// Any `QK.F` the crate accepts: `1 ≤ K`, `K + F ≤ 31`.
fn any_format(rng: &mut Rng) -> QFormat {
    let k = rng.range_i64(1..=31) as u32;
    let f = rng.range_i64(0..=(31 - i64::from(k))) as u32;
    QFormat::new(k, f).expect("K + F ≤ 31")
}

/// A scale factor: exact powers of two keep ties ties after scaling,
/// the others land anywhere.
fn scale_factor(rng: &mut Rng) -> f64 {
    match rng.below(4) {
        0 => 0.5,
        1 => 2.0,
        2 => 0.75,
        _ => rng.range_f64(0.01..4.0),
    }
}

/// Inputs aimed at every edge of the fused loop: exact ties
/// `±(n+½)·2⁻ᶠ` and one ulp either side, grid points, one ulp either side
/// of both range ends, ±0, subnormals, ±inf, NaN, ±1e300, values whose
/// `x·2^F` overflows, and plain draws across twice the range.
fn adversarial_inputs(rng: &mut Rng, fmt: QFormat) -> Vec<f64> {
    let subnormal = f64::MIN_POSITIVE / 8.0;
    let mut xs = vec![
        0.0,
        -0.0,
        subnormal,
        -subnormal,
        f64::from_bits(1),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e300,
        -1e300,
        f64::MAX,
        -f64::MAX,
        f64::MAX / 2.0,
        -f64::MAX / 2.0,
    ];
    for end in [fmt.min_value(), fmt.max_value()] {
        xs.extend([end, end.next_up(), end.next_down()]);
    }
    let res = fmt.resolution();
    for _ in 0..6 {
        let n = rng.range_i64(fmt.min_raw()..=fmt.max_raw()) as f64;
        let tie = (n + 0.5) * res;
        for x in [n * res, tie, tie.next_up(), tie.next_down()] {
            xs.extend([x, -x]);
        }
    }
    let (lo, hi) = (2.0 * fmt.min_value(), 2.0 * fmt.max_value());
    xs.extend((0..8).map(|_| rng.range_f64(lo..hi)));
    xs
}

/// The fused loop against the scalar reference: every word equals
/// `quantize_raw(x·s)`, and the count equals `#{x·s ∉ [min, max]}`.
fn check_fused_quantizer(kind: ScaleKind) {
    check(
        CASES,
        |rng| {
            let fmt = any_format(rng);
            let xs = adversarial_inputs(rng, fmt);
            let scales: Vec<f64> = match kind {
                ScaleKind::Identity => vec![1.0],
                ScaleKind::Uniform => vec![scale_factor(rng)],
                ScaleKind::PerFeature => xs.iter().map(|_| scale_factor(rng)).collect(),
            };
            (fmt, mode(rng), xs, scales)
        },
        |(fmt, mode, xs, scales)| {
            let scale = match kind {
                ScaleKind::Identity => InputScale::Identity,
                ScaleKind::Uniform => InputScale::Uniform(scales[0]),
                ScaleKind::PerFeature => InputScale::PerFeature(scales),
            };
            let factor = |i: usize| scales[if kind == ScaleKind::PerFeature { i } else { 0 }];
            let mut out = vec![i64::MIN; xs.len()];
            let saturated = fmt.quantize_into(xs, scale, *mode, &mut out);
            let mut expected_saturated = 0;
            for (i, (&x, &got)) in xs.iter().zip(&out).enumerate() {
                let y = x * factor(i);
                assert_eq!(
                    got,
                    fmt.quantize_raw(y, *mode),
                    "{fmt} {mode:?} x={x:e} s={}",
                    factor(i)
                );
                expected_saturated += u64::from(y < fmt.min_value() || y > fmt.max_value());
            }
            assert_eq!(saturated, expected_saturated, "{fmt} {mode:?}");
        },
    );
}

#[test]
fn fused_quantizer_matches_scalar_reference_unscaled() {
    check_fused_quantizer(ScaleKind::Identity);
}

#[test]
fn fused_quantizer_matches_scalar_reference_uniform_scale() {
    check_fused_quantizer(ScaleKind::Uniform);
}

#[test]
fn fused_quantizer_matches_scalar_reference_per_feature_scale() {
    check_fused_quantizer(ScaleKind::PerFeature);
}

/// The batch entry is the one-row loop run row after row: rows of any
/// lengths land back to back, words and count equal one `quantize_into`
/// per row, and the hook sees each row index once, in order.
#[test]
fn rows_entry_matches_one_call_per_row() {
    check(
        CASES,
        |rng| {
            let fmt = any_format(rng);
            let rows: Vec<Vec<f64>> = (0..rng.below(6))
                .map(|_| {
                    let mut xs = adversarial_inputs(rng, fmt);
                    xs.truncate(rng.below(xs.len() + 1));
                    xs
                })
                .collect();
            (fmt, mode(rng), scale_factor(rng), rows)
        },
        |(fmt, mode, s, rows)| {
            let scale = InputScale::Uniform(*s);
            let (mut want, mut want_saturated) = (Vec::new(), 0);
            for row in rows {
                let mut out = vec![0; row.len()];
                want_saturated += fmt.quantize_into(row, scale, *mode, &mut out);
                want.extend(out);
            }
            let mut out = vec![i64::MIN; want.len()];
            let mut seen = Vec::new();
            let saturated = fmt.quantize_rows_into(rows, scale, *mode, &mut out, |r| seen.push(r));
            assert_eq!((out, saturated), (want, want_saturated), "{fmt} {mode:?}");
            assert_eq!(seen, (0..rows.len()).collect::<Vec<_>>());
        },
    );
}

#[test]
#[should_panic(expected = "output length differs from the rows")]
fn rows_entry_rejects_a_short_output() {
    let fmt = QFormat::new(2, 6).unwrap();
    let mut out = [0; 3];
    fmt.quantize_rows_into(
        &[[0.5, 0.25], [1.0, -1.0]],
        InputScale::Identity,
        RoundingMode::Floor,
        &mut out,
        |_| {},
    );
}

#[test]
#[should_panic(expected = "per-feature scale length differs from the row")]
fn rows_entry_rejects_a_per_feature_scale_of_another_width() {
    let fmt = QFormat::new(2, 6).unwrap();
    let mut out = [0; 4];
    fmt.quantize_rows_into(
        &[[0.5, 0.25], [1.0, -1.0]],
        InputScale::PerFeature(&[1.0; 3]),
        RoundingMode::Floor,
        &mut out,
        |_| {},
    );
}

#[test]
fn input_scale_reads_the_artifact_convention() {
    assert_eq!(InputScale::from_slice(&[1.0]), InputScale::Identity);
    assert_eq!(InputScale::from_slice(&[0.5]), InputScale::Uniform(0.5));
    let per = [1.0, 2.0];
    assert_eq!(InputScale::from_slice(&per), InputScale::PerFeature(&per));
}
