//! Property tests for the crate's bit-identity contract: every kernel
//! variant that runs on this build/CPU — the row-at-a-time scalar
//! reference and the intrinsic path when detected — reproduces the
//! element-wise `mac_dot_traced` reference exactly: its served word, and
//! as the overflow flag whether its exact rounded-product sum left the
//! word range, for random formats, rounding modes, shapes crossing tile
//! and chunk boundaries, and raw words spanning (and exceeding) the
//! representable range.

use ldafp_fixedpoint::{mac_dot_traced, Fx, QFormat, RoundingMode};
use ldafp_kernels::{mac_gemm_into, mac_row, mac_row_fx, GemmScratch, KernelKind, QBatch, WrapCtx};
use ldafp_stats::rng::{check, CASES};
use ldafp_stats::Rng;

fn format(rng: &mut Rng) -> QFormat {
    // K ≥ 1, F ≥ 0, K + F ≤ 31 — includes the F = 0 integer-only corner
    // (its own kernel instantiation) and fraction-heavy shapes.
    let k = rng.range_i64(1..=16) as u32;
    let f = rng.range_i64(0..=15) as u32;
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

/// 1 when a traced exact sum lies outside the word range.
fn overflow_flag(format: QFormat, exact_sum: i128) -> u32 {
    u32::from(exact_sum < i128::from(format.min_raw()) || exact_sum > i128::from(format.max_raw()))
}

/// Per-(row, head) expected `(word, flag)` through the element-wise
/// traced reference — the independent oracle every kernel must match.
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
            let (y, trace) = mac_dot_traced(&w, &x, mode).expect("formats agree");
            out.push(y.raw());
            flags.push(overflow_flag(format, trace.exact_sum));
        }
    }
    (out, flags)
}

/// One kernel case: a format, a rounding mode, batch words and weights.
#[derive(Debug)]
struct GemmCase {
    format: QFormat,
    mode: RoundingMode,
    features: usize,
    heads: usize,
    words: Vec<i64>,
    weights: Vec<i64>,
}

/// Random shapes crossing tile and 8-feature chunk boundaries, zero rows
/// included. Batch words are arbitrary `i64`s spanning well past the raw
/// range (wrapped on load by the kernels), or in-range words scaled down
/// so that sums stay in range and both flag values occur; weights are
/// wrapped into range first — the two sides of the crate's input
/// contract.
fn gemm_case(rng: &mut Rng) -> GemmCase {
    let format = format(rng);
    let mode = mode(rng);
    let rows = rng.below(20);
    let features = if rng.below(4) == 0 {
        1 + rng.below(64)
    } else {
        1 + rng.below(13)
    };
    let heads = 1 + rng.below(3);
    let span = 1i64 << 46;
    let shift = rng.below(format.word_length() as usize) as u32;
    let wide = rng.below(2) == 0;
    let words = (0..rows * features)
        .map(|_| {
            let v = rng.range_i64(-span..=span - 1);
            if wide {
                v
            } else {
                format.wrap_raw(i128::from(v)) >> shift
            }
        })
        .collect();
    let weights = (0..heads * features)
        .map(|_| format.wrap_raw(i128::from(rng.range_i64(-span..=span - 1))))
        .collect();
    GemmCase {
        format,
        mode,
        features,
        heads,
        words,
        weights,
    }
}

/// The headline contract: every kernel × every rounding mode × random
/// shape equals the traced reference, words and overflow flags both.
#[test]
fn every_kernel_matches_traced_reference() {
    check(CASES, gemm_case, |case| {
        let GemmCase {
            format,
            mode,
            features,
            heads,
            ref words,
            ref weights,
        } = *case;
        let (want_out, want_flags) =
            traced_expectation(format, mode, words, features, weights, heads);
        let batch = QBatch::from_words(format, features, words).expect("whole rows");
        for kind in KernelKind::available() {
            let mut scratch = GemmScratch::default();
            let (mut out, mut flags) = (Vec::new(), Vec::new());
            mac_gemm_into(
                kind,
                &batch,
                weights,
                heads,
                mode,
                &mut scratch,
                &mut out,
                &mut flags,
            )
            .expect("shapes agree");
            assert_eq!(&out, &want_out, "kernel={} word mismatch", kind.name());
            assert_eq!(&flags, &want_flags, "kernel={} flag mismatch", kind.name());
        }

        // The row-at-a-time entry points are the scalar twin of the same
        // contract.
        for r in 0..batch.rows() {
            let wfx: Vec<Fx> = weights[..features]
                .iter()
                .map(|&v| format.from_raw(v))
                .collect();
            let xfx: Vec<Fx> = batch.row(r).iter().map(|&v| format.from_raw(v)).collect();
            let want = (want_out[r * heads], want_flags[r * heads]);
            assert_eq!(
                mac_row(format, mode, &weights[..features], batch.row(r)),
                want
            );
            assert_eq!(mac_row_fx(format, mode, &wfx, &xfx), want);
        }
    });
}

/// `WrapCtx` — the primitive the table-driven families finish their
/// exact sums through — is `QFormat::wrap_raw` at every `i64`
/// magnitude, and `wrap_once` flags exactly the out-of-range sums.
#[test]
fn wrap_ctx_is_wrap_raw() {
    let values = |rng: &mut Rng| {
        let len = 1 + rng.below(63);
        let span = 1i64 << 60;
        let values: Vec<i64> = (0..len).map(|_| rng.range_i64(-span..=span - 1)).collect();
        (format(rng), values)
    };
    check(CASES, values, |(format, values)| {
        let ctx = WrapCtx::new(*format);
        let mut sum = 0i64;
        for &v in values {
            assert_eq!(ctx.wrap(v), format.wrap_raw(v as i128));
            sum += format.wrap_raw(v as i128);
            assert_eq!(
                ctx.wrap_once(sum),
                (
                    format.wrap_raw(i128::from(sum)),
                    overflow_flag(*format, i128::from(sum)) == 1
                )
            );
        }
    });
}
