//! MAC-kernel throughput gate: the best available `KernelKind` must run
//! at least 2× the rows/s of one per-step wrapping MAC call per row
//! ([`mac_dot_counted`] below), on the same words, at the paper's
//! 42-feature / 256-row serving shape.
//!
//! ```text
//! cargo test --release -p ldafp-bench --test kernels_gate -- --nocapture
//! ```
//!
//! (`--nocapture` shows each kernel's speedup.)
//!
//! Bit-identity is asserted before anything is timed, so a speedup can
//! never come from a diverged datapath: on every row, every kernel's word
//! equals the traced reference's, and its overflow flag is 1 exactly when
//! the traced reference's exact rounded-product sum left the word range.

use ldafp_fixedpoint::{mac_dot_traced, FixedPointError, Fx, QFormat, RoundingMode};
use ldafp_kernels::{mac_gemm_into, GemmScratch, KernelKind, QBatch};
use ldafp_stats::Rng;
use std::time::Instant;

const FEATURES: usize = 42;
/// Rows per GEMV dispatch: the serving tier's micro-batch scale.
const BATCH_ROWS: usize = 256;
/// Passes over the batch per timed sample, so the clock resolves it.
const ITERS: usize = 200;
/// Interleaved timing rounds; the best per contender counts.
const REPEATS: usize = 9;
/// Minimum best-kernel over [`mac_dot_counted`] rows/s.
const GATE_SPEEDUP: f64 = 2.0;

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn best_kernel_at_least_doubles_mac_dot_counted() {
    let mode = RoundingMode::NearestEven;
    // Raw draws on Q2.6, so every grid point (not just float-reachable
    // ones) appears.
    let mut rng = Rng::new(42);
    let format = QFormat::new(2, 6).expect("static format");
    let (lo, hi) = (format.min_raw(), format.max_raw());
    let weights: Vec<i64> = (0..FEATURES).map(|_| rng.range_i64(lo..=hi)).collect();
    let words: Vec<i64> = (0..BATCH_ROWS * FEATURES)
        .map(|_| rng.range_i64(lo..=hi))
        .collect();
    let batch = QBatch::from_words(format, FEATURES, &words).expect("fixture rows are whole");
    let wfx: Vec<Fx> = weights.iter().map(|&v| format.from_raw(v)).collect();
    let rows_fx: Vec<Vec<Fx>> = words
        .chunks_exact(FEATURES)
        .map(|row| row.iter().map(|&v| format.from_raw(v)).collect())
        .collect();

    let (lo, hi) = (i128::from(lo), i128::from(hi));
    let expected: Vec<(i64, u32)> = rows_fx
        .iter()
        .map(|row| {
            let (y, trace) = mac_dot_traced(&wfx, row, mode).expect("formats agree");
            (
                y.raw(),
                u32::from(trace.exact_sum < lo || trace.exact_sum > hi),
            )
        })
        .collect();
    let kinds = KernelKind::available();
    for &kind in &kinds {
        // Fresh outputs per kind, so no kernel can pass on another's rows.
        let mut scratch = GemmScratch::default();
        let (mut out, mut wraps) = (Vec::new(), Vec::new());
        mac_gemm_into(
            kind,
            &batch,
            &weights,
            1,
            mode,
            &mut scratch,
            &mut out,
            &mut wraps,
        )
        .expect("fixture shapes agree");
        for (r, &want) in expected.iter().enumerate() {
            assert_eq!(
                (out[r], wraps[r]),
                want,
                "kernel {} diverged from the reference on row {r}",
                kind.name()
            );
        }
    }

    let baseline = || {
        let mut sink = 0i64;
        for row in &rows_fx {
            let (y, _) = mac_dot_counted(&wfx, row, mode).expect("formats agree");
            sink ^= y.raw();
        }
        std::hint::black_box(sink);
    };
    let mut scratch = GemmScratch::default();
    let (mut out, mut wraps) = (Vec::new(), Vec::new());
    let mut kernel_pass = |kind: KernelKind| {
        mac_gemm_into(
            kind,
            &batch,
            &weights,
            1,
            mode,
            &mut scratch,
            &mut out,
            &mut wraps,
        )
        .expect("fixture shapes agree");
        std::hint::black_box(out.last().copied());
    };

    // Interleave the contenders each round, after one untimed warmup, so
    // clock drift and background load spread over all of them.
    baseline();
    for &kind in &kinds {
        kernel_pass(kind);
    }
    let mut best = vec![f64::INFINITY; 1 + kinds.len()];
    for _ in 0..REPEATS {
        let t = Instant::now();
        for _ in 0..ITERS {
            baseline();
        }
        best[0] = best[0].min(t.elapsed().as_secs_f64());
        for (i, &kind) in kinds.iter().enumerate() {
            let t = Instant::now();
            for _ in 0..ITERS {
                kernel_pass(kind);
            }
            best[1 + i] = best[1 + i].min(t.elapsed().as_secs_f64());
        }
    }

    // Shown with `-- --nocapture`.
    for (kind, s) in kinds.iter().zip(&best[1..]) {
        eprintln!("{}: {:.2}x mac_dot_counted", kind.name(), best[0] / s);
    }
    let (best_kind, best_s) = kinds
        .iter()
        .zip(&best[1..])
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("the reference kernel always runs");
    let speedup = best[0] / best_s;
    assert!(
        speedup >= GATE_SPEEDUP,
        "best kernel ({}) is {speedup:.2}x mac_dot_counted, gate is {GATE_SPEEDUP}x \
         (simd available: {})",
        best_kind.name(),
        KernelKind::simd_available()
    );
}

/// The timed baseline: the per-step wrapping MAC loop the serving path
/// ran per row before the kernels, kept verbatim so the 2× threshold
/// keeps timing the same code. Each step rounds the product, wraps it,
/// and wraps the running sum; the second value counts the steps whose
/// sum wrapped. Never inlined, so it stays one call per row as the
/// cross-crate library function it was.
#[inline(never)]
fn mac_dot_counted(w: &[Fx], x: &[Fx], mode: RoundingMode) -> Result<(Fx, usize), FixedPointError> {
    let fmt = check_operands(w, x)?;
    // Raw-integer inner loop. The element-wise `wrapping_mul` /
    // `wrapping_add` path re-checks formats and reduces through
    // `i128::rem_euclid` — a software division — on every step; with the
    // formats validated once up front, every reduction here is a
    // power-of-two wrap, so shifts and masks compute the identical result.
    // Magnitudes stay comfortably inside `i64`: `K+F ≤ 31` bounds raws by
    // `2^30`, products by `2^60`, and accumulator sums by `2^31`.
    let f = fmt.f();
    let wl = fmt.word_length();
    let modulus = 1i64 << wl;
    let half_modulus = 1i64 << (wl - 1);
    let wrap = |v: i64| -> i64 {
        // Two's-complement wrap into `wl` bits: the mask is `v mod 2^wl`
        // for any sign, exactly `QFormat::wrap_raw`.
        let r = v & (modulus - 1);
        if r >= half_modulus {
            r - modulus
        } else {
            r
        }
    };
    let frac_mask = if f == 0 { 0 } else { (1i64 << f) - 1 };
    let half = if f == 0 { 0 } else { 1i64 << (f - 1) };
    let mut acc = 0i64;
    let mut overflows = 0usize;
    for (wi, xi) in w.iter().zip(x) {
        let wide = wi.raw() * xi.raw(); // 2F fractional bits
        let p_scaled = if f == 0 {
            wide
        } else {
            // `>> F` is floor division and `& frac_mask` the euclidean
            // remainder, mirroring `Fx::mul_rounded_raw` mode for mode.
            let q = wide >> f;
            let r = wide & frac_mask;
            q + match mode {
                RoundingMode::Floor => 0,
                RoundingMode::Ceil => i64::from(r > 0),
                RoundingMode::TowardZero => i64::from(wide < 0 && r > 0),
                RoundingMode::NearestAway => i64::from(r > half || (r == half && wide >= 0)),
                RoundingMode::NearestEven => match r.cmp(&half) {
                    std::cmp::Ordering::Greater => 1,
                    std::cmp::Ordering::Less => 0,
                    std::cmp::Ordering::Equal => q & 1, // odd quotient rounds up
                },
            }
        };
        let p = wrap(p_scaled);
        let unbounded = acc + p;
        let next = wrap(unbounded);
        if next != unbounded {
            overflows += 1;
        }
        acc = next;
    }
    Ok((fmt.from_raw(acc), overflows))
}

/// The baseline's operand check, as it ran before the loop.
fn check_operands(w: &[Fx], x: &[Fx]) -> Result<QFormat, FixedPointError> {
    if w.len() != x.len() || w.is_empty() {
        return Err(FixedPointError::LengthMismatch {
            left: w.len(),
            right: if w.is_empty() { 1 } else { x.len() },
        });
    }
    let fmt = w[0].format();
    for v in w.iter().chain(x) {
        if v.format() != fmt {
            return Err(FixedPointError::FormatMismatch {
                left: (fmt.k(), fmt.f()),
                right: (v.format().k(), v.format().f()),
            });
        }
    }
    Ok(fmt)
}
