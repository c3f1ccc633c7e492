//! MAC-kernel throughput gate: the best available `KernelKind` must run
//! at least 2× the rows/s of one `mac_dot_counted` call per row, on the
//! same words, at the paper's 42-feature / 256-row serving shape.
//!
//! ```text
//! cargo test --release -p ldafp-bench --test kernels_gate -- --nocapture
//! ```
//!
//! (`--nocapture` shows each kernel's speedup.)
//!
//! Bit-identity is asserted before anything is timed, so a speedup can
//! never come from a diverged datapath: on every row, every kernel's word
//! equals `mac_dot_counted`'s, and its overflow flag is 1 exactly when the
//! traced reference's exact rounded-product sum left the word range.

use ldafp_fixedpoint::{mac_dot_counted, mac_dot_traced, Fx, QFormat, RoundingMode};
use ldafp_kernels::{mac_gemv_into, GemmScratch, KernelKind, QBatch};
use ldafp_stats::Rng;
use std::time::Instant;

const FEATURES: usize = 42;
/// Rows per GEMV dispatch: the serving tier's micro-batch scale.
const BATCH_ROWS: usize = 256;
/// Passes over the batch per timed sample, so the clock resolves it.
const ITERS: usize = 200;
/// Interleaved timing rounds; the best per contender counts.
const REPEATS: usize = 9;
/// Minimum best-kernel over `mac_dot_counted` rows/s.
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
            let (y, _) = mac_dot_counted(&wfx, row, mode).expect("formats agree");
            let (_, trace) = mac_dot_traced(&wfx, row, mode).expect("formats agree");
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
        mac_gemv_into(
            kind,
            &batch,
            &weights,
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
        mac_gemv_into(
            kind,
            &batch,
            &weights,
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
