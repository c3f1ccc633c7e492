//! `core::arch` intrinsic kernels behind runtime feature detection.
//!
//! The AVX2 kernels compute the same wrap-once contract as the scalar
//! loop — rounded products summed exactly, wrapped once per (row,
//! head), a 0/1 overflow flag — in eight 32-bit lanes. The lanes are
//! exact only when [`lanes32_exact`] holds (every product and every
//! partial sum fits `i32`); `mac_gemm_into` runs the scalar reference
//! kernel for any other format. Because the sum no longer depends on
//! order, rows of at least [`TILE`] features are read row-major straight
//! from the batch words, eight features per step with no packing; only
//! narrower rows are packed into an 8-row column tile. Bit-identity with
//! the scalar loop — word and flag — is pinned by the crate's
//! exhaustive tests and proptests.
//!
//! Raw words wrap on load by their low bits, exactly as
//! `QFormat::from_raw` does: the low `wl` bits of each `i64` word are
//! shifted to the top of a 16-bit half-lane, and `vpmaddwd` multiplies
//! that half exactly (see `Lanes`), so no copy of the words is made.
//!
//! Only x86_64 has an intrinsic path. On aarch64 the `Simd` kind runs the
//! reference kernel until a wrap-once NEON port can be checked on an
//! aarch64 host.
//!
//! The batch quantizer's AVX2 build holds no quantize intrinsics: it is
//! `QFormat::quantize_rows_into`'s loop, inlined into a function compiled
//! with AVX2 enabled, so the compiler vectorizes it four `f64` lanes
//! wide. Only `avx2` is enabled, never `fma`: the loop's multiplies and
//! adds stay separately rounded, so its words are IEEE-identical to the
//! portable build's. Its per-row hook prefetches every cache line of the
//! row [`PREFETCH_ROWS_AHEAD`] ahead, the one intrinsic it uses; serving
//! batches hold rows scattered over the heap, which the hardware
//! prefetcher cannot predict.

use crate::scalar::{GemmOut, MacSpec};
use crate::QBatch;
use ldafp_fixedpoint::{InputScale, QFormat, RoundingMode};

/// Rows per column tile and 32-bit lanes per AVX2 vector: eight
/// independent accumulator chains fill one 8×32-bit register.
const TILE: usize = 8;

/// How many rows ahead the AVX2 quantizer prefetches: four rows of 42
/// features keep enough lines in flight to hide a miss; eight measured no
/// better.
const PREFETCH_ROWS_AHEAD: usize = 4;

/// Whether a SIMD kernel is compiled in *and* supported by this CPU.
pub(crate) fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether 32-bit lanes compute `features`-wide rows exactly: raws fit
/// 16 bits, so every product of two words fits `i32`, and the bound on
/// the exact sum does too. Holds for every Table 1–2 format.
pub(crate) fn lanes32_exact(spec: &MacSpec, features: usize) -> bool {
    spec.wl <= 16 && spec.sum_fits(features, 32)
}

/// Runs the detected intrinsic kernel. Callers guarantee [`detected`]
/// and [`lanes32_exact`] returned `true`; shapes are validated by
/// `mac_gemm_into`.
pub(crate) fn gemm_simd(
    spec: &MacSpec,
    code: u8,
    batch: &QBatch<'_>,
    w: &[i64],
    heads: usize,
    dst: GemmOut<'_>,
    lanes: &mut Vec<i32>,
) {
    #[cfg(target_arch = "x86_64")]
    {
        // The lanes are 32-bit, so `run!` ignores the scalar sum width.
        macro_rules! run {
            ($m:expr, $s:ty) => {
                // SAFETY: the caller checked `detected()` (AVX2) and
                // `lanes32_exact`, and `mac_gemm_into` enforces the shape
                // invariants (words = rows×features, w = heads×features,
                // out/wraps = rows×heads).
                unsafe { x86::gemm_avx2::<{ $m }>(spec, batch, w, heads, dst, lanes) }
            };
        }
        crate::scalar::dispatch!(code, true, run)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (spec, code, batch, w, heads, dst, lanes);
        unreachable!("gemm_simd called without a compiled intrinsic path");
    }
}

/// The batch quantizer's AVX2 build with row prefetch; same words and
/// count as `batch::quantize_rows_portable`.
///
/// # Panics
///
/// When the CPU lacks AVX2 ([`detected`] is false), or on the shapes
/// `QFormat::quantize_rows_into` rejects.
pub(crate) fn quantize_rows_avx2<R: AsRef<[f64]>>(
    format: QFormat,
    rows: &[R],
    scale: InputScale<'_>,
    mode: RoundingMode,
    out: &mut [i64],
) -> u64 {
    assert!(detected(), "the AVX2 quantizer needs an AVX2 CPU");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: AVX2 was detected just above.
        unsafe { x86::quantize_rows(format, rows, scale, mode, out) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (format, rows, scale, mode, out);
        unreachable!("AVX2 detected off x86_64");
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        GemmOut, InputScale, MacSpec, QBatch, QFormat, RoundingMode, PREFETCH_ROWS_AHEAD, TILE,
    };
    use crate::scalar::{MODE_CEIL, MODE_EXACT, MODE_FLOOR, MODE_NEAREST_AWAY, MODE_TOWARD_ZERO};
    use core::arch::x86_64::*;

    /// `QFormat::quantize_rows_into` compiled with AVX2, prefetching the
    /// row [`PREFETCH_ROWS_AHEAD`] ahead before each row.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_rows<R: AsRef<[f64]>>(
        format: QFormat,
        rows: &[R],
        scale: InputScale<'_>,
        mode: RoundingMode,
        out: &mut [i64],
    ) -> u64 {
        format.quantize_rows_into(rows, scale, mode, out, |r| {
            if let Some(ahead) = rows.get(r + PREFETCH_ROWS_AHEAD) {
                prefetch_lines(ahead.as_ref());
            }
        })
    }

    /// Prefetches every cache line `xs` touches (see
    /// [`each_prefetch_offset`]).
    #[inline(always)]
    fn prefetch_lines(xs: &[f64]) {
        let first = xs.as_ptr().cast::<i8>();
        each_prefetch_offset(std::mem::size_of_val(xs), |offset| {
            // SAFETY: a prefetch only hints the cache; it never faults and
            // reads no value, so any address is sound.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(offset)) }
        });
    }

    /// Cache line size in bytes.
    const LINE: usize = 64;

    /// Calls `f` with byte offsets into a span of `bytes` bytes that hit
    /// every cache line the span touches, from the line of its first
    /// byte to the line of its last, whatever its alignment: one offset
    /// every [`LINE`] bytes from the first byte, then the last byte. The
    /// steps alone miss the last line of a span that starts late in its
    /// line. Their count depends only on `bytes`, so rows of one width
    /// take the same branches every row, where a loop over the lines
    /// themselves would run once or twice by a short row's alignment.
    #[inline(always)]
    pub(super) fn each_prefetch_offset(bytes: usize, mut f: impl FnMut(usize)) {
        for k in 0..bytes.div_ceil(LINE) {
            f(k * LINE);
        }
        if bytes > 0 {
            f(bytes - 1);
        }
    }

    /// Per-format vector constants.
    ///
    /// Products run on `vpmaddwd`, which multiplies the signed low 16-bit
    /// halves of two lanes exactly into 32 bits and adds the product of
    /// the high halves. Weights carry 0 in their high half, so whatever an
    /// input lane holds there drops out. An input enters as its low `wl`
    /// bits shifted to the top of the 16-bit half — one shift wraps it,
    /// scaled by `2^s` with `s = 16 − wl` — so every product is scaled by
    /// `2^s` too, and rounding shifts by `F + s` instead of `F`. Scaling by
    /// a power of two changes neither the floor quotient nor how a
    /// remainder compares with the half, so the rounded products are the
    /// scalar kernel's exactly.
    #[derive(Clone, Copy)]
    struct Lanes {
        /// `s = 16 − wl`: the wrap-on-load shift.
        load_shift: __m128i,
        /// `32 − wl`: the final wrap's shift pair.
        word_shift: __m128i,
        /// `F + s`: the rounding shift.
        round_shift: __m128i,
        /// `2^(F+s) − 1`.
        frac: __m256i,
        /// `2^(F+s−1)`.
        half: __m256i,
        /// `2^(F+s−1) − 1`.
        half_minus_one: __m256i,
        one: __m256i,
    }

    impl Lanes {
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn new(spec: &MacSpec) -> Lanes {
            let s = 16 - spec.wl as i32;
            let shift = spec.f as i32 + s;
            // Every mode but `Floor`/`EXACT` has `F ≥ 1`, so `shift ≥ 1`
            // wherever `half` is read.
            let half = (1i32 << shift) >> 1;
            Lanes {
                load_shift: _mm_cvtsi32_si128(s),
                word_shift: _mm_cvtsi32_si128(32 - spec.wl as i32),
                round_shift: _mm_cvtsi32_si128(shift),
                frac: _mm256_set1_epi32((1i32 << shift) - 1),
                half: _mm256_set1_epi32(half),
                half_minus_one: _mm256_set1_epi32(half - 1),
                one: _mm256_set1_epi32(1),
            }
        }
    }

    /// A weight lane for `vpmaddwd`: the word in the low 16-bit half, 0
    /// in the high half.
    fn weight_lane(w: i64) -> i32 {
        (w as i32) & 0xFFFF
    }

    /// The input lanes' low `wl` bits, wrapped and scaled by `2^s` in the
    /// low 16-bit halves (see [`Lanes`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load_wrap(v: __m256i, c: &Lanes) -> __m256i {
        _mm256_sll_epi16(v, c.load_shift)
    }

    /// Two's-complement wrap of each lane's low `wl` bits.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn wrap(v: __m256i, c: &Lanes) -> __m256i {
        _mm256_sra_epi32(_mm256_sll_epi32(v, c.word_shift), c.word_shift)
    }

    /// The eight products `w·x` rounded to `F` bits: the scalar kernel's
    /// bias-then-floor-shift, lane for lane, on products scaled by `2^s`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn rounded_products<const MODE: u8>(w: __m256i, x: __m256i, c: &Lanes) -> __m256i {
        let wide = _mm256_madd_epi16(w, x);
        // `srai 31` is −1 in a lane with a negative product, 0 otherwise.
        let bias = match MODE {
            // `EXACT` has `F = 0`: the shift only removes the `2^s` scale.
            MODE_FLOOR | MODE_EXACT => return _mm256_sra_epi32(wide, c.round_shift),
            MODE_CEIL => c.frac,
            MODE_TOWARD_ZERO => _mm256_and_si256(_mm256_srai_epi32(wide, 31), c.frac),
            MODE_NEAREST_AWAY => _mm256_add_epi32(c.half, _mm256_srai_epi32(wide, 31)),
            // MODE_NEAREST_EVEN
            _ => _mm256_add_epi32(
                c.half_minus_one,
                _mm256_and_si256(_mm256_sra_epi32(wide, c.round_shift), c.one),
            ),
        };
        _mm256_sra_epi32(_mm256_add_epi32(wide, bias), c.round_shift)
    }

    /// The low 32 bits of eight consecutive `i64` words at `p`, in the
    /// lane order `[0, 1, 4, 5, 2, 3, 6, 7]` — one in-lane shuffle, no
    /// cross-lane permute. The weight chunks are stored in the same
    /// order, and a sum does not depend on it.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load8_low32(p: *const i64) -> __m256i {
        let a = _mm256_castsi256_ps(_mm256_loadu_si256(p.cast()));
        let b = _mm256_castsi256_ps(_mm256_loadu_si256(p.add(4).cast()));
        _mm256_castps_si256(_mm256_shuffle_ps::<0b10_00_10_00>(a, b))
    }

    /// Source feature of each lane of a [`load8_low32`] chunk.
    const CHUNK_ORDER: [usize; TILE] = [0, 1, 4, 5, 2, 3, 6, 7];

    /// Lane `i` of the result is the sum of the eight lanes of `acc[i]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn reduce8(acc: &[__m256i; TILE]) -> __m256i {
        // Per 128-bit half, `hadd` sums adjacent pairs of its two inputs.
        let s01 = _mm256_hadd_epi32(acc[0], acc[1]);
        let s23 = _mm256_hadd_epi32(acc[2], acc[3]);
        let s45 = _mm256_hadd_epi32(acc[4], acc[5]);
        let s67 = _mm256_hadd_epi32(acc[6], acc[7]);
        // Rows 0–3 (then 4–7): sums of lanes 0–3 low, of lanes 4–7 high.
        let t0 = _mm256_hadd_epi32(s01, s23);
        let t1 = _mm256_hadd_epi32(s45, s67);
        _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(t0, t1),
            _mm256_permute2x128_si256::<0x31>(t0, t1),
        )
    }

    /// Wraps the exact sums of rows `r0..r0 + nr` (one per lane) once and
    /// stores their words and overflow flags for head `h`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store_tile(
        sums: __m256i,
        c: &Lanes,
        (r0, nr): (usize, usize),
        (h, heads): (usize, usize),
        dst: &mut GemmOut<'_>,
    ) {
        let word = wrap(sums, c);
        // −1 where the word equals the sum, so +1 leaves the flag.
        let flag = _mm256_add_epi32(_mm256_cmpeq_epi32(word, sums), c.one);
        let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(word));
        let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(word));
        if heads == 1 && nr == TILE {
            let out = dst.out[r0..r0 + TILE].as_mut_ptr();
            _mm256_storeu_si256(out.cast(), lo);
            _mm256_storeu_si256(out.add(4).cast(), hi);
            _mm256_storeu_si256(dst.wraps[r0..r0 + TILE].as_mut_ptr().cast(), flag);
            return;
        }
        let mut words = [0i64; TILE];
        let mut flags = [0u32; TILE];
        _mm256_storeu_si256(words.as_mut_ptr().cast(), lo);
        _mm256_storeu_si256(words.as_mut_ptr().add(4).cast(), hi);
        _mm256_storeu_si256(flags.as_mut_ptr().cast(), flag);
        for lane in 0..nr {
            dst.out[(r0 + lane) * heads + h] = words[lane];
            dst.wraps[(r0 + lane) * heads + h] = flags[lane];
        }
    }

    /// AVX2 wrap-once kernel over tiles of eight rows: row-major for rows
    /// of at least [`TILE`] features, column-major for narrower ones.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `lanes32_exact(spec, features)`, and the shape
    /// invariants documented on `gemm_simd`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_avx2<const MODE: u8>(
        spec: &MacSpec,
        batch: &QBatch<'_>,
        w: &[i64],
        heads: usize,
        dst: GemmOut<'_>,
        lanes: &mut Vec<i32>,
    ) {
        let c = Lanes::new(spec);
        if batch.features() >= TILE {
            rows_major::<MODE>(&c, batch, w, heads, dst, lanes);
        } else {
            column_tiles::<MODE>(&c, batch, w, heads, dst, lanes);
        }
    }

    /// Rows of `M ≥ 8` features, eight features per step read straight
    /// from the batch words into one accumulator per row, then reduced
    /// across lanes eight rows at a time. `⌊M/8⌋` chunks start at
    /// multiples of 8; when `M` is not a multiple of 8, one more chunk
    /// covers the last eight features, with the weights of the features
    /// an earlier chunk already covered set to zero, so no step reads past
    /// a row.
    #[target_feature(enable = "avx2")]
    unsafe fn rows_major<const MODE: u8>(
        c: &Lanes,
        batch: &QBatch<'_>,
        w: &[i64],
        heads: usize,
        mut dst: GemmOut<'_>,
        lanes: &mut Vec<i32>,
    ) {
        let (x, rows, features) = (batch.words(), batch.rows(), batch.features());
        let full = features / TILE;
        let chunks = features.div_ceil(TILE);
        let offset = |k: usize| if k < full { k * TILE } else { features - TILE };
        lanes.clear();
        for wrow in w.chunks_exact(features) {
            for k in 0..chunks {
                lanes.extend(CHUNK_ORDER.iter().map(|&lane| {
                    let j = offset(k) + lane;
                    if k >= full && j < full * TILE {
                        0
                    } else {
                        weight_lane(wrow[j])
                    }
                }));
            }
        }
        let mut r0 = 0;
        while r0 < rows {
            let nr = TILE.min(rows - r0);
            for h in 0..heads {
                let wh = lanes[h * chunks * TILE..(h + 1) * chunks * TILE].as_ptr();
                let mut acc = [_mm256_setzero_si256(); TILE];
                for (i, acc) in acc[..nr].iter_mut().enumerate() {
                    let row = x[(r0 + i) * features..(r0 + i + 1) * features].as_ptr();
                    for k in 0..chunks {
                        let xv = load_wrap(load8_low32(row.add(offset(k))), c);
                        let wv = _mm256_loadu_si256(wh.add(k * TILE).cast());
                        *acc = _mm256_add_epi32(*acc, rounded_products::<MODE>(wv, xv, c));
                    }
                }
                store_tile(reduce8(&acc), c, (r0, nr), (h, heads), &mut dst);
            }
            r0 += nr;
        }
    }

    /// Rows of fewer than eight features: tiles of eight rows packed
    /// column-major (`lanes[j·8 + row]`: each word's low `wl` bits at the
    /// top of the low 16-bit half, as [`load_wrap`] leaves them; missing
    /// rows zero), one lane per row, so each lane sums one row.
    #[target_feature(enable = "avx2")]
    unsafe fn column_tiles<const MODE: u8>(
        c: &Lanes,
        batch: &QBatch<'_>,
        w: &[i64],
        heads: usize,
        mut dst: GemmOut<'_>,
        lanes: &mut Vec<i32>,
    ) {
        let (x, rows, features) = (batch.words(), batch.rows(), batch.features());
        let shift = 16 - batch.format().word_length();
        lanes.clear();
        lanes.resize(features * TILE, 0);
        let mut r0 = 0;
        while r0 < rows {
            let nr = TILE.min(rows - r0);
            for (j, col) in lanes.chunks_exact_mut(TILE).enumerate() {
                for (lane, slot) in col.iter_mut().enumerate() {
                    *slot = if lane < nr {
                        (x[(r0 + lane) * features + j] as i32) << shift
                    } else {
                        0
                    };
                }
            }
            for (h, wrow) in w.chunks_exact(features).enumerate() {
                let mut acc = _mm256_setzero_si256();
                for (&wj, col) in wrow.iter().zip(lanes.chunks_exact(TILE)) {
                    let xv = _mm256_loadu_si256(col.as_ptr().cast());
                    let wv = _mm256_set1_epi32(weight_lane(wj));
                    acc = _mm256_add_epi32(acc, rounded_products::<MODE>(wv, xv, c));
                }
                store_tile(acc, c, (r0, nr), (h, heads), &mut dst);
            }
            r0 += nr;
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::x86::each_prefetch_offset;

    /// The prefetched lines are exactly those from the line of a row's
    /// first byte to the line of its last, at every alignment and length.
    #[test]
    fn prefetch_covers_the_first_and_last_byte_of_every_row() {
        for addr in (4096..4096 + 128).step_by(8) {
            for bytes in (0..=600).step_by(8) {
                let mut lines = Vec::new();
                each_prefetch_offset(bytes, |offset| {
                    assert!(offset < bytes, "addr={addr} bytes={bytes}");
                    lines.push((addr + offset) / 64);
                });
                lines.dedup();
                let want: Vec<usize> = if bytes == 0 {
                    Vec::new()
                } else {
                    (addr / 64..=(addr + bytes - 1) / 64).collect()
                };
                assert_eq!(lines, want, "addr={addr} bytes={bytes}");
            }
        }
    }
}
