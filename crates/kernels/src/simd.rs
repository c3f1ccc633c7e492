//! `core::arch` intrinsic kernels behind runtime feature detection.
//!
//! The SIMD tile kernels mirror [`crate::scalar::gemm_blocked`] lane for
//! lane: the same column-major packed tile, the same branch-free
//! rounding increments (compare masks and a `set1(1)` AND replace the
//! scalar booleans), the same xor/sub two's-complement wrap, the same
//! per-lane wrap counters. Bit-identity with the scalar kernels — value
//! and wrap counts — is pinned by the crate's exhaustive tests and
//! proptests, so the scalar fallback is always a safe drop-in.
//!
//! Word lengths ≤ 31 are what make the x86 path work at all: AVX2 has no
//! 64×64 multiply, but every wrapped word fits `i32`, so
//! `_mm256_mul_epi32` (signed 32×32→64 on the low dwords) produces the
//! exact `i64` product. The missing 64-bit arithmetic right shift is
//! emulated with a logical shift plus a sign-selected high-bit mask.

use crate::scalar::{
    MacSpec, MODE_CEIL, MODE_EXACT, MODE_FLOOR, MODE_NEAREST_AWAY, MODE_NEAREST_EVEN,
    MODE_TOWARD_ZERO, TILE,
};

/// Whether a SIMD kernel is compiled in *and* supported by this CPU.
pub(crate) fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("neon")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// Dispatches to the detected intrinsic kernel. Callers guarantee
/// [`detected`] returned `true`; shapes are validated by the safe entry
/// points in `lib.rs`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_simd(
    spec: &MacSpec,
    code: u8,
    x: &[i64],
    rows: usize,
    features: usize,
    w: &[i64],
    heads: usize,
    out: &mut [i64],
    wraps: &mut [u32],
    pack: &mut Vec<i64>,
) {
    macro_rules! dispatch {
        ($m:ident :: $f:ident) => {{
            // SAFETY: `detected()` was checked by the caller, and the
            // shape invariants (x = rows×features, w = heads×features,
            // out/wraps = rows×heads) are enforced by `mac_gemm_into`.
            match code {
                MODE_FLOOR => unsafe { $m::$f::<MODE_FLOOR>(spec, x, rows, features, w, heads, out, wraps, pack) },
                MODE_CEIL => unsafe { $m::$f::<MODE_CEIL>(spec, x, rows, features, w, heads, out, wraps, pack) },
                MODE_TOWARD_ZERO => unsafe { $m::$f::<MODE_TOWARD_ZERO>(spec, x, rows, features, w, heads, out, wraps, pack) },
                MODE_NEAREST_AWAY => unsafe { $m::$f::<MODE_NEAREST_AWAY>(spec, x, rows, features, w, heads, out, wraps, pack) },
                MODE_NEAREST_EVEN => unsafe { $m::$f::<MODE_NEAREST_EVEN>(spec, x, rows, features, w, heads, out, wraps, pack) },
                _ => unsafe { $m::$f::<MODE_EXACT>(spec, x, rows, features, w, heads, out, wraps, pack) },
            }
        }};
    }
    #[cfg(target_arch = "x86_64")]
    dispatch!(x86::gemm_avx2);
    #[cfg(target_arch = "aarch64")]
    dispatch!(aarch64::gemm_neon);
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (spec, code, x, rows, features, w, heads, out, wraps, pack);
        unreachable!("gemm_simd called without a compiled intrinsic path");
    }
}

/// Packs a tile exactly like the scalar kernel (wrap on load, zero-pad
/// missing lanes); the vector loads then read the columns contiguously.
fn pack_tile(spec: &MacSpec, x: &[i64], features: usize, r0: usize, nr: usize, pack: &mut [i64]) {
    for (j, col) in pack.chunks_exact_mut(TILE).enumerate() {
        for (lane, slot) in col.iter_mut().enumerate() {
            *slot = if lane < nr {
                spec.wrap(x[(r0 + lane) * features + j])
            } else {
                0
            };
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{pack_tile, MacSpec, MODE_CEIL, MODE_EXACT, MODE_NEAREST_AWAY, MODE_NEAREST_EVEN, MODE_TOWARD_ZERO, TILE};
    use core::arch::x86_64::*;

    /// AVX2 tile kernel: two 4-lane `i64` vectors per 8-row tile.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (callers check `is_x86_feature_detected!`) and the
    /// shape invariants documented on `gemm_simd`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemm_avx2<const MODE: u8>(
        spec: &MacSpec,
        x: &[i64],
        rows: usize,
        features: usize,
        w: &[i64],
        heads: usize,
        out: &mut [i64],
        wraps: &mut [u32],
        pack: &mut Vec<i64>,
    ) {
        pack.clear();
        pack.resize(features * TILE, 0);
        let zero = _mm256_setzero_si256();
        let ones = _mm256_set1_epi64x(-1);
        let one = _mm256_set1_epi64x(1);
        let minus_one = ones;
        let maskv = _mm256_set1_epi64x(spec.mask);
        let halfmodv = _mm256_set1_epi64x(spec.half_modulus);
        let fracv = _mm256_set1_epi64x(spec.frac_mask);
        let halfv = _mm256_set1_epi64x(spec.half);
        // Logical-shift count and the sign-fill mask for the emulated
        // 64-bit arithmetic right shift (f ≥ 1 whenever MODE ≠ EXACT).
        let fshift = _mm_cvtsi32_si128(spec.f as i32);
        let himask = if MODE == MODE_EXACT {
            zero
        } else {
            _mm256_set1_epi64x(-1i64 << (64 - spec.f as i64))
        };

        // v mod 2^wl, sign-extended: (v & mask) ^ 2^(wl-1) − 2^(wl-1).
        #[inline(always)]
        unsafe fn wrapv(v: __m256i, maskv: __m256i, halfmodv: __m256i) -> __m256i {
            _mm256_sub_epi64(_mm256_xor_si256(_mm256_and_si256(v, maskv), halfmodv), halfmodv)
        }

        let mut r0 = 0usize;
        while r0 < rows {
            let nr = TILE.min(rows - r0);
            pack_tile(spec, x, features, r0, nr, pack);
            for h in 0..heads {
                let wrow = &w[h * features..(h + 1) * features];
                let mut acc = [zero; 2];
                let mut wr = [zero; 2];
                for (&wj, col) in wrow.iter().zip(pack.chunks_exact(TILE)) {
                    let wv = _mm256_set1_epi64x(wj);
                    for half_tile in 0..2 {
                        let xv = _mm256_loadu_si256(col.as_ptr().add(half_tile * 4).cast());
                        // Exact i64 product: both operands fit i32.
                        let wide = _mm256_mul_epi32(wv, xv);
                        let p_scaled = if MODE == MODE_EXACT {
                            wide
                        } else {
                            let neg = _mm256_cmpgt_epi64(zero, wide);
                            let q = _mm256_or_si256(
                                _mm256_srl_epi64(wide, fshift),
                                _mm256_and_si256(neg, himask),
                            );
                            let r = _mm256_and_si256(wide, fracv);
                            let incr = match MODE {
                                MODE_CEIL => _mm256_and_si256(_mm256_cmpgt_epi64(r, zero), one),
                                MODE_TOWARD_ZERO => _mm256_and_si256(
                                    _mm256_and_si256(neg, _mm256_cmpgt_epi64(r, zero)),
                                    one,
                                ),
                                MODE_NEAREST_AWAY => _mm256_and_si256(
                                    _mm256_or_si256(
                                        _mm256_cmpgt_epi64(r, halfv),
                                        _mm256_and_si256(
                                            _mm256_cmpeq_epi64(r, halfv),
                                            _mm256_cmpgt_epi64(wide, minus_one),
                                        ),
                                    ),
                                    one,
                                ),
                                MODE_NEAREST_EVEN => _mm256_add_epi64(
                                    _mm256_and_si256(_mm256_cmpgt_epi64(r, halfv), one),
                                    _mm256_and_si256(
                                        _mm256_and_si256(_mm256_cmpeq_epi64(r, halfv), q),
                                        one,
                                    ),
                                ),
                                // MODE_FLOOR
                                _ => zero,
                            };
                            _mm256_add_epi64(q, incr)
                        };
                        let p = wrapv(p_scaled, maskv, halfmodv);
                        let unbounded = _mm256_add_epi64(acc[half_tile], p);
                        let next = wrapv(unbounded, maskv, halfmodv);
                        let eq = _mm256_cmpeq_epi64(next, unbounded);
                        // +1 per lane where next ≠ unbounded: subtract the
                        // inverted (−1-where-wrapped) mask.
                        wr[half_tile] = _mm256_sub_epi64(wr[half_tile], _mm256_xor_si256(eq, ones));
                        acc[half_tile] = next;
                    }
                }
                let mut acc_lanes = [0i64; TILE];
                let mut wrap_lanes = [0i64; TILE];
                _mm256_storeu_si256(acc_lanes.as_mut_ptr().cast(), acc[0]);
                _mm256_storeu_si256(acc_lanes.as_mut_ptr().add(4).cast(), acc[1]);
                _mm256_storeu_si256(wrap_lanes.as_mut_ptr().cast(), wr[0]);
                _mm256_storeu_si256(wrap_lanes.as_mut_ptr().add(4).cast(), wr[1]);
                for lane in 0..nr {
                    out[(r0 + lane) * heads + h] = acc_lanes[lane];
                    wraps[(r0 + lane) * heads + h] = wrap_lanes[lane] as u32;
                }
            }
            r0 += nr;
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use super::{pack_tile, MacSpec, MODE_CEIL, MODE_EXACT, MODE_NEAREST_AWAY, MODE_NEAREST_EVEN, MODE_TOWARD_ZERO, TILE};
    use core::arch::aarch64::*;

    /// NEON tile kernel: four 2-lane `i64` vectors per 8-row tile. NEON
    /// has a true 64-bit arithmetic right shift (`SSHL` with a negative
    /// count), so no sign-fill emulation is needed.
    ///
    /// # Safety
    ///
    /// Requires NEON (callers check `is_aarch64_feature_detected!`) and
    /// the shape invariants documented on `gemm_simd`.
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemm_neon<const MODE: u8>(
        spec: &MacSpec,
        x: &[i64],
        rows: usize,
        features: usize,
        w: &[i64],
        heads: usize,
        out: &mut [i64],
        wraps: &mut [u32],
        pack: &mut Vec<i64>,
    ) {
        pack.clear();
        pack.resize(features * TILE, 0);
        let zero = vdupq_n_s64(0);
        let ones = vdupq_n_s64(-1);
        let one = vdupq_n_s64(1);
        let maskv = vdupq_n_s64(spec.mask);
        let halfmodv = vdupq_n_s64(spec.half_modulus);
        let fracv = vdupq_n_s64(spec.frac_mask);
        let halfv = vdupq_n_s64(spec.half);
        let neg_f = vdupq_n_s64(-(spec.f as i64));

        #[inline(always)]
        unsafe fn wrapv(v: int64x2_t, maskv: int64x2_t, halfmodv: int64x2_t) -> int64x2_t {
            vsubq_s64(veorq_s64(vandq_s64(v, maskv), halfmodv), halfmodv)
        }

        let mut r0 = 0usize;
        while r0 < rows {
            let nr = TILE.min(rows - r0);
            pack_tile(spec, x, features, r0, nr, pack);
            for h in 0..heads {
                let wrow = &w[h * features..(h + 1) * features];
                let mut acc = [zero; 4];
                let mut wr = [zero; 4];
                for (&wj, col) in wrow.iter().zip(pack.chunks_exact(TILE)) {
                    let wv32 = vmovn_s64(vdupq_n_s64(wj));
                    for quarter in 0..4 {
                        let xv = vld1q_s64(col.as_ptr().add(quarter * 2));
                        // Exact i64 product: both operands fit i32.
                        let wide = vmull_s32(wv32, vmovn_s64(xv));
                        let p_scaled = if MODE == MODE_EXACT {
                            wide
                        } else {
                            let q = vshlq_s64(wide, neg_f);
                            let r = vandq_s64(wide, fracv);
                            let incr = match MODE {
                                MODE_CEIL => vandq_s64(
                                    vreinterpretq_s64_u64(vcgtq_s64(r, zero)),
                                    one,
                                ),
                                MODE_TOWARD_ZERO => vandq_s64(
                                    vandq_s64(
                                        vreinterpretq_s64_u64(vcgtq_s64(zero, wide)),
                                        vreinterpretq_s64_u64(vcgtq_s64(r, zero)),
                                    ),
                                    one,
                                ),
                                MODE_NEAREST_AWAY => vandq_s64(
                                    vorrq_s64(
                                        vreinterpretq_s64_u64(vcgtq_s64(r, halfv)),
                                        vandq_s64(
                                            vreinterpretq_s64_u64(vceqq_s64(r, halfv)),
                                            vreinterpretq_s64_u64(vcgtq_s64(wide, ones)),
                                        ),
                                    ),
                                    one,
                                ),
                                MODE_NEAREST_EVEN => vaddq_s64(
                                    vandq_s64(
                                        vreinterpretq_s64_u64(vcgtq_s64(r, halfv)),
                                        one,
                                    ),
                                    vandq_s64(
                                        vandq_s64(
                                            vreinterpretq_s64_u64(vceqq_s64(r, halfv)),
                                            q,
                                        ),
                                        one,
                                    ),
                                ),
                                // MODE_FLOOR
                                _ => zero,
                            };
                            vaddq_s64(q, incr)
                        };
                        let p = wrapv(p_scaled, maskv, halfmodv);
                        let unbounded = vaddq_s64(acc[quarter], p);
                        let next = wrapv(unbounded, maskv, halfmodv);
                        let eq = vreinterpretq_s64_u64(vceqq_s64(next, unbounded));
                        wr[quarter] = vsubq_s64(wr[quarter], veorq_s64(eq, ones));
                        acc[quarter] = next;
                    }
                }
                let mut acc_lanes = [0i64; TILE];
                let mut wrap_lanes = [0i64; TILE];
                for quarter in 0..4 {
                    vst1q_s64(acc_lanes.as_mut_ptr().add(quarter * 2), acc[quarter]);
                    vst1q_s64(wrap_lanes.as_mut_ptr().add(quarter * 2), wr[quarter]);
                }
                for lane in 0..nr {
                    out[(r0 + lane) * heads + h] = acc_lanes[lane];
                    wraps[(r0 + lane) * heads + h] = wrap_lanes[lane] as u32;
                }
            }
            r0 += nr;
        }
    }
}
