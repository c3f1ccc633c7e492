//! The scalar wrapping-MAC kernels: the portable reference and the
//! cache-blocked, autovectorization-friendly tile kernel.
//!
//! Both reproduce `ldafp_fixedpoint::mac_dot_counted` bit for bit — final
//! accumulator value *and* per-step wrap count — for every rounding mode.
//! The rounding mode is monomorphized via a `const MODE: u8` parameter so
//! the per-element increment compiles to straight-line branch-free code
//! (Fixflow's observation: per-element rounding dispatch, not the MAC
//! itself, dominates light-weight fixed-point inference loops).

use crate::QBatch;
use ldafp_fixedpoint::{QFormat, RoundingMode};

/// Rows per tile in the blocked kernels. Eight independent accumulator
/// chains hide the add latency on scalar cores and map exactly onto two
/// 4×64-bit AVX2 vectors / four 2×64-bit NEON vectors.
pub(crate) const TILE: usize = 8;

/// Monomorphization codes for [`RoundingMode`], plus `MODE_EXACT` for
/// `F = 0` formats where products carry no fractional bits and rounding
/// is the identity (dispatching `F = 0` through `NearestEven` would
/// misapply the tie rule, since the "remainder" degenerates to `0 == 0`).
pub(crate) const MODE_FLOOR: u8 = 0;
pub(crate) const MODE_CEIL: u8 = 1;
pub(crate) const MODE_TOWARD_ZERO: u8 = 2;
pub(crate) const MODE_NEAREST_AWAY: u8 = 3;
pub(crate) const MODE_NEAREST_EVEN: u8 = 4;
pub(crate) const MODE_EXACT: u8 = 5;

/// Maps a rounding mode (and the format's `F`) to its kernel instantiation.
pub(crate) fn mode_code(mode: RoundingMode, f: u32) -> u8 {
    if f == 0 {
        return MODE_EXACT;
    }
    match mode {
        RoundingMode::Floor => MODE_FLOOR,
        RoundingMode::Ceil => MODE_CEIL,
        RoundingMode::TowardZero => MODE_TOWARD_ZERO,
        RoundingMode::NearestAway => MODE_NEAREST_AWAY,
        RoundingMode::NearestEven => MODE_NEAREST_EVEN,
    }
}

/// Precomputed per-format constants for the shift/mask datapath. All the
/// magnitudes the kernels manipulate fit comfortably in `i64`: word
/// lengths are ≤ 31 bits, so raws are bounded by `2^30`, products by
/// `2^60`, and accumulator partial sums by `2^31`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MacSpec {
    pub(crate) f: u32,
    /// `2^wl − 1`: the word-selection mask.
    pub(crate) mask: i64,
    /// `2^(wl−1)`: the sign-bit value for the branchless wrap.
    pub(crate) half_modulus: i64,
    /// `2^F − 1` (`0` when `F = 0`).
    pub(crate) frac_mask: i64,
    /// `2^(F−1)` (`0` when `F = 0`): the rounding tie point.
    pub(crate) half: i64,
}

impl MacSpec {
    pub(crate) fn new(format: QFormat) -> Self {
        let wl = format.word_length();
        let f = format.f();
        MacSpec {
            f,
            mask: (1i64 << wl) - 1,
            half_modulus: 1i64 << (wl - 1),
            frac_mask: if f == 0 { 0 } else { (1i64 << f) - 1 },
            half: if f == 0 { 0 } else { 1i64 << (f - 1) },
        }
    }

    /// Two's-complement wrap into the word length, branch-free:
    /// `(v mod 2^wl)` sign-extended via the xor/sub trick. Identical to
    /// `QFormat::wrap_raw` for any `i64` whose magnitude fits (all kernel
    /// intermediates do).
    #[inline(always)]
    pub(crate) fn wrap(&self, v: i64) -> i64 {
        ((v & self.mask) ^ self.half_modulus) - self.half_modulus
    }
}

/// Branch-free rounding increment for a product `wide` with quotient `q`
/// and remainder `r` (`wide = q·2^F + r`, `0 ≤ r < 2^F`). Mirrors the
/// `mac_dot_counted` match arm for arm; `MODE` resolves at compile time.
#[inline(always)]
fn incr<const MODE: u8>(q: i64, r: i64, wide: i64, half: i64) -> i64 {
    match MODE {
        MODE_FLOOR | MODE_EXACT => 0,
        MODE_CEIL => i64::from(r > 0),
        MODE_TOWARD_ZERO => i64::from(wide < 0) & i64::from(r > 0),
        MODE_NEAREST_AWAY => i64::from(r > half) | (i64::from(r == half) & i64::from(wide >= 0)),
        // `r > half` and `r == half` are mutually exclusive, so `+` is `|`.
        _ => i64::from(r > half) + (i64::from(r == half) & q & 1),
    }
}

/// One MAC step: round the product `w·x` to `F` bits, wrap it to the word
/// length, accumulate with wrap, and report whether the accumulator
/// wrapped. `x` must already be wrapped into range; `w` is in range by
/// the crate contract (model parameters come off the `Fx` grid).
#[inline(always)]
fn step<const MODE: u8>(spec: &MacSpec, acc: i64, w: i64, x: i64) -> (i64, u32) {
    let wide = w * x;
    let p_scaled = if MODE == MODE_EXACT {
        wide
    } else {
        let q = wide >> spec.f;
        let r = wide & spec.frac_mask;
        q + incr::<MODE>(q, r, wide, spec.half)
    };
    let p = spec.wrap(p_scaled);
    let unbounded = acc + p;
    let next = spec.wrap(unbounded);
    (next, u32::from(next != unbounded))
}

/// Where a GEMM writes: `out[r·H + h]` and `wraps[r·H + h]` for row `r`
/// and head `h`, both `rows × heads` long.
pub(crate) struct GemmOut<'a> {
    pub(crate) out: &'a mut [i64],
    pub(crate) wraps: &'a mut [u32],
}

/// Row-at-a-time reference: the exact `mac_dot_counted` loop lifted onto
/// raw words, and the remainder path nothing here actually needs
/// (tiles zero-pad instead). The ≥2x throughput gate
/// (`crates/bench/tests/kernels_gate.rs`) measures every kernel, this one
/// included, against `mac_dot_counted` itself, not against this loop.
pub(crate) fn gemm_reference<const MODE: u8>(
    spec: &MacSpec,
    batch: &QBatch<'_>,
    w: &[i64],
    heads: usize,
    dst: GemmOut<'_>,
) {
    let features = batch.features();
    for r in 0..batch.rows() {
        let row = batch.row(r);
        for h in 0..heads {
            let wrow = &w[h * features..(h + 1) * features];
            let mut acc = 0i64;
            let mut nwraps = 0u32;
            for (&wj, &xj) in wrow.iter().zip(row) {
                let (next, wrapped) = step::<MODE>(spec, acc, wj, spec.wrap(xj));
                acc = next;
                nwraps += wrapped;
            }
            dst.out[r * heads + h] = acc;
            dst.wraps[r * heads + h] = nwraps;
        }
    }
}

/// Packs one tile of ≤ [`TILE`] rows into a column-major scratch buffer
/// (`pack[j·TILE + lane]`), wrapping each word into range on load —
/// identity for grid words, the hardware register wrap for raw wire
/// words. Missing lanes are zero-padded: a zero word yields an exactly
/// zero product under every rounding mode, never moves the accumulator
/// and never wraps, so padded lanes are inert and simply not stored.
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

/// The cache-blocked scalar kernel: tiles of [`TILE`] rows are packed
/// column-major into an L1-resident scratch, then each head streams its
/// weight row once across the tile with eight independent
/// accumulator/wrap-counter chains. Bit-identical to
/// [`gemm_reference`]; the tests and proptests pin it.
pub(crate) fn gemm_blocked<const MODE: u8>(
    spec: &MacSpec,
    batch: &QBatch<'_>,
    w: &[i64],
    heads: usize,
    dst: GemmOut<'_>,
    pack: &mut Vec<i64>,
) {
    let (x, rows, features) = (batch.words(), batch.rows(), batch.features());
    pack.clear();
    pack.resize(features * TILE, 0);
    let mut r0 = 0;
    while r0 < rows {
        let nr = TILE.min(rows - r0);
        pack_tile(spec, x, features, r0, nr, pack);
        for h in 0..heads {
            let wrow = &w[h * features..(h + 1) * features];
            let mut acc = [0i64; TILE];
            let mut wr = [0u32; TILE];
            for (&wj, col) in wrow.iter().zip(pack.chunks_exact(TILE)) {
                for lane in 0..TILE {
                    let (next, wrapped) = step::<MODE>(spec, acc[lane], wj, col[lane]);
                    acc[lane] = next;
                    wr[lane] += wrapped;
                }
            }
            for lane in 0..nr {
                dst.out[(r0 + lane) * heads + h] = acc[lane];
                dst.wraps[(r0 + lane) * heads + h] = wr[lane];
            }
        }
        r0 += nr;
    }
}

/// Single-row dot product on the monomorphized datapath over pairs of
/// raw words: the shared scalar routine `ldafp-models` and other
/// row-at-a-time callers run so that every tier — row or batch, scalar
/// or SIMD — executes the same rounding/wrap code. `x` words are
/// wrapped on load.
pub(crate) fn mac_row_pairs<I>(spec: &MacSpec, code: u8, pairs: I) -> (i64, u32)
where
    I: Iterator<Item = (i64, i64)>,
{
    macro_rules! run {
        ($m:expr, $it:expr) => {{
            let mut acc = 0i64;
            let mut nwraps = 0u32;
            for (wj, xj) in $it {
                let (next, wrapped) = step::<{ $m }>(spec, acc, wj, spec.wrap(xj));
                acc = next;
                nwraps += wrapped;
            }
            (acc, nwraps)
        }};
    }
    match code {
        MODE_FLOOR => run!(MODE_FLOOR, pairs),
        MODE_CEIL => run!(MODE_CEIL, pairs),
        MODE_TOWARD_ZERO => run!(MODE_TOWARD_ZERO, pairs),
        MODE_NEAREST_AWAY => run!(MODE_NEAREST_AWAY, pairs),
        MODE_NEAREST_EVEN => run!(MODE_NEAREST_EVEN, pairs),
        _ => run!(MODE_EXACT, pairs),
    }
}
