//! The multiply-accumulate (MAC) dot-product datapath model.
//!
//! An on-chip LDA classifier evaluates `y = wᵀx` with one multiplier and one
//! accumulator register of the *same* `QK.F` width (paper §1/§3). Two
//! reference implementations are provided:
//!
//! * [`mac_dot_traced`] — the hardware-faithful path: each product is
//!   rounded back to `QK.F` and added into a **wrapping** `QK.F`
//!   accumulator, step by step through the element-wise `Fx` operations,
//!   with every step recorded. It is the oracle the serving kernels
//!   (`ldafp-kernels`, which sum exactly and wrap once) are pinned to.
//! * [`wide_dot`] — an idealized path with an unbounded (i128) accumulator
//!   holding full `2F`-fraction products, rounded once at the end.
//!
//! The paper's correctness argument for not constraining intermediate sums
//! (§3) is that the wrapping accumulator ends on the exact sum of the
//! rounded products wrapped once, so it is exact whenever that sum is
//! representable. The test suite checks this for every rounding mode and
//! exhaustively for narrow integer formats.

use crate::{FixedPointError, Fx, QFormat, Result, RoundingMode};

/// Per-step record of a MAC execution, for datapath inspection and the
/// hardware energy model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacTrace {
    /// Rounded product entering the accumulator at each step.
    pub products: Vec<Fx>,
    /// Accumulator value *after* each step (wrapping).
    pub accumulator: Vec<Fx>,
    /// Number of steps where the running sum wrapped past the range.
    pub intermediate_overflows: usize,
    /// Exact sum of the rounded products, before any wrap. The final
    /// accumulator is this sum wrapped once into the word length, and it
    /// differs from it exactly when the sum lies outside `[min, max]` —
    /// the one overflow that can change a decision (paper §3).
    pub exact_sum: i128,
}

/// Computes `wᵀx` on the hardware-faithful datapath — same-width
/// multiplier output (rounded with `mode`) and a wrapping same-width
/// accumulator — and returns the full [`MacTrace`].
///
/// # Errors
///
/// * [`FixedPointError::LengthMismatch`] if the slices differ in length.
/// * [`FixedPointError::FormatMismatch`] if any element's format differs
///   from the first element's.
///
/// An empty input is an error: there is no format to attach to the zero
/// result, so empty inputs report [`FixedPointError::LengthMismatch`]
/// against an expected length of 1.
///
/// # Example
///
/// ```
/// use ldafp_fixedpoint::{mac_dot_traced, QFormat, RoundingMode};
///
/// # fn main() -> Result<(), ldafp_fixedpoint::FixedPointError> {
/// let q = QFormat::new(3, 4)?;
/// let w = q.quantize_slice(&[0.5, -1.0], RoundingMode::NearestEven);
/// let x = q.quantize_slice(&[2.0, 1.5], RoundingMode::NearestEven);
/// let (y, trace) = mac_dot_traced(&w, &x, RoundingMode::NearestEven)?;
/// assert_eq!(y.to_f64(), -0.5);
/// assert_eq!(trace.intermediate_overflows, 0);
/// # Ok(())
/// # }
/// ```
pub fn mac_dot_traced(w: &[Fx], x: &[Fx], mode: RoundingMode) -> Result<(Fx, MacTrace)> {
    let fmt = check_operands(w, x)?;
    let mut acc = fmt.zero();
    let mut products = Vec::with_capacity(w.len());
    let mut accumulator = Vec::with_capacity(w.len());
    let mut overflows = 0usize;
    let mut exact_sum = 0i128;
    for (wi, xi) in w.iter().zip(x) {
        exact_sum += wi.mul_rounded_raw(*xi, mode);
        let p = wi.wrapping_mul(*xi, mode)?;
        // Detect wrap by comparing against the unbounded sum of raws.
        let unbounded = acc.raw() as i128 + p.raw() as i128;
        let next = acc.wrapping_add(p)?;
        if next.raw() as i128 != unbounded {
            overflows += 1;
        }
        products.push(p);
        accumulator.push(next);
        acc = next;
    }
    Ok((
        acc,
        MacTrace {
            products,
            accumulator,
            intermediate_overflows: overflows,
            exact_sum,
        },
    ))
}

/// Computes `wᵀx` with an idealized unbounded accumulator: exact raw
/// products (with `2F` fractional bits) are summed in `i128`, and the total
/// is rounded to `F` bits and wrapped once at the end.
///
/// This is the mathematical reference that [`mac_dot_traced`] is measured against;
/// the two agree whenever no *product rounding* differs and the final value
/// is representable.
///
/// # Errors
///
/// Same failure modes as [`mac_dot_traced`].
pub fn wide_dot(w: &[Fx], x: &[Fx], mode: RoundingMode) -> Result<Fx> {
    let fmt = check_operands(w, x)?;
    let mut acc: i128 = 0; // 2F fractional bits
    for (wi, xi) in w.iter().zip(x) {
        acc += wi.raw() as i128 * xi.raw() as i128;
    }
    // Round 2F → F fractional bits.
    let f = fmt.f();
    let raw = if f == 0 {
        acc
    } else {
        let divisor = 1i128 << f;
        let q = acc.div_euclid(divisor);
        let r = acc.rem_euclid(divisor);
        let half = divisor / 2;
        match mode {
            RoundingMode::Floor => q,
            RoundingMode::Ceil => q + i128::from(r > 0),
            RoundingMode::TowardZero => q + i128::from(acc < 0 && r > 0),
            RoundingMode::NearestAway => {
                if r > half || (r == half && acc >= 0) {
                    q + 1
                } else {
                    q
                }
            }
            RoundingMode::NearestEven => match r.cmp(&half) {
                std::cmp::Ordering::Greater => q + 1,
                std::cmp::Ordering::Less => q,
                std::cmp::Ordering::Equal => q + i128::from(q % 2 != 0),
            },
        }
    };
    Ok(fmt.from_raw(fmt.wrap_raw(raw)))
}

/// Exact real-valued dot product of the *represented* values — the oracle
/// for "was the true sum representable?" questions.
pub fn exact_dot_value(w: &[Fx], x: &[Fx]) -> f64 {
    w.iter().zip(x).map(|(a, b)| a.to_f64() * b.to_f64()).sum()
}

fn check_operands(w: &[Fx], x: &[Fx]) -> Result<QFormat> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn q(k: u32, f: u32) -> QFormat {
        QFormat::new(k, f).unwrap()
    }

    #[test]
    fn exact_sum_wrapped_once_is_the_traced_word() {
        // The paper's §3 claim: the per-step wrapping accumulator ends on
        // the exact sum of the rounded products wrapped once, so
        // intermediate wraps cannot corrupt an in-range result. Checked
        // for every format shape (wide words, integer-only,
        // fraction-heavy) and every rounding mode, on inputs spanning the
        // full raw range so wraps and ties both occur.
        use ldafp_stats::Rng;
        let mut rng = ldafp_stats::Rng::new(2014);
        let mut wrapped_steps = 0usize;
        for (k, f) in [
            (3u32, 0u32),
            (2, 6),
            (1, 12),
            (16, 15),
            (1, 30),
            (31, 0),
            (4, 1),
        ] {
            let fmt = q(k, f);
            let (lo, hi) = (fmt.min_raw(), fmt.max_raw());
            for mode in [
                RoundingMode::NearestEven,
                RoundingMode::NearestAway,
                RoundingMode::Floor,
                RoundingMode::Ceil,
                RoundingMode::TowardZero,
            ] {
                for len in [1usize, 2, 7, 42] {
                    let gen = |rng: &mut Rng| -> Vec<Fx> {
                        (0..len)
                            .map(|_| fmt.from_raw(rng.range_i64(lo..=hi)))
                            .collect()
                    };
                    let w = gen(&mut rng);
                    let x = gen(&mut rng);
                    let (y, trace) = mac_dot_traced(&w, &x, mode).unwrap();
                    assert_eq!(
                        fmt.wrap_raw(trace.exact_sum),
                        y.raw(),
                        "Q{k}.{f} {mode:?} len={len} w={w:?} x={x:?}"
                    );
                    wrapped_steps += trace.intermediate_overflows;
                }
            }
        }
        assert!(wrapped_steps > 0, "the sweep must exercise wraps");
    }

    #[test]
    fn simple_dot() {
        let fmt = q(4, 4);
        let w = fmt.quantize_slice(&[1.0, 2.0, -0.5], RoundingMode::NearestEven);
        let x = fmt.quantize_slice(&[0.5, 0.25, 4.0], RoundingMode::NearestEven);
        let (y, _) = mac_dot_traced(&w, &x, RoundingMode::NearestEven).unwrap();
        assert_eq!(y.to_f64(), 0.5 + 0.5 - 2.0);
    }

    #[test]
    fn paper_q3_0_wraparound_example() {
        // y = 3·1 + 3·1 + (−4)·1 in Q3.0: intermediate overflow, exact final.
        let fmt = q(3, 0);
        let w = fmt.quantize_slice(&[3.0, 3.0, -4.0], RoundingMode::NearestEven);
        let x = fmt.quantize_slice(&[1.0, 1.0, 1.0], RoundingMode::NearestEven);
        let (y, trace) = mac_dot_traced(&w, &x, RoundingMode::NearestEven).unwrap();
        assert_eq!(y.to_f64(), 2.0);
        // Both the 3+3 step and the −2+(−4) step wrap (the second wrap is
        // what restores correctness — the discarded carry in 110+100=010).
        assert_eq!(trace.intermediate_overflows, 2);
        // The exact sum is in range, so no overflow reached the output.
        assert_eq!(trace.exact_sum, 2);
        assert_eq!(trace.accumulator[1].to_f64(), -2.0); // the first wrapped step
    }

    #[test]
    fn wrapping_mac_equals_wide_when_final_in_range() {
        // Exhaustive over a small format and fixed length-3 vectors. Under
        // Floor, the MAC floors each product and the wide path floors the
        // sum once; a sum of M floors is at most the floor of the sum and
        // falls short of it by less than M, so on the raw grid
        // `0 ≤ wide − exact_sum ≤ M − 1`. The wide result also never
        // exceeds the exact value it floors.
        let fmt = q(2, 1);
        let vals: Vec<Fx> = fmt.enumerate().collect();
        let x = [vals[7], vals[2], vals[5]]; // arbitrary fixed features
        let m = x.len() as i128;
        let mut checked = 0usize;
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    let w = [a, b, c];
                    let exact = exact_dot_value(&w, &x);
                    if exact >= fmt.min_value() && exact <= fmt.max_value() {
                        let wide = wide_dot(&w, &x, RoundingMode::Floor).unwrap();
                        let (_, trace) = mac_dot_traced(&w, &x, RoundingMode::Floor).unwrap();
                        let gap = i128::from(wide.raw()) - trace.exact_sum;
                        assert!((0..m).contains(&gap), "w={w:?}: wide − exact_sum = {gap}");
                        assert!(
                            wide.to_f64() <= exact,
                            "wide={} exact={}",
                            wide.to_f64(),
                            exact
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked > 100,
            "exhaustive sweep actually ran ({checked} cases)"
        );
    }

    #[test]
    fn integer_format_mac_equals_exact_when_in_range() {
        // With F = 0 there is no product rounding at all, so the paper's
        // claim holds exactly: wrap-only MAC equals the true sum whenever
        // the true sum is representable, regardless of intermediate wraps.
        let fmt = q(3, 0);
        let vals: Vec<Fx> = fmt.enumerate().collect();
        let mut checked = 0usize;
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    let w = [a, b, c];
                    let ones = fmt.quantize_slice(&[1.0, 1.0, 1.0], RoundingMode::Floor);
                    let exact = exact_dot_value(&w, &ones);
                    if exact >= fmt.min_value() && exact <= fmt.max_value() {
                        let (mac, _) = mac_dot_traced(&w, &ones, RoundingMode::Floor).unwrap();
                        assert_eq!(mac.to_f64(), exact, "w = {:?}", [a, b, c]);
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked > 100,
            "exhaustive sweep actually ran ({checked} cases)"
        );
    }

    #[test]
    fn wide_dot_rounds_once() {
        let fmt = q(3, 1); // resolution 0.5
                           // Products: 0.5*0.5 = 0.25 (needs rounding), three of them = 0.75.
        let w = fmt.quantize_slice(&[0.5, 0.5, 0.5], RoundingMode::NearestEven);
        let x = fmt.quantize_slice(&[0.5, 0.5, 0.5], RoundingMode::NearestEven);
        // Wide: sum = 0.75 exactly representable? grid is 0.5 steps → 0.75
        // rounds to 1.0 (NearestAway) / 1.0 (NearestEven: 0.75→ tie at raw
        // 1.5 → even → 2 → 1.0).
        let wide = wide_dot(&w, &x, RoundingMode::NearestAway).unwrap();
        assert_eq!(wide.to_f64(), 1.0);
        // MAC path: each product 0.25 rounds (NearestAway) to 0.5; sum 1.5.
        let (mac, _) = mac_dot_traced(&w, &x, RoundingMode::NearestAway).unwrap();
        assert_eq!(mac.to_f64(), 1.5);
        // Per-step rounding error accumulation is visible — exactly why the
        // trainer must model the datapath it targets.
    }

    #[test]
    fn length_and_format_checks() {
        let fmt = q(2, 2);
        let w = fmt.quantize_slice(&[0.5], RoundingMode::Floor);
        let x = fmt.quantize_slice(&[0.5, 0.25], RoundingMode::Floor);
        assert!(matches!(
            mac_dot_traced(&w, &x, RoundingMode::Floor),
            Err(FixedPointError::LengthMismatch { .. })
        ));
        assert!(mac_dot_traced(&[], &[], RoundingMode::Floor).is_err());

        let other = q(3, 1).zero();
        let mixed = [w[0], other];
        let xs = fmt.quantize_slice(&[0.5, 0.5], RoundingMode::Floor);
        assert!(matches!(
            mac_dot_traced(&mixed, &xs, RoundingMode::Floor),
            Err(FixedPointError::FormatMismatch { .. })
        ));
    }

    #[test]
    fn trace_lengths_match_input() {
        let fmt = q(4, 2);
        let w = fmt.quantize_slice(&[1.0, 2.0, 3.0, -1.0], RoundingMode::Floor);
        let x = fmt.quantize_slice(&[0.25, 0.5, 1.0, 2.0], RoundingMode::Floor);
        let (_, trace) = mac_dot_traced(&w, &x, RoundingMode::Floor).unwrap();
        assert_eq!(trace.products.len(), 4);
        assert_eq!(trace.accumulator.len(), 4);
    }

    #[test]
    fn exact_dot_value_reference() {
        let fmt = q(3, 2);
        let w = fmt.quantize_slice(&[1.5, -2.0], RoundingMode::Floor);
        let x = fmt.quantize_slice(&[1.0, 0.5], RoundingMode::Floor);
        assert_eq!(exact_dot_value(&w, &x), 0.5);
    }
}
