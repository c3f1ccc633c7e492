//! Gate-level simulation of the fixed-point MAC datapath with
//! switching-activity accounting.
//!
//! Dynamic power in CMOS is `P ≈ ½·α·C·V²·f`, with `α` the switching
//! activity — the fraction of nets that toggle per cycle. Holding the
//! process (`C`, `V`, `f`) fixed, comparing datapaths reduces to comparing
//! *net toggle counts on real operand streams*. This module simulates:
//!
//! * [`BitWord`] — an LSB-first two's-complement bit vector;
//! * [`RippleCarryAdder`] — W full adders; every sum and carry net is
//!   tracked between invocations and toggles are counted;
//! * [`ShiftAddMultiplier`] — the classic W-cycle shift-add multiplier built
//!   on an internal `2W`-bit adder;
//! * [`MacDatapath`] — multiplier + accumulator, the paper's classifier
//!   engine, with [`MacDatapath::simulate_fx_dot`] running actual `Fx`
//!   operand streams.

use ldafp_fixedpoint::Fx;

/// Switching-activity statistics accumulated by a datapath component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityStats {
    /// Number of net transitions (0→1 or 1→0) observed.
    pub net_toggles: u64,
    /// Number of primitive gate evaluations performed.
    pub gate_evals: u64,
    /// Number of clocked operations executed.
    pub cycles: u64,
}

impl ActivityStats {
    /// Merges another component's statistics into this one.
    pub fn merge(&mut self, other: &ActivityStats) {
        self.net_toggles += other.net_toggles;
        self.gate_evals += other.gate_evals;
        self.cycles += other.cycles;
    }
}

/// An LSB-first two's-complement bit vector of fixed width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitWord {
    bits: Vec<bool>,
}

impl BitWord {
    /// Builds a word of `width` bits from a raw integer (wrapping into the
    /// width, i.e. taking the low `width` bits of the two's-complement
    /// pattern).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > 63`.
    pub fn from_raw(raw: i64, width: usize) -> Self {
        assert!(width > 0 && width <= 63, "width {width} out of range");
        let bits = (0..width).map(|i| (raw >> i) & 1 == 1).collect();
        BitWord { bits }
    }

    /// Reconstructs the signed raw integer (sign-extending the MSB).
    pub fn to_raw(&self) -> i64 {
        let w = self.bits.len();
        let mut v: i64 = 0;
        for (i, &b) in self.bits.iter().enumerate() {
            if b {
                v |= 1 << i;
            }
        }
        if self.bits[w - 1] {
            v -= 1 << w;
        }
        v
    }

    /// Word width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Bit at position `i` (LSB = 0).
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Sign-extends (or truncates) to a new width.
    pub fn resized(&self, width: usize) -> BitWord {
        assert!(width > 0 && width <= 63, "width {width} out of range");
        let sign = *self.bits.last().expect("non-empty word");
        let bits = (0..width)
            .map(|i| {
                if i < self.bits.len() {
                    self.bits[i]
                } else {
                    sign
                }
            })
            .collect();
        BitWord { bits }
    }

    /// Logical left shift by one (zero fill), dropping the MSB.
    pub fn shifted_left(&self) -> BitWord {
        let mut bits = vec![false];
        bits.extend_from_slice(&self.bits[..self.bits.len() - 1]);
        BitWord { bits }
    }
}

/// A ripple-carry adder of fixed width with per-net toggle tracking.
///
/// Each `add` evaluates W full adders (2 XOR, 2 AND, 1 OR each) and
/// compares every sum/carry net against its value from the previous cycle.
#[derive(Debug, Clone)]
pub struct RippleCarryAdder {
    width: usize,
    /// Previous values of [sum nets (W) | carry nets (W)].
    prev_nets: Vec<bool>,
    stats: ActivityStats,
}

impl RippleCarryAdder {
    /// Number of primitive gates in one full adder.
    const GATES_PER_FA: u64 = 5;

    /// Creates an adder with all nets initialized low.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "adder width must be positive");
        RippleCarryAdder {
            width,
            prev_nets: vec![false; 2 * width],
            stats: ActivityStats::default(),
        }
    }

    /// Adds two words (two's-complement wrap), updating activity counters.
    ///
    /// # Panics
    ///
    /// Panics on operand width mismatch.
    pub fn add(&mut self, a: &BitWord, b: &BitWord) -> BitWord {
        assert_eq!(a.width(), self.width, "operand width mismatch");
        assert_eq!(b.width(), self.width, "operand width mismatch");
        let mut carry = false;
        let mut sum_bits = Vec::with_capacity(self.width);
        let mut nets = Vec::with_capacity(2 * self.width);
        for i in 0..self.width {
            let (s, c) = full_adder(a.bit(i), b.bit(i), carry);
            sum_bits.push(s);
            nets.push(s);
            carry = c;
        }
        // Carry nets, stage by stage.
        let mut c = false;
        for i in 0..self.width {
            let (_, cn) = full_adder(a.bit(i), b.bit(i), c);
            nets.push(cn);
            c = cn;
        }

        let toggles = nets
            .iter()
            .zip(&self.prev_nets)
            .filter(|(now, before)| now != before)
            .count() as u64;
        self.prev_nets = nets;
        self.stats.net_toggles += toggles;
        self.stats.gate_evals += Self::GATES_PER_FA * self.width as u64;
        self.stats.cycles += 1;
        BitWord { bits: sum_bits }
    }

    /// Accumulated activity statistics.
    pub fn stats(&self) -> ActivityStats {
        self.stats
    }
}

fn full_adder(a: bool, b: bool, cin: bool) -> (bool, bool) {
    let s = a ^ b ^ cin;
    let c = (a & b) | (cin & (a ^ b));
    (s, c)
}

/// A W-cycle shift-add multiplier producing the full `2W`-bit product.
///
/// Implements signed (Baugh-Wooley-equivalent) multiplication by
/// sign-extending both operands to `2W` bits and accumulating shifted
/// partial products through an internal ripple-carry adder.
#[derive(Debug, Clone)]
pub struct ShiftAddMultiplier {
    width: usize,
    adder: RippleCarryAdder,
    stats: ActivityStats,
}

impl ShiftAddMultiplier {
    /// Creates a multiplier for `width`-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `2·width > 63`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0 && 2 * width <= 63, "width {width} out of range");
        ShiftAddMultiplier {
            width,
            adder: RippleCarryAdder::new(2 * width),
            stats: ActivityStats::default(),
        }
    }

    /// Multiplies two `width`-bit words into a `2·width`-bit product.
    ///
    /// # Panics
    ///
    /// Panics on operand width mismatch.
    pub fn mul(&mut self, a: &BitWord, b: &BitWord) -> BitWord {
        assert_eq!(a.width(), self.width, "operand width mismatch");
        assert_eq!(b.width(), self.width, "operand width mismatch");
        let wide = 2 * self.width;
        let mut acc = BitWord::from_raw(0, wide);
        let mut shifted_a = a.resized(wide);
        for i in 0..self.width {
            let is_sign_cycle = i == self.width - 1;
            if b.bit(i) {
                if is_sign_cycle {
                    // Two's complement: the MSB of b has weight −2^(W−1);
                    // subtract by adding the negation.
                    let neg = BitWord::from_raw(shifted_a.to_raw().wrapping_neg(), wide);
                    acc = self.adder.add(&acc, &neg);
                } else {
                    acc = self.adder.add(&acc, &shifted_a);
                }
            }
            // Shift the partial product register left (wraps at top; safe
            // because the true product always fits in 2W bits).
            shifted_a = shifted_a.shifted_left();
            self.stats.cycles += 1;
        }
        self.stats.merge(&self.adder.stats());
        self.adder = RippleCarryAdder::new(wide); // fresh nets per op keeps merge simple
        BitWord { bits: acc.bits }
    }

    /// Accumulated activity statistics (adder activity included).
    pub fn stats(&self) -> ActivityStats {
        self.stats
    }
}

/// The classifier's datapath: one multiplier and one accumulating adder of
/// the classifier's word length, exercised by real operand streams.
#[derive(Debug, Clone)]
pub struct MacDatapath {
    width: usize,
}

impl MacDatapath {
    /// Creates a datapath model for `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `2·width > 63`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0 && 2 * width <= 63, "width {width} out of range");
        MacDatapath { width }
    }

    /// Runs `y = wᵀx` at the gate level and returns the total switching
    /// activity. Products are truncated back to `width` bits (floor), and
    /// the accumulator wraps — matching `ldafp_fixedpoint::mac_dot_traced`
    /// and `ldafp_kernels::mac_row_fx` with `RoundingMode::Floor`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are empty, or any operand's
    /// word length differs from the datapath width.
    pub fn simulate_fx_dot(&self, w: &[Fx], x: &[Fx]) -> (i64, ActivityStats) {
        assert_eq!(w.len(), x.len(), "operand count mismatch");
        assert!(!w.is_empty(), "empty dot product");
        let f = w[0].format().f() as usize;
        let mut mult = ShiftAddMultiplier::new(self.width);
        let mut acc_adder = RippleCarryAdder::new(self.width);
        let mut acc = BitWord::from_raw(0, self.width);
        let mut stats = ActivityStats::default();
        for (wi, xi) in w.iter().zip(x) {
            assert_eq!(
                wi.format().word_length() as usize,
                self.width,
                "operand word length mismatch"
            );
            let a = BitWord::from_raw(wi.raw(), self.width);
            let b = BitWord::from_raw(xi.raw(), self.width);
            let product = mult.mul(&a, &b);
            // Truncate 2F fractional bits back to F (floor = drop low bits),
            // then take the low `width` bits (wrap).
            let shifted = product.to_raw() >> f;
            let p = BitWord::from_raw(shifted, self.width);
            acc = acc_adder.add(&acc, &p);
        }
        stats.merge(&mult.stats());
        stats.merge(&acc_adder.stats());
        (acc.to_raw(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_fixedpoint::{mac_dot_traced, QFormat, RoundingMode};

    #[test]
    fn bitword_roundtrip() {
        for raw in -8i64..8 {
            let w = BitWord::from_raw(raw, 4);
            assert_eq!(w.to_raw(), raw, "raw {raw}");
        }
        // Wrapping above range: 9 in 4 bits = 1001 = −7.
        assert_eq!(BitWord::from_raw(9, 4).to_raw(), -7);
    }

    #[test]
    fn bitword_resize_sign_extends() {
        let w = BitWord::from_raw(-3, 4);
        assert_eq!(w.resized(8).to_raw(), -3);
        let p = BitWord::from_raw(5, 4);
        assert_eq!(p.resized(8).to_raw(), 5);
    }

    #[test]
    fn adder_exhaustive_4bit() {
        let mut adder = RippleCarryAdder::new(4);
        for a in -8i64..8 {
            for b in -8i64..8 {
                let s = adder.add(&BitWord::from_raw(a, 4), &BitWord::from_raw(b, 4));
                let expect = ((a + b + 8).rem_euclid(16)) - 8; // wrap to [-8, 8)
                assert_eq!(s.to_raw(), expect, "{a} + {b}");
            }
        }
        let st = adder.stats();
        assert_eq!(st.cycles, 256);
        assert!(st.net_toggles > 0);
        assert_eq!(st.gate_evals, 256 * 4 * 5);
    }

    #[test]
    fn multiplier_exhaustive_4bit() {
        for a in -8i64..8 {
            for b in -8i64..8 {
                let mut mult = ShiftAddMultiplier::new(4);
                let p = mult.mul(&BitWord::from_raw(a, 4), &BitWord::from_raw(b, 4));
                assert_eq!(p.to_raw(), a * b, "{a} × {b} = {}", p.to_raw());
            }
        }
    }

    #[test]
    fn multiplier_wider_smoke() {
        let mut mult = ShiftAddMultiplier::new(8);
        let p = mult.mul(&BitWord::from_raw(-100, 8), &BitWord::from_raw(77, 8));
        assert_eq!(p.to_raw(), -7700);
    }

    #[test]
    fn mac_matches_fixedpoint_reference() {
        // The gate-level datapath must agree bit-for-bit with the behavioural
        // model in ldafp-fixedpoint (Floor rounding).
        let fmt = QFormat::new(3, 3).unwrap(); // 6-bit words
        let datapath = MacDatapath::new(6);
        let w = fmt.quantize_slice(&[1.5, -2.25, 0.875, 3.0], RoundingMode::NearestEven);
        let x = fmt.quantize_slice(&[0.5, 1.125, -1.0, 2.5], RoundingMode::NearestEven);
        let (raw, stats) = datapath.simulate_fx_dot(&w, &x);
        let (reference, _) = mac_dot_traced(&w, &x, RoundingMode::Floor).unwrap();
        assert_eq!(raw, reference.raw());
        assert!(stats.net_toggles > 0);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn mac_matches_reference_exhaustive_small() {
        let fmt = QFormat::new(2, 2).unwrap();
        let datapath = MacDatapath::new(4);
        let vals: Vec<_> = fmt.enumerate().collect();
        for &a in &vals {
            for &b in &vals {
                let w = [a, b];
                let x = [vals[5], vals[11]];
                let (raw, _) = datapath.simulate_fx_dot(&w, &x);
                let (reference, _) = mac_dot_traced(&w, &x, RoundingMode::Floor).unwrap();
                assert_eq!(raw, reference.raw(), "w = {a},{b}");
            }
        }
    }

    #[test]
    fn multiplier_activity_grows_superlinearly() {
        // Random-ish operand stream at widths 4, 8, 16: toggles per op must
        // grow faster than linearly (the quadratic-power rule's mechanism).
        let mut per_width = Vec::new();
        for width in [4usize, 8, 16] {
            let mut mult = ShiftAddMultiplier::new(width);
            let mask = (1i64 << width) - 1;
            let mut rng = ldafp_stats::Rng::new(0x9E37_79B9_7F4A_7C15);
            let mut ops = 0u64;
            for _ in 0..200 {
                let a = (rng.next_u64() as i64) & mask;
                let b = (rng.next_u64() as i64) & mask;
                mult.mul(&BitWord::from_raw(a, width), &BitWord::from_raw(b, width));
                ops += 1;
            }
            per_width.push(mult.stats().net_toggles as f64 / ops as f64);
        }
        let ratio_1 = per_width[1] / per_width[0]; // 8 vs 4 bits
        let ratio_2 = per_width[2] / per_width[1]; // 16 vs 8 bits
        assert!(
            ratio_1 > 2.0,
            "4→8 bit activity ratio {ratio_1} not superlinear"
        );
        assert!(
            ratio_2 > 2.0,
            "8→16 bit activity ratio {ratio_2} not superlinear"
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn adder_checks_width() {
        let mut adder = RippleCarryAdder::new(4);
        adder.add(&BitWord::from_raw(0, 4), &BitWord::from_raw(0, 5));
    }
}
