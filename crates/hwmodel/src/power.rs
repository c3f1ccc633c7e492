//! Analytic power / energy / area models for the classifier datapath.
//!
//! Normalized technology-independent models in the style of Padgett &
//! Anderson (*Fixed-Point Signal Processing*), the paper's reference \[13\]:
//!
//! * array/shift-add **multiplier**: energy and area `∝ W²`;
//! * ripple-carry **adder** and registers: energy and area `∝ W`;
//! * per-classification cost of an `M`-feature linear classifier:
//!   `M` multiplies, `M` accumulator adds, `M + 1` register writes.
//!
//! With the multiplier dominating, total power is "almost a quadratic
//! function of the word length" — the rule behind the paper's 9× and 1.8×
//! claims, which [`MacPowerModel::power_reduction`] reproduces.

/// Normalized energy model of a MAC-based linear classifier.
///
/// All coefficients are in arbitrary energy units per operation; only
/// *ratios* between configurations are meaningful, which is exactly how the
/// paper reports power (9× reduction, 1.8× reduction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacPowerModel {
    /// Multiplier energy per operation per bit² (`E = c·W²`).
    pub mult_coeff: f64,
    /// Adder energy per operation per bit (`E = c·W`).
    pub add_coeff: f64,
    /// Register write energy per bit.
    pub reg_coeff: f64,
    /// Static (leakage) power per bit of datapath state, added per
    /// classification as `c·W` (leakage scales with gate count ≈ W for the
    /// registers and adder; the multiplier's W² gates dominate switching,
    /// not leakage, at these sizes).
    pub leakage_coeff: f64,
}

impl Default for MacPowerModel {
    fn default() -> Self {
        MacPowerModel {
            mult_coeff: 1.0,
            add_coeff: 0.2,
            reg_coeff: 0.05,
            leakage_coeff: 0.02,
        }
    }
}

impl MacPowerModel {
    /// Energy of one `W`-bit multiply.
    pub fn multiplier_energy(&self, word_length: u32) -> f64 {
        let w = word_length as f64;
        self.mult_coeff * w * w
    }

    /// Energy of one `W`-bit add.
    pub fn adder_energy(&self, word_length: u32) -> f64 {
        self.add_coeff * word_length as f64
    }

    /// Energy of one `W`-bit register write.
    pub fn register_energy(&self, word_length: u32) -> f64 {
        self.reg_coeff * word_length as f64
    }

    /// Energy of one complete classification (`y = wᵀx` plus threshold
    /// compare) for `num_features` features: `M` multiplies, `M`
    /// accumulator adds, `M + 1` register writes, plus leakage.
    pub fn energy_per_classification(&self, word_length: u32, num_features: usize) -> f64 {
        let m = num_features as f64;
        m * self.multiplier_energy(word_length)
            + m * self.adder_energy(word_length)
            + (m + 1.0) * self.register_energy(word_length)
            + self.leakage_coeff * word_length as f64
    }

    /// Average power at a fixed classification rate (normalized: one
    /// classification per unit time), i.e. the energy per classification.
    pub fn power(&self, word_length: u32, num_features: usize) -> f64 {
        self.energy_per_classification(word_length, num_features)
    }

    /// Power-reduction factor when moving from `from_bits` to `to_bits`
    /// words — the quantity behind the paper's "9×" and "1.8×".
    ///
    /// # Panics
    ///
    /// Panics if either word length is zero.
    pub fn power_reduction(&self, from_bits: u32, to_bits: u32, num_features: usize) -> f64 {
        assert!(
            from_bits > 0 && to_bits > 0,
            "word lengths must be positive"
        );
        self.power(from_bits, num_features) / self.power(to_bits, num_features)
    }

    /// Normalized datapath area: multiplier `∝ W²`, adder and registers
    /// `∝ W` (same coefficients, interpreted as area units).
    pub fn area(&self, word_length: u32, num_features: usize) -> f64 {
        let w = word_length as f64;
        let m = num_features as f64;
        // One multiplier + one adder shared across features, M-word weight
        // ROM and one accumulator.
        self.mult_coeff * w * w + self.add_coeff * w + self.reg_coeff * w * (m + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_dominates() {
        let m = MacPowerModel::default();
        // Doubling the word length should cost ~4× in power (within the
        // linear terms' dilution).
        let r = m.power_reduction(16, 8, 42);
        assert!(r > 3.3 && r < 4.2, "16→8 bit reduction {r}");
    }

    #[test]
    fn paper_9x_claim() {
        // Table 1: LDA needs 12 bits, LDA-FP needs 4 → "up to 3× word
        // length, equivalent to 9× power reduction".
        let m = MacPowerModel::default();
        let r = m.power_reduction(12, 4, 3);
        assert!(
            (r - 9.0).abs() < 1.2,
            "12→4 bit reduction {r} (expected ≈9)"
        );
    }

    #[test]
    fn paper_1_8x_claim() {
        // Table 2: 8-bit LDA vs 6-bit LDA-FP → "power reduced by 1.8×".
        let m = MacPowerModel::default();
        let r = m.power_reduction(8, 6, 42);
        assert!(
            (r - 1.78).abs() < 0.15,
            "8→6 bit reduction {r} (expected ≈1.8)"
        );
    }

    #[test]
    fn energy_scales_with_features() {
        let m = MacPowerModel::default();
        let e1 = m.energy_per_classification(8, 10);
        let e2 = m.energy_per_classification(8, 20);
        assert!(e2 > 1.9 * e1 && e2 < 2.1 * e1);
    }

    #[test]
    fn monotone_in_word_length() {
        let m = MacPowerModel::default();
        let mut prev = 0.0;
        for w in 1..=24 {
            let p = m.power(w, 42);
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn area_positive_and_growing() {
        let m = MacPowerModel::default();
        assert!(m.area(8, 42) > m.area(4, 42));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_word_length_panics() {
        MacPowerModel::default().power_reduction(0, 4, 3);
    }
}
