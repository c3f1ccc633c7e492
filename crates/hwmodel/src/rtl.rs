//! Synthesizable Verilog generation for trained fixed-point classifiers.
//!
//! The end product of the paper's flow is an ASIC block: a weight ROM, one
//! multiply-accumulate datapath of `QK.F` width, and a threshold
//! comparator. This module emits that block as self-contained Verilog-2001,
//! plus a matching testbench, so a trained classifier can be dropped into a
//! synthesis flow (or simulated with any HDL simulator) directly.
//!
//! The generated datapath matches `ldafp_fixedpoint::mac_dot_traced` (and
//! the serving kernels' `mac_row_fx`) with
//! [`RoundingMode::Floor`](ldafp_fixedpoint::RoundingMode::Floor) products
//! (hardware truncation) and a wrapping accumulator — the semantics whose
//! harmlessness the paper proves for in-range final sums.

use ldafp_fixedpoint::{FixedPointError, Fx, QFormat};
use std::fmt::Write as _;

/// Configuration of the emitted RTL module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtlConfig {
    /// Verilog module name.
    pub module_name: String,
    /// Emit a `$display`-based self-checking testbench alongside.
    pub with_testbench: bool,
}

impl Default for RtlConfig {
    fn default() -> Self {
        RtlConfig {
            module_name: "ldafp_classifier".to_string(),
            with_testbench: false,
        }
    }
}

/// Emits a synthesizable classifier module for the given weights and
/// threshold.
///
/// The module consumes one feature per clock (`x_in`, already in `QK.F`),
/// multiplies it by the ROM weight for the current index, truncates the
/// product back to `QK.F` and accumulates with wrap-around. After `M`
/// cycles `done` rises and `class_a = (acc >= threshold)` (eq. 12).
///
/// # Errors
///
/// Returns [`FixedPointError::LengthMismatch`] for empty weights and
/// [`FixedPointError::FormatMismatch`] if weights/threshold formats differ.
pub fn generate_verilog(
    weights: &[Fx],
    threshold: Fx,
    config: &RtlConfig,
) -> Result<String, FixedPointError> {
    if weights.is_empty() {
        return Err(FixedPointError::LengthMismatch { left: 0, right: 1 });
    }
    let format = weights[0].format();
    for w in weights {
        if w.format() != format {
            return Err(FixedPointError::FormatMismatch {
                left: (format.k(), format.f()),
                right: (w.format().k(), w.format().f()),
            });
        }
    }
    if threshold.format() != format {
        return Err(FixedPointError::FormatMismatch {
            left: (format.k(), format.f()),
            right: (threshold.format().k(), threshold.format().f()),
        });
    }

    let w_bits = format.word_length();
    let m = weights.len();
    let idx_bits = (usize::BITS - (m - 1).max(1).leading_zeros()).max(1);
    let mut v = String::new();

    let _ = writeln!(
        v,
        "// Auto-generated by ldafp-hwmodel: {m}-feature linear classifier"
    );
    let _ = writeln!(v, "// Format: {format} ({w_bits}-bit two's complement)");
    let _ = writeln!(
        v,
        "// Semantics: truncating multiplier, wrapping accumulator (DAC'14 LDA-FP)"
    );
    let _ = writeln!(v, "module {} (", config.module_name);
    let _ = writeln!(v, "    input  wire                  clk,");
    let _ = writeln!(v, "    input  wire                  rst_n,");
    let _ = writeln!(v, "    input  wire                  x_valid,");
    let _ = writeln!(v, "    input  wire signed [{}:0]    x_in,", w_bits - 1);
    let _ = writeln!(v, "    output reg                   done,");
    let _ = writeln!(v, "    output reg                   class_a");
    let _ = writeln!(v, ");");
    let _ = writeln!(v, "    localparam integer M = {m};");
    let _ = writeln!(v, "    localparam integer W = {w_bits};");
    let _ = writeln!(v, "    localparam integer F = {};", format.f());
    let _ = writeln!(v);
    let _ = writeln!(v, "    // Weight ROM ({}-entry, {}-bit)", m, w_bits);
    let _ = writeln!(v, "    reg signed [W-1:0] rom [0:M-1];");
    let _ = writeln!(v, "    initial begin");
    for (i, w) in weights.iter().enumerate() {
        let _ = writeln!(
            v,
            "        rom[{i}] = {w_bits}'sh{:0width$X}; // {}",
            w.to_bits(),
            w.to_f64(),
            width = w_bits.div_ceil(4) as usize
        );
    }
    let _ = writeln!(v, "    end");
    let _ = writeln!(v);
    let _ = writeln!(
        v,
        "    localparam signed [W-1:0] THRESHOLD = {w_bits}'sh{:0width$X}; // {}",
        threshold.to_bits(),
        threshold.to_f64(),
        width = w_bits.div_ceil(4) as usize
    );
    let _ = writeln!(v);
    let _ = writeln!(v, "    reg  [{}:0] idx;", idx_bits - 1);
    let _ = writeln!(v, "    reg  signed [W-1:0] acc;");
    let _ = writeln!(v, "    wire signed [2*W-1:0] product = rom[idx] * x_in;");
    let _ = writeln!(
        v,
        "    // Truncate F fractional bits (floor), keep low W bits (wrap)."
    );
    let _ = writeln!(v, "    wire signed [W-1:0] product_q = product[W+F-1:F];");
    let _ = writeln!(v);
    let _ = writeln!(v, "    always @(posedge clk or negedge rst_n) begin");
    let _ = writeln!(v, "        if (!rst_n) begin");
    let _ = writeln!(v, "            idx     <= 0;");
    let _ = writeln!(v, "            acc     <= 0;");
    let _ = writeln!(v, "            done    <= 1'b0;");
    let _ = writeln!(v, "            class_a <= 1'b0;");
    let _ = writeln!(v, "        end else if (x_valid && !done) begin");
    let _ = writeln!(
        v,
        "            acc <= acc + product_q; // wraps in W bits by construction"
    );
    let _ = writeln!(v, "            if (idx == M-1) begin");
    let _ = writeln!(v, "                done    <= 1'b1;");
    let _ = writeln!(
        v,
        "                class_a <= ($signed(acc + product_q) >= THRESHOLD);"
    );
    let _ = writeln!(v, "            end else begin");
    let _ = writeln!(v, "                idx <= idx + 1;");
    let _ = writeln!(v, "            end");
    let _ = writeln!(v, "        end");
    let _ = writeln!(v, "    end");
    let _ = writeln!(v, "endmodule");

    if config.with_testbench {
        let _ = writeln!(v);
        v.push_str(&generate_testbench(&config.module_name, format, m));
    }
    Ok(v)
}

fn generate_testbench(module_name: &str, format: QFormat, m: usize) -> String {
    let w_bits = format.word_length();
    let mut v = String::new();
    let _ = writeln!(v, "`timescale 1ns/1ps");
    let _ = writeln!(v, "module {module_name}_tb;");
    let _ = writeln!(v, "    reg clk = 0, rst_n = 0, x_valid = 0;");
    let _ = writeln!(v, "    reg  signed [{}:0] x_in = 0;", w_bits - 1);
    let _ = writeln!(v, "    wire done, class_a;");
    let _ = writeln!(
        v,
        "    {module_name} dut (.clk(clk), .rst_n(rst_n), .x_valid(x_valid),"
    );
    let _ = writeln!(v, "        .x_in(x_in), .done(done), .class_a(class_a));");
    let _ = writeln!(v, "    always #5 clk = ~clk;");
    let _ = writeln!(v, "    integer i;");
    let _ = writeln!(v, "    initial begin");
    let _ = writeln!(v, "        #12 rst_n = 1;");
    let _ = writeln!(v, "        x_valid = 1;");
    let _ = writeln!(v, "        for (i = 0; i < {m}; i = i + 1) begin");
    let _ = writeln!(v, "            x_in = $random;");
    let _ = writeln!(v, "            @(posedge clk);");
    let _ = writeln!(v, "        end");
    let _ = writeln!(v, "        @(posedge clk);");
    let _ = writeln!(
        v,
        "        $display(\"done=%b class_a=%b\", done, class_a);"
    );
    let _ = writeln!(v, "        $finish;");
    let _ = writeln!(v, "    end");
    let _ = writeln!(v, "endmodule");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_fixedpoint::RoundingMode;

    fn weights_and_threshold() -> (Vec<Fx>, Fx) {
        let fmt = QFormat::new(2, 4).unwrap();
        let w = fmt.quantize_slice(&[0.5, -1.25, 0.8125], RoundingMode::NearestEven);
        let t = fmt.quantize(0.25, RoundingMode::NearestEven);
        (w, t)
    }

    #[test]
    fn emits_module_with_expected_structure() {
        let (w, t) = weights_and_threshold();
        let v = generate_verilog(&w, t, &RtlConfig::default()).unwrap();
        assert!(v.contains("module ldafp_classifier ("));
        assert!(v.contains("endmodule"));
        assert!(v.contains("localparam integer M = 3;"));
        assert!(v.contains("localparam integer W = 6;"));
        assert!(v.contains("localparam integer F = 4;"));
        // One ROM entry per weight.
        assert_eq!(v.matches("rom[").count(), 3 + 1); // 3 writes + declaration usage in product
        assert!(v.contains("THRESHOLD"));
        // Wrapping accumulator, truncating product slice.
        assert!(v.contains("product[W+F-1:F]"));
    }

    #[test]
    fn rom_entries_encode_bit_patterns() {
        let (w, t) = weights_and_threshold();
        let v = generate_verilog(&w, t, &RtlConfig::default()).unwrap();
        for wi in &w {
            let hex = format!("6'sh{:02X}", wi.to_bits());
            assert!(v.contains(&hex), "missing ROM literal {hex} in:\n{v}");
        }
    }

    #[test]
    fn custom_module_name_and_testbench() {
        let (w, t) = weights_and_threshold();
        let cfg = RtlConfig {
            module_name: "bci_decoder".to_string(),
            with_testbench: true,
        };
        let v = generate_verilog(&w, t, &cfg).unwrap();
        assert!(v.contains("module bci_decoder ("));
        assert!(v.contains("module bci_decoder_tb;"));
        assert!(v.contains("$finish"));
    }

    #[test]
    fn rejects_empty_and_mixed_formats() {
        let (w, t) = weights_and_threshold();
        assert!(matches!(
            generate_verilog(&[], t, &RtlConfig::default()),
            Err(FixedPointError::LengthMismatch { .. })
        ));
        let other = QFormat::new(3, 3).unwrap().zero();
        let mixed = vec![w[0], other];
        assert!(matches!(
            generate_verilog(&mixed, t, &RtlConfig::default()),
            Err(FixedPointError::FormatMismatch { .. })
        ));
        assert!(matches!(
            generate_verilog(&w, other, &RtlConfig::default()),
            Err(FixedPointError::FormatMismatch { .. })
        ));
    }

    #[test]
    fn index_width_covers_feature_count() {
        let fmt = QFormat::new(2, 2).unwrap();
        let w = vec![fmt.zero(); 300];
        let v = generate_verilog(&w, fmt.zero(), &RtlConfig::default()).unwrap();
        // 300 features need a 9-bit index (2^9 = 512 ≥ 300).
        assert!(v.contains("reg  [8:0] idx;"), "{v}");
    }

    #[test]
    fn single_feature_classifier() {
        let fmt = QFormat::new(2, 2).unwrap();
        let w = vec![fmt.quantize(1.0, RoundingMode::NearestEven)];
        let v = generate_verilog(&w, fmt.zero(), &RtlConfig::default()).unwrap();
        assert!(v.contains("localparam integer M = 1;"));
        assert!(v.contains("reg  [0:0] idx;"));
    }
}
