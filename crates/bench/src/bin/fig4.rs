//! Regenerates **Figure 4**: the LDA-FP weight values `w₁, w₂, w₃` on the
//! synthetic data set as functions of the word length.
//!
//! ```text
//! cargo run -p ldafp-bench --release --bin fig4 [-- --quick]
//! ```

use ldafp_bench::experiments::{run_synthetic_sweep, SyntheticSweepConfig};
use ldafp_bench::{quick_flag, table};

fn main() {
    let config = if quick_flag() {
        SyntheticSweepConfig::quick()
    } else {
        SyntheticSweepConfig::default()
    };
    eprintln!("Figure 4 — LDA-FP weights vs word length (synthetic data)");
    let rows = run_synthetic_sweep(&config);
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let w = r.ldafp_weights.clone().unwrap_or_default();
            let get = |i: usize| {
                w.get(i)
                    .map(|v| format!("{v:+.5}"))
                    .unwrap_or_else(|| "-".to_string())
            };
            vec![
                r.word_length.to_string(),
                r.ldafp_format.clone(),
                get(0),
                get(1),
                get(2),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["Word Length (Bit)", "QK.F", "w1", "w2", "w3"], &cells,)
    );
    println!(
        "Paper reference (Figure 4): at large word lengths w1 ≈ 0 with large \
         |w2|, |w3| (noise cancellation); as the word length shrinks, LDA-FP \
         raises w1 to a clearly non-zero value instead of letting it round to \
         zero."
    );
}
