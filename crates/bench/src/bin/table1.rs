//! Regenerates **Table 1**: classification error and LDA-FP runtime on the
//! synthetic data set, as a function of word length.
//!
//! ```text
//! cargo run -p ldafp-bench --release --bin table1 [-- --quick]
//! ```

use ldafp_bench::experiments::{run_synthetic_sweep, SyntheticSweepConfig};
use ldafp_bench::{quick_flag, table};

fn main() {
    let config = if quick_flag() {
        SyntheticSweepConfig::quick()
    } else {
        SyntheticSweepConfig::default()
    };
    eprintln!(
        "Table 1 — synthetic data ({} train / {} test per class, word lengths {:?})",
        config.train_per_class, config.test_per_class, config.word_lengths
    );
    let rows = run_synthetic_sweep(&config);
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.word_length.to_string(),
                table::pct(r.lda_error),
                table::pct(r.ldafp_error),
                table::secs(r.ldafp_runtime),
                r.lda_format.clone(),
                r.ldafp_format.clone(),
                if r.certified { "yes" } else { "no" }.to_string(),
                table::gap(r.search_gap),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "Word Length (Bit)",
                "LDA Error",
                "LDA-FP Error",
                "LDA-FP Runtime (Sec)",
                "LDA QK.F",
                "LDA-FP QK.F",
                "certified",
                "search gap",
            ],
            &cells,
        )
    );
    println!(
        "Paper reference (Table 1): LDA stays at 50.00% until 12 bits \
         (24.46%), LDA-FP reaches 27.04% at 4 bits; both ≈19.3% at 14–16 bits."
    );
}
