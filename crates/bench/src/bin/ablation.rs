//! Ablation study over the LDA-FP solver's ingredients (DESIGN.md
//! experiment "A": the paper mentions undisclosed speed-up heuristics; ours
//! are documented and measured here).
//!
//! ```text
//! cargo run -p ldafp-bench --release --bin ablation [-- --quick]
//! ```

use ldafp_bench::experiments::{run_ablation, AblationConfig};
use ldafp_bench::{quick_flag, table};
use ldafp_core::LdaFpConfig;

fn main() {
    let mut config = AblationConfig::default();
    if quick_flag() {
        config.train_per_class = 300;
        config.test_per_class = 2_000;
        config.trainer = LdaFpConfig::fast();
    }
    eprintln!(
        "Ablation — synthetic data, {}-bit words (Q{}.{})",
        config.word_length,
        config.k,
        config.word_length - config.k
    );
    let rows = run_ablation(&config);
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                if r.fisher_cost.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.6}", r.fisher_cost)
                },
                table::pct(r.test_error),
                table::secs(r.runtime),
                r.nodes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "variant",
                "Fisher cost",
                "test error",
                "runtime (s)",
                "b&b nodes"
            ],
            &cells,
        )
    );
}
