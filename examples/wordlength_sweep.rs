//! Word-length sweep on the paper's synthetic noise-cancellation set — a
//! miniature of Table 1 and Figure 4 in one run: for each word length,
//! train rounded LDA and LDA-FP, print both errors and the LDA-FP weights.
//!
//! ```text
//! cargo run --release --example wordlength_sweep
//! ```

use lda_fp::core::{eval, LdaFpConfig, LdaFpTrainer};
use lda_fp::datasets::synthetic::{bayes_error, generate, SyntheticConfig};
use lda_fp::datasets::BinaryDataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ldafp_stats::Rng::new(20140601);
    let gen_cfg = SyntheticConfig {
        n_per_class: 800,
        ..SyntheticConfig::default()
    };
    let train_raw = generate(&gen_cfg, &mut rng);
    let test_raw = generate(
        &SyntheticConfig {
            n_per_class: 5_000,
            ..gen_cfg
        },
        &mut rng,
    );
    let (train, factor) = train_raw.scaled_to(0.9);
    let test = BinaryDataset {
        class_a: test_raw.class_a.scaled(factor),
        class_b: test_raw.class_b.scaled(factor),
    };
    println!(
        "synthetic set (eqs. 30–32): Bayes floor ≈ {:.2}%\n",
        100.0 * bayes_error(&gen_cfg)
    );

    let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
    println!(
        "{:>5} | {:>9} | {:>9} | weights (LDA-FP)",
        "bits", "LDA", "LDA-FP"
    );
    println!("{}", "-".repeat(64));
    for word in [4u32, 6, 8, 10, 12, 14, 16] {
        let lda_err = match eval::quantized_lda_auto(&train, word, 5) {
            Ok((clf, _)) => eval::error_rate(&clf, &test),
            Err(_) => 0.5,
        };
        let (fp_err, weights) = match trainer.train_auto(&train, word, 5) {
            Ok((model, _)) => (
                eval::error_rate(model.classifier(), &test),
                format!("{:?}", model.weights()),
            ),
            Err(_) => (0.5, "-".to_string()),
        };
        println!(
            "{word:>5} | {:>8.2}% | {:>8.2}% | {weights}",
            100.0 * lda_err,
            100.0 * fp_err
        );
    }
    println!(
        "\nExpected shape (paper Table 1 / Figure 4): LDA at chance until \
         ~12 bits; LDA-FP useful from 4 bits; weights show w1 pulled away \
         from zero at small word lengths."
    );
    Ok(())
}
