//! Beyond the paper: four-direction movement decoding with a one-vs-rest
//! ensemble of fixed-point LDA-FP classifiers (the "broad range of
//! applications" the paper's conclusion points to).
//!
//! ```text
//! cargo run --release --example multiclass_decoding
//! ```

use lda_fp::core::multiclass::{train_one_vs_rest, train_one_vs_rest_baseline};
use lda_fp::core::{LdaFpConfig, LdaFpTrainer};
use lda_fp::datasets::multiclass::{blobs, BlobsConfig};
use lda_fp::fixedpoint::QFormat;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = BlobsConfig {
        num_classes: 4, // up / right / down / left
        num_features: 6,
        n_per_class: 150,
        radius: 0.7,
        sigma: 0.22,
    };
    let mut rng = ldafp_stats::Rng::new(17);
    let (train_set, _factor) = blobs(&cfg, &mut rng).scaled_to(0.9);
    // Fresh draw for testing, normalized the same way (per-draw max-abs).
    let test_set = blobs(&cfg, &mut rng).scaled_to(0.9).0;
    println!(
        "4-class decoding: {} features, {} trials/class",
        cfg.num_features, cfg.n_per_class
    );

    let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
    println!(
        "\n{:>5} | {:>14} | {:>14}",
        "bits", "rounded LDA OvR", "LDA-FP OvR"
    );
    println!("{}", "-".repeat(42));
    for bits in [3u32, 4, 5, 6, 8] {
        let format = QFormat::new(1, bits - 1)?;
        let base = train_one_vs_rest_baseline(&train_set, format)
            .map(|(clf, _)| clf.error_rate(&test_set))
            .unwrap_or(0.75);
        let fp = train_one_vs_rest(&trainer, &train_set, format)
            .map(|(clf, _)| clf.error_rate(&test_set))
            .unwrap_or(0.75);
        println!(
            "{bits:>5} | {:>13.2}% | {:>13.2}%",
            100.0 * base,
            100.0 * fp
        );
    }
    println!("\n(chance level for 4 classes: 75% error)");
    println!(
        "Note: where rounded LDA edges ahead, its unit-norm heads actually\n\
         violate the eq. 20 overflow constraints that LDA-FP honors (they\n\
         gamble that the ρ-tail overflows never bite). Lower `rho` in\n\
         LdaFpConfig to trade overflow safety for accuracy."
    );
    Ok(())
}
