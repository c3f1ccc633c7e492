//! From classifier to silicon: run the trained LDA-FP classifier through
//! the gate-level MAC datapath, count switching activity, and compare the
//! energy of word-length choices — the paper's power story, measured
//! rather than asserted.
//!
//! ```text
//! cargo run --release --example hardware_energy
//! ```

use lda_fp::core::{LdaFpConfig, LdaFpTrainer};
use lda_fp::datasets::synthetic::{generate, SyntheticConfig};
use lda_fp::fixedpoint::{QFormat, RoundingMode};
use lda_fp::hwmodel::gates::MacDatapath;
use lda_fp::hwmodel::power::MacPowerModel;
use lda_fp::kernels::mac_row_fx;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ldafp_stats::Rng::new(5);
    let (data, _) = generate(
        &SyntheticConfig {
            n_per_class: 500,
            ..SyntheticConfig::default()
        },
        &mut rng,
    )
    .scaled_to(0.9);

    let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
    let pm = MacPowerModel::default();
    println!(
        "{:>5} | {:>12} | {:>16} | {:>14}",
        "bits", "test wraps", "toggles/classif", "analytic power"
    );
    println!("{}", "-".repeat(60));
    for word in [4u32, 6, 8, 12] {
        let format = QFormat::new(2, word - 2)?;
        let model = trainer.train(&data, format)?;
        let clf = model.classifier();

        // Drive the gate-level datapath with real test features.
        let datapath = MacDatapath::new(word as usize);
        let mut toggles = 0u64;
        let mut wraps = 0usize;
        let mut trials = 0u64;
        for (x, _) in data.iter_labeled().take(100) {
            let xq = format.quantize_slice(x, RoundingMode::NearestEven);
            let (raw, stats) = datapath.simulate_fx_dot(clf.weights(), &xq);
            toggles += stats.net_toggles;
            trials += 1;
            // Cross-check against the serving kernels' scalar loop.
            let (reference, _) = mac_row_fx(format, RoundingMode::Floor, clf.weights(), &xq);
            assert_eq!(raw, reference, "gate-level vs behavioral mismatch");
            let exact: f64 = clf
                .weights()
                .iter()
                .zip(&xq)
                .map(|(w, x)| w.to_f64() * x.to_f64())
                .sum();
            if exact > format.max_value() || exact < format.min_value() {
                wraps += 1;
            }
        }
        println!(
            "{word:>5} | {:>10}/100 | {:>16.1} | {:>14.1}",
            wraps,
            toggles as f64 / trials as f64,
            pm.power(word, clf.num_features())
        );
    }
    println!(
        "\nNote how the overflow constraints (eqs. 18/20) keep the number of \
         final-sum wraps near zero even at 4 bits, while energy falls \
         roughly quadratically with the word length."
    );
    Ok(())
}
