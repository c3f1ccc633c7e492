//! The Figure-2 phenomenon, hands on: take the trained boundary, nudge each
//! weight by one grid step (±1 ulp) and watch what happens to the error —
//! rounded LDA falls apart, LDA-FP barely moves.
//!
//! ```text
//! cargo run --release --example boundary_robustness
//! ```

use lda_fp::core::{eval, FixedPointClassifier, LdaFpConfig, LdaFpTrainer, LdaModel};
use lda_fp::datasets::synthetic::{generate, SyntheticConfig};
use lda_fp::datasets::BinaryDataset;
use lda_fp::fixedpoint::QFormat;

fn perturbation_report(name: &str, clf: &FixedPointClassifier, data: &BinaryDataset) {
    let format = clf.format();
    let nominal = eval::error_rate(clf, data);
    println!("\n{name} (nominal error {:.2}%):", 100.0 * nominal);
    let w0 = clf.weight_values();
    for m in 0..w0.len() {
        for (label, sign) in [("+1 ulp", 1.0), ("-1 ulp", -1.0)] {
            let mut w = w0.clone();
            w[m] =
                (w[m] + sign * format.resolution()).clamp(format.min_value(), format.max_value());
            if w[m] == w0[m] {
                continue;
            }
            let perturbed = FixedPointClassifier::from_float(&w, clf.threshold().to_f64(), format)
                .expect("non-empty weights");
            println!(
                "  w[{m}] {label}: error {:.2}%",
                100.0 * eval::error_rate(&perturbed, data)
            );
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ldafp_stats::Rng::new(42);
    let gen = SyntheticConfig {
        n_per_class: 1_000,
        ..SyntheticConfig::default()
    };
    let (train, factor) = generate(&gen, &mut rng).scaled_to(0.9);
    let test_raw = generate(&gen, &mut rng);
    let test = BinaryDataset {
        class_a: test_raw.class_a.scaled(factor),
        class_b: test_raw.class_b.scaled(factor),
    };

    let format = QFormat::new(2, 4)?; // 6-bit demonstration format
    println!("format: {format} (resolution {})", format.resolution());

    let lda = LdaModel::train(&train)?;
    println!(
        "float LDA error: {:.2}% (the P_N^(LDA) ideal of Figure 2)",
        100.0 * {
            let mut e = 0usize;
            let mut t = 0usize;
            for (x, label) in test.iter_labeled() {
                let is_a = matches!(label, lda_fp::datasets::ClassLabel::A);
                if lda.classify(x) != is_a {
                    e += 1;
                }
                t += 1;
            }
            e as f64 / t as f64
        }
    );

    perturbation_report("rounded LDA (Figure 2a)", &lda.quantized(format), &test);

    let model = LdaFpTrainer::new(LdaFpConfig::fast()).train(&train, format)?;
    perturbation_report("LDA-FP (Figure 2b)", model.classifier(), &test);
    Ok(())
}
