//! Observability soundness (ISSUE 4 satellite): a registered no-op
//! subscriber must leave training bit-identical to an uninstrumented run —
//! same incumbent weights, same certified objective, same node counts.
//!
//! This file deliberately holds only this test: it mutates the
//! process-wide subscriber slot, and keeping it alone in its integration
//! binary means no parallel test in the same process can race on it.

use ldafp_core::{LdaFpConfig, LdaFpTrainer};
use ldafp_datasets::BinaryDataset;
use ldafp_fixedpoint::QFormat;
use ldafp_linalg::Matrix;
use ldafp_obs as obs;
use ldafp_stats::Rng;
use std::sync::Arc;

struct NoopSubscriber;

impl obs::Subscriber for NoopSubscriber {
    fn event(&self, _event: &obs::Event) {}
}

/// Two separable Gaussian-ish clouds from a seeded generator.
fn synthetic(n: usize, offset: f64, seed: u64) -> BinaryDataset {
    let mut rng = Rng::new(seed);
    let mut next = move || rng.range_f64(-1.0..1.0);
    let a = Matrix::from_fn(n, 3, |_, j| {
        if j == 0 {
            -offset + 0.15 * next()
        } else {
            0.3 * next()
        }
    });
    let b = Matrix::from_fn(n, 3, |_, j| {
        if j == 0 {
            offset + 0.15 * next()
        } else {
            0.3 * next()
        }
    });
    BinaryDataset::new(a, b).expect("non-empty classes")
}

#[test]
fn noop_subscriber_leaves_training_bit_identical() {
    let data = synthetic(40, 0.5, 7);
    let format = QFormat::new(2, 4).expect("static format");
    let trainer = LdaFpTrainer::new(LdaFpConfig::fast());

    let baseline = trainer.train(&data, format).expect("baseline trains");

    obs::set_subscriber(Arc::new(NoopSubscriber));
    let traced = trainer.train(&data, format).expect("traced run trains");
    obs::clear_subscriber();

    // Bit-identical incumbent and certificate: tracing may only observe.
    let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(baseline.weights()), bits(traced.weights()));
    assert_eq!(
        baseline.fisher_cost().to_bits(),
        traced.fisher_cost().to_bits(),
        "certified objective must not move"
    );
    assert_eq!(baseline.outcome(), traced.outcome());
    assert_eq!(
        baseline.stats().nodes_assessed,
        traced.stats().nodes_assessed,
        "search trajectory must be identical"
    );
    assert_eq!(
        baseline.stats().incumbent_updates,
        traced.stats().incumbent_updates
    );
}
