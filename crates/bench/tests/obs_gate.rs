//! Observability-overhead gate: the disabled `ldafp-obs` facade must cost
//! the solver hot path less than 2 % of training wall time.
//!
//! ```text
//! cargo test --release -p ldafp-bench --test obs_gate
//! ```
//!
//! Methodology: one training run under a counting subscriber yields the
//! number of events the instrumentation emits per training. A tight loop
//! over [`ldafp_obs::enabled`] yields the per-call cost of the disabled
//! check (one relaxed atomic load). Their product, divided by the training
//! wall time with no subscriber installed, bounds what the dormant
//! instrumentation can cost: a deliberate over-estimate, since it bills
//! every emission site as if the event had been built.
//!
//! The test installs the process-wide subscriber, so it lives in a test
//! target of its own and no other test shares the process.

use ldafp_core::{LdaFpConfig, LdaFpTrainer};
use ldafp_datasets::synthetic::{generate, SyntheticConfig};
use ldafp_fixedpoint::QFormat;
use ldafp_obs as obs;
use ldafp_stats::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Fail threshold for the estimated disabled overhead, percent.
const GATE_PCT: f64 = 2.0;

/// Subscriber that only counts deliveries.
#[derive(Default)]
struct CountingSubscriber {
    events: AtomicU64,
}

impl obs::Subscriber for CountingSubscriber {
    fn event(&self, _event: &obs::Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn disabled_facade_costs_under_two_percent_of_training() {
    let mut rng = Rng::new(2014);
    let (train, _factor) = generate(
        &SyntheticConfig {
            n_per_class: 200,
            ..SyntheticConfig::default()
        },
        &mut rng,
    )
    .scaled_to(0.9);
    let format = QFormat::new(2, 4).expect("valid gate format");
    let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
    let train_once = || {
        let model = trainer.train(&train, format).expect("gate workload trains");
        std::hint::black_box(model.fisher_cost());
    };

    // Disabled mode, the facade's default state: best of three after a
    // warmup that pays page faults, allocator growth and lazy statics.
    obs::clear_subscriber();
    train_once();
    let mut disabled_train_s = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        train_once();
        disabled_train_s = disabled_train_s.min(t.elapsed().as_secs_f64());
    }

    // Events per training run, counted after a warmup under the subscriber.
    let counter = Arc::new(CountingSubscriber::default());
    obs::set_subscriber(counter.clone());
    train_once();
    let before = counter.events.load(Ordering::Relaxed);
    train_once();
    let events_per_train = counter.events.load(Ordering::Relaxed) - before;
    obs::clear_subscriber();
    assert!(
        events_per_train > 0,
        "instrumented training must emit events"
    );

    // The disabled check, priced per call.
    let calls: u64 = 10_000_000;
    let t = Instant::now();
    let mut hits = 0u64;
    for _ in 0..calls {
        if std::hint::black_box(obs::enabled()) {
            hits += 1;
        }
    }
    std::hint::black_box(hits);
    let dispatch_ns = t.elapsed().as_secs_f64() * 1e9 / calls as f64;

    let dormant_s = events_per_train as f64 * dispatch_ns * 1e-9;
    let overhead_pct = 100.0 * dormant_s / disabled_train_s;
    assert!(
        overhead_pct < GATE_PCT,
        "estimated disabled-facade overhead {overhead_pct:.4}% >= {GATE_PCT}% \
         ({events_per_train} events × {dispatch_ns:.2} ns over {:.1} ms of training)",
        1e3 * disabled_train_s
    );
}
