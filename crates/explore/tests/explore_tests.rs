//! End-to-end exploration tests on the demo2d workloads: cache
//! persistence across engine instances and report generation from a real
//! sweep.

use ldafp_datasets::demo2d::{self, Demo2dConfig};
use ldafp_explore::{
    holdout_split, json_report, markdown_report, ExploreConfig, ExploreGrid, Explorer,
};
use ldafp_fixedpoint::RoundingMode;
use ldafp_serve::json::Value;
use ldafp_stats::Rng;

fn demo_data() -> (ldafp_datasets::BinaryDataset, ldafp_datasets::BinaryDataset) {
    let mut rng = Rng::new(7);
    let config = Demo2dConfig {
        n_per_class: 60,
        ..Demo2dConfig::default()
    };
    let data = demo2d::rounding_sensitive(&config, &mut rng);
    holdout_split(&data, 0.25).expect("60 rows per class split cleanly")
}

fn grid() -> ExploreGrid {
    ExploreGrid {
        min_bits: 3,
        max_bits: 6,
        max_k: 2,
        rhos: vec![0.99],
        roundings: vec![RoundingMode::NearestEven],
        ..ExploreGrid::default()
    }
}

#[test]
fn cache_persists_across_engine_instances() {
    let dir = std::env::temp_dir().join(format!(
        "ldafp-explore-e2e-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (train, validation) = demo_data();
    let run = || {
        Explorer::new(ExploreConfig {
            threads: 1,
            cache_dir: Some(dir.clone()),
            ..ExploreConfig::default()
        })
        .run(&train, &validation, &grid())
        .expect("grid is valid")
    };
    let first = run();
    assert_eq!(first.cache_hits, 0);
    assert!(dir.is_dir(), "sweep must create the cache directory");
    let second = run();
    assert_eq!(second.cache_hits, second.outcomes.len());
    assert!(
        second.total_elapsed_ms <= first.total_elapsed_ms,
        "a fully cached sweep must not be slower than the cold one \
         ({} ms vs {} ms)",
        second.total_elapsed_ms,
        first.total_elapsed_ms
    );
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(
            a.metrics.as_ref().map(|m| m.validation_error),
            b.metrics.as_ref().map(|m| m.validation_error)
        );
    }
}

#[test]
fn reports_render_from_a_real_sweep() {
    let (train, validation) = demo_data();
    let summary = Explorer::new(ExploreConfig {
        threads: 1,
        ..ExploreConfig::default()
    })
    .run(&train, &validation, &grid())
    .expect("grid is valid");
    assert!(summary.trained() > 0);
    assert!(!summary.pareto.is_empty());

    let md = markdown_report(&summary);
    assert!(md.contains("# LDA-FP design-space exploration"));
    assert!(md.contains("Pareto frontier"));

    let json_text = json_report(&summary).to_pretty_string();
    let parsed = ldafp_serve::json::parse(&json_text).expect("report is valid JSON");
    assert_eq!(
        parsed.get("points").and_then(Value::as_i64),
        Some(summary.outcomes.len() as i64)
    );
    assert_eq!(
        parsed
            .get("pareto")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(summary.pareto.len())
    );
}
