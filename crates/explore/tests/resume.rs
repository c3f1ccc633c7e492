//! Resume detection of a checkpointed sweep: a sweep is a resume when its
//! state directory already holds `ckpt/` when it is opened.
//!
//! Single test function: the obs subscriber and the global registry are
//! process-wide, so the fresh run and the resumed run must run one after
//! the other in one binary.

use ldafp_datasets::demo2d::{self, Demo2dConfig};
use ldafp_explore::{holdout_split, pareto_report, ExploreConfig, ExploreGrid, Explorer};
use ldafp_fixedpoint::RoundingMode;
use ldafp_obs as obs;
use ldafp_stats::Rng;
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct Names(Mutex<Vec<&'static str>>);

impl obs::Subscriber for Names {
    fn event(&self, event: &obs::Event) {
        self.0.lock().unwrap().push(event.name);
    }
}

impl Names {
    fn count(&self, name: &str) -> usize {
        self.0
            .lock()
            .unwrap()
            .iter()
            .filter(|n| **n == name)
            .count()
    }
}

fn resumed_sweeps() -> u64 {
    obs::Registry::global()
        .counter("explore.resumed_sweeps")
        .get()
}

#[test]
fn fresh_state_is_not_a_resume_and_a_rerun_skips_every_point() {
    let dir = std::env::temp_dir().join(format!("ldafp-explore-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = dir.join("state");
    let mut rng = Rng::new(11);
    let data = demo2d::rounding_sensitive(
        &Demo2dConfig {
            n_per_class: 40,
            ..Demo2dConfig::default()
        },
        &mut rng,
    );
    let (train, validation) = holdout_split(&data, 0.25).expect("40 rows per class split");
    let grid = ExploreGrid {
        min_bits: 3,
        max_bits: 5,
        max_k: 2,
        rhos: vec![0.99],
        roundings: vec![RoundingMode::NearestEven],
        ..ExploreGrid::default()
    };
    let sweep = || {
        let names = Arc::new(Names::default());
        obs::set_subscriber(names.clone());
        let summary = Explorer::new(ExploreConfig {
            threads: 1,
            cache_dir: Some(state.join("cache")),
            state_dir: Some(state.clone()),
            ..ExploreConfig::default()
        })
        .run(&train, &validation, &grid)
        .expect("grid is valid");
        obs::clear_subscriber();
        (summary, names)
    };

    let before = resumed_sweeps();
    let (first, names) = sweep();
    assert!(state.join("ckpt").is_dir(), "the sweep creates ckpt/");
    assert_eq!(
        names.count("resume.skipped"),
        0,
        "a fresh sweep skips nothing"
    );
    assert_eq!(resumed_sweeps(), before, "a fresh sweep is not a resume");
    assert_eq!(first.cache_hits, 0);

    let (second, names) = sweep();
    assert_eq!(resumed_sweeps(), before + 1, "the rerun is a resume");
    assert_eq!(second.cache_hits, second.outcomes.len());
    assert_eq!(
        names.count("resume.skipped"),
        second.outcomes.len(),
        "every point of the rerun comes back from the cache"
    );
    assert_eq!(names.count("explore.point"), second.outcomes.len());
    assert_eq!(
        pareto_report(&first),
        pareto_report(&second),
        "the Pareto report is byte-identical across resume"
    );
    std::fs::remove_dir_all(&dir).ok();
}
