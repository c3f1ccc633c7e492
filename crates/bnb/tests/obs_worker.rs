//! Observability contract of the parallel search: multi-thread runs emit
//! one `bnb.worker` span per pool worker with its expand/prune tallies,
//! while the 1-thread path (exact serial code) emits none.
//!
//! Single test function: the obs subscriber is process-global, so the two
//! phases must run sequentially in one binary.

use ldafp_bnb::{solve, BnbConfig, BoundingProblem, BoxNode, NodeAssessment};
use ldafp_obs as obs;
use std::sync::{Arc, Mutex};

struct Collector {
    events: Mutex<Vec<(String, Vec<String>)>>,
}

impl obs::Subscriber for Collector {
    fn event(&self, event: &obs::Event) {
        self.events.lock().unwrap().push((
            event.name.to_string(),
            event.fields.iter().map(|(k, _)| (*k).to_string()).collect(),
        ));
    }
}

struct Quad;

impl BoundingProblem for Quad {
    fn assess(&self, node: &BoxNode, _index: usize) -> NodeAssessment {
        let target = [0.3f64, -1.7, 2.4];
        let proj: Vec<f64> = target
            .iter()
            .zip(node.lower.iter().zip(&node.upper))
            .map(|(&t, (&l, &u))| t.clamp(l, u))
            .collect();
        let lb: f64 = proj
            .iter()
            .zip(&target)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let cand: Vec<f64> = proj
            .iter()
            .zip(node.lower.iter().zip(&node.upper))
            .map(|(&p, (&l, &u))| p.round().clamp(l.ceil(), u.floor()))
            .collect();
        let c: f64 = cand
            .iter()
            .zip(&target)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        NodeAssessment::feasible(lb, Some((cand, c)))
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        node.max_width() <= 1.0
    }
}

fn run_and_collect(threads: usize) -> Vec<(String, Vec<String>)> {
    let collector = Arc::new(Collector {
        events: Mutex::new(Vec::new()),
    });
    obs::set_subscriber(collector.clone());
    let root = BoxNode::new(vec![-4.0; 3], vec![4.0; 3]).unwrap();
    let out = solve(&Quad, root, &BnbConfig::default(), None, threads, None);
    obs::clear_subscriber();
    assert!(out.certified, "tiny quadratic must certify");
    let events = collector.events.lock().unwrap().clone();
    events
}

#[test]
fn worker_spans_appear_only_in_multi_thread_runs() {
    let parallel = run_and_collect(2);
    let workers: Vec<_> = parallel
        .iter()
        .filter(|(name, _)| name == "bnb.worker")
        .collect();
    assert_eq!(
        workers.len(),
        1,
        "2 threads = 1 pool worker beside the coordinator, got {workers:?}"
    );
    for (_, fields) in &workers {
        for key in [
            "worker",
            "demand_assessed",
            "speculative_assessed",
            "speculative_skipped",
            "duration_us",
        ] {
            assert!(
                fields.iter().any(|f| f == key),
                "bnb.worker span missing field {key}: {fields:?}"
            );
        }
    }
    assert!(
        parallel.iter().any(|(name, _)| name == "bnb.expand"),
        "expansion events must keep flowing in parallel mode"
    );

    let serial = run_and_collect(1);
    assert!(
        serial.iter().all(|(name, _)| name != "bnb.worker"),
        "1-thread search takes the serial path and must emit no worker spans"
    );
    assert!(
        serial.iter().any(|(name, _)| name == "bnb.expand"),
        "serial path keeps its expansion events"
    );
}
