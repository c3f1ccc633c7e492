//! Bit-identity of the parallel search: for every thread count, the
//! certified objective, final weight vector, statistics and anytime
//! behavior must match the 1-thread search exactly — not approximately.

use ldafp_bnb::{solve, BnbConfig, BnbOutcome, BoundingProblem, BoxNode, NodeAssessment};
use ldafp_stats::rng::check;
use ldafp_stats::Rng;

/// Minimize Σ (xᵢ − cᵢ)² over integer grid points inside the box — the
/// property-test oracle problem.
#[derive(Clone)]
struct GridQuadratic {
    target: Vec<f64>,
}

impl GridQuadratic {
    fn cost(&self, x: &[f64]) -> f64 {
        x.iter()
            .zip(&self.target)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    fn assess_box(&self, node: &BoxNode) -> NodeAssessment {
        let proj: Vec<f64> = self
            .target
            .iter()
            .zip(node.lower.iter().zip(&node.upper))
            .map(|(&t, (&l, &u))| t.clamp(l, u))
            .collect();
        let lb = self.cost(&proj);
        let mut cand = Vec::with_capacity(self.target.len());
        for ((&t, &l), &u) in self.target.iter().zip(&node.lower).zip(&node.upper) {
            let lo = l.ceil();
            let hi = u.floor();
            if lo > hi {
                return if node.max_width() < 1.0 {
                    NodeAssessment::infeasible()
                } else {
                    NodeAssessment::feasible(lb, None)
                };
            }
            cand.push(t.round().clamp(lo, hi));
        }
        let c = self.cost(&cand);
        NodeAssessment::feasible(lb, Some((cand, c)))
    }
}

impl BoundingProblem for GridQuadratic {
    fn assess(&self, node: &BoxNode, _index: usize) -> NodeAssessment {
        self.assess_box(node)
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        node.max_width() <= 1.0
    }
}

fn assert_outcomes_identical(serial: &BnbOutcome, parallel: &BnbOutcome, label: &str) {
    match (&serial.incumbent, &parallel.incumbent) {
        (None, None) => {}
        (Some((sx, sc)), Some((px, pc))) => {
            assert_eq!(sx, px, "{label}: weight vectors differ");
            assert_eq!(sc.to_bits(), pc.to_bits(), "{label}: costs differ in bits");
        }
        _ => panic!("{label}: incumbent presence differs"),
    }
    assert_eq!(
        serial.best_lower_bound.to_bits(),
        parallel.best_lower_bound.to_bits(),
        "{label}: lower bounds differ in bits"
    );
    assert_eq!(
        serial.certified, parallel.certified,
        "{label}: certificates differ"
    );
    assert_eq!(serial.stats, parallel.stats, "{label}: statistics differ");
}

fn root_for(dim: usize) -> BoxNode {
    BoxNode::new(vec![-8.0; dim], vec![8.0; dim]).unwrap()
}

/// Case count of every property in this file.
const CASES: u32 = 48;

/// Between `min_len` and `max_len - 1` targets uniform in `[-7.5, 7.5)`.
fn target(rng: &mut Rng, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len).map(|_| rng.range_f64(-7.5..7.5)).collect()
}

/// Full-outcome equality of 2/3/4-thread searches with the 1-thread one.
#[test]
fn every_thread_count_matches_serial() {
    check(
        CASES,
        |rng| target(rng, 1, 4),
        |target| {
            let p = GridQuadratic {
                target: target.clone(),
            };
            let config = BnbConfig::default();
            let serial = solve(&p, root_for(p.target.len()), &config, None, 1, None);
            for threads in 2..=4 {
                let out = solve(&p, root_for(p.target.len()), &config, None, threads, None);
                assert_outcomes_identical(&serial, &out, &format!("{threads} thread(s)"));
            }
        },
    );
}

/// Node budgets interrupt the parallel search at the same node, with
/// the same anytime incumbent — exact parity of interrupted runs.
#[test]
fn node_budget_parity() {
    check(
        CASES,
        |rng| (target(rng, 2, 4), 1 + rng.below(39)),
        |(target, max_nodes)| {
            let p = GridQuadratic {
                target: target.clone(),
            };
            let config = BnbConfig {
                max_nodes: *max_nodes,
                ..BnbConfig::default()
            };
            let serial = solve(&p, root_for(p.target.len()), &config, None, 1, None);
            for threads in [2, 4] {
                let out = solve(&p, root_for(p.target.len()), &config, None, threads, None);
                let label = format!("budget {max_nodes}, {threads} threads");
                assert_outcomes_identical(&serial, &out, &label);
            }
        },
    );
}

/// Seeded incumbents prune identically at every thread count.
#[test]
fn seeded_incumbent_parity() {
    check(
        CASES,
        |rng| (target(rng, 1, 4), rng.range_f64(0.0..30.0)),
        |(target, seed_cost)| {
            let p = GridQuadratic {
                target: target.clone(),
            };
            let dim = p.target.len();
            let seed = Some((vec![0.0; dim], *seed_cost));
            let config = BnbConfig::default();
            let serial = solve(&p, root_for(dim), &config, seed.clone(), 1, None);
            let out = solve(&p, root_for(dim), &config, seed.clone(), 3, None);
            assert_outcomes_identical(&serial, &out, "seeded, 3 threads");
        },
    );
}

/// A 1-thread search must stay on the calling thread: the same outcome as
/// the plain problem's, from a wrapper whose assessment *panics* if ever
/// called from a spawned thread — proof no pool was constructed.
#[test]
fn one_thread_pool_is_the_serial_code_path() {
    struct MainThreadOnly {
        inner: GridQuadratic,
        main: std::thread::ThreadId,
    }
    impl BoundingProblem for MainThreadOnly {
        fn assess(&self, node: &BoxNode, _index: usize) -> NodeAssessment {
            assert_eq!(
                std::thread::current().id(),
                self.main,
                "1-thread search must never leave the calling thread"
            );
            self.inner.assess_box(node)
        }
        fn is_terminal(&self, node: &BoxNode) -> bool {
            node.max_width() <= 1.0
        }
    }
    let inner = GridQuadratic {
        target: vec![1.3, -2.7, 0.4],
    };
    let p = MainThreadOnly {
        inner: inner.clone(),
        main: std::thread::current().id(),
    };
    let config = BnbConfig::default();
    let serial = solve(&inner, root_for(3), &config, None, 1, None);
    let out = solve(&p, root_for(3), &config, None, 1, None);
    assert_outcomes_identical(&serial, &out, "1-thread pool");
}
