//! Fault-injected parallel searches: an `N`-thread run under a
//! [`FaultPlan`] must inject the exact fault set of the 1-thread run and
//! therefore report identical [`DegradationStats`] — the merge across
//! workers loses nothing and invents nothing.

#![cfg(feature = "fault-injection")]

use ldafp_bnb::{
    solve, BnbConfig, BnbOutcome, BoundingProblem, BoxNode, FaultKind, FaultPlan, FaultyProblem,
    NodeAssessment,
};
use ldafp_stats::rng::check;
use ldafp_stats::Rng;
use std::time::Duration;

/// Minimize Σ (xᵢ − cᵢ)² over integer grid points inside the box.
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
                return NodeAssessment::feasible(lb, None);
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
    assert_eq!(
        serial.incumbent, parallel.incumbent,
        "{label}: incumbents differ"
    );
    assert_eq!(
        serial.best_lower_bound.to_bits(),
        parallel.best_lower_bound.to_bits(),
        "{label}: lower bounds differ"
    );
    assert_eq!(
        serial.certified, parallel.certified,
        "{label}: certificates differ"
    );
    assert_eq!(serial.stats, parallel.stats, "{label}: stats differ");
    assert_eq!(
        serial.stats.degradation, parallel.stats.degradation,
        "{label}: degradation accounting differs"
    );
}

/// N-thread DegradationStats merge equals serial counts on
/// fault-injected runs, for every fault mix the plan can generate.
#[test]
fn faulted_runs_degrade_identically_at_every_thread_count() {
    let case = |rng: &mut Rng| {
        let len = 1 + rng.below(3);
        let target: Vec<f64> = (0..len).map(|_| rng.range_f64(-7.5..7.5)).collect();
        let seed = rng.below(1_000) as u64;
        (
            target,
            seed,
            rng.range_f64(0.0..0.4),
            rng.range_f64(0.0..0.4),
        )
    };
    check(32, case, |(target, seed, numerical, infeasible)| {
        let plan = FaultPlan::new(*seed)
            .with_numerical_rate(*numerical)
            .with_infeasible_rate(*infeasible);
        let inner = GridQuadratic {
            target: target.clone(),
        };
        let dim = inner.target.len();
        let root = || BoxNode::new(vec![-8.0; dim], vec![8.0; dim]).unwrap();
        let config = BnbConfig::default();

        let serial_problem = FaultyProblem::new(inner.clone(), plan.clone(), 0.0);
        let serial = solve(&serial_problem, root(), &config, None, 1, None);
        let serial_injected = serial_problem.injected();

        for threads in [2, 4] {
            let shared = FaultyProblem::new(inner.clone(), plan.clone(), 0.0);
            let out = solve(&shared, root(), &config, None, threads, None);
            assert_outcomes_identical(&serial, &out, &format!("{threads} threads"));
            assert_eq!(
                shared.injected(),
                serial_injected,
                "{threads} threads: injected fault count diverged"
            );
        }
    });
}

/// Forced faults at known indices land on the same nodes in parallel runs,
/// including a `Slow` fault that sleeps on whichever pool thread assesses
/// the node.
#[test]
fn forced_fault_indices_hit_identically() {
    let plan = FaultPlan::new(7)
        .with_forced(0, FaultKind::Numerical)
        .with_forced(3, FaultKind::Slow(Duration::from_millis(2)))
        .with_forced(5, FaultKind::Infeasible);
    let inner = GridQuadratic {
        target: vec![1.3, -2.7],
    };
    let root = || BoxNode::new(vec![-8.0; 2], vec![8.0; 2]).unwrap();
    let config = BnbConfig::default();

    let serial_problem = FaultyProblem::new(inner.clone(), plan.clone(), 0.0);
    let serial = solve(&serial_problem, root(), &config, None, 1, None);
    assert!(
        serial.stats.degradation.trivial_bounds > 0,
        "forced numerical fault must degrade a node"
    );

    let shared = FaultyProblem::new(inner, plan, 0.0);
    let out = solve(&shared, root(), &config, None, 3, None);
    assert_outcomes_identical(&serial, &out, "forced faults, 3 threads");
    assert_eq!(shared.injected(), serial_problem.injected());
}
