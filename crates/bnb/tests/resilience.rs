//! Resilience tests for the search framework: budget interplay, non-finite
//! data guards, and (with the `fault-injection` feature) seeded
//! fault-injection soundness properties.

use ldafp_bnb::{solve, BnbConfig, BoundingProblem, BoxNode, NodeAssessment, NodeDegradation};
use std::time::Duration;

/// Minimize Σ (xᵢ − cᵢ)² over integer grid points inside the box — the
/// closed-form oracle used throughout the bnb tests.
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

    fn best_integer_in(&self, lower: &[f64], upper: &[f64]) -> Option<(Vec<f64>, f64)> {
        let mut out = Vec::with_capacity(self.target.len());
        for ((&t, &l), &u) in self.target.iter().zip(lower).zip(upper) {
            let lo = l.ceil();
            let hi = u.floor();
            if lo > hi {
                return None;
            }
            out.push(t.round().clamp(lo, hi));
        }
        let c = self.cost(&out);
        Some((out, c))
    }
}

impl BoundingProblem for GridQuadratic {
    fn assess(&self, node: &BoxNode, _index: usize) -> NodeAssessment {
        let proj: Vec<f64> = self
            .target
            .iter()
            .zip(node.lower.iter().zip(&node.upper))
            .map(|(&t, (&l, &u))| t.clamp(l, u))
            .collect();
        let lb = self.cost(&proj);
        match self.best_integer_in(&node.lower, &node.upper) {
            Some((x, c)) => NodeAssessment::feasible(lb, Some((x, c))),
            None => {
                if node.max_width() < 1.0 {
                    NodeAssessment::infeasible()
                } else {
                    NodeAssessment::feasible(lb, None)
                }
            }
        }
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        node.max_width() <= 1.0
    }
}

// ---------------------------------------------------------------------------
// Budget interplay: max_nodes and time_budget active simultaneously.
// ---------------------------------------------------------------------------

#[test]
fn node_budget_binds_before_generous_time_budget() {
    let p = GridQuadratic {
        target: vec![0.3; 5],
    };
    let root = BoxNode::new(vec![-64.0; 5], vec![64.0; 5]).unwrap();
    let cfg = BnbConfig {
        max_nodes: 9,
        time_budget: Some(Duration::from_secs(3600)),
        ..BnbConfig::default()
    };
    let out = solve(&p, root, &cfg, None, 1, None);
    assert!(!out.certified);
    assert!(
        out.incumbent.is_some(),
        "anytime: incumbent survives budget"
    );
    assert!(
        out.stats.nodes_assessed <= 11,
        "root + one expansion batch past the limit"
    );
}

#[test]
fn time_budget_binds_before_generous_node_budget() {
    let p = GridQuadratic {
        target: vec![0.5; 4],
    };
    let root = BoxNode::new(vec![-1000.0; 4], vec![1000.0; 4]).unwrap();
    let cfg = BnbConfig {
        max_nodes: usize::MAX,
        time_budget: Some(Duration::ZERO),
        ..BnbConfig::default()
    };
    let out = solve(&p, root, &cfg, None, 1, None);
    assert!(!out.certified);
    assert!(out.incumbent.is_some());
}

#[test]
fn both_budgets_generous_still_certifies() {
    let p = GridQuadratic {
        target: vec![2.7, -1.1],
    };
    let root = BoxNode::new(vec![-16.0; 2], vec![16.0; 2]).unwrap();
    let cfg = BnbConfig {
        max_nodes: 1_000_000,
        time_budget: Some(Duration::from_secs(3600)),
        ..BnbConfig::default()
    };
    let out = solve(&p, root, &cfg, None, 1, None);
    assert!(out.certified);
    let (x, _) = out.incumbent.unwrap();
    assert_eq!(x, vec![3.0, -1.0]);
}

#[test]
fn budget_exhaustion_keeps_valid_global_bound() {
    let p = GridQuadratic {
        target: vec![0.3, 0.7, -0.2],
    };
    let root = BoxNode::new(vec![-32.0; 3], vec![32.0; 3]).unwrap();
    let cfg = BnbConfig {
        max_nodes: 15,
        time_budget: Some(Duration::from_secs(3600)),
        ..BnbConfig::default()
    };
    let out = solve(&p, root, &cfg, None, 1, None);
    let (_, cost) = out.incumbent.expect("feasible");
    assert!(out.best_lower_bound <= cost + 1e-9);
}

// ---------------------------------------------------------------------------
// Non-finite guards: NaN bounds and candidates must never corrupt search.
// ---------------------------------------------------------------------------

/// Delegates to GridQuadratic but corrupts some assessments with NaN: the
/// `n`-th assessment (1-based, `n = index + 1`) gets a NaN bound when `n`
/// is a multiple of `nan_bound_every`, a NaN candidate cost when it is a
/// multiple of `nan_candidate_every`.
struct NanBounds {
    inner: GridQuadratic,
    nan_bound_every: usize,
    nan_candidate_every: usize,
}

impl BoundingProblem for NanBounds {
    fn assess(&self, node: &BoxNode, index: usize) -> NodeAssessment {
        let count = index + 1;
        let mut a = self.inner.assess(node, index);
        if self.nan_bound_every > 0 && count.is_multiple_of(self.nan_bound_every) {
            if let Some(lb) = a.lower_bound.as_mut() {
                *lb = f64::NAN;
            }
        }
        if self.nan_candidate_every > 0 && count.is_multiple_of(self.nan_candidate_every) {
            if let Some((_, cost)) = a.candidate.as_mut() {
                *cost = f64::NAN;
            }
        }
        a
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        self.inner.is_terminal(node)
    }
}

#[test]
fn nan_bounds_are_sanitized_not_heaped() {
    let p = NanBounds {
        inner: GridQuadratic {
            target: vec![2.7, -1.4],
        },
        nan_bound_every: 3,
        nan_candidate_every: 0,
    };
    let root = BoxNode::new(vec![-16.0; 2], vec![16.0; 2]).unwrap();
    let out = solve(&p, root, &BnbConfig::default(), None, 1, None);
    // A NaN bound becomes −∞ (never prunes), so the true optimum survives.
    let (x, _) = out.incumbent.expect("feasible");
    assert_eq!(x, vec![3.0, -1.0]);
    assert!(out.stats.degradation.rejected_bounds > 0);
    assert!(
        !out.certified,
        "sanitized data must downgrade certification"
    );
}

#[test]
fn nan_candidates_are_dropped_not_adopted() {
    let p = NanBounds {
        inner: GridQuadratic { target: vec![1.2] },
        nan_bound_every: 0,
        nan_candidate_every: 1, // every candidate cost is NaN
    };
    let root = BoxNode::new(vec![-8.0], vec![8.0]).unwrap();
    let out = solve(&p, root, &BnbConfig::default(), None, 1, None);
    // All candidates rejected → no incumbent, but also no NaN adoption.
    assert!(out.incumbent.is_none());
    assert!(out.stats.degradation.rejected_candidates > 0);
    assert!(!out.certified);
}

// ---------------------------------------------------------------------------
// Degradation accounting plumbing.
// ---------------------------------------------------------------------------

/// Marks every assessment as a recovered solve.
struct AlwaysRecovered(GridQuadratic);

impl BoundingProblem for AlwaysRecovered {
    fn assess(&self, node: &BoxNode, index: usize) -> NodeAssessment {
        self.0
            .assess(node, index)
            .with_degradation(NodeDegradation::Recovered {
                attempts: 2,
                error_kind: "numerical-failure".to_string(),
            })
    }
    fn is_terminal(&self, node: &BoxNode) -> bool {
        self.0.is_terminal(node)
    }
}

#[test]
fn recovered_solves_are_counted_and_downgrade_certification() {
    let p = AlwaysRecovered(GridQuadratic { target: vec![2.7] });
    let root = BoxNode::new(vec![-8.0], vec![8.0]).unwrap();
    let out = solve(&p, root, &BnbConfig::default(), None, 1, None);
    // Recovered bounds are still valid → the right answer is found…
    let (x, _) = out.incumbent.unwrap();
    assert_eq!(x, vec![3.0]);
    // …but the run is accounted degraded, not certified.
    assert!(!out.certified);
    assert_eq!(
        out.stats.degradation.recovered_solves,
        out.stats.nodes_assessed
    );
    assert_eq!(
        out.stats.degradation.solver_errors.get("numerical-failure"),
        Some(&out.stats.nodes_assessed)
    );
    assert!(out.stats.degradation.degraded_assessments() > 0);
}

// ---------------------------------------------------------------------------
// Seeded fault injection (feature-gated).
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
mod faulted {
    use super::*;
    use ldafp_bnb::{FaultKind, FaultPlan, FaultyProblem};
    use ldafp_stats::rng::check;
    use ldafp_stats::Rng;

    fn optimum(target: &[f64]) -> (Vec<f64>, f64) {
        let p = GridQuadratic {
            target: target.to_vec(),
        };
        let dim = target.len();
        p.best_integer_in(&vec![-8.0; dim], &vec![8.0; dim])
            .unwrap()
    }

    #[test]
    fn forced_infeasible_fault_cannot_prune_optimum() {
        let target = vec![2.7, -1.4];
        // Force a spurious infeasibility claim on the root and first child.
        let plan = FaultPlan::new(1)
            .with_forced(0, FaultKind::Infeasible)
            .with_forced(1, FaultKind::Infeasible);
        let inner = GridQuadratic {
            target: target.clone(),
        };
        let p = FaultyProblem::new(inner, plan, 0.0);
        let root = BoxNode::new(vec![-8.0; 2], vec![8.0; 2]).unwrap();
        let out = solve(&p, root, &BnbConfig::default(), None, 1, None);
        let (x, _) = out.incumbent.expect("optimum must survive");
        assert_eq!(x, vec![3.0, -1.0]);
        assert!(out.stats.degradation.suspect_infeasible >= 2);
        assert!(!out.certified);
    }

    /// Case count of every property in this module.
    const CASES: u32 = 48;

    /// With ≥20% of assessments faulted, the search returns the same
    /// incumbent as the fault-free run and flags itself degraded.
    #[test]
    fn faulted_run_matches_fault_free_incumbent() {
        let case = |rng: &mut Rng| {
            let len = 1 + rng.below(3);
            let target: Vec<f64> = (0..len).map(|_| rng.range_f64(-7.5..7.5)).collect();
            (target, rng.below(1_000) as u64)
        };
        check(CASES, case, |(target, seed)| {
            let dim = target.len();
            let root = BoxNode::new(vec![-8.0; dim], vec![8.0; dim]).unwrap();

            // Fault-free reference run.
            let clean = GridQuadratic {
                target: target.clone(),
            };
            let reference = solve(&clean, root.clone(), &BnbConfig::default(), None, 1, None);
            let (_, ref_cost) = reference.incumbent.clone().expect("feasible");
            assert!(reference.certified);

            // Faulted run: 15% numerical + 10% spurious-infeasible = 25%.
            let plan = FaultPlan::new(*seed)
                .with_numerical_rate(0.15)
                .with_infeasible_rate(0.10);
            let inner = GridQuadratic {
                target: target.clone(),
            };
            let faulty = FaultyProblem::new(inner, plan, 0.0);
            let out = solve(&faulty, root, &BnbConfig::default(), None, 1, None);

            // Soundness: the incumbent cost matches the fault-free optimum
            // exactly — the optimum was never pruned.
            let (_, cost) = out.incumbent.clone().expect("incumbent still returned");
            assert!(
                (cost - ref_cost).abs() < 1e-12,
                "faulted cost {cost} vs fault-free {ref_cost}"
            );
            assert!((cost - optimum(target).1).abs() < 1e-12);

            // Accounting: injected faults show up in the stats, and any
            // degradation kills the certificate.
            if faulty.injected() > 0 {
                assert!(!out.certified);
                assert!(out.stats.degradation.degraded_assessments() >= faulty.injected());
            } else {
                assert!(out.certified);
            }
        });
    }

    /// The plan itself injects at the configured rate (sanity check
    /// that "≥20% of assessments" in the acceptance criteria is real).
    #[test]
    fn plans_hit_configured_rate() {
        check(
            CASES,
            |rng| rng.below(1_000) as u64,
            |&seed| {
                let plan = FaultPlan::new(seed)
                    .with_numerical_rate(0.15)
                    .with_infeasible_rate(0.10);
                let hits = (0..2_000).filter(|&i| plan.fault_for(i).is_some()).count();
                // 25% ± generous slack over 2000 draws.
                assert!((400..=600).contains(&hits), "{hits} hits");
            },
        );
    }
}
