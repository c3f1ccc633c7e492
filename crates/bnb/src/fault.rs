//! Deterministic fault injection for branch-and-bound soundness testing.
//!
//! Compiled only with the `fault-injection` cargo feature. A [`FaultPlan`]
//! decides — purely from a seed and the assessment index — which node
//! assessments are hit by a simulated solver failure, and a
//! [`FaultyProblem`] wraps any [`BoundingProblem`] to apply the plan the
//! way a *sound* consumer must: failed bounds degrade to a conservative
//! trivial bound (never pruning), infeasibility claims without a
//! certificate are distrusted, and candidates keep flowing from the inner
//! problem so incumbents survive.
//!
//! Because the plan is a pure function of `(seed, index)`, every faulted
//! run is exactly reproducible — the property tests assert that a faulted
//! search returns the *same incumbent* as the fault-free run while its
//! certification is downgraded.

use crate::{BoundingProblem, BoxNode, NodeAssessment, NodeDegradation};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The kind of failure injected into one node assessment.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The bound solve dies with a numerical error (after exhausting any
    /// recovery schedule): the assessment degrades to a trivial bound.
    Numerical,
    /// The solver falsely claims the box infeasible: a sound consumer
    /// refuses to prune and degrades to a trivial bound.
    Infeasible,
    /// The assessment is artificially slowed (exercises time budgets;
    /// forced at an index with [`FaultPlan::with_forced`]).
    Slow(Duration),
}

/// A seeded, deterministic schedule of injected faults.
///
/// Faults are drawn per assessment index from a SplitMix64 hash of
/// `(seed, index)` against the configured rates; specific indices can also
/// be forced to a given fault. `persist_attempts` models how stubborn each
/// fault is against a retrying solve path: attempts below it keep failing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    numerical_rate: f64,
    infeasible_rate: f64,
    persist_attempts: usize,
    forced: BTreeMap<usize, FaultKind>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; add rates or forced
    /// faults with the builder methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            numerical_rate: 0.0,
            infeasible_rate: 0.0,
            persist_attempts: usize::MAX,
            forced: BTreeMap::new(),
        }
    }

    /// Fraction of assessments hit by a numerical failure.
    #[must_use]
    pub fn with_numerical_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.numerical_rate = rate;
        self
    }

    /// Fraction of assessments hit by a spurious infeasibility claim.
    #[must_use]
    pub fn with_infeasible_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.infeasible_rate = rate;
        self
    }

    /// Forces a specific assessment index to a specific fault.
    #[must_use]
    pub fn with_forced(mut self, index: usize, kind: FaultKind) -> Self {
        self.forced.insert(index, kind);
        self
    }

    /// How many solve attempts each fault survives: attempts `< n` fail,
    /// attempt `n` succeeds. The default (`usize::MAX`) makes faults
    /// permanent; small values let a retry schedule recover.
    #[must_use]
    pub fn with_persist_attempts(mut self, n: usize) -> Self {
        self.persist_attempts = n;
        self
    }

    /// Whether solve attempt `attempt` (0-based) of a faulted node still
    /// fails under this plan.
    pub fn attempt_fails(&self, attempt: usize) -> bool {
        attempt < self.persist_attempts
    }

    /// The fault, if any, injected into assessment number `index`.
    pub fn fault_for(&self, index: usize) -> Option<FaultKind> {
        if let Some(kind) = self.forced.get(&index) {
            return Some(kind.clone());
        }
        // Uniform [0, 1) from a hash of (seed, index).
        let u = (splitmix64(self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 11)
            as f64
            / (1u64 << 53) as f64;
        if u < self.numerical_rate {
            Some(FaultKind::Numerical)
        } else if u < self.numerical_rate + self.infeasible_rate {
            Some(FaultKind::Infeasible)
        } else {
            None
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Wraps a [`BoundingProblem`], injecting the plan's faults the way a sound
/// consumer of an unreliable solver must respond to them.
///
/// `trivial_bound` is the consumer's problem-specific fallback bound — it
/// must genuinely lower-bound the cost everywhere (LDA-FP uses `0` since
/// the Fisher cost is nonnegative; a fully generic consumer uses `−∞`).
/// Candidates always come from the inner problem: candidate generation
/// needs no solver, which is exactly why a faulted search still finds the
/// true incumbent.
///
/// The plan is keyed on the *passed* serial index, not on a call counter
/// (concurrent callers have no usable call order), and the wrapper reports
/// [`BoundingProblem::exact_indexing`], so the parallel search disables
/// speculation and hands every assessment its true serial index. That is
/// what makes an `N`-thread faulted run inject the exact fault set — and
/// therefore produce the exact [`crate::DegradationStats`] — of the
/// 1-thread run.
#[derive(Debug)]
pub struct FaultyProblem<P> {
    inner: P,
    plan: FaultPlan,
    trivial_bound: f64,
    injected: AtomicUsize,
}

impl<P> FaultyProblem<P> {
    /// Wraps `inner` with the given plan and fallback bound.
    pub fn new(inner: P, plan: FaultPlan, trivial_bound: f64) -> Self {
        FaultyProblem {
            inner,
            plan,
            trivial_bound,
            injected: AtomicUsize::new(0),
        }
    }

    /// Number of assessments that were hit by an injected fault.
    pub fn injected(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }
}

impl<P: BoundingProblem> BoundingProblem for FaultyProblem<P> {
    fn assess(&self, node: &BoxNode, index: usize) -> NodeAssessment {
        let a = self.inner.assess(node, index);
        let Some(kind) = self.plan.fault_for(index) else {
            return a;
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        match kind {
            FaultKind::Slow(d) => {
                // Latency is injected by sleeping the assessing thread. At
                // one thread that inflates wall-clock time one-for-one; on a
                // pool, concurrent sleeps overlap, so total injected latency
                // scales down by the effective parallelism — the same way
                // real slow solves would. Time-budget tests must therefore
                // calibrate against the thread count they run with.
                std::thread::sleep(d);
                a
            }
            // The bound solve died: no bound, no infeasibility proof. Keep
            // the node alive with the trivial bound; candidates survive
            // because they do not need the solver.
            FaultKind::Numerical => NodeAssessment {
                lower_bound: Some(self.trivial_bound),
                candidate: a.candidate,
                degradation: Some(NodeDegradation::TrivialBound {
                    error_kind: "numerical-failure".to_string(),
                }),
            },
            // A spurious infeasibility claim. Pruning on it could discard
            // the optimum, so the sound response is to distrust the claim
            // and keep searching under the trivial bound.
            FaultKind::Infeasible => NodeAssessment {
                lower_bound: Some(self.trivial_bound),
                candidate: a.candidate,
                degradation: Some(NodeDegradation::SuspectInfeasible),
            },
        }
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        self.inner.is_terminal(node)
    }

    fn branch(&self, node: &BoxNode) -> Option<(usize, f64)> {
        self.inner.branch(node)
    }

    fn exact_indexing(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic() {
        let p = FaultPlan::new(42).with_numerical_rate(0.3);
        let a: Vec<_> = (0..100).map(|i| p.fault_for(i)).collect();
        let b: Vec<_> = (0..100).map(|i| p.fault_for(i)).collect();
        assert_eq!(a, b);
        let q = FaultPlan::new(43).with_numerical_rate(0.3);
        let c: Vec<_> = (0..100).map(|i| q.fault_for(i)).collect();
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn rates_roughly_respected() {
        let p = FaultPlan::new(7)
            .with_numerical_rate(0.25)
            .with_infeasible_rate(0.25);
        let hits = (0..1000).filter(|&i| p.fault_for(i).is_some()).count();
        assert!(
            (350..=650).contains(&hits),
            "≈50% expected over 1000 draws, got {hits}"
        );
    }

    #[test]
    fn forced_faults_override_rates() {
        let p = FaultPlan::new(0).with_forced(5, FaultKind::Infeasible);
        assert_eq!(p.fault_for(5), Some(FaultKind::Infeasible));
        assert_eq!(p.fault_for(6), None);
    }

    #[test]
    fn persistence_controls_attempt_failures() {
        let p = FaultPlan::new(0).with_persist_attempts(2);
        assert!(p.attempt_fails(0));
        assert!(p.attempt_fails(1));
        assert!(!p.attempt_fails(2));
        let permanent = FaultPlan::new(0);
        assert!(permanent.attempt_fails(1000));
    }
}
