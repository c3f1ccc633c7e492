//! Parallel branch-and-bound speedup gate: the 4-thread search must run
//! at least 1.5× faster than the serial one, on bit-identical outcomes.
//!
//! ```text
//! cargo test --release -p ldafp-bench --test bnb_par_gate
//! ```
//!
//! Methodology: the host is not guaranteed more than one core, so a
//! CPU-bound A/B cannot show scheduler overlap. The search therefore runs
//! in latency simulation: a synthetic eq.-(27)-shaped problem (separable
//! quadratic over a signed grid box) whose per-node assessment sleeps for
//! a fixed time, the way a real SOCP relaxation occupies the node for its
//! solve. Sleeps overlap across pool threads on any core count, so the
//! speedup isolates what the parallel frontier adds: concurrent child
//! assessment plus speculative precomputation.
//!
//! Every timed outcome is asserted bit-identical to the first serial one
//! before the speedup is judged: speed at unequal certified objectives
//! would be meaningless.

use ldafp_bnb::{solve, BnbConfig, BnbOutcome, BoundingProblem, BoxNode, NodeAssessment};
use std::time::{Duration, Instant};

/// Minimum serial over 4-thread wall-time ratio.
const GATE_SPEEDUP_4T: f64 = 1.5;

/// Minimize `Σ (xᵢ − cᵢ)²` over the integer grid in `[−4, 4]ᵐ`, sleeping
/// `latency` per node in place of the SOCP relaxation.
struct SimProblem {
    center: Vec<f64>,
    latency: Duration,
}

impl SimProblem {
    fn new(dims: usize, latency: Duration) -> SimProblem {
        // Deterministic off-grid optimum so rounding matters in every dim.
        let center = (0..dims)
            .map(|i| (i as f64 * 0.73 + 0.3).sin() * 3.0)
            .collect();
        SimProblem { center, latency }
    }

    fn root(&self) -> BoxNode {
        let m = self.center.len();
        BoxNode::new(vec![-4.0; m], vec![4.0; m]).expect("valid root box")
    }
}

impl BoundingProblem for SimProblem {
    fn assess(&self, node: &BoxNode, _index: usize) -> NodeAssessment {
        std::thread::sleep(self.latency);
        let mut bound = 0.0;
        let mut cand = Vec::with_capacity(self.center.len());
        for (d, &c) in self.center.iter().enumerate() {
            let proj = c.clamp(node.lower[d], node.upper[d]);
            bound += (proj - c) * (proj - c);
            cand.push(
                proj.round()
                    .clamp(node.lower[d].ceil(), node.upper[d].floor()),
            );
        }
        let cost = cand
            .iter()
            .zip(&self.center)
            .map(|(x, c)| (x - c) * (x - c))
            .sum();
        NodeAssessment::feasible(bound, Some((cand, cost)))
    }

    fn is_terminal(&self, node: &BoxNode) -> bool {
        (0..self.center.len()).all(|d| node.width(d) <= 1.0 + 1e-9)
    }
}

/// Panics unless two outcomes agree on everything but wall time.
fn assert_same_outcome(reference: &BnbOutcome, out: &BnbOutcome, threads: usize) {
    assert!(
        out.incumbent == reference.incumbent
            && out.best_lower_bound.to_bits() == reference.best_lower_bound.to_bits()
            && out.certified == reference.certified
            && out.stats == reference.stats,
        "{threads}-thread outcome diverged from serial: {out:?} vs {reference:?}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: run with --release")]
fn four_threads_search_at_least_one_and_a_half_times_faster() {
    let problem = SimProblem::new(4, Duration::from_micros(2_000));
    let bnb = BnbConfig::default();
    let reference = solve(&problem, problem.root(), &bnb, None, 1, None);
    assert!(reference.certified, "sim problem must certify");

    // Best of three per thread count; every run checked against the
    // reference before its time counts.
    let best_s = |threads: usize| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let out = solve(&problem, problem.root(), &bnb, None, threads, None);
            best = best.min(t.elapsed().as_secs_f64());
            assert_same_outcome(&reference, &out, threads);
        }
        best
    };
    let serial_s = best_s(1);
    let par4_s = best_s(4);

    let speedup = serial_s / par4_s;
    assert!(
        speedup >= GATE_SPEEDUP_4T,
        "4-thread speedup {speedup:.2}x < {GATE_SPEEDUP_4T}x on the latency-sim search \
         (serial {:.1} ms, 4 threads {:.1} ms, {} nodes, {} cores available)",
        1e3 * serial_s,
        1e3 * par4_s,
        reference.stats.nodes_assessed,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
}
