//! Property-based tests for the branch-and-bound framework, using a
//! discrete quadratic with a known closed-form optimum as the oracle.

use ldafp_bnb::{solve, BnbConfig, BoundingProblem, BoxNode, NodeAssessment};
use ldafp_stats::rng::check;
use ldafp_stats::Rng;

/// Minimize Σ (xᵢ − cᵢ)² over integer grid points inside the box.
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

/// Case count of every property in this file.
const CASES: u32 = 64;

/// Between `min_len` and `max_len - 1` values uniform in `[lo, hi)`.
fn floats(rng: &mut Rng, min_len: usize, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len).map(|_| rng.range_f64(lo..hi)).collect()
}

/// The certified optimum equals the closed-form nearest integer point.
#[test]
fn certified_optimum_is_exact() {
    check(
        CASES,
        |rng| floats(rng, 1, 4, -7.5, 7.5),
        |target| {
            let dim = target.len();
            let root = BoxNode::new(vec![-8.0; dim], vec![8.0; dim]).unwrap();
            let p = GridQuadratic {
                target: target.clone(),
            };
            let expected = p
                .best_integer_in(&vec![-8.0; dim], &vec![8.0; dim])
                .unwrap();
            let out = solve(&p, root, &BnbConfig::default(), None, 1, None);
            assert!(out.certified);
            let (_, cost) = out.incumbent.expect("feasible problem");
            assert!(
                (cost - expected.1).abs() < 1e-9,
                "bnb {cost} vs closed form {}",
                expected.1
            );
        },
    );
}

/// The final lower bound never exceeds the incumbent cost.
#[test]
fn lower_bound_below_incumbent() {
    check(
        CASES,
        |rng| (floats(rng, 1, 4, -7.5, 7.5), 1 + rng.below(199)),
        |(target, max_nodes)| {
            let dim = target.len();
            let root = BoxNode::new(vec![-8.0; dim], vec![8.0; dim]).unwrap();
            let p = GridQuadratic {
                target: target.clone(),
            };
            let cfg = BnbConfig {
                max_nodes: *max_nodes,
                ..BnbConfig::default()
            };
            let out = solve(&p, root, &cfg, None, 1, None);
            if let Some((_, cost)) = out.incumbent {
                assert!(
                    out.best_lower_bound <= cost + 1e-9,
                    "bound {} above incumbent {}",
                    out.best_lower_bound,
                    cost
                );
            }
        },
    );
}

/// Seeding with the known optimum never degrades the result, and the
/// seed survives when it is already optimal.
#[test]
fn incumbent_seed_respected() {
    check(
        CASES,
        |rng| floats(rng, 1, 3, -7.5, 7.5),
        |target| {
            let dim = target.len();
            let root = BoxNode::new(vec![-8.0; dim], vec![8.0; dim]).unwrap();
            let p = GridQuadratic {
                target: target.clone(),
            };
            let seed = p
                .best_integer_in(&vec![-8.0; dim], &vec![8.0; dim])
                .unwrap();
            let seed_cost = seed.1;
            let out = solve(&p, root, &BnbConfig::default(), Some(seed), 1, None);
            let (_, cost) = out.incumbent.expect("seeded");
            assert!(cost <= seed_cost + 1e-12);
        },
    );
}

/// Splitting any box yields children that exactly tile the parent.
#[test]
fn split_tiles_parent() {
    let case = |rng: &mut Rng| {
        let lower = floats(rng, 1, 5, -5.0, 0.0);
        let width = floats(rng, 1, 5, 0.1, 5.0);
        (lower, width, rng.range_f64(0.1..0.9))
    };
    check(CASES, case, |(lower, width, frac)| {
        let dim = lower.len().min(width.len());
        let lower = lower[..dim].to_vec();
        let upper: Vec<f64> = lower
            .iter()
            .zip(&width[..dim])
            .map(|(l, w)| l + w)
            .collect();
        let node = BoxNode::new(lower.clone(), upper.clone()).unwrap();
        let d = node.widest_dim();
        let at = node.lower[d] + frac * node.width(d);
        if let Some((a, b)) = node.split(d, at) {
            assert_eq!(a.lower, lower);
            assert_eq!(b.upper, upper);
            assert_eq!(a.upper[d], b.lower[d]);
            assert_eq!(a.depth, node.depth + 1);
        }
    });
}
