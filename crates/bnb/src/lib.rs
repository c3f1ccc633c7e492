//! Generic best-first branch-and-bound over axis-aligned boxes.
//!
//! This crate hosts the search skeleton of the paper's Algorithm 1 without
//! knowing anything about LDA: a [`BoundingProblem`] supplies lower bounds,
//! incumbent candidates, the branching rule and the terminal test, and
//! [`solve`] runs the classic best-first loop with pruning, budgets and
//! statistics — on the calling thread or on a worker pool, optionally
//! checkpointed to disk, with bit-identical outcomes either way.
//!
//! The division of labor mirrors the paper exactly:
//!
//! * Algorithm 1 steps 3–6 (interval selection, partitioning, bound-based
//!   pruning, termination) live here;
//! * the SOCP relaxation (eq. 25–27) that produces the bounds lives in
//!   `ldafp-core`, which implements [`BoundingProblem`].
//!
//! # Example
//!
//! A one-dimensional discrete quadratic: minimize `(x − 0.3)²` over the
//! integer grid in `[-4, 4]`.
//!
//! ```
//! use ldafp_bnb::{solve, BnbConfig, BoundingProblem, BoxNode, NodeAssessment};
//!
//! struct Quad;
//! impl BoundingProblem for Quad {
//!     fn assess(&self, node: &BoxNode, _index: usize) -> NodeAssessment {
//!         // Convex relaxation: distance from 0.3 to the interval, squared.
//!         let (lo, hi) = (node.lower[0], node.upper[0]);
//!         let proj = 0.3f64.clamp(lo, hi);
//!         let lower = (proj - 0.3).powi(2);
//!         // Feasible candidate: round the projection to the grid.
//!         let x = proj.round().clamp(lo.ceil(), hi.floor());
//!         NodeAssessment::feasible(lower, Some((vec![x], (x - 0.3).powi(2))))
//!     }
//!     fn is_terminal(&self, node: &BoxNode) -> bool {
//!         node.upper[0] - node.lower[0] <= 1.0
//!     }
//! }
//!
//! let root = BoxNode::new(vec![-4.0], vec![4.0]).unwrap();
//! // No seed incumbent, one thread, no checkpoint.
//! let out = solve(&Quad, root, &BnbConfig::default(), None, 1, None);
//! let (best, cost) = out.incumbent.unwrap();
//! assert_eq!(best, vec![0.0]);
//! assert!((cost - 0.09).abs() < 1e-12);
//! assert!(out.certified);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
#[cfg(feature = "fault-injection")]
mod fault;
mod node;
mod parallel;
mod search;

pub use checkpoint::{snapshot_fingerprint, CheckpointPolicy};
#[cfg(feature = "fault-injection")]
pub use fault::{FaultKind, FaultPlan, FaultyProblem};
pub use node::BoxNode;
pub use search::{
    solve, BnbConfig, BnbOutcome, BnbStats, BoundingProblem, DegradationStats, NodeAssessment,
    NodeDegradation,
};
