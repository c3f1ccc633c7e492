//! # lda-fp — umbrella crate
//!
//! Re-exports the whole workspace behind one dependency. See the individual
//! crates for full documentation:
//!
//! * [`core`] — LDA / LDA-FP training and fixed-point classifiers.
//! * [`fixedpoint`] — bit-accurate `QK.F` arithmetic.
//! * [`kernels`] — SoA batches and vectorized wrapping-MAC kernels.
//! * [`solver`] — interior-point SOCP/QP solver.
//! * [`bnb`] — branch-and-bound framework.
//! * [`linalg`] — dense linear algebra.
//! * [`stats`] — Gaussian statistics and cross-validation.
//! * [`datasets`] — evaluation workload generators.
//! * [`hwmodel`] — power/area/energy models and gate-level datapath
//!   simulation.
//! * [`serve`] — model artifacts, integer-only batched inference and the
//!   hot-reload model registry; no wire format.
//! * [`net`] — both wire codecs (binary and JSON), the server (epoll
//!   loop, one request path, micro-batching) and `NetClient`, the one
//!   client for both codecs.
//! * [`models`] — pluggable fixed-point model families (naive Bayes,
//!   OS-ELM) on the wrapping-MAC datapath.
//! * [`explore`] — parallel design-space exploration (one search per
//!   design point), a persistent result cache, and Pareto reporting.
//! * [`obs`] — zero-cost-when-off tracing and metrics facade.

#![forbid(unsafe_code)]

pub use ldafp_bnb as bnb;
pub use ldafp_core as core;
pub use ldafp_datasets as datasets;
pub use ldafp_explore as explore;
pub use ldafp_fixedpoint as fixedpoint;
pub use ldafp_hwmodel as hwmodel;
pub use ldafp_kernels as kernels;
pub use ldafp_linalg as linalg;
pub use ldafp_models as models;
pub use ldafp_net as net;
pub use ldafp_obs as obs;
pub use ldafp_serve as serve;
pub use ldafp_solver as solver;
pub use ldafp_stats as stats;
