//! `ldafp-serve` — model artifacts, an integer-only inference runtime and
//! a hot-reload model registry for LDA-FP classifiers.
//!
//! The paper trains classifiers whose deployed form is a handful of `QK.F`
//! integers and a wrapping MAC. This crate is the deployment half of that
//! story, in three layers:
//!
//! 1. **[`artifact`]** — a versioned, checksummed JSON envelope holding
//!    the exact raw two's-complement weights (never floats), the `QK.F`
//!    format, rounding mode, class labels, input-scaling metadata, and the
//!    training outcome. Save → load → predict is bit-identical to the
//!    in-memory model.
//! 2. **[`engine`]** — batched inference on the `ldafp-kernels` GEMM,
//!    which runs the same wrapping-MAC datapath training uses, with
//!    per-batch overflow/saturation counters and deterministic
//!    input-order results.
//! 3. **[`registry`]** — named engines behind one process, swapped
//!    atomically by a hot reload.
//!
//! The crate knows no wire format. The server is the evented loop in
//! `ldafp-net`, which hosts a registry and speaks both wire codecs (its
//! `binwire` and `jsonwire` modules); its `NetClient` is the client for
//! both.
//!
//! JSON is hand-rolled in `ldafp_obs::json` (object-key-sorted,
//! shortest-roundtrip floats) so the serving stack has zero dependencies
//! beyond the workspace's own crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod engine;
pub mod error;
pub mod registry;

pub use artifact::{ModelArtifact, ServedModel, TrainingInfo, FORMAT_VERSION};
pub use engine::{BatchOutput, BatchStats, InferenceEngine, Prediction};
pub use error::{Result, ServeError};
pub use ldafp_obs::json;
pub use registry::{ModelRegistry, ReloadOutcome, DEFAULT_MODEL_NAME};
