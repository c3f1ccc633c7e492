//! LDA-FP: training fixed-point linear classifiers for on-chip low-power
//! implementation.
//!
//! This crate is the reproduction of the primary contribution of
//! *"Computer-Aided Design of Machine Learning Algorithm: Training
//! Fixed-Point Classifier for On-Chip Low-Power Implementation"*
//! (Albalawi, Li & Li, DAC 2014):
//!
//! * [`LdaModel`] — conventional linear discriminant analysis (eq. 11),
//!   whose weights are *rounded after the fact* — the paper's baseline;
//! * [`FixedPointClassifier`] — a bit-exact `QK.F` classifier evaluated on
//!   the wrapping MAC datapath of `ldafp-fixedpoint`;
//! * [`TrainingProblem`] — the statistical core of formulation (21): scatter
//!   matrices from *quantized* training data plus the overflow constraints
//!   (eqs. 18 and 20) for a confidence level `ρ`;
//! * [`LdaFpTrainer`] — the paper's Algorithm 1: branch-and-bound over
//!   weight boxes, each bounded by its exact relaxation (one SOCP in the
//!   Charnes–Cooper variables `v = w/(dᵀw)`, `λ = 1/(dᵀw)`, in place of
//!   eqs. 25–26), with rounded upper bounds (eq. 27) and the incumbent
//!   heuristics documented in DESIGN.md;
//! * [`eval`] — fixed-point error rates and the 5-fold cross-validation
//!   protocol of Table 2.
//!
//! # Quickstart
//!
//! ```
//! use ldafp_core::{eval, LdaFpConfig, LdaFpTrainer, LdaModel};
//! use ldafp_datasets::demo2d;
//! use ldafp_fixedpoint::QFormat;
//!
//! # fn main() -> Result<(), ldafp_core::CoreError> {
//! let mut rng = ldafp_stats::Rng::new(7);
//! let data = demo2d::well_separated(200, &mut rng);
//! let format = QFormat::new(2, 4)?; // 6-bit words
//!
//! // Baseline: float LDA, then round.
//! let lda = LdaModel::train(&data)?;
//! let baseline = lda.quantized(format);
//!
//! // LDA-FP: optimize directly on the grid.
//! let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
//! let model = trainer.train(&data, format)?;
//!
//! let err_base = eval::error_rate(&baseline, &data);
//! let err_fp = eval::error_rate(model.classifier(), &data);
//! assert!(err_fp <= err_base + 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

mod classifier;
mod error;
pub mod eval;
pub mod exhaustive;
mod lda;
mod ldafp;
pub mod multiclass;
mod problem;

pub use classifier::FixedPointClassifier;
pub use error::CoreError;
// `LdaFpConfig.bnb` is part of this crate's public configuration surface;
// re-export its types so downstream crates (explore, bench, CLI) can set
// budgets without a direct `ldafp-bnb` dependency.
pub use lda::LdaModel;
pub use ldafp::{LdaFpConfig, LdaFpModel, LdaFpTrainer, TrainingOutcome};
pub use ldafp_bnb::{snapshot_fingerprint, BnbConfig, CheckpointPolicy, DegradationStats};
pub use problem::TrainingProblem;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
