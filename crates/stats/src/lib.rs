//! Gaussian statistics substrate for the `lda-fp` workspace.
//!
//! The LDA-FP formulation leans on Gaussian machinery in three places:
//!
//! 1. the confidence multiplier `β = Φ⁻¹(0.5 + 0.5·ρ)` of eq. 16 needs the
//!    inverse standard-normal CDF ([`normal::inv_cdf`]);
//! 2. the synthetic and simulated-BCI workloads need multivariate Gaussian
//!    sampling ([`MultivariateGaussian`]);
//! 3. Table 2's evaluation protocol needs stratified k-fold cross-validation
//!    ([`StratifiedKFold`]).
//!
//! All of it is implemented here, with no external crates: `erf` via a
//! high-accuracy rational approximation, `Φ⁻¹` via Acklam's algorithm
//! polished with one step of Halley's method, sampling via
//! Cholesky-transformed standard normals drawn from the workspace's one
//! seeded generator ([`Rng`], SplitMix64). The [`rng`] module also holds the
//! seeded case loop ([`rng::check`]) that the property suites run on, and
//! [`fnv1a64`] is the one content hash behind every checksum and cache key.
//!
//! # Example
//!
//! ```
//! use ldafp_stats::normal;
//!
//! // β for a 99% two-sided confidence interval (paper's eq. 16 with ρ = 0.99)
//! let beta = normal::confidence_multiplier(0.99).unwrap();
//! assert!((beta - 2.5758).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crossval;
pub mod descriptive;
mod error;
mod fnv;
/// Multivariate Gaussian distributions and standard-normal sampling.
pub mod mvn;
pub mod normal;
pub mod rng;

pub use crossval::{KFoldSplit, StratifiedKFold};
pub use error::StatsError;
pub use fnv::{fnv1a64, FNV1A64_OFFSET};
pub use mvn::MultivariateGaussian;
pub use rng::Rng;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, StatsError>;
