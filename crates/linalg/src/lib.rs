//! Dense linear-algebra substrate for the `lda-fp` workspace.
//!
//! The offline dependency set available to this project contains no
//! linear-algebra crate, so everything the LDA-FP pipeline needs is
//! implemented here from scratch:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the usual algebra.
//! * [`vecops`] — slice-based vector kernels (dot products, norms, axpy, …).
//! * [`Cholesky`] — factorization of symmetric positive-definite matrices,
//!   with an optional relative ridge for nearly singular scatter matrices,
//!   reusable across same-sized factorizations.
//! * [`moments`] — sample mean / covariance / scatter estimators used by the
//!   LDA formulation (eqs. 1–6 of the paper).
//!
//! # Example
//!
//! ```
//! use ldafp_linalg::Matrix;
//!
//! # fn main() -> Result<(), ldafp_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let chol = a.cholesky()?;
//! let x = chol.solve(&[1.0, 2.0])?;
//! let r = a.mul_vec(&x)?;
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Dense numeric kernels read more clearly with explicit index loops.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod error;
mod matrix;
pub mod moments;
pub mod vecops;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
