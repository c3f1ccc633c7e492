//! Bit-accurate `QK.F` two's-complement fixed-point arithmetic.
//!
//! This crate is the software model of the on-chip datapath the paper targets
//! (§3, Figure 3): numbers have `K` integer bits (including the sign bit) and
//! `F` fractional bits, stored in two's complement, with **wrapping**
//! overflow semantics by default.
//!
//! The centerpiece is [`mac_dot_traced`], a multiply-accumulate dot product
//! whose accumulator has the *same* word length as the operands and wraps on
//! every step; it is the oracle the serving kernels in `ldafp-kernels` are
//! pinned to. The paper's §3 observes that intermediate wrap-around is harmless as
//! long as the *final* sum is representable — a property this crate's test
//! suite verifies exhaustively for small formats and probabilistically for
//! large ones.
//!
//! # Example
//!
//! ```
//! use ldafp_fixedpoint::{QFormat, RoundingMode};
//!
//! # fn main() -> Result<(), ldafp_fixedpoint::FixedPointError> {
//! let q = QFormat::new(3, 0)?; // Q3.0: integers in [-4, 3]
//! let a = q.quantize(3.0, RoundingMode::NearestEven);
//! let b = q.quantize(-4.0, RoundingMode::NearestEven);
//! // 3 + 3 wraps to -2, but adding -4 wraps back: the final result is exact.
//! let sum = a.wrapping_add(a)?.wrapping_add(b)?;
//! assert_eq!(sum.to_f64(), 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod dot;
mod error;
mod format;
mod quantize;
mod value;

pub use dot::{exact_dot_value, mac_dot_traced, wide_dot, MacTrace};
pub use error::FixedPointError;
pub use format::{QFormat, RoundingMode};
pub use quantize::InputScale;
pub use value::Fx;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, FixedPointError>;
