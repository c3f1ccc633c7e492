//! Primal log-barrier interior-point solver for convex quadratic programs
//! with linear-inequality and second-order-cone constraints.
//!
//! This is the convex engine behind the branch-and-bound bounds. Each box's
//! relaxation is
//!
//! ```text
//! minimize    ½·xᵀQx + cᵀx
//! subject to  gᵢᵀx ≤ hᵢ                       (linear half-planes)
//!             ‖Aⱼx + bⱼ‖₂ ≤ dⱼᵀx + eⱼ        (second-order cones)
//! ```
//!
//! over `x = (u, λ)`, the Charnes–Cooper variables `v = w/(dᵀw)`,
//! `λ = 1/(dᵀw)` with `dᵀv = 1` solved for one coordinate of `v`: `Q` and
//! `c` carry `vᵀS_W v`, the half-planes are the node box `λ·lo ≤ v ≤ λ·hi`
//! (eq. 18 is folded into it), and the cones are the projection overflow
//! constraints (eq. 20) via the Cholesky factor of each class covariance,
//! made homogeneous in `(v, λ)`. See `ldafp-core`'s DESIGN.md §5.
//!
//! # Method
//!
//! A textbook two-phase primal barrier method (Boyd & Vandenberghe ch. 11):
//!
//! 1. **Phase I** finds a strictly feasible point by minimizing the maximum
//!    constraint violation `s` (bounded below by `s ≥ −1`), or certifies
//!    infeasibility — which branch-and-bound uses to prune boxes.
//! 2. **Phase II** minimizes `t·f(x) + φ(x)` by damped Newton with
//!    backtracking line search, increasing `t` geometrically until `m/t`
//!    (`m` the constraint count) is below tolerance. The reported gap
//!    bound is `θ/t` with `θ` the barrier degree, which counts each cone
//!    twice.
//!
//! Only the two tolerances are settings ([`SolverConfig`]); the barrier
//! schedule, the line search and phase I's [`FEASIBILITY_MARGIN`] are
//! constants.
//!
//! [`solve_with_recovery_checked`] retries a solve that fails numerically
//! on one fixed schedule: retry `i` solves the same problem at tolerances
//! loosened by `100^i`, from a warm start perturbed by a relative `1e-3·i`.
//!
//! # Example
//!
//! ```
//! use ldafp_solver::{SocpProblem, SolverConfig};
//! use ldafp_linalg::Matrix;
//!
//! # fn main() -> Result<(), ldafp_solver::SolverError> {
//! // minimize (x−2)² + (y−2)² s.t. x + y ≤ 2  → optimum at (1, 1).
//! let mut p = SocpProblem::new(Matrix::identity(2).scaled(2.0), vec![-4.0, -4.0])?;
//! p.add_linear(vec![1.0, 1.0], 2.0)?;
//! let sol = p.solve(&SolverConfig::default())?;
//! assert!((sol.x[0] - 1.0).abs() < 1e-6);
//! assert!((sol.x[1] - 1.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
mod error;
mod phase1;
mod problem;
mod recovery;
mod workspace;

pub use error::SolverError;
pub use problem::{
    KktReport, LinearConstraint, SocConstraint, SocpProblem, Solution, SolverConfig,
    FEASIBILITY_MARGIN,
};
pub use recovery::{error_kind, solve_with_recovery_checked, RecoveredSolution, RecoveryAttempt};
pub(crate) use workspace::Workspace;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, SolverError>;
