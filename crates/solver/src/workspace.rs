//! Per-solve scratch for the barrier engine.
//!
//! Every Newton step of [`crate::barrier`] needs a gradient, a Hessian, a
//! Cholesky factor and a line-search trial point, and every barrier
//! evaluation needs the cone arguments `z = Ax + b`, `Aᵀz`, `∇ψ` and the
//! objective's `Q·x`. A [`Workspace`] is created once per solve and
//! threaded through phase I and phase II, so the steady state allocates
//! nothing: for a branch-and-bound run that solves one or two SOCPs per
//! node over thousands of nodes, per-step allocation used to be a
//! measurable slice of the per-node cost.
//!
//! Buffers resize on demand: phase I works in `n + 1` variables (the slack
//! augmentation), phase II in `n`, and `ensure` handles the switch.
//!
//! Soundness: every in-place operation used here is the bit-identical twin
//! of the allocating call it replaces (`copy_scaled_from` vs `scaled`,
//! `mul_vec_into` vs `mul_vec`), the factor is one [`Cholesky`] refilled
//! by `factorize` and read by `solve_into`, and every buffer is fully
//! rewritten before it is read, so a solve's iterates do not depend on what
//! an earlier solve left in the workspace — tested in `barrier.rs`.

use ldafp_linalg::{Cholesky, Matrix};

/// Reusable buffers for one SOCP solve (phase I + phase II).
#[derive(Debug)]
pub struct Workspace {
    /// Gradient of `t·f + φ`.
    pub(crate) grad: Vec<f64>,
    /// Negated gradient (the Newton right-hand side).
    pub(crate) neg_grad: Vec<f64>,
    /// Newton direction.
    pub(crate) delta: Vec<f64>,
    /// Line-search trial point.
    pub(crate) cand: Vec<f64>,
    /// Hessian assembly buffer (lower triangle assembled, then mirrored).
    pub(crate) hess: Matrix,
    /// Ridge-retry shifted-Hessian buffer.
    pub(crate) shifted: Matrix,
    /// The Newton system's factorization, refilled every step.
    pub(crate) chol: Cholesky,
    /// Barrier-evaluation scratch.
    pub(crate) eval: EvalScratch,
    /// Newton steps served from already-sized buffers (no allocation).
    pub(crate) newton_reuses: u64,
}

/// Vectors one barrier evaluation writes before reading.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    /// Cone argument `z = Ax + b`.
    pub(crate) z: Vec<f64>,
    /// `Aᵀz`.
    pub(crate) at_z: Vec<f64>,
    /// Cone gradient `∇ψ = 2u·d − 2Aᵀz`.
    pub(crate) grad_psi: Vec<f64>,
    /// Objective product `Q·x`.
    pub(crate) qx: Vec<f64>,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Workspace {
            grad: Vec::new(),
            neg_grad: Vec::new(),
            delta: Vec::new(),
            cand: Vec::new(),
            hess: Matrix::zeros(0, 0),
            shifted: Matrix::zeros(0, 0),
            chol: Cholesky::default(),
            eval: EvalScratch::default(),
            newton_reuses: 0,
        }
    }

    /// Sizes the Hessian buffer for `n` variables, reporting whether the
    /// buffers were already the right size (a "reuse" in the
    /// `solver.workspace_reuse` sense). Vector buffers are cleared and
    /// refilled by the consumers each step; only the matrix shape matters.
    pub(crate) fn ensure(&mut self, n: usize) -> bool {
        let ready = self.hess.dims() == (n, n);
        if !ready {
            self.hess = Matrix::zeros(n, n);
        }
        ready
    }

    /// Newton steps that ran entirely on reused buffers.
    #[must_use]
    pub fn newton_reuses(&self) -> u64 {
        self.newton_reuses
    }
}
