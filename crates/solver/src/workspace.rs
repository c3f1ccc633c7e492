//! Per-solve scratch for the barrier engine.
//!
//! Every Newton step of [`crate::barrier`] needs a gradient, a Hessian, a
//! Cholesky factor, the direct evaluation of its iterate (every slack and
//! every cone's `u`, `z` and `ψ`), the line search's per-step coefficients
//! and a trial point with its own evaluation. A [`Workspace`] is created
//! once per solve and threaded through phase I and phase II, so the steady
//! state allocates nothing: for a branch-and-bound run that solves one or
//! two SOCPs per node over thousands of nodes, per-step allocation used to
//! be a measurable slice of the per-node cost.
//!
//! Buffers resize on demand: phase I works in `n + 1` variables (the slack
//! augmentation), phase II in `n`, and `ensure` handles the switch.
//!
//! Soundness: every in-place operation used here is the bit-identical twin
//! of the allocating call it replaces (`copy_scaled_from` vs `scaled`,
//! `mul_vec_into` vs `mul_vec`), the factor is one [`Cholesky`] refilled
//! by `factorize` and read by `solve_into`, and every buffer is fully
//! rewritten before it is read. The one buffer read across steps, `point`,
//! is written by evaluating the start of each barrier minimization and
//! afterwards only by swapping in `trial` after it evaluated an accepted
//! candidate as strictly feasible, so it always describes the current
//! iterate. A solve's iterates therefore do not depend on what an earlier
//! solve left in the workspace — tested in `barrier.rs`.

use crate::barrier::{LineModel, PointEval};
use ldafp_linalg::{Cholesky, Matrix};
use std::time::{Duration, Instant};

/// Reusable buffers for one SOCP solve (phase I + phase II).
#[derive(Debug)]
pub(crate) struct Workspace {
    /// Gradient of `t·f + φ`.
    pub(crate) grad: Vec<f64>,
    /// Gradient of the objective, `Qx + c`.
    pub(crate) obj_grad: Vec<f64>,
    /// Negated gradient (the Newton right-hand side).
    pub(crate) neg_grad: Vec<f64>,
    /// Newton direction.
    pub(crate) delta: Vec<f64>,
    /// Line-search trial point.
    pub(crate) cand: Vec<f64>,
    /// Hessian assembly buffer (only the lower triangle is assembled and
    /// read; the upper holds `t·Q`).
    pub(crate) hess: Matrix,
    /// Ridge-retry shifted-Hessian buffer.
    pub(crate) shifted: Matrix,
    /// The Newton system's factorization, refilled every step.
    pub(crate) chol: Cholesky,
    /// The direct evaluation of the current iterate.
    pub(crate) point: PointEval,
    /// The direct evaluation of the line search's candidate.
    pub(crate) trial: PointEval,
    /// Gradient and Hessian assembly scratch.
    pub(crate) assembly: AssemblyScratch,
    /// The line search's coefficients for the current step.
    pub(crate) line: LineModel,
    /// Newton steps served from already-sized buffers (no allocation).
    pub(crate) newton_reuses: u64,
    /// Step lengths the line search has tried.
    pub(crate) line_search_trials: u64,
    /// The stage clock's last mark and the times split so far; `None`
    /// unless the solve is timed.
    pub(crate) timing: Option<(Instant, StageTimes)>,
}

/// Wall time of a solve's Newton steps, split by stage and summed over
/// phase I and phase II, plus the wall time of phase I as a whole and the
/// line search's trial count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageTimes {
    /// Gradient and Hessian assembly.
    pub(crate) assembly: Duration,
    /// Cholesky factorization, the Newton solve and its decrement.
    pub(crate) factor: Duration,
    /// Backtracking line search.
    pub(crate) line_search: Duration,
    /// Phase I, from building the auxiliary problem to its verdict.
    pub(crate) phase1: Duration,
    /// Step lengths tried by the line search.
    pub(crate) line_search_trials: u64,
}

/// Vectors the assembly of one cone's derivatives writes before reading.
#[derive(Debug, Default)]
pub(crate) struct AssemblyScratch {
    /// `Aᵀz`.
    pub(crate) at_z: Vec<f64>,
    /// Cone gradient `∇ψ = 2u·d − 2Aᵀz`.
    pub(crate) grad_psi: Vec<f64>,
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
            obj_grad: Vec::new(),
            neg_grad: Vec::new(),
            delta: Vec::new(),
            cand: Vec::new(),
            hess: Matrix::zeros(0, 0),
            shifted: Matrix::zeros(0, 0),
            chol: Cholesky::default(),
            point: PointEval::default(),
            trial: PointEval::default(),
            assembly: AssemblyScratch::default(),
            line: LineModel::default(),
            newton_reuses: 0,
            line_search_trials: 0,
            timing: None,
        }
    }

    /// Sets the stage clock's mark to now (a no-op for an untimed solve).
    pub(crate) fn mark(&mut self) {
        if let Some((mark, _)) = &mut self.timing {
            *mark = Instant::now();
        }
    }

    /// Adds the time since the last mark to `stage` and marks again (a
    /// no-op for an untimed solve).
    pub(crate) fn lap(&mut self, stage: fn(&mut StageTimes) -> &mut Duration) {
        if let Some((mark, times)) = &mut self.timing {
            let now = Instant::now();
            *stage(times) += now - *mark;
            *mark = now;
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
