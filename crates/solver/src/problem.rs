use crate::workspace::StageTimes;
use crate::{Result, SolverError};
use ldafp_linalg::{vecops, Matrix};
use ldafp_obs as obs;
use std::time::Instant;

/// A linear inequality `gᵀx ≤ h`.
///
/// Constraints are only built by [`SocpProblem`], which records the
/// nonzero support of `g` once so the barrier engine touches only those
/// coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearConstraint {
    /// Constraint normal `g`.
    pub g: Vec<f64>,
    /// Right-hand side `h`.
    pub h: f64,
    /// Ascending indices of the nonzero entries of `g`.
    pub(crate) support: Vec<usize>,
}

impl LinearConstraint {
    fn new(g: Vec<f64>, h: f64) -> Self {
        let support = (0..g.len()).filter(|&i| g[i] != 0.0).collect();
        LinearConstraint { g, h, support }
    }

    /// `gᵀx` over the nonzero support of `g`.
    pub(crate) fn dot(&self, x: &[f64]) -> f64 {
        self.support.iter().map(|&i| self.g[i] * x[i]).sum()
    }

    /// Signed violation `gᵀx − h` (`≤ 0` means satisfied).
    pub fn violation(&self, x: &[f64]) -> f64 {
        vecops::dot(&self.g, x) - self.h
    }
}

/// A second-order-cone constraint `‖A·x + b‖₂ ≤ dᵀx + e`.
///
/// The paper's projection-overflow constraints (eq. 20) take this shape with
/// `A = β·Lᵀ` (Cholesky factor of a class covariance), `b = 0`, and
/// `(d, e)` encoding the affine range bound.
///
/// Like [`LinearConstraint`], cones are only built by [`SocpProblem`],
/// which records each row's nonzero column span once (the upper-triangular
/// `β·Lᵀ` rows of eq. 20 then cost half a dense row each) and forms the
/// Gram matrix `AᵀA` once, so the barrier Hessian's cone term is one
/// `O(n²)` scaling per Newton step.
#[derive(Debug, Clone, PartialEq)]
pub struct SocConstraint {
    /// Cone matrix `A` (`p × n`).
    pub a: Matrix,
    /// Cone offset `b` (`p`).
    pub b: Vec<f64>,
    /// Affine slope `d` (`n`).
    pub d: Vec<f64>,
    /// Affine offset `e`.
    pub e: f64,
    /// Per row of `A`, the half-open column range from its first to its
    /// last nonzero entry (`lo == hi` for an all-zero row).
    pub(crate) spans: Vec<(usize, usize)>,
    /// `G = AᵀA` (`n × n`), lower triangle only; the upper triangle is 0.
    pub(crate) gram: Matrix,
}

impl SocConstraint {
    fn new(a: Matrix, b: Vec<f64>, d: Vec<f64>, e: f64) -> Self {
        let spans: Vec<(usize, usize)> = (0..a.rows())
            .map(|r| {
                let row = a.row(r);
                let lo = row.iter().position(|&v| v != 0.0).unwrap_or(0);
                let hi = row.iter().rposition(|&v| v != 0.0).map_or(lo, |i| i + 1);
                (lo, hi)
            })
            .collect();
        let gram = gram_lower(&a, &spans);
        SocConstraint {
            a,
            b,
            d,
            e,
            spans,
            gram,
        }
    }

    /// `u(x) = dᵀx + e`, the affine right-hand side.
    pub fn u(&self, x: &[f64]) -> f64 {
        vecops::dot(&self.d, x) + self.e
    }

    /// `z(x) = A·x + b`, the cone argument.
    pub fn z(&self, x: &[f64]) -> Vec<f64> {
        let mut z = self.a.mul_vec(x).expect("validated dimensions");
        for (zi, bi) in z.iter_mut().zip(&self.b) {
            *zi += bi;
        }
        z
    }

    /// Signed violation `‖z‖ − u` (`≤ 0` means satisfied).
    pub fn violation(&self, x: &[f64]) -> f64 {
        vecops::norm2(&self.z(x)) - self.u(x)
    }
}

/// The lower triangle of `AᵀA`, summed over the rows of `A` in order, each
/// row over its `spans` entry. The products skipped outside a span are
/// exact zeros, so any spans covering the nonzeros give the same bits.
fn gram_lower(a: &Matrix, spans: &[(usize, usize)]) -> Matrix {
    let mut gram = Matrix::zeros(a.cols(), a.cols());
    for (r, &(lo, hi)) in spans.iter().enumerate() {
        let row = a.row(r);
        for i in lo..hi {
            let ai = row[i];
            for (g, &aj) in gram.row_mut(i)[lo..=i].iter_mut().zip(&row[lo..=i]) {
                *g += ai * aj;
            }
        }
    }
    gram
}

/// Phase I accepts a start point when its max violation is below
/// `−FEASIBILITY_MARGIN`; otherwise the problem is declared infeasible.
pub const FEASIBILITY_MARGIN: f64 = 1e-9;

/// Solver tolerances: the two values that phase I and the recovery retries
/// change. The barrier schedule and line search are fixed (see
/// `barrier.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Target duality-gap bound `m/t` at which the outer loop stops.
    pub tol: f64,
    /// Newton-decrement threshold (`λ²/2`) for each centering stage.
    pub newton_tol: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            tol: 1e-8,
            newton_tol: 1e-10,
        }
    }
}

/// Solution of a [`SocpProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The minimizer found.
    pub x: Vec<f64>,
    /// Objective value `½ xᵀQx + cᵀx` at `x`.
    pub objective: f64,
    /// Upper bound on the duality gap at exit (`θ/t`, with `θ` the
    /// barrier degree, see [`SocpProblem::barrier_degree`]).
    pub duality_gap_bound: f64,
    /// Total Newton steps spent (phase I + phase II).
    pub newton_steps: usize,
    /// The part of `newton_steps` spent in phase I.
    pub phase1_steps: usize,
    /// Outer barrier stages executed in phase II.
    pub stages: usize,
    /// Final barrier weight `t` — the input to [`SocpProblem::kkt_report`].
    pub barrier_t: f64,
}

/// A convex QP with linear and second-order-cone constraints:
///
/// ```text
/// minimize    ½ xᵀQx + cᵀx
/// subject to  gᵢᵀx ≤ hᵢ,    ‖Aⱼx + bⱼ‖ ≤ dⱼᵀx + eⱼ
/// ```
///
/// See the crate docs for the mapping from a search box's relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct SocpProblem {
    n: usize,
    q: Matrix,
    c: Vec<f64>,
    /// A constant term of the caller's objective: never minimized, only
    /// added by [`SocpProblem::lower_bound`].
    constant: f64,
    linear: Vec<LinearConstraint>,
    soc: Vec<SocConstraint>,
}

impl SocpProblem {
    /// Creates a problem with objective `½ xᵀQx + cᵀx`.
    ///
    /// `q` is symmetrized on entry (`(Q+Qᵀ)/2`). Positive semidefiniteness
    /// is *assumed* (the barrier Newton system regularizes mildly if the
    /// numerical factorization complains) — the LDA-FP relaxation always
    /// supplies a scatter matrix, which is PSD by construction.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] on dimension mismatch or
    /// non-finite data.
    pub fn new(mut q: Matrix, c: Vec<f64>) -> Result<Self> {
        if !q.is_square() || q.rows() != c.len() || c.is_empty() {
            return Err(SolverError::InvalidProblem {
                reason: format!(
                    "objective dimensions disagree: Q is {}x{}, c has length {}",
                    q.rows(),
                    q.cols(),
                    c.len()
                ),
            });
        }
        if !q.is_finite() || !vecops::is_finite(&c) {
            return Err(SolverError::InvalidProblem {
                reason: "non-finite objective data".to_string(),
            });
        }
        q.symmetrize().expect("square by checked construction");
        Ok(SocpProblem {
            n: c.len(),
            q,
            c,
            constant: 0.0,
            linear: Vec::new(),
            soc: Vec::new(),
        })
    }

    /// Sets the constant term of the caller's objective `½ xᵀQx + cᵀx +
    /// constant` (0 by default). The solver minimizes without it; it
    /// enters only [`Self::lower_bound`], and through it the traced
    /// `solver.solved` event's `bound`.
    pub fn set_objective_constant(&mut self, constant: f64) {
        self.constant = constant;
    }

    /// A lower bound on the minimum of `½ xᵀQx + cᵀx + constant` from a
    /// solve of this problem: the objective at the final centered point
    /// lies within the duality-gap bound above the minimum, so the bound
    /// subtracts it, then adds the constant.
    pub fn lower_bound(&self, solution: &Solution) -> f64 {
        solution.objective - solution.duality_gap_bound + self.constant
    }

    /// Number of optimization variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraints (linear + cone).
    pub fn num_constraints(&self) -> usize {
        self.linear.len() + self.soc.len()
    }

    /// Degree `θ` of the log barrier: 1 per linear constraint and 2 per
    /// cone (`−log(u² − ‖z‖²)` is a degree-2 barrier). A point centered at
    /// barrier weight `t` is within `θ/t` of the optimum.
    pub fn barrier_degree(&self) -> usize {
        self.linear.len() + 2 * self.soc.len()
    }

    /// Borrow the quadratic term.
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// Borrow the linear term.
    pub fn c(&self) -> &[f64] {
        &self.c
    }

    /// Borrow the linear constraints.
    pub fn linear_constraints(&self) -> &[LinearConstraint] {
        &self.linear
    }

    /// Borrow the cone constraints.
    pub fn soc_constraints(&self) -> &[SocConstraint] {
        &self.soc
    }

    /// Adds `gᵀx ≤ h`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] on wrong length or
    /// non-finite data.
    pub fn add_linear(&mut self, g: Vec<f64>, h: f64) -> Result<()> {
        if g.len() != self.n {
            return Err(SolverError::InvalidProblem {
                reason: format!(
                    "linear constraint has {} coefficients, expected {}",
                    g.len(),
                    self.n
                ),
            });
        }
        if !vecops::is_finite(&g) || !h.is_finite() {
            return Err(SolverError::InvalidProblem {
                reason: "non-finite linear constraint".to_string(),
            });
        }
        self.linear.push(LinearConstraint::new(g, h));
        Ok(())
    }

    /// Adds the box `lo ≤ x ≤ hi` as `2n` linear constraints.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] on length mismatch, a
    /// dimension with `lo > hi`, or non-finite bounds.
    pub fn add_box(&mut self, lo: &[f64], hi: &[f64]) -> Result<()> {
        if lo.len() != self.n || hi.len() != self.n {
            return Err(SolverError::InvalidProblem {
                reason: "box bound length mismatch".to_string(),
            });
        }
        for (i, (&l, &u)) in lo.iter().zip(hi).enumerate() {
            if !(l.is_finite() && u.is_finite()) || l > u {
                return Err(SolverError::InvalidProblem {
                    reason: format!("invalid box bounds at dimension {i}: [{l}, {u}]"),
                });
            }
        }
        for i in 0..self.n {
            let mut g = vec![0.0; self.n];
            g[i] = 1.0;
            self.linear.push(LinearConstraint::new(g, hi[i]));
            let mut g = vec![0.0; self.n];
            g[i] = -1.0;
            self.linear.push(LinearConstraint::new(g, -lo[i]));
        }
        Ok(())
    }

    /// Adds `‖A·x + b‖ ≤ dᵀx + e`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] on dimension mismatches or
    /// non-finite data.
    pub fn add_soc(&mut self, a: Matrix, b: Vec<f64>, d: Vec<f64>, e: f64) -> Result<()> {
        if a.cols() != self.n || a.rows() != b.len() || d.len() != self.n {
            return Err(SolverError::InvalidProblem {
                reason: format!(
                    "cone dimensions disagree: A is {}x{}, b has {}, d has {}",
                    a.rows(),
                    a.cols(),
                    b.len(),
                    d.len()
                ),
            });
        }
        if !a.is_finite() || !vecops::is_finite(&b) || !vecops::is_finite(&d) || !e.is_finite() {
            return Err(SolverError::InvalidProblem {
                reason: "non-finite cone data".to_string(),
            });
        }
        self.soc.push(SocConstraint::new(a, b, d, e));
        Ok(())
    }

    /// The phase-I problem over `(x, s)`: every constraint relaxed by the
    /// slack `s`, plus `s ≥ −1`, minimizing `s`. Supports and spans carry
    /// over from `self` (the slack adds index `n` to each linear support;
    /// the cone matrices gain a zero column, so their Gram matrices gain a
    /// zero row and column).
    pub(crate) fn phase1_problem(&self) -> SocpProblem {
        let n = self.n;
        let aux_n = n + 1;
        let mut c = vec![0.0; aux_n];
        c[n] = 1.0;
        let mut linear = Vec::with_capacity(self.linear.len() + 1);
        for lc in &self.linear {
            let mut g = lc.g.clone();
            g.push(-1.0);
            let mut support = lc.support.clone();
            support.push(n);
            linear.push(LinearConstraint {
                g,
                h: lc.h,
                support,
            });
        }
        // Boundedness: s ≥ −1 ⟺ −s ≤ 1.
        let mut g = vec![0.0; aux_n];
        g[n] = -1.0;
        linear.push(LinearConstraint::new(g, 1.0));
        let soc = self
            .soc
            .iter()
            .map(|sc| {
                let mut a = Matrix::zeros(sc.a.rows(), aux_n);
                for r in 0..sc.a.rows() {
                    a.row_mut(r)[..n].copy_from_slice(sc.a.row(r));
                }
                let mut gram = Matrix::zeros(aux_n, aux_n);
                for i in 0..n {
                    gram.row_mut(i)[..n].copy_from_slice(sc.gram.row(i));
                }
                let mut d = sc.d.clone();
                d.push(1.0);
                SocConstraint {
                    a,
                    b: sc.b.clone(),
                    d,
                    e: sc.e,
                    spans: sc.spans.clone(),
                    gram,
                }
            })
            .collect();
        SocpProblem {
            n: aux_n,
            q: Matrix::zeros(aux_n, aux_n),
            c,
            constant: 0.0,
            linear,
            soc,
        }
    }

    /// A copy whose every linear support and cone span covers all `n`
    /// columns: the structure-blind evaluation the sparse path must match.
    #[cfg(test)]
    pub(crate) fn with_dense_support(&self) -> SocpProblem {
        let mut p = self.clone();
        for lc in &mut p.linear {
            lc.support = (0..self.n).collect();
        }
        for sc in &mut p.soc {
            sc.spans = vec![(0, self.n); sc.a.rows()];
            sc.gram = gram_lower(&sc.a, &sc.spans);
        }
        p
    }

    /// Objective `½ xᵀQx + cᵀx`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_vars()`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let qx = self.q.mul_vec(x).expect("validated dimensions");
        0.5 * vecops::dot(x, &qx) + vecops::dot(&self.c, x)
    }

    /// Largest signed constraint violation at `x` (`≤ 0` means feasible;
    /// `−∞` for an unconstrained problem).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = f64::NEG_INFINITY;
        for lc in &self.linear {
            worst = worst.max(lc.violation(x));
        }
        for sc in &self.soc {
            worst = worst.max(sc.violation(x));
        }
        worst
    }

    /// True when every constraint holds with at least `margin` slack.
    pub fn is_strictly_feasible(&self, x: &[f64], margin: f64) -> bool {
        self.max_violation(x) < -margin
    }

    /// Solves the problem, running phase I from the origin.
    ///
    /// # Errors
    ///
    /// * [`SolverError::Infeasible`] when no strictly feasible point exists
    ///   (within the configured margin).
    /// * [`SolverError::NumericalFailure`] when Newton stalls.
    pub fn solve(&self, config: &SolverConfig) -> Result<Solution> {
        self.solve_from(None, config)
    }

    /// Solves the problem, warm-starting from `x0` when it is strictly
    /// feasible (otherwise phase I runs first).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::solve`].
    pub fn solve_from(&self, x0: Option<&[f64]>, config: &SolverConfig) -> Result<Solution> {
        self.solve_timed(x0, config, None)
    }

    /// [`Self::solve_from`], adding the wall time of its stages and its
    /// line-search trials to `times` when given, whether the solve succeeds
    /// or not. The iterates do not depend on `times`.
    pub(crate) fn solve_timed(
        &self,
        x0: Option<&[f64]>,
        config: &SolverConfig,
        times: Option<&mut StageTimes>,
    ) -> Result<Solution> {
        // One workspace per solve, shared by phase I (n+1 vars) and phase II
        // (n vars); `ensure` handles the dimension switch.
        let mut ws = crate::Workspace::new();
        ws.timing = times.as_deref().map(|t| (Instant::now(), *t));
        let solution = self.solve_in(x0, config, &mut ws);
        if let (Some(acc), Some((_, t))) = (times, ws.timing) {
            *acc = StageTimes {
                line_search_trials: t.line_search_trials + ws.line_search_trials,
                ..t
            };
        }
        solution
    }

    /// Phase I when the start is not strictly feasible, then phase II,
    /// all in `ws`.
    fn solve_in(
        &self,
        x0: Option<&[f64]>,
        config: &SolverConfig,
        ws: &mut crate::Workspace,
    ) -> Result<Solution> {
        let mut phase1_steps = 0usize;
        let start = match x0 {
            Some(x) if x.len() == self.n && self.is_strictly_feasible(x, FEASIBILITY_MARGIN) => {
                x.to_vec()
            }
            _ => {
                let warm = x0.filter(|x| x.len() == self.n).map(|x| x.to_vec());
                let started = ws.timing.is_some().then(Instant::now);
                let found = crate::phase1::find_strictly_feasible(self, warm, config, ws);
                if let (Some(started), Some((_, t))) = (started, &mut ws.timing) {
                    t.phase1 += started.elapsed();
                }
                let (x, steps) = found?;
                phase1_steps = steps;
                x
            }
        };
        let (x, stages, steps, barrier_t) =
            crate::barrier::barrier_minimize(self, start, config, ws)?;
        workspace_reuse_counter().add(ws.newton_reuses());
        let objective = self.objective(&x);
        Ok(Solution {
            duality_gap_bound: if self.num_constraints() == 0 {
                0.0
            } else {
                self.barrier_degree() as f64 / barrier_t
            },
            objective,
            x,
            newton_steps: steps + phase1_steps,
            phase1_steps,
            stages,
            barrier_t,
        })
    }

    /// KKT-style optimality diagnostics for a barrier solution.
    ///
    /// At a perfectly centered point, `t·∇f(x) + ∇φ(x) = 0`, which encodes
    /// the stationarity condition with the barrier-implied dual variables
    /// (`λᵢ = 1/(t·slackᵢ)` for linear constraints). The report exposes:
    ///
    /// * `stationarity_residual` — `‖∇f(x) + ∇φ(x)/t‖∞`: how far the point
    ///   is from the central path (0 at a perfect center);
    /// * `min_slack` — the smallest constraint slack (`> 0` means strictly
    ///   feasible);
    /// * `duality_gap_bound` — `θ/t` with `θ` the barrier degree, the
    ///   barrier method's certified bound on `f(x) − f*` at a centered
    ///   point.
    ///
    /// Returns `None` when `x` is not strictly feasible (no certificate is
    /// possible there).
    pub fn kkt_report(&self, x: &[f64], barrier_t: f64) -> Option<KktReport> {
        if x.len() != self.n || barrier_t <= 0.0 {
            return None;
        }
        let phi_grad = crate::barrier::barrier_gradient(self, x)?;
        let mut grad = self.q.mul_vec(x).expect("validated dimensions");
        for (g, c) in grad.iter_mut().zip(&self.c) {
            *g += c;
        }
        let mut residual = 0.0f64;
        for (g, p) in grad.iter().zip(&phi_grad) {
            residual = residual.max((g + p / barrier_t).abs());
        }
        Some(KktReport {
            stationarity_residual: residual,
            min_slack: -self.max_violation(x),
            duality_gap_bound: self.barrier_degree() as f64 / barrier_t,
        })
    }
}

/// Cached handle for the `solver.workspace_reuse` counter: Newton steps
/// served entirely from already-sized workspace buffers (no allocation).
fn workspace_reuse_counter() -> &'static std::sync::Arc<obs::Counter> {
    static COUNTER: std::sync::OnceLock<std::sync::Arc<obs::Counter>> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| obs::Registry::global().counter("solver.workspace_reuse"))
}

/// Optimality certificate produced by [`SocpProblem::kkt_report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KktReport {
    /// `‖∇f(x) + ∇φ(x)/t‖∞` — distance from the central path.
    pub stationarity_residual: f64,
    /// Smallest constraint slack at `x`.
    pub min_slack: f64,
    /// `θ/t` — certified bound on the suboptimality of a centered `x`.
    pub duality_gap_bound: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(SocpProblem::new(Matrix::identity(2), vec![0.0; 3]).is_err());
        assert!(SocpProblem::new(Matrix::zeros(2, 3), vec![0.0; 2]).is_err());
        assert!(SocpProblem::new(Matrix::identity(2), vec![f64::NAN; 2]).is_err());
        assert!(SocpProblem::new(Matrix::identity(2), vec![0.0; 2]).is_ok());
    }

    #[test]
    fn q_symmetrized_on_entry() {
        let q = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        let p = SocpProblem::new(q, vec![0.0; 2]).unwrap();
        assert_eq!(p.q()[(0, 1)], 1.0);
        assert_eq!(p.q()[(1, 0)], 1.0);
    }

    #[test]
    fn constraint_validation() {
        let mut p = SocpProblem::new(Matrix::identity(2), vec![0.0; 2]).unwrap();
        assert!(p.add_linear(vec![1.0], 0.0).is_err());
        assert!(p.add_linear(vec![1.0, f64::INFINITY], 0.0).is_err());
        assert!(p.add_linear(vec![1.0, 1.0], 1.0).is_ok());
        assert!(p.add_box(&[0.0], &[1.0, 1.0]).is_err());
        assert!(p.add_box(&[0.5, 0.5], &[0.0, 1.0]).is_err());
        assert!(p.add_box(&[0.0, 0.0], &[1.0, 1.0]).is_ok());
        assert_eq!(p.num_constraints(), 5);
        assert!(p
            .add_soc(Matrix::identity(3), vec![0.0; 3], vec![0.0; 2], 1.0)
            .is_err());
        assert!(p
            .add_soc(Matrix::identity(2), vec![0.0; 2], vec![0.0; 2], 1.0)
            .is_ok());
    }

    #[test]
    fn violation_signs() {
        let lc = LinearConstraint::new(vec![1.0, 0.0], 1.0);
        assert!(lc.violation(&[0.0, 0.0]) < 0.0);
        assert_eq!(lc.violation(&[1.0, 0.0]), 0.0);
        assert!(lc.violation(&[2.0, 0.0]) > 0.0);

        let sc = SocConstraint::new(Matrix::identity(2), vec![0.0; 2], vec![0.0; 2], 1.0);
        assert!(sc.violation(&[0.5, 0.0]) < 0.0); // ‖x‖ = 0.5 ≤ 1
        assert!(sc.violation(&[2.0, 0.0]) > 0.0);
    }

    #[test]
    fn max_violation_unconstrained_is_neg_inf() {
        let p = SocpProblem::new(Matrix::identity(1), vec![0.0]).unwrap();
        assert_eq!(p.max_violation(&[3.0]), f64::NEG_INFINITY);
        assert!(p.is_strictly_feasible(&[3.0], 1e-9));
    }

    #[test]
    fn timed_solve_matches_untimed_and_splits_every_stage() {
        // x₀ ≥ 0.5 leaves the origin infeasible, so phase I runs too.
        let mut p = SocpProblem::new(Matrix::identity(2).scaled(2.0), vec![-6.0, 0.0]).unwrap();
        p.add_soc(Matrix::identity(2), vec![0.0; 2], vec![0.0; 2], 1.0)
            .unwrap();
        p.add_linear(vec![-1.0, 0.0], -0.5).unwrap();
        let config = SolverConfig::default();
        let mut times = StageTimes::default();
        let timed = p.solve_timed(None, &config, Some(&mut times)).unwrap();
        assert_eq!(timed, p.solve_from(None, &config).unwrap());
        assert!(0 < timed.phase1_steps && timed.phase1_steps < timed.newton_steps);
        assert!(
            times.line_search_trials > 0,
            "line-search trials were not counted"
        );
        for (stage, d) in [
            ("assembly", times.assembly),
            ("factor", times.factor),
            ("line search", times.line_search),
            ("phase I", times.phase1),
        ] {
            assert!(!d.is_zero(), "{stage} was not timed");
        }
    }

    #[test]
    fn objective_matches_formula() {
        let p = SocpProblem::new(Matrix::identity(2).scaled(2.0), vec![1.0, -1.0]).unwrap();
        // ½·2·(x²+y²) + x − y at (1, 2): 5 + 1 − 2 = 4
        assert_eq!(p.objective(&[1.0, 2.0]), 4.0);
    }
}
