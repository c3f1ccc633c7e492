//! The damped-Newton barrier engine shared by phase I and phase II.
//!
//! Minimizes `t·f(x) + φ(x)` over the strictly feasible set, where `f` is
//! the problem's quadratic objective and `φ` the standard log barrier:
//!
//! * linear `gᵀx ≤ h`:  `−log(h − gᵀx)`;
//! * cone `‖z‖ ≤ u` (with `z = Ax+b`, `u = dᵀx+e`):  `−log(u² − zᵀz)`,
//!   restricted to the branch `u > 0`.
//!
//! Both barriers are self-concordant, so damped Newton with backtracking
//! converges globally from any strictly feasible start.

use crate::workspace::EvalScratch;
use crate::{Result, SocConstraint, SocpProblem, SolverConfig, SolverError, Workspace};
use ldafp_linalg::{vecops, Matrix};

/// Early-stop predicate used by phase I to bail out as soon as a strictly
/// feasible point for the original problem is witnessed.
pub(crate) type EarlyStop<'a> = &'a dyn Fn(&[f64]) -> bool;

/// Evaluates the barrier at `x`, or `None` when `x` is not strictly inside
/// the feasible region (including the `u > 0` cone branch). `z` is scratch
/// for the cone arguments.
pub(crate) fn barrier_value(p: &SocpProblem, x: &[f64], z: &mut Vec<f64>) -> Option<f64> {
    let mut phi = 0.0;
    for lc in p.linear_constraints() {
        let slack = lc.h - lc.dot(x);
        if slack <= 0.0 {
            return None;
        }
        phi -= slack.ln();
    }
    for sc in p.soc_constraints() {
        let u = sc.u(x);
        if u <= 0.0 {
            return None;
        }
        cone_argument(sc, x, z);
        let psi = u * u - vecops::dot(z, z);
        if psi <= 0.0 {
            return None;
        }
        phi -= psi.ln();
    }
    Some(phi)
}

/// Barrier gradient `∇φ(x)`, or `None` when `x` is not strictly feasible.
/// Used by the KKT diagnostics on [`crate::Solution`]s.
pub(crate) fn barrier_gradient(p: &SocpProblem, x: &[f64]) -> Option<Vec<f64>> {
    let mut scratch = EvalScratch::default();
    barrier_value(p, x, &mut scratch.z)?;
    let mut grad = vec![0.0; x.len()];
    let mut hess = Matrix::zeros(x.len(), x.len());
    add_barrier_derivatives(p, x, &mut grad, &mut hess, &mut scratch);
    Some(grad)
}

/// `z = A·x + b`, each row's product taken over its nonzero span only.
fn cone_argument(sc: &SocConstraint, x: &[f64], z: &mut Vec<f64>) {
    z.clear();
    z.extend(
        sc.spans
            .iter()
            .zip(&sc.b)
            .enumerate()
            .map(|(r, (&(lo, hi), b))| vecops::dot(&sc.a.row(r)[lo..hi], &x[lo..hi]) + b),
    );
}

/// Accumulates `∇φ` into `grad` and `∇²φ` into the lower triangle of
/// `hess` (the triangle [`Cholesky`](ldafp_linalg::Cholesky) reads;
/// [`mirror_lower`] completes the matrix).
///
/// Each linear row touches only its nonzero support and each cone row only
/// its nonzero span. The products skipped are exact zeros, and every entry
/// still receives its nonzero contributions in constraint order, so for
/// finite `x` the result is bit-identical to a dense accumulation except,
/// at most, for the sign of an entry that is exactly zero.
///
/// Caller guarantees strict feasibility (checked in debug builds).
fn add_barrier_derivatives(
    p: &SocpProblem,
    x: &[f64],
    grad: &mut [f64],
    hess: &mut Matrix,
    s: &mut EvalScratch,
) {
    let n = x.len();
    for lc in p.linear_constraints() {
        let slack = lc.h - lc.dot(x);
        debug_assert!(slack > 0.0, "barrier derivatives at infeasible point");
        let inv = 1.0 / slack;
        // ∇(−log slack) = g/slack ; ∇² = g gᵀ/slack².
        for (k, &i) in lc.support.iter().enumerate() {
            let gi = lc.g[i];
            grad[i] += gi * inv;
            let gi_inv2 = gi * inv * inv;
            let row = hess.row_mut(i);
            for &j in &lc.support[..=k] {
                row[j] += gi_inv2 * lc.g[j];
            }
        }
    }
    for sc in p.soc_constraints() {
        let u = sc.u(x);
        cone_argument(sc, x, &mut s.z);
        let psi = u * u - vecops::dot(&s.z, &s.z);
        debug_assert!(u > 0.0 && psi > 0.0, "cone barrier at infeasible point");
        // Aᵀz, accumulated row by row as `Matrix::vec_mul` does.
        s.at_z.clear();
        s.at_z.resize(n, 0.0);
        for (r, &(lo, hi)) in sc.spans.iter().enumerate() {
            let zr = s.z[r];
            if zr == 0.0 {
                continue;
            }
            for (o, &a) in s.at_z[lo..hi].iter_mut().zip(&sc.a.row(r)[lo..hi]) {
                *o += zr * a;
            }
        }
        // ∇ψ = 2u·d − 2Aᵀz
        s.grad_psi.clear();
        s.grad_psi.extend(
            sc.d.iter()
                .zip(&s.at_z)
                .map(|(&di, &ai)| 2.0 * u * di - 2.0 * ai),
        );
        let inv_psi = 1.0 / psi;
        // ∇φ = −∇ψ/ψ
        for (g, &gp) in grad.iter_mut().zip(&s.grad_psi) {
            *g -= gp * inv_psi;
        }
        // ∇²φ = ∇ψ∇ψᵀ/ψ² − ∇²ψ/ψ with ∇²ψ = 2ddᵀ − 2AᵀA.
        // (AᵀA term): += 2·AᵀA/ψ ; (ddᵀ term): −= 2·ddᵀ/ψ.
        for (r, &(lo, hi)) in sc.spans.iter().enumerate() {
            let row = sc.a.row(r);
            for i in lo..hi {
                let ai = row[i];
                if ai == 0.0 {
                    continue;
                }
                let w = 2.0 * ai * inv_psi;
                for (h, &aj) in hess.row_mut(i)[lo..=i].iter_mut().zip(&row[lo..=i]) {
                    *h += w * aj;
                }
            }
        }
        for i in 0..n {
            let gpi = s.grad_psi[i];
            let two_di = 2.0 * sc.d[i];
            let terms = s.grad_psi[..=i].iter().zip(&sc.d[..=i]);
            for (h, (&gpj, &dj)) in hess.row_mut(i)[..=i].iter_mut().zip(terms) {
                *h += gpi * gpj * inv_psi * inv_psi - two_di * dj * inv_psi;
            }
        }
    }
}

/// Copies the lower triangle of the square `m` onto its upper triangle.
fn mirror_lower(m: &mut Matrix) {
    let n = m.rows();
    let data = m.as_mut_slice();
    for i in 1..n {
        for j in 0..i {
            data[j * n + i] = data[i * n + j];
        }
    }
}

/// One centering stage: damped Newton on `t·f + φ` from strictly feasible
/// `x`. Returns the centered point and the Newton-step count.
///
/// All per-step buffers come from `ws`, so a step allocates nothing. The
/// line search's accepted value `t·f + φ` is carried into the next step as
/// its `f0`; it is the same expression on the same point, so only the
/// stage's first step evaluates it afresh.
fn center(
    p: &SocpProblem,
    t: f64,
    mut x: Vec<f64>,
    config: &SolverConfig,
    early_stop: Option<EarlyStop<'_>>,
    ws: &mut Workspace,
) -> Result<(Vec<f64>, usize)> {
    let mut steps = 0usize;
    let mut f_x: Option<f64> = None;
    for _ in 0..config.max_newton_per_stage {
        if let Some(stop) = early_stop {
            if stop(&x) {
                return Ok((x, steps));
            }
        }
        if ws.ensure(x.len()) {
            ws.newton_reuses += 1;
        }
        // Assemble gradient and Hessian of t·f + φ.
        p.q()
            .mul_vec_into(&x, &mut ws.grad)
            .expect("validated dimensions");
        for (gi, ci) in ws.grad.iter_mut().zip(p.c()) {
            *gi = t * (*gi + ci);
        }
        ws.hess.copy_scaled_from(p.q(), t);
        add_barrier_derivatives(p, &x, &mut ws.grad, &mut ws.hess, &mut ws.eval);
        mirror_lower(&mut ws.hess);

        // Newton direction: solve H Δ = −grad, ridging on factorization
        // trouble (semidefinite Q with few constraints can leave H singular).
        ws.neg_grad.clear();
        ws.neg_grad.extend(ws.grad.iter().map(|g| -g));
        if ws.chol.factorize(&ws.hess).is_err() {
            ws.chol
                .factorize_with_ridge(&ws.hess, 1e-10, &mut ws.shifted)
                .map_err(|e| SolverError::NumericalFailure {
                    reason: format!("Newton system factorization failed: {e}"),
                })?;
        }
        ws.chol.solve_into(&ws.neg_grad, &mut ws.delta)?;
        steps += 1;

        // Newton decrement: λ² = −gradᵀΔ.
        let lambda_sq = -vecops::dot(&ws.grad, &ws.delta);
        if !lambda_sq.is_finite() {
            return Err(SolverError::NumericalFailure {
                reason: "non-finite Newton decrement".to_string(),
            });
        }
        if lambda_sq * 0.5 <= config.newton_tol {
            return Ok((x, steps));
        }

        // Backtracking line search on value + strict feasibility.
        let f0 = match f_x {
            Some(f) => f,
            None => {
                t * p.objective_with(&x, &mut ws.eval.qx)
                    + barrier_value(p, &x, &mut ws.eval.z).ok_or_else(|| {
                        SolverError::NumericalFailure {
                            reason: "iterate left the feasible region".to_string(),
                        }
                    })?
            }
        };
        let slope = vecops::dot(&ws.grad, &ws.delta); // negative
        let mut alpha = 1.0;
        let mut accepted = false;
        for _ in 0..60 {
            ws.cand.clear();
            ws.cand.extend_from_slice(&x);
            vecops::axpy(alpha, &ws.delta, &mut ws.cand);
            if let Some(phi) = barrier_value(p, &ws.cand, &mut ws.eval.z) {
                let fc = t * p.objective_with(&ws.cand, &mut ws.eval.qx) + phi;
                if fc <= f0 + config.armijo * alpha * slope {
                    x.copy_from_slice(&ws.cand);
                    f_x = Some(fc);
                    accepted = true;
                    break;
                }
            }
            alpha *= config.backtrack;
        }
        if !accepted {
            // Step has shrunk below representable progress — we are at the
            // numerical floor of this centering problem; accept the point.
            return Ok((x, steps));
        }
    }
    Ok((x, steps))
}

/// Full barrier method from a strictly feasible start. Returns
/// `(x, stages, newton_steps)`. The workspace is reused across every
/// centering stage (and across phase I / phase II when the caller shares
/// one per solve).
pub(crate) fn barrier_minimize(
    p: &SocpProblem,
    x0: Vec<f64>,
    config: &SolverConfig,
    ws: &mut Workspace,
) -> Result<(Vec<f64>, usize, usize, f64)> {
    barrier_minimize_with_stop(p, x0, config, None, ws)
}

/// Barrier method with an optional early-stop predicate (used by phase I to
/// bail out as soon as a strictly feasible point for the original problem is
/// witnessed).
pub(crate) fn barrier_minimize_with_stop(
    p: &SocpProblem,
    x0: Vec<f64>,
    config: &SolverConfig,
    early_stop: Option<EarlyStop<'_>>,
    ws: &mut Workspace,
) -> Result<(Vec<f64>, usize, usize, f64)> {
    debug_assert!(
        p.num_constraints() == 0 || barrier_value(p, &x0, &mut ws.eval.z).is_some(),
        "barrier_minimize requires a strictly feasible start"
    );
    let m = p.num_constraints() as f64;
    let mut x = x0;
    let mut steps_total = 0usize;
    let mut stages = 0usize;

    if p.num_constraints() == 0 {
        // Pure Newton on f (t is irrelevant); one stage suffices for a
        // quadratic.
        let (xx, steps) = center(p, 1.0, x, config, early_stop, ws)?;
        return Ok((xx, 1, steps, 1.0));
    }

    let mut t = config.t_init;
    for _ in 0..config.max_stages {
        stages += 1;
        let (xx, steps) = center(p, t, x, config, early_stop, ws)?;
        x = xx;
        steps_total += steps;
        if let Some(stop) = early_stop {
            if stop(&x) {
                return Ok((x, stages, steps_total, t));
            }
        }
        if m / t < config.tol {
            return Ok((x, stages, steps_total, t));
        }
        t *= config.mu;
    }
    Ok((x, stages, steps_total, t))
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    fn value(p: &SocpProblem, x: &[f64]) -> Option<f64> {
        barrier_value(p, x, &mut Vec::new())
    }

    #[test]
    fn barrier_value_none_outside() {
        let mut p = SocpProblem::new(Matrix::identity(2), vec![0.0; 2]).unwrap();
        p.add_linear(vec![1.0, 0.0], 1.0).unwrap();
        assert!(value(&p, &[0.0, 0.0]).is_some());
        assert!(value(&p, &[1.0, 0.0]).is_none()); // boundary
        assert!(value(&p, &[2.0, 0.0]).is_none());
    }

    #[test]
    fn barrier_value_respects_cone_branch() {
        let mut p = SocpProblem::new(Matrix::identity(2), vec![0.0; 2]).unwrap();
        // ‖x‖ ≤ x₀ + 2 (shifted cone)
        p.add_soc(Matrix::identity(2), vec![0.0; 2], vec![1.0, 0.0], 2.0)
            .unwrap();
        assert!(value(&p, &[0.0, 0.0]).is_some());
        // u = −3 < 0: wrong branch even though u² − ‖z‖² > 0 at z small…
        // pick x with u<0: x₀ = −5 → u = −3, ‖z‖ = 5: psi = 9−25 < 0 anyway;
        // construct u<0, psi>0: x = (−3, 0): u = −1, ‖z‖ = 3 → psi < 0. For a
        // pure-u test use d only:
        let mut p2 = SocpProblem::new(Matrix::identity(1), vec![0.0]).unwrap();
        p2.add_soc(Matrix::zeros(1, 1), vec![0.0], vec![1.0], 0.0)
            .unwrap(); // ‖0‖ ≤ x ⟺ x ≥ 0
        assert!(value(&p2, &[1.0]).is_some());
        assert!(value(&p2, &[-1.0]).is_none(), "u<0 branch rejected");
    }

    #[test]
    fn unconstrained_quadratic_newton() {
        // minimize (x−3)² → x = 3 in one centering stage.
        let p = SocpProblem::new(Matrix::identity(1).scaled(2.0), vec![-6.0]).unwrap();
        let (x, stages, _, _) =
            barrier_minimize(&p, vec![0.0], &cfg(), &mut Workspace::new()).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-8);
        assert_eq!(stages, 1);
    }

    #[test]
    fn active_linear_constraint() {
        // minimize (x−3)² s.t. x ≤ 1 → x = 1.
        let mut p = SocpProblem::new(Matrix::identity(1).scaled(2.0), vec![-6.0]).unwrap();
        p.add_linear(vec![1.0], 1.0).unwrap();
        let (x, _, _, _) = barrier_minimize(&p, vec![0.0], &cfg(), &mut Workspace::new()).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6, "x = {}", x[0]);
    }

    #[test]
    fn inactive_constraint_ignored() {
        // minimize (x−3)² s.t. x ≤ 100 → x = 3.
        let mut p = SocpProblem::new(Matrix::identity(1).scaled(2.0), vec![-6.0]).unwrap();
        p.add_linear(vec![1.0], 100.0).unwrap();
        let (x, _, _, _) = barrier_minimize(&p, vec![0.0], &cfg(), &mut Workspace::new()).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-5, "x = {}", x[0]);
    }

    #[test]
    fn cone_constrained_projection() {
        // minimize ‖x − (3,0)‖² s.t. ‖x‖ ≤ 1 → x = (1, 0).
        let mut p = SocpProblem::new(Matrix::identity(2).scaled(2.0), vec![-6.0, 0.0]).unwrap();
        p.add_soc(Matrix::identity(2), vec![0.0; 2], vec![0.0; 2], 1.0)
            .unwrap();
        let (x, _, _, _) =
            barrier_minimize(&p, vec![0.0, 0.0], &cfg(), &mut Workspace::new()).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-5, "x = {x:?}");
        assert!(x[1].abs() < 1e-5, "x = {x:?}");
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_allocation() {
        // Cone + linear constraints exercise every in-place path; a reused
        // workspace (carrying state from a previous, differently-sized solve)
        // must produce bit-identical iterates to a fresh one.
        let mut p = SocpProblem::new(Matrix::identity(2).scaled(2.0), vec![-6.0, 0.0]).unwrap();
        p.add_soc(Matrix::identity(2), vec![0.0; 2], vec![0.0; 2], 1.0)
            .unwrap();
        p.add_linear(vec![0.0, 1.0], 0.5).unwrap();

        let (x_fresh, st_f, ns_f, t_f) =
            barrier_minimize(&p, vec![0.0, 0.0], &cfg(), &mut Workspace::new()).unwrap();

        // Dirty the reused workspace with a different-dimension solve first.
        let mut ws = Workspace::new();
        let q1 = SocpProblem::new(Matrix::identity(3).scaled(2.0), vec![-1.0, 0.0, 0.0]).unwrap();
        barrier_minimize(&q1, vec![0.0; 3], &cfg(), &mut ws).unwrap();
        let (x_reuse, st_r, ns_r, t_r) =
            barrier_minimize(&p, vec![0.0, 0.0], &cfg(), &mut ws).unwrap();

        assert_eq!(x_fresh.len(), x_reuse.len());
        for (a, b) in x_fresh.iter().zip(&x_reuse) {
            assert_eq!(a.to_bits(), b.to_bits(), "iterates diverged: {a} vs {b}");
        }
        assert_eq!((st_f, ns_f), (st_r, ns_r));
        assert_eq!(t_f.to_bits(), t_r.to_bits());
        assert!(ws.newton_reuses() > 0, "reused path never reused buffers");
    }
}
