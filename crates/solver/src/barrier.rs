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
//!
//! Every iterate is evaluated directly once ([`PointEval`]: each slack,
//! `u`, `z` and `ψ`). That evaluation is the iterate's strict-feasibility
//! check and the input of the gradient and Hessian assembly. The line
//! search never evaluates `t·f + φ` itself: it tests the Armijo condition
//! on the *change* of `t·f + φ` along the Newton direction, a function of
//! the step `α` whose coefficients ([`LineModel`]) are set up once per step
//! from that evaluation. A trial costs one multiply per constraint and one
//! `ln`; the candidate it accepts is evaluated directly before it becomes
//! the next iterate, so strict feasibility is never inferred from the
//! expanded form.

use crate::workspace::AssemblyScratch;
use crate::{Result, SocConstraint, SocpProblem, SolverConfig, SolverError, Workspace};
use ldafp_linalg::{vecops, Matrix};

/// Initial barrier weight `t`.
const T_INIT: f64 = 1.0;
/// Geometric growth factor of `t` per outer stage.
const MU: f64 = 20.0;
/// Maximum Newton steps per centering stage.
const MAX_NEWTON_PER_STAGE: usize = 60;
/// Maximum outer stages (safety valve; never reached in practice).
const MAX_STAGES: usize = 64;
/// Armijo slope fraction for the backtracking line search.
const ARMIJO: f64 = 0.01;
/// Backtracking shrink factor.
const BACKTRACK: f64 = 0.5;

/// Early-stop predicate used by phase I to bail out as soon as a strictly
/// feasible point for the original problem is witnessed.
pub(crate) type EarlyStop<'a> = &'a dyn Fn(&[f64]) -> bool;

/// The constraint values at one point, computed directly from `x`.
#[derive(Debug, Default)]
pub(crate) struct PointEval {
    /// Per linear row, the slack `h − gᵀx`.
    slack: Vec<f64>,
    /// Per cone, `u = dᵀx + e`.
    u: Vec<f64>,
    /// Per cone, `ψ = u² − zᵀz`.
    psi: Vec<f64>,
    /// Every cone's `z = Ax + b`, concatenated in cone order.
    z: Vec<f64>,
}

impl PointEval {
    /// Evaluates every constraint at `x` and reports whether `x` is
    /// strictly feasible: each slack, `u` and `ψ` positive. On `false` the
    /// contents are partial and must not be read.
    pub(crate) fn evaluate(&mut self, p: &SocpProblem, x: &[f64]) -> bool {
        self.slack.clear();
        self.u.clear();
        self.psi.clear();
        self.z.clear();
        for lc in p.linear_constraints() {
            let slack = lc.h - lc.dot(x);
            if !positive(slack) {
                return false;
            }
            self.slack.push(slack);
        }
        for sc in p.soc_constraints() {
            let u = sc.u(x);
            if !positive(u) {
                return false;
            }
            let start = self.z.len();
            push_cone_argument(sc, x, &mut self.z);
            let z = &self.z[start..];
            let psi = u * u - vecops::dot(z, z);
            if !positive(psi) {
                return false;
            }
            self.u.push(u);
            self.psi.push(psi);
        }
        true
    }

    /// Per cone, its `u`, `ψ` and `z`, in cone order.
    fn cones<'a>(
        &'a self,
        p: &'a SocpProblem,
    ) -> impl Iterator<Item = (&'a SocConstraint, f64, f64, &'a [f64])> {
        let mut rest = &self.z[..];
        p.soc_constraints()
            .iter()
            .zip(self.u.iter().zip(&self.psi))
            .map(move |(sc, (&u, &psi))| {
                let (z, tail) = rest.split_at(sc.b.len());
                rest = tail;
                (sc, u, psi, z)
            })
    }
}

/// Whether `v` is a positive number (NaN is not).
fn positive(v: f64) -> bool {
    v > 0.0
}

/// The barrier `φ(x)` from a direct evaluation, or `None` when `x` is not
/// strictly feasible: the reference the line search's change is checked
/// against.
#[cfg(test)]
pub(crate) fn barrier_value(p: &SocpProblem, x: &[f64], pt: &mut PointEval) -> Option<f64> {
    if !pt.evaluate(p, x) {
        return None;
    }
    let mut phi = 0.0;
    for &slack in &pt.slack {
        phi -= slack.ln();
    }
    for &psi in &pt.psi {
        phi -= psi.ln();
    }
    Some(phi)
}

/// Barrier gradient `∇φ(x)`, or `None` when `x` is not strictly feasible.
/// Used by the KKT diagnostics on [`crate::Solution`]s.
pub(crate) fn barrier_gradient(p: &SocpProblem, x: &[f64]) -> Option<Vec<f64>> {
    let mut pt = PointEval::default();
    if !pt.evaluate(p, x) {
        return None;
    }
    let mut grad = vec![0.0; x.len()];
    let mut hess = Matrix::zeros(x.len(), x.len());
    add_barrier_derivatives(
        p,
        &pt,
        &mut grad,
        &mut hess,
        &mut AssemblyScratch::default(),
    );
    Some(grad)
}

/// Appends `z = A·x + b` to `z`, each row's product taken over its nonzero
/// span only.
fn push_cone_argument(sc: &SocConstraint, x: &[f64], z: &mut Vec<f64>) {
    z.extend(
        sc.spans
            .iter()
            .zip(&sc.b)
            .enumerate()
            .map(|(r, (&(lo, hi), b))| vecops::dot(&sc.a.row(r)[lo..hi], &x[lo..hi]) + b),
    );
}

/// Accumulates `∇φ` into `grad` and `∇²φ` into the lower triangle of
/// `hess` (the only triangle [`Cholesky`](ldafp_linalg::Cholesky)
/// reads), at the point `pt` evaluated.
///
/// Each linear row touches only its nonzero support, and each cone row's
/// `Aᵀz` only its nonzero span. The cone Hessian's `AᵀA` term is
/// `(2/ψ)·G` with `G` formed once per cone. The products skipped are exact
/// zeros, and every entry still receives its nonzero contributions in
/// constraint order, so for finite `x` the result is bit-identical to a
/// dense accumulation except, at most, for the sign of an entry that is
/// exactly zero.
fn add_barrier_derivatives(
    p: &SocpProblem,
    pt: &PointEval,
    grad: &mut [f64],
    hess: &mut Matrix,
    s: &mut AssemblyScratch,
) {
    let n = grad.len();
    for (lc, &slack) in p.linear_constraints().iter().zip(&pt.slack) {
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
    for (sc, u, psi, z) in pt.cones(p) {
        // Aᵀz, accumulated row by row as `Matrix::vec_mul` does.
        s.at_z.clear();
        s.at_z.resize(n, 0.0);
        for (r, (&(lo, hi), &zr)) in sc.spans.iter().zip(z).enumerate() {
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
        // ∇²φ = ∇ψ∇ψᵀ/ψ² − ∇²ψ/ψ with ∇²ψ = 2ddᵀ − 2AᵀA: first
        // += (2/ψ)·G with the cone's Gram matrix G = AᵀA, then the rest.
        // One pass adds both, rounding after each as two passes would.
        let two_inv_psi = 2.0 * inv_psi;
        for i in 0..n {
            let gpi = s.grad_psi[i];
            let two_di = 2.0 * sc.d[i];
            let terms = sc.gram.row(i)[..=i]
                .iter()
                .zip(&s.grad_psi[..=i])
                .zip(&sc.d[..=i]);
            for (h, ((&g, &gpj), &dj)) in hess.row_mut(i)[..=i].iter_mut().zip(terms) {
                *h = (*h + two_inv_psi * g)
                    + (gpi * gpj * inv_psi * inv_psi - two_di * dj * inv_psi);
            }
        }
    }
}

/// A product of positive factors held as `m·2^e`: whenever a partial
/// product would leave `[2⁻⁵⁰⁰, 2⁵⁰⁰]`, the binary exponents of `m` and
/// the factor move into the integer `e`, so no partial product over- or
/// underflows and the product's logarithm costs one `ln`. In the common
/// case `e` stays 0 and the product is a plain one.
#[derive(Debug, Clone, Copy)]
struct ScaledProduct {
    m: f64,
    e: i64,
}

impl ScaledProduct {
    /// The empty product.
    const ONE: ScaledProduct = ScaledProduct { m: 1.0, e: 0 };

    /// Multiplies by `f`, which must be a positive normal number.
    fn mul(&mut self, f: f64) {
        // 2⁻⁵⁰⁰ and 2⁵⁰⁰.
        const TINY: f64 = f64::from_bits((1023 - 500) << 52);
        const HUGE: f64 = f64::from_bits((1023 + 500) << 52);
        debug_assert!(f.is_normal() && f > 0.0, "factor {f:e} out of range");
        let p = self.m * f;
        if (TINY..=HUGE).contains(&p) {
            self.m = p;
        } else {
            let ((mm, me), (fm, fe)) = (split_exponent(self.m), split_exponent(f));
            self.m = mm * fm;
            self.e += me + fe;
        }
    }

    /// The natural logarithm of the product.
    fn ln(self) -> f64 {
        self.m.ln() + self.e as f64 * std::f64::consts::LN_2
    }
}

/// `v = m·2^e` with `m ∈ [½, 1)`, for a positive normal `v`.
fn split_exponent(v: f64) -> (f64, i64) {
    const MANTISSA: u64 = (1 << 52) - 1;
    const HALF_EXPONENT: u64 = 1022 << 52;
    let bits = v.to_bits();
    (
        f64::from_bits(bits & MANTISSA | HALF_EXPONENT),
        (bits >> 52) as i64 - 1022,
    )
}

/// One cone's terms in [`LineModel`].
#[derive(Debug, Clone, Copy)]
struct ConeLine {
    /// `u` at the point.
    u: f64,
    /// `dᵀΔ`, the rate of `u` along Δ.
    du: f64,
    /// `2(u·dᵀΔ − zᵀAΔ)/ψ`.
    b: f64,
    /// `((dᵀΔ)² − ‖AΔ‖²)/ψ`.
    c: f64,
}

/// The change of `t·f + φ` from an evaluated point `x` to `x + αΔ`, as a
/// function of `α`, set up once per Newton step:
///
/// * the objective changes by `t·(α·(Qx+c)ᵀΔ + ½α²·ΔᵀQΔ)`;
/// * a linear row's slack scales by `1 − αρ`, with `ρ = gᵀΔ / slack`;
/// * a cone's `u` becomes `u + α·dᵀΔ` and its `ψ` scales by
///   `1 + α(b + αc)` (see [`ConeLine`]), since `ψ(α) = ψ + α·∇ψᵀΔ +
///   α²·((dᵀΔ)² − ‖AΔ‖²)` and `∇ψᵀΔ = 2(u·dᵀΔ − zᵀAΔ)`.
///
/// The barrier changes by minus the logarithm of the product of those
/// factors, kept as a [`ScaledProduct`].
#[derive(Debug, Default)]
pub(crate) struct LineModel {
    /// The barrier weight.
    t: f64,
    /// `(Qx+c)ᵀΔ`.
    f_slope: f64,
    /// `ΔᵀQΔ`.
    f_curvature: f64,
    /// Per linear row, `ρ`.
    rho: Vec<f64>,
    /// Per cone, its terms.
    cones: Vec<ConeLine>,
}

impl LineModel {
    /// Sets the model up at the point `pt` evaluated, along `delta`, with
    /// `obj_grad = Qx + c`. Returns `false` when a coefficient is not
    /// finite (a slack so small that `gᵀΔ / slack` overflows).
    pub(crate) fn set(
        &mut self,
        p: &SocpProblem,
        t: f64,
        pt: &PointEval,
        obj_grad: &[f64],
        delta: &[f64],
    ) -> bool {
        let q = p.q();
        self.t = t;
        self.f_slope = vecops::dot(obj_grad, delta);
        self.f_curvature = delta
            .iter()
            .enumerate()
            .map(|(i, &di)| di * vecops::dot(q.row(i), delta))
            .sum();
        self.rho.clear();
        self.rho.extend(
            p.linear_constraints()
                .iter()
                .zip(&pt.slack)
                .map(|(lc, &slack)| lc.dot(delta) / slack),
        );
        self.cones.clear();
        for (sc, u, psi, z) in pt.cones(p) {
            // zᵀAΔ and ‖AΔ‖², each row of AΔ over its span.
            let (mut z_ad, mut ad_sq) = (0.0, 0.0);
            for (r, (&(lo, hi), &zr)) in sc.spans.iter().zip(z).enumerate() {
                let ad = vecops::dot(&sc.a.row(r)[lo..hi], &delta[lo..hi]);
                z_ad += zr * ad;
                ad_sq += ad * ad;
            }
            let du = vecops::dot(&sc.d, delta);
            self.cones.push(ConeLine {
                u,
                du,
                b: 2.0 * (u * du - z_ad) / psi,
                c: (du * du - ad_sq) / psi,
            });
        }
        let finite = |v: &f64| v.is_finite();
        finite(&self.f_slope)
            && finite(&self.f_curvature)
            && self.rho.iter().all(finite)
            && self
                .cones
                .iter()
                .all(|c| [c.du, c.b, c.c].iter().all(finite))
    }

    /// The change of `t·f + φ` at step `α`, or `None` when the expanded
    /// form puts `x + αΔ` outside the feasible region. A `Some` does not
    /// make the point strictly feasible: that is decided by evaluating it.
    fn change(&self, alpha: f64) -> Option<f64> {
        let mut prod = ScaledProduct::ONE;
        for &rho in &self.rho {
            let f = 1.0 - alpha * rho;
            if !positive(f) {
                return None;
            }
            prod.mul(f);
        }
        for c in &self.cones {
            let f = 1.0 + alpha * (c.b + alpha * c.c);
            if !(positive(c.u + alpha * c.du) && positive(f)) {
                return None;
            }
            prod.mul(f);
        }
        Some(self.t * (alpha * (self.f_slope + 0.5 * alpha * self.f_curvature)) - prod.ln())
    }
}

/// Backtracking line search from the evaluated `x` along `ws.delta`: the
/// first `α` of `1, β, β², …` (60 rungs) whose change of `t·f + φ` meets
/// the Armijo condition and whose candidate is strictly feasible by direct
/// evaluation becomes the new `x`, its evaluation the new `ws.point`.
/// Returns whether a step was taken.
fn line_search(p: &SocpProblem, t: f64, x: &mut [f64], ws: &mut Workspace) -> Result<bool> {
    if !ws.line.set(p, t, &ws.point, &ws.obj_grad, &ws.delta) {
        return Err(SolverError::NumericalFailure {
            reason: "non-finite line-search coefficients".to_string(),
        });
    }
    let slope = vecops::dot(&ws.grad, &ws.delta); // negative
    let mut alpha = 1.0;
    for _ in 0..60 {
        ws.line_search_trials += 1;
        if ws
            .line
            .change(alpha)
            .is_some_and(|change| change <= ARMIJO * alpha * slope)
        {
            ws.cand.clear();
            ws.cand.extend_from_slice(x);
            vecops::axpy(alpha, &ws.delta, &mut ws.cand);
            if ws.trial.evaluate(p, &ws.cand) {
                x.copy_from_slice(&ws.cand);
                std::mem::swap(&mut ws.point, &mut ws.trial);
                return Ok(true);
            }
        }
        alpha *= BACKTRACK;
    }
    Ok(false)
}

/// One centering stage: damped Newton on `t·f + φ` from strictly feasible
/// `x`, whose evaluation `ws.point` holds. Returns the centered point and
/// the Newton-step count; `ws.point` then holds that point's evaluation.
///
/// All per-step buffers come from `ws`, so a step allocates nothing.
fn center(
    p: &SocpProblem,
    t: f64,
    mut x: Vec<f64>,
    config: &SolverConfig,
    early_stop: Option<EarlyStop<'_>>,
    ws: &mut Workspace,
) -> Result<(Vec<f64>, usize)> {
    let mut steps = 0usize;
    for _ in 0..MAX_NEWTON_PER_STAGE {
        if let Some(stop) = early_stop {
            if stop(&x) {
                return Ok((x, steps));
            }
        }
        ws.mark();
        if ws.ensure(x.len()) {
            ws.newton_reuses += 1;
        }
        // Assemble gradient and Hessian of t·f + φ; the line search reads
        // the objective's gradient Qx + c too.
        p.q()
            .mul_vec_into(&x, &mut ws.obj_grad)
            .expect("validated dimensions");
        for (gi, ci) in ws.obj_grad.iter_mut().zip(p.c()) {
            *gi += ci;
        }
        ws.grad.clear();
        ws.grad.extend(ws.obj_grad.iter().map(|g| t * g));
        ws.hess.copy_scaled_from(p.q(), t);
        add_barrier_derivatives(p, &ws.point, &mut ws.grad, &mut ws.hess, &mut ws.assembly);
        ws.lap(|s| &mut s.assembly);

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
        ws.lap(|s| &mut s.factor);
        if !lambda_sq.is_finite() {
            return Err(SolverError::NumericalFailure {
                reason: "non-finite Newton decrement".to_string(),
            });
        }
        if lambda_sq * 0.5 <= config.newton_tol {
            return Ok((x, steps));
        }

        let stepped = line_search(p, t, &mut x, ws)?;
        ws.lap(|s| &mut s.line_search);
        if !stepped {
            // Step has shrunk below representable progress — we are at the
            // numerical floor of this centering problem; accept the point.
            return Ok((x, steps));
        }
    }
    Ok((x, steps))
}

/// Full barrier method from a strictly feasible start. Returns
/// `(x, stages, newton_steps, t)`. The workspace is reused across every
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
    // Every stage starts from a point `ws.point` has evaluated; the
    // evaluation is timed as assembly, the stage that reads it.
    ws.mark();
    let feasible = ws.point.evaluate(p, &x0);
    ws.lap(|s| &mut s.assembly);
    if !feasible {
        return Err(SolverError::NumericalFailure {
            reason: "barrier start is not strictly feasible".to_string(),
        });
    }
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

    let mut t = T_INIT;
    for _ in 0..MAX_STAGES {
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
        t *= MU;
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
        barrier_value(p, x, &mut PointEval::default())
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
