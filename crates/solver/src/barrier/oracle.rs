//! Bit-identity oracle for the structure-aware barrier assembly.
//!
//! [`dense`] is the same math without structure: every linear row is an
//! `n`-long dot product and an `n × n` scan, every cone row a full row, and
//! each cone's Gram matrix `AᵀA` is formed over full rows at every
//! evaluation. Seeded problems mix box rows, single-nonzero rows, dense
//! rows, upper-triangular (`β·Lᵀ`-shaped) and dense cones at several sizes,
//! plus each problem's phase-I form, and the structure-aware functions must
//! reproduce the reference bit for bit.
//!
//! [`dense::ConeTerm::PerRow`] keeps the cone Hessian term as it was
//! accumulated before the Gram matrix, row by row as `(2·a_ri/ψ)·a_rj`;
//! the Gram form must match it to rounding.

use super::{
    add_barrier_derivatives, barrier_value, line_search, LineModel, PointEval, ScaledProduct,
    ARMIJO, BACKTRACK,
};
use crate::workspace::AssemblyScratch;
use crate::{SocpProblem, SolverConfig, Workspace};
use dense::ConeTerm;
use ldafp_linalg::{vecops, Matrix};
use ldafp_stats::Rng;

/// The structure-blind reference evaluation.
mod dense {
    use crate::SocpProblem;
    use ldafp_linalg::{vecops, Matrix};

    /// How the cone Hessian's `2·AᵀA/ψ` term is accumulated.
    #[derive(Clone, Copy)]
    pub(super) enum ConeTerm {
        /// `(2/ψ)·G` with `G = AᵀA` summed over full rows.
        Gram,
        /// `(2·a_ri/ψ)·a_rj`, row by row.
        PerRow,
    }

    pub(super) fn barrier_value(p: &SocpProblem, x: &[f64]) -> Option<f64> {
        let mut phi = 0.0;
        for lc in p.linear_constraints() {
            let slack = lc.h - vecops::dot(&lc.g, x);
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
            let z = sc.z(x);
            let psi = u * u - vecops::dot(&z, &z);
            if psi <= 0.0 {
                return None;
            }
            phi -= psi.ln();
        }
        Some(phi)
    }

    pub(super) fn add_barrier_derivatives(
        p: &SocpProblem,
        x: &[f64],
        grad: &mut [f64],
        hess: &mut Matrix,
        cone_term: ConeTerm,
    ) {
        let n = x.len();
        for lc in p.linear_constraints() {
            let slack = lc.h - vecops::dot(&lc.g, x);
            let inv = 1.0 / slack;
            for i in 0..n {
                let gi = lc.g[i];
                if gi == 0.0 {
                    continue;
                }
                grad[i] += gi * inv;
                let gi_inv2 = gi * inv * inv;
                for j in 0..n {
                    let gj = lc.g[j];
                    if gj != 0.0 {
                        hess[(i, j)] += gi_inv2 * gj;
                    }
                }
            }
        }
        for sc in p.soc_constraints() {
            let u = sc.u(x);
            let z = sc.z(x);
            let psi = u * u - vecops::dot(&z, &z);
            let at_z = sc.a.vec_mul(&z).expect("validated dimensions");
            let mut grad_psi = vec![0.0; n];
            for i in 0..n {
                grad_psi[i] = 2.0 * u * sc.d[i] - 2.0 * at_z[i];
            }
            let inv_psi = 1.0 / psi;
            for i in 0..n {
                grad[i] -= grad_psi[i] * inv_psi;
            }
            let a = &sc.a;
            match cone_term {
                ConeTerm::Gram => {
                    let mut gram = Matrix::zeros(n, n);
                    for r in 0..a.rows() {
                        let row = a.row(r);
                        for i in 0..n {
                            for j in 0..n {
                                gram[(i, j)] += row[i] * row[j];
                            }
                        }
                    }
                    for i in 0..n {
                        for j in 0..n {
                            hess[(i, j)] += 2.0 * inv_psi * gram[(i, j)];
                        }
                    }
                }
                ConeTerm::PerRow => {
                    for r in 0..a.rows() {
                        let row = a.row(r);
                        for i in 0..n {
                            let ai = row[i];
                            if ai == 0.0 {
                                continue;
                            }
                            let w = 2.0 * ai * inv_psi;
                            for j in 0..n {
                                hess[(i, j)] += w * row[j];
                            }
                        }
                    }
                }
            }
            for i in 0..n {
                let di = sc.d[i];
                let gpi = grad_psi[i];
                for j in 0..n {
                    hess[(i, j)] +=
                        gpi * grad_psi[j] * inv_psi * inv_psi - 2.0 * di * sc.d[j] * inv_psi;
                }
            }
        }
    }
}

/// `n` values uniform in `[lo, hi)`.
fn uniform_vec(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.range_f64(lo..hi)).collect()
}

/// A seeded problem in `n` variables and a strictly feasible point of it.
///
/// Constraints are built around the interior point `x0`: the box, a few
/// single-nonzero rows (the eq. 18 shape), a few dense rows (the `t`
/// interval shape), an upper-triangular cone pair (the eq. 20 `β·Lᵀ`
/// shape), and a dense cone with an all-zero row.
fn problem(rng: &mut Rng, n: usize) -> (SocpProblem, Vec<f64>) {
    let b = Matrix::from_vec(n, n, uniform_vec(rng, n * n, -1.0, 1.0)).unwrap();
    let mut q = b.transpose().mul(&b).unwrap();
    q.add_ridge(0.1).unwrap();
    let mut p = SocpProblem::new(q, uniform_vec(rng, n, -2.0, 2.0)).unwrap();
    let x0 = uniform_vec(rng, n, -0.5, 0.5);
    let slack = |rng: &mut Rng| rng.range_f64(0.05..1.0);

    let lo: Vec<f64> = x0
        .iter()
        .map(|v| v - 0.5 - rng.range_f64(0.0..1.0))
        .collect();
    let hi: Vec<f64> = x0
        .iter()
        .map(|v| v + 0.5 + rng.range_f64(0.0..1.0))
        .collect();
    p.add_box(&lo, &hi).unwrap();
    for _ in 0..3 {
        let mut g = vec![0.0; n];
        g[rng.below(n)] = rng.range_f64(-2.0..2.0);
        let h = vecops::dot(&g, &x0) + slack(rng);
        p.add_linear(g, h).unwrap();
    }
    for _ in 0..2 {
        let g = uniform_vec(rng, n, -1.0, 1.0);
        let h = vecops::dot(&g, &x0) + slack(rng);
        p.add_linear(g, h).unwrap();
    }

    // Upper-triangular cone matrix, like β·Lᵀ from a Cholesky factor.
    let mut upper = Matrix::zeros(n, n);
    for r in 0..n {
        upper[(r, r)] = rng.range_f64(0.5..1.5);
        for c in r + 1..n {
            upper[(r, c)] = rng.range_f64(-0.5..0.5);
        }
    }
    let mu = uniform_vec(rng, n, -0.3, 0.3);
    for sign in [-1.0, 1.0] {
        let d: Vec<f64> = mu.iter().map(|m| sign * m).collect();
        let norm = vecops::norm2(&upper.mul_vec(&x0).unwrap());
        let e = norm + slack(rng) - vecops::dot(&d, &x0);
        p.add_soc(upper.clone(), vec![0.0; n], d, e).unwrap();
    }

    // Dense cone with an all-zero row and a nonzero offset.
    let rows = 3;
    let mut dense = Matrix::zeros(rows, n);
    for r in 1..rows {
        dense
            .row_mut(r)
            .copy_from_slice(&uniform_vec(rng, n, -1.0, 1.0));
    }
    let off = uniform_vec(rng, rows, -0.5, 0.5);
    let d = uniform_vec(rng, n, -0.5, 0.5);
    let mut z0 = dense.mul_vec(&x0).unwrap();
    for (z, o) in z0.iter_mut().zip(&off) {
        *z += o;
    }
    let e = vecops::norm2(&z0) + slack(rng) - vecops::dot(&d, &x0);
    p.add_soc(dense, off, d, e).unwrap();

    assert!(p.is_strictly_feasible(&x0, 0.0));
    (p, x0)
}

/// Seeded problems at every size, each paired with its phase-I form.
fn cases() -> Vec<(SocpProblem, Vec<f64>)> {
    let mut rng = Rng::new(0x1daf9);
    let mut out = Vec::new();
    for n in [1, 3, 42] {
        for _ in 0..4 {
            let (p, x0) = problem(&mut rng, n);
            // Phase I starts from an arbitrary point, slack above the worst
            // violation.
            let y = uniform_vec(&mut rng, n, -3.0, 3.0);
            let mut ys = y.clone();
            ys.push(p.max_violation(&y) + rng.range_f64(0.1..1.0));
            out.push((p.phase1_problem(), ys));
            out.push((p, x0));
        }
    }
    out
}

fn assert_bits(what: &str, got: f64, want: f64) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: {got:e} vs reference {want:e}"
    );
}

#[test]
fn barrier_matches_dense_reference_bit_for_bit() {
    let mut rng = Rng::new(42);
    let (mut pt, mut scratch) = (PointEval::default(), AssemblyScratch::default());
    let mut checked = 0;
    for (p, x0) in cases() {
        let n = p.num_vars();
        // The center plus nearby points, some of them outside the region.
        for k in 0..6 {
            let x: Vec<f64> = if k == 0 {
                x0.clone()
            } else {
                x0.iter()
                    .map(|v| v + rng.range_f64(-0.3..0.3) * k as f64)
                    .collect()
            };
            let want = dense::barrier_value(&p, &x);
            let got = barrier_value(&p, &x, &mut pt);
            assert_eq!(
                got.is_some(),
                want.is_some(),
                "feasibility verdicts differ at n = {n}"
            );
            let (Some(got), Some(want)) = (got, want) else {
                continue;
            };
            assert_bits("barrier value", got, want);

            // Start from the Newton system's own initial values so the
            // accumulation runs onto nonzero entries, as in `center`.
            let t = rng.range_f64(0.5..50.0);
            let mut grad0 = p.q().mul_vec(&x).unwrap();
            for (g, c) in grad0.iter_mut().zip(p.c()) {
                *g = t * (*g + c);
            }
            let hess0 = p.q().scaled(t);
            let (mut g_ref, mut h_ref) = (grad0.clone(), hess0.clone());
            dense::add_barrier_derivatives(&p, &x, &mut g_ref, &mut h_ref, ConeTerm::Gram);
            let (mut g_new, mut h_new) = (grad0, hess0);
            add_barrier_derivatives(&p, &pt, &mut g_new, &mut h_new, &mut scratch);
            for i in 0..n {
                assert_bits("gradient", g_new[i], g_ref[i]);
                for j in 0..=i {
                    assert_bits("hessian lower triangle", h_new[(i, j)], h_ref[(i, j)]);
                }
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 48,
        "only {checked} feasible evaluations were compared"
    );
}

#[test]
fn gram_hessian_matches_per_row_accumulation_to_rounding() {
    let mut rng = Rng::new(7);
    let (mut pt, mut scratch) = (PointEval::default(), AssemblyScratch::default());
    let mut worst = 0.0f64;
    for (p, x0) in cases() {
        let n = p.num_vars();
        for k in 0..4 {
            let x: Vec<f64> = x0
                .iter()
                .map(|v| v + rng.range_f64(-0.1..0.1) * k as f64)
                .collect();
            if barrier_value(&p, &x, &mut pt).is_none() {
                continue;
            }
            let mut g = vec![0.0; n];
            let (mut h_row, mut h_new) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
            dense::add_barrier_derivatives(&p, &x, &mut g, &mut h_row, ConeTerm::PerRow);
            add_barrier_derivatives(&p, &pt, &mut vec![0.0; n], &mut h_new, &mut scratch);
            // A barrier Hessian is positive definite, so |h_ij| is at most
            // sqrt(h_ii·h_jj): the scale an entry's rounding is judged by.
            for i in 0..n {
                for j in 0..=i {
                    let scale = (h_row[(i, i)] * h_row[(j, j)]).sqrt();
                    let rel = (h_new[(i, j)] - h_row[(i, j)]).abs() / scale;
                    assert!(
                        rel <= 1e-12,
                        "hessian ({i}, {j}) at n = {n}: {:e} vs per-row {:e}",
                        h_new[(i, j)],
                        h_row[(i, j)]
                    );
                    worst = worst.max(rel);
                }
            }
        }
    }
    assert!(
        worst > 0.0,
        "the Gram form never moved a bit: nothing tested"
    );
}

#[test]
fn solves_match_dense_support_bit_for_bit() {
    let config = SolverConfig::default();
    for (p, x0) in cases().into_iter().skip(1).step_by(2) {
        let dense = p.with_dense_support();
        // The feasible warm start goes straight to phase II; the start
        // outside the box (which spans at most x0 ± 1.5) runs phase I, and
        // so may the cold start from the origin.
        let outside: Vec<f64> = x0.iter().map(|v| v + 3.0).collect();
        assert!(!p.is_strictly_feasible(&outside, 0.0));
        for start in [None, Some(&x0[..]), Some(&outside[..])] {
            match (
                p.solve_from(start, &config),
                dense.solve_from(start, &config),
            ) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.x.len(), b.x.len());
                    for (u, v) in a.x.iter().zip(&b.x) {
                        assert_bits("solution", *u, *v);
                    }
                    assert_bits("objective", a.objective, b.objective);
                    assert_bits("barrier t", a.barrier_t, b.barrier_t);
                    assert_eq!((a.newton_steps, a.stages), (b.newton_steps, b.stages));
                }
                (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            }
        }
    }
}

/// The line search's ladder `1, β, β², …`, all 60 rungs.
fn ladder() -> Vec<f64> {
    std::iter::successors(Some(1.0), |a| Some(a * BACKTRACK))
        .take(60)
        .collect()
}

/// `Σ |ln v|` over the slacks and `ψ`s of an evaluated point.
fn log_magnitude(pt: &PointEval) -> f64 {
    pt.slack.iter().chain(&pt.psi).map(|v| v.ln().abs()).sum()
}

#[test]
fn line_change_matches_direct_difference_on_the_ladder() {
    // The reference `t·(f(x+αΔ) − f(x)) + φ(x+αΔ) − φ(x)` subtracts two
    // absolute values, each rounded to a few ulps of its terms, so the
    // tolerance is 1e-12 of the summed magnitudes at both points,
    // `S = 1 + t·|f(x)| + t·|f(x+αΔ)| + Σ|ln slack| + Σ|ln ψ|`.
    let mut rng = Rng::new(0x11e5);
    let (mut pt, mut cand_pt) = (PointEval::default(), PointEval::default());
    let mut line = LineModel::default();
    let (mut feasible, mut infeasible, mut worst) = (0usize, 0usize, 0.0f64);
    for (p, x) in cases() {
        let n = p.num_vars();
        for _ in 0..3 {
            let t = 10f64.powf(rng.range_f64(0.0..10.0));
            let scale = 10f64.powf(rng.range_f64(-2.0..1.0));
            let delta: Vec<f64> = uniform_vec(&mut rng, n, -scale, scale);
            let phi = barrier_value(&p, &x, &mut pt).expect("a strictly feasible case");
            let f = p.objective(&x);
            let mut obj_grad = p.q().mul_vec(&x).unwrap();
            for (g, c) in obj_grad.iter_mut().zip(p.c()) {
                *g += c;
            }
            assert!(line.set(&p, t, &pt, &obj_grad, &delta));
            for alpha in ladder() {
                let mut cand = x.clone();
                vecops::axpy(alpha, &delta, &mut cand);
                let direct = barrier_value(&p, &cand, &mut cand_pt);
                let expanded = line.change(alpha);
                assert_eq!(
                    expanded.is_some(),
                    direct.is_some(),
                    "feasibility verdicts differ at n = {n}, α = {alpha:e}"
                );
                let (Some(got), Some(phi_c)) = (expanded, direct) else {
                    infeasible += 1;
                    continue;
                };
                feasible += 1;
                let f_c = p.objective(&cand);
                let want = t * (f_c - f) + (phi_c - phi);
                let s =
                    1.0 + t * (f.abs() + f_c.abs()) + log_magnitude(&pt) + log_magnitude(&cand_pt);
                let err = (got - want).abs() / s;
                assert!(
                    err <= 1e-12,
                    "n = {n}, t = {t:e}, α = {alpha:e}: change {got:e} vs direct {want:e}"
                );
                worst = worst.max(err);
            }
        }
    }
    assert!(
        feasible > 1000 && infeasible > 50,
        "{feasible} feasible and {infeasible} infeasible trials compared"
    );
    assert!(worst > 0.0, "every change matched exactly: nothing tested");
}

#[test]
fn accepted_step_is_strictly_feasible_by_direct_evaluation() {
    // One row x ≤ 1e16 at x = 1e16 − 4 (slack 4), descending f = −1000·x
    // along Δ = 3.5. At α = 1 the expanded slack is 4·(1 − 3.5/4) = 0.5 > 0,
    // but x + Δ = 1e16 − 0.5 rounds to 1e16, where the direct slack is 0.
    let mut p = SocpProblem::new(Matrix::zeros(1, 1), vec![-1000.0]).unwrap();
    p.add_linear(vec![1.0], 1e16).unwrap();
    let x0 = 1e16 - 4.0;
    let mut ws = Workspace::new();
    assert!(ws.point.evaluate(&p, &[x0]));
    ws.obj_grad = vec![-1000.0];
    ws.delta = vec![3.5];
    // t = 1: ∇(t·f + φ) = t·c + g/slack.
    ws.grad = vec![-1000.0 + 1.0 / 4.0];
    let slope = ws.grad[0] * ws.delta[0];
    assert!(ws.line.set(&p, 1.0, &ws.point, &ws.obj_grad, &ws.delta));
    assert!(
        ws.line.change(1.0).is_some_and(|d| d <= ARMIJO * slope),
        "the expanded form alone takes the full step"
    );
    assert_eq!(x0 + 3.5, 1e16, "the full step lands on the boundary");

    let mut x = vec![x0];
    assert!(line_search(&p, 1.0, &mut x, &mut ws).unwrap());
    assert!(
        barrier_value(&p, &x, &mut PointEval::default()).is_some(),
        "accepted x = {:e} is not strictly feasible",
        x[0]
    );
    assert_eq!(x[0], 1e16 - 2.0, "the half step is taken");
    assert_eq!(ws.point.slack, vec![2.0], "the evaluation follows x");
}

#[test]
fn extreme_slack_ratios_keep_the_product_finite() {
    // Along Δ = −1 from x = 0, rows x ≤ 1e-300 have ρ = −1e300 (their slack
    // grows by up to 1e300 times) and rows x ≤ 1e300 have ρ = −1e-300. Four
    // factors of 1e300 overflow a plain product.
    let mut p = SocpProblem::new(Matrix::zeros(1, 1), vec![0.0]).unwrap();
    for _ in 0..4 {
        p.add_linear(vec![1.0], 1e-300).unwrap();
        p.add_linear(vec![1.0], 1e300).unwrap();
    }
    let (x, delta) = ([0.0], [-1.0]);
    let mut pt = PointEval::default();
    let phi = barrier_value(&p, &x, &mut pt).unwrap();
    let mut line = LineModel::default();
    assert!(line.set(&p, 1.0, &pt, &[0.0], &delta));
    for want in [-1e300, -1e-300] {
        assert!(line.rho.iter().any(|r| (r / want - 1.0).abs() < 1e-15));
    }
    for alpha in ladder() {
        let got = line.change(alpha).expect("every step is feasible");
        let per_row: f64 = line.rho.iter().map(|r| -(1.0 - alpha * r).ln()).sum();
        assert!(got.is_finite());
        assert!(
            (got - per_row).abs() <= 1e-14 * per_row.abs(),
            "α = {alpha:e}: {got:e} vs per-row sum {per_row:e}"
        );
        let direct = barrier_value(&p, &[-alpha], &mut PointEval::default()).unwrap() - phi;
        assert!((got - direct).abs() <= 1e-12 * direct.abs());
    }

    // The product itself, at factors near 1e±300 in both orders.
    for factors in [[1e300, 1e300, 1e-300, 1e300], [1e-300, 1e-300, 3.0, 1e-300]] {
        let mut prod = ScaledProduct::ONE;
        for f in factors {
            prod.mul(f);
            assert!(prod.m.is_normal());
        }
        let per_row: f64 = factors.iter().map(|f| f.ln()).sum();
        assert!((prod.ln() - per_row).abs() <= 1e-14 * per_row.abs());
    }
}
