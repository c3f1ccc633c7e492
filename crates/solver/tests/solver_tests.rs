//! Integration tests for the interior-point solver on problems with known
//! closed-form solutions, plus randomized optimality probes.

use ldafp_linalg::{vecops, Matrix};
use ldafp_solver::{SocpProblem, SolverConfig, SolverError};
use ldafp_stats::rng::check;
use ldafp_stats::Rng;

fn cfg() -> SolverConfig {
    SolverConfig::default()
}

#[test]
fn qp_with_box_projects_to_corner() {
    // minimize ‖x − (3, -3)‖² over [−1, 1]² → (1, −1).
    let mut p = SocpProblem::new(Matrix::identity(2).scaled(2.0), vec![-6.0, 6.0]).unwrap();
    p.add_box(&[-1.0, -1.0], &[1.0, 1.0]).unwrap();
    let sol = p.solve(&cfg()).unwrap();
    assert!((sol.x[0] - 1.0).abs() < 1e-6, "x = {:?}", sol.x);
    assert!((sol.x[1] + 1.0).abs() < 1e-6, "x = {:?}", sol.x);
}

#[test]
fn qp_solution_satisfies_kkt_stationarity_on_interior() {
    // minimize ½xᵀQx + cᵀx with loose constraints → unconstrained optimum.
    let q = Matrix::from_rows(&[&[3.0, 0.5], &[0.5, 2.0]]).unwrap();
    let c = vec![1.0, -2.0];
    let mut p = SocpProblem::new(q.clone(), c.clone()).unwrap();
    p.add_box(&[-100.0, -100.0], &[100.0, 100.0]).unwrap();
    let sol = p.solve(&cfg()).unwrap();
    // Q x* + c ≈ 0
    let grad = vecops::add(&q.mul_vec(&sol.x).unwrap(), &c);
    assert!(vecops::norm2(&grad) < 1e-5, "grad = {grad:?}");
}

#[test]
fn soc_projection_known_solution() {
    // minimize ‖x − p‖² s.t. ‖x‖ ≤ r → x = p·r/‖p‖ for ‖p‖ > r.
    let target = [4.0, 3.0]; // norm 5
    let r = 2.0;
    let mut p = SocpProblem::new(
        Matrix::identity(2).scaled(2.0),
        vec![-2.0 * target[0], -2.0 * target[1]],
    )
    .unwrap();
    p.add_soc(Matrix::identity(2), vec![0.0; 2], vec![0.0; 2], r)
        .unwrap();
    let sol = p.solve(&cfg()).unwrap();
    let expect = [4.0 * r / 5.0, 3.0 * r / 5.0];
    assert!((sol.x[0] - expect[0]).abs() < 1e-5, "x = {:?}", sol.x);
    assert!((sol.x[1] - expect[1]).abs() < 1e-5, "x = {:?}", sol.x);
}

#[test]
fn shifted_scaled_cone() {
    // minimize (x−5)² s.t. ‖2x − 2‖ ≤ x + 1  ⟺  |2(x−1)| ≤ x+1.
    // For x ≥ 1: 2x−2 ≤ x+1 → x ≤ 3. Optimum at x = 3.
    let mut p = SocpProblem::new(Matrix::identity(1).scaled(2.0), vec![-10.0]).unwrap();
    p.add_soc(
        Matrix::from_rows(&[&[2.0]]).unwrap(),
        vec![-2.0],
        vec![1.0],
        1.0,
    )
    .unwrap();
    let sol = p.solve(&cfg()).unwrap();
    assert!((sol.x[0] - 3.0).abs() < 1e-5, "x = {:?}", sol.x);
}

#[test]
fn infeasible_box_reported() {
    let mut p = SocpProblem::new(Matrix::identity(2), vec![0.0; 2]).unwrap();
    p.add_linear(vec![1.0, 0.0], -5.0).unwrap(); // x ≤ −5
    p.add_linear(vec![-1.0, 0.0], -5.0).unwrap(); // x ≥ 5
    assert!(matches!(
        p.solve(&cfg()),
        Err(SolverError::Infeasible { .. })
    ));
}

#[test]
fn equality_like_thin_slab() {
    // Approximate the equality t = w via two tight inequalities (a thin
    // slab of half-planes).
    let eps = 1e-6;
    // minimize (w − 2)² over w with t := 1·w restricted to [1−eps, 1+eps].
    let mut p = SocpProblem::new(Matrix::identity(1).scaled(2.0), vec![-4.0]).unwrap();
    p.add_linear(vec![1.0], 1.0 + eps).unwrap();
    p.add_linear(vec![-1.0], -(1.0 - eps)).unwrap();
    let sol = p.solve(&cfg()).unwrap();
    assert!((sol.x[0] - 1.0).abs() < 1e-4, "x = {:?}", sol.x);
}

#[test]
fn lda_fp_shaped_relaxation_solves() {
    // A miniature of the real node problem: quadratic scatter objective,
    // box, |w|-split linear overflow constraints, two covariance cones.
    let s_w = Matrix::from_rows(&[&[1.0, 0.2, 0.0], &[0.2, 2.0, 0.1], &[0.0, 0.1, 1.5]]).unwrap();
    let mut p = SocpProblem::new(s_w.scaled(2.0), vec![0.0; 3]).unwrap();
    p.add_box(&[-2.0, -2.0, -2.0], &[1.875, 1.875, 1.875])
        .unwrap();
    // A slab: d = (1, 0.5, −0.25), 0.05 ≤ dᵀw ≤ 3.
    let d = [1.0, 0.5, -0.25];
    p.add_linear(d.to_vec(), 3.0).unwrap();
    p.add_linear(d.iter().map(|x| -x).collect(), -0.05).unwrap();
    // Cones: β·‖Lᵀw‖ ≤ 2^{K−1} − wᵀμ and β·‖Lᵀw‖ ≤ 2^{K−1} + wᵀμ (b = 0).
    let beta = 2.575;
    let sigma = Matrix::from_rows(&[&[0.5, 0.1, 0.0], &[0.1, 0.8, 0.0], &[0.0, 0.0, 0.3]]).unwrap();
    let l_t = {
        let ch = sigma.cholesky().unwrap();
        ch.factor().transpose().scaled(beta)
    };
    let mu = [0.3, -0.2, 0.1];
    p.add_soc(
        l_t.clone(),
        vec![0.0; 3],
        mu.iter().map(|x| -x).collect(),
        2.0,
    )
    .unwrap();
    p.add_soc(l_t, vec![0.0; 3], mu.to_vec(), 2.0 - 2.0f64.powi(-4))
        .unwrap();
    let sol = p.solve(&cfg()).unwrap();
    assert!(
        p.max_violation(&sol.x) < 1e-7,
        "violation {}",
        p.max_violation(&sol.x)
    );
    // Objective is ≥ 0 (PSD) and the solution should push t toward its
    // minimum, keeping w small.
    assert!(sol.objective >= -1e-9);
}

#[test]
fn solution_reports_steps_and_gap() {
    let mut p = SocpProblem::new(Matrix::identity(1).scaled(2.0), vec![-6.0]).unwrap();
    p.add_linear(vec![1.0], 1.0).unwrap();
    let sol = p.solve(&cfg()).unwrap();
    assert!(sol.newton_steps > 0);
    assert!(sol.stages > 0);
    assert!(sol.duality_gap_bound <= cfg().tol);
}

#[test]
fn gap_bound_counts_cone_barrier_degree() {
    // minimize u over (z, u) s.t. |z| ≤ u: p* = 0 at the cone's apex, where
    // −log(u² − z²) acts with its full degree 2 and the centered point sits
    // at u = 2/t. One cone counted as one constraint (1/t) understates the
    // gap; the degree-correct bound 2/t covers it.
    let mut p = SocpProblem::new(Matrix::zeros(2, 2), vec![0.0, 1.0]).unwrap();
    p.add_soc(
        Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
        vec![0.0],
        vec![0.0, 1.0],
        0.0,
    )
    .unwrap();
    assert_eq!(p.barrier_degree(), 2);
    let sol = p.solve_from(Some(&[0.0, 1.0]), &cfg()).unwrap();
    let gap = sol.objective; // f(x) − p*
    let per_constraint = p.num_constraints() as f64 / sol.barrier_t;
    assert!(
        gap > per_constraint,
        "gap {gap:e} within the per-constraint bound {per_constraint:e}"
    );
    assert!(
        gap <= sol.duality_gap_bound,
        "gap {gap:e} exceeds {:e}",
        sol.duality_gap_bound
    );
    let report = p.kkt_report(&sol.x, sol.barrier_t).unwrap();
    assert_eq!(report.duality_gap_bound, sol.duality_gap_bound);
}

fn floats(rng: &mut Rng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.range_f64(lo..hi)).collect()
}

/// The solver's output must (a) satisfy all constraints and (b) beat any
/// random feasible point the case draws.
#[test]
fn beats_random_feasible_points() {
    let case = |rng: &mut Rng| {
        let qdiag = floats(rng, 3, 0.1, 5.0);
        let c = floats(rng, 3, -2.0, 2.0);
        let probe = floats(rng, 3, -1.0, 1.0);
        (qdiag, c, probe, rng.range_f64(0.5..4.0))
    };
    check(48, case, |(qdiag, c, probe, radius)| {
        let radius = *radius;
        let mut p = SocpProblem::new(Matrix::from_diag(qdiag), c.clone()).unwrap();
        p.add_box(&[-1.0; 3], &[1.0; 3]).unwrap();
        p.add_soc(Matrix::identity(3), vec![0.0; 3], vec![0.0; 3], radius)
            .unwrap();
        let sol = p.solve(&cfg()).unwrap();
        assert!(p.max_violation(&sol.x) < 1e-6);
        // Scale the probe into the ball if needed.
        let nrm = vecops::norm2(probe);
        let feasible_probe = if nrm > radius * 0.99 {
            vecops::scale(probe, radius * 0.99 / nrm.max(1e-12))
        } else {
            probe.clone()
        };
        if p.max_violation(&feasible_probe) < 0.0 {
            assert!(
                sol.objective <= p.objective(&feasible_probe) + 1e-5,
                "solver {} beaten by probe {}",
                sol.objective,
                p.objective(&feasible_probe)
            );
        }
    });
}

/// Warm starting from a feasible point must not change the optimum.
#[test]
fn warm_start_agrees_with_cold_start() {
    check(
        48,
        |rng| floats(rng, 2, -2.0, 2.0),
        |c| {
            let mut p = SocpProblem::new(Matrix::identity(2).scaled(2.0), c.clone()).unwrap();
            p.add_box(&[-1.0; 2], &[1.0; 2]).unwrap();
            let cold = p.solve(&cfg()).unwrap();
            let warm = p.solve_from(Some(&[0.5, -0.5]), &cfg()).unwrap();
            assert!(
                (cold.objective - warm.objective).abs() < 1e-6,
                "cold {} vs warm {}",
                cold.objective,
                warm.objective
            );
        },
    );
}

#[test]
fn kkt_report_certifies_barrier_solution() {
    let mut p = SocpProblem::new(Matrix::identity(2).scaled(2.0), vec![-6.0, 6.0]).unwrap();
    p.add_box(&[-1.0, -1.0], &[1.0, 1.0]).unwrap();
    let sol = p.solve(&cfg()).unwrap();
    let report = p
        .kkt_report(&sol.x, sol.barrier_t)
        .expect("solution is strictly feasible");
    // Near-centered: stationarity residual small relative to gradient scale.
    assert!(
        report.stationarity_residual < 1e-3,
        "stationarity {}",
        report.stationarity_residual
    );
    assert!(report.min_slack > 0.0);
    assert!(report.duality_gap_bound <= 1e-6);
    // An interior non-optimal point is NOT centered: residual is large.
    let bad = p.kkt_report(&[0.0, 0.0], sol.barrier_t).unwrap();
    assert!(
        bad.stationarity_residual > 1.0,
        "bad point residual {}",
        bad.stationarity_residual
    );
}

#[test]
fn kkt_report_none_outside_feasible_region() {
    let mut p = SocpProblem::new(Matrix::identity(1), vec![0.0]).unwrap();
    p.add_linear(vec![1.0], 1.0).unwrap();
    assert!(p.kkt_report(&[2.0], 100.0).is_none());
    assert!(p.kkt_report(&[0.0], 0.0).is_none());
    assert!(p.kkt_report(&[0.0, 0.0], 1.0).is_none());
}
