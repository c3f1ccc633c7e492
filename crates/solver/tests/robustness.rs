//! Failure-injection tests: the solver must return a structured error (or
//! a valid solution) on pathological input — never panic, never hang.

use ldafp_linalg::Matrix;
use ldafp_solver::{SocpProblem, SolverConfig, SolverError};

fn cfg() -> SolverConfig {
    SolverConfig::default()
}

#[test]
fn zero_objective_with_constraints() {
    // Pure feasibility problem: any interior point is optimal.
    let mut p = SocpProblem::new(Matrix::zeros(2, 2), vec![0.0; 2]).unwrap();
    p.add_box(&[-1.0; 2], &[1.0; 2]).unwrap();
    let sol = p.solve(&cfg()).unwrap();
    assert!(p.max_violation(&sol.x) < 0.0);
}

#[test]
fn semidefinite_objective_flat_directions() {
    // Q has a null space; the barrier must still produce a minimizer.
    let q = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 0.0]]).unwrap();
    let mut p = SocpProblem::new(q, vec![-2.0, 1.0]).unwrap();
    p.add_box(&[-5.0; 2], &[5.0; 2]).unwrap();
    let sol = p.solve(&cfg()).unwrap();
    // x0 → 1 (strictly convex direction), x1 → −5 (linear pull to the wall).
    assert!((sol.x[0] - 1.0).abs() < 1e-4, "x = {:?}", sol.x);
    assert!(sol.x[1] < -4.9, "x = {:?}", sol.x);
}

#[test]
fn wildly_scaled_coefficients() {
    // 1e6 disparity between constraint scales.
    let mut p = SocpProblem::new(Matrix::identity(2).scaled(2.0), vec![0.0, 0.0]).unwrap();
    p.add_linear(vec![1e6, 0.0], 1e6).unwrap(); // x0 ≤ 1
    p.add_linear(vec![0.0, 1e-6], 1e-6).unwrap(); // x1 ≤ 1
    p.add_linear(vec![-1.0, 0.0], 0.5).unwrap(); // x0 ≥ −0.5
    p.add_linear(vec![0.0, -1.0], 0.5).unwrap();
    let sol = p.solve(&cfg()).unwrap();
    assert!(p.max_violation(&sol.x) < 1e-6);
    assert!(sol.x.iter().all(|v| v.abs() < 1.1));
}

#[test]
fn tiny_feasible_set() {
    // Box of width 1e-6 around an off-origin point: tight but clearly above
    // the feasibility margin.
    let c = [0.123456789, -0.987654321];
    let mut p = SocpProblem::new(Matrix::identity(2), vec![0.0; 2]).unwrap();
    p.add_box(&[c[0] - 5e-7, c[1] - 5e-7], &[c[0] + 5e-7, c[1] + 5e-7])
        .unwrap();
    let sol = p.solve(&cfg()).unwrap();
    assert!((sol.x[0] - c[0]).abs() < 1e-5);
    assert!((sol.x[1] - c[1]).abs() < 1e-5);
}

#[test]
fn sub_margin_interior_declared_infeasible() {
    // A box thinner than the configured feasibility margin has no point
    // with the required strict slack: the solver must say so rather than
    // return a numerically meaningless "solution".
    let mut p = SocpProblem::new(Matrix::identity(1), vec![0.0]).unwrap();
    p.add_box(&[0.5 - 5e-10], &[0.5 + 5e-10]).unwrap();
    assert!(matches!(
        p.solve(&cfg()),
        Err(SolverError::Infeasible { .. })
    ));
}

#[test]
fn cone_tangent_halfplane() {
    // Half-plane exactly tangent to the unit ball: the intersection has an
    // empty interior on one side of the touching point; phase I must not
    // loop forever either way.
    let mut p = SocpProblem::new(Matrix::identity(2), vec![0.0; 2]).unwrap();
    p.add_soc(Matrix::identity(2), vec![0.0; 2], vec![0.0; 2], 1.0)
        .unwrap();
    p.add_linear(vec![-1.0, 0.0], -1.0).unwrap(); // x0 ≥ 1: touches at (1, 0)
    match p.solve(&cfg()) {
        Ok(sol) => {
            // If it claims success the point must be essentially (1, 0).
            assert!((sol.x[0] - 1.0).abs() < 1e-3, "x = {:?}", sol.x);
        }
        Err(SolverError::Infeasible { .. }) => {} // also acceptable: empty interior
        Err(other) => panic!("unexpected failure mode: {other}"),
    }
}

#[test]
fn many_redundant_constraints() {
    let mut p = SocpProblem::new(Matrix::identity(3).scaled(2.0), vec![-2.0, 0.0, 2.0]).unwrap();
    for i in 0..200 {
        // 200 parallel copies of x0 ≤ 2 with slightly different rhs.
        p.add_linear(vec![1.0, 0.0, 0.0], 2.0 + (i as f64) * 1e-3)
            .unwrap();
    }
    p.add_box(&[-3.0; 3], &[3.0; 3]).unwrap();
    let sol = p.solve(&cfg()).unwrap();
    assert!((sol.x[0] - 1.0).abs() < 1e-4, "x = {:?}", sol.x);
}

#[test]
fn degenerate_point_box() {
    // lo == hi: the box is a single point, no strict interior exists.
    let mut p = SocpProblem::new(Matrix::identity(1), vec![0.0]).unwrap();
    p.add_box(&[0.5], &[0.5]).unwrap();
    match p.solve(&cfg()) {
        // No strictly feasible point ⇒ the barrier method must refuse.
        Err(SolverError::Infeasible { .. }) => {}
        Ok(sol) => {
            // …or, if a tolerance admits it, the answer must be the point.
            assert!((sol.x[0] - 0.5).abs() < 1e-6);
        }
        Err(other) => panic!("unexpected failure mode: {other}"),
    }
}

#[test]
fn non_finite_inputs_rejected_at_construction() {
    assert!(SocpProblem::new(Matrix::identity(1), vec![f64::NAN]).is_err());
    let mut p = SocpProblem::new(Matrix::identity(1), vec![0.0]).unwrap();
    assert!(p.add_linear(vec![f64::INFINITY], 0.0).is_err());
    assert!(p.add_linear(vec![1.0], f64::NAN).is_err());
    assert!(p
        .add_soc(Matrix::identity(1), vec![f64::NAN], vec![1.0], 1.0)
        .is_err());
    assert!(p.add_box(&[f64::NEG_INFINITY], &[1.0]).is_err());
}

#[test]
fn unbounded_direction_with_linear_objective_terminates() {
    // minimize x over x ≤ 1 (unbounded below). The barrier method walks
    // toward −∞ but must terminate by its stage budget, not hang.
    let mut p = SocpProblem::new(Matrix::zeros(1, 1), vec![1.0]).unwrap();
    p.add_linear(vec![1.0], 1.0).unwrap();
    // Either a (very negative) iterate comes back or a structured error.
    match p.solve(&cfg()) {
        Ok(sol) => assert!(sol.x[0] <= 1.0),
        Err(SolverError::NumericalFailure { .. }) => {}
        Err(other) => panic!("unexpected failure mode: {other}"),
    }
}
