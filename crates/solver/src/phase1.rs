//! Phase I: finding a strictly feasible start point (or certifying that
//! none exists, which branch-and-bound turns into node pruning).
//!
//! The auxiliary problem augments the variables with a slack `s` bounding
//! the worst violation:
//!
//! ```text
//! minimize    s
//! subject to  gᵢᵀx − hᵢ ≤ s            (original linear constraints, relaxed)
//!             ‖Aⱼx + bⱼ‖ ≤ dⱼᵀx + eⱼ + s  (original cones, relaxed)
//!             s ≥ −1                    (keeps the problem bounded)
//! ```
//!
//! Any `(x₀, s₀)` with `s₀` above the worst violation is strictly feasible
//! for the auxiliary problem, so the barrier engine runs directly. The
//! minimization stops early as soon as `s < −margin` is witnessed: the `x`
//! part is then a strictly feasible start for phase II.

use crate::{Result, SocpProblem, SolverConfig, SolverError, Workspace, FEASIBILITY_MARGIN};

/// Finds a strictly feasible point for `p`, optionally warm-starting the
/// search at `x0`.
///
/// Returns the point and the number of Newton steps spent.
///
/// # Errors
///
/// * [`SolverError::Infeasible`] when the minimized worst violation stays
///   above `−FEASIBILITY_MARGIN`.
/// * Propagates numerical failures from the barrier engine.
pub(crate) fn find_strictly_feasible(
    p: &SocpProblem,
    x0: Option<Vec<f64>>,
    config: &SolverConfig,
    ws: &mut Workspace,
) -> Result<(Vec<f64>, usize)> {
    let n = p.num_vars();
    let x0 = x0.unwrap_or_else(|| vec![0.0; n]);

    if p.num_constraints() == 0 {
        return Ok((x0, 0));
    }
    if p.is_strictly_feasible(&x0, FEASIBILITY_MARGIN) {
        return Ok((x0, 0));
    }

    let aux = p.phase1_problem();

    // Strictly feasible start for the auxiliary problem.
    let worst = p.max_violation(&x0);
    let s0 = (worst + 1.0).max(-0.5);
    let mut start = x0;
    start.push(s0);
    debug_assert!(aux.is_strictly_feasible(&start, 0.0));

    // Early exit once the x-part is strictly feasible with real margin.
    let stop = |xs: &[f64]| xs[xs.len() - 1] < -10.0 * FEASIBILITY_MARGIN;
    let phase1_cfg = SolverConfig {
        // Phase I only needs a qualitative answer; loose gap, same Newton
        // hygiene.
        tol: FEASIBILITY_MARGIN.max(1e-10),
        ..config.clone()
    };
    let (xs, _stages, steps, _t) =
        crate::barrier::barrier_minimize_with_stop(&aux, start, &phase1_cfg, Some(&stop), ws)?;

    let s = xs[n];
    let x: Vec<f64> = xs[..n].to_vec();
    if p.is_strictly_feasible(&x, FEASIBILITY_MARGIN) {
        return Ok((x, steps));
    }
    Err(SolverError::Infeasible {
        max_violation: s.max(p.max_violation(&x)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_linalg::Matrix;

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    #[test]
    fn already_feasible_origin_short_circuits() {
        let mut p = SocpProblem::new(Matrix::identity(2), vec![0.0; 2]).unwrap();
        p.add_linear(vec![1.0, 1.0], 5.0).unwrap();
        let (x, steps) = find_strictly_feasible(&p, None, &cfg(), &mut Workspace::new()).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
        assert_eq!(steps, 0);
    }

    #[test]
    fn finds_point_when_origin_infeasible() {
        // x ≥ 3 (i.e. −x ≤ −3): origin violates.
        let mut p = SocpProblem::new(Matrix::identity(1), vec![0.0]).unwrap();
        p.add_linear(vec![-1.0], -3.0).unwrap();
        let (x, steps) = find_strictly_feasible(&p, None, &cfg(), &mut Workspace::new()).unwrap();
        assert!(x[0] > 3.0, "x = {}", x[0]);
        assert!(steps > 0);
    }

    #[test]
    fn detects_infeasible_linear_system() {
        // x ≤ 0 and x ≥ 1: empty.
        let mut p = SocpProblem::new(Matrix::identity(1), vec![0.0]).unwrap();
        p.add_linear(vec![1.0], 0.0).unwrap();
        p.add_linear(vec![-1.0], -1.0).unwrap();
        match find_strictly_feasible(&p, None, &cfg(), &mut Workspace::new()) {
            Err(SolverError::Infeasible { max_violation }) => {
                assert!(max_violation > -1e-6);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn detects_infeasible_cone_vs_halfplane() {
        // ‖x‖ ≤ 1 and x₀ ≥ 3: empty.
        let mut p = SocpProblem::new(Matrix::identity(2), vec![0.0; 2]).unwrap();
        p.add_soc(Matrix::identity(2), vec![0.0; 2], vec![0.0; 2], 1.0)
            .unwrap();
        p.add_linear(vec![-1.0, 0.0], -3.0).unwrap();
        assert!(matches!(
            find_strictly_feasible(&p, None, &cfg(), &mut Workspace::new()),
            Err(SolverError::Infeasible { .. })
        ));
    }

    #[test]
    fn warm_start_used_when_feasible() {
        let mut p = SocpProblem::new(Matrix::identity(1), vec![0.0]).unwrap();
        p.add_linear(vec![-1.0], -3.0).unwrap(); // x ≥ 3
        let (x, steps) =
            find_strictly_feasible(&p, Some(vec![10.0]), &cfg(), &mut Workspace::new()).unwrap();
        assert_eq!(x, vec![10.0]);
        assert_eq!(steps, 0);
    }

    #[test]
    fn narrow_slab_feasible() {
        // 0.999 ≤ x ≤ 1.001 — tight but nonempty.
        let mut p = SocpProblem::new(Matrix::identity(1), vec![0.0]).unwrap();
        p.add_linear(vec![1.0], 1.001).unwrap();
        p.add_linear(vec![-1.0], -0.999).unwrap();
        let (x, _) = find_strictly_feasible(&p, None, &cfg(), &mut Workspace::new()).unwrap();
        assert!(x[0] > 0.999 && x[0] < 1.001, "x = {}", x[0]);
    }
}
