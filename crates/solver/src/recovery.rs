//! Solve-path recovery: escalating retries for transient numerical failure.
//!
//! The barrier method can stall on extremely ill-conditioned relaxations
//! (nearly singular scatter matrices, boxes squeezed to a sliver).
//! Branch-and-bound used to paper over such failures with a
//! trivial lower bound, silently weakening the optimality certificate. This
//! module instead retries the solve on one fixed **escalating schedule**
//! before giving up. Retry `i` (1-based):
//!
//! 1. loosens the barrier and Newton tolerances by `100^i` (a coarse center
//!    is enough for a bound);
//! 2. perturbs the warm-start point by a relative `1e-3·i` (escapes starts
//!    that sit on a constraint boundary where phase I stalls).
//!
//! Each retry solves the unmodified problem, so a successful one reports
//! the objective and duality-gap bound of the problem the caller posed.
//! Every attempt is recorded in a [`RecoveryAttempt`] so callers can feed
//! degradation accounting.
//!
//! The perturbation is deterministic (a hash of the attempt index), so a
//! recovered search is exactly reproducible.

use crate::workspace::StageTimes;
use crate::{Result, SocpProblem, Solution, SolverConfig, SolverError};
use ldafp_obs as obs;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-retry multiplier of the barrier and Newton tolerances.
const TOL_RELAX: f64 = 100.0;
/// Per-retry relative magnitude of the warm-start perturbation.
const PERTURB_SCALE: f64 = 1e-3;

/// A solution obtained through the recovering solve path, together with the
/// escalation trail that produced it.
#[derive(Debug, Clone)]
pub struct RecoveredSolution {
    /// The solution of the (possibly loosened) solve.
    pub solution: Solution,
    /// Every attempt made, in order. Empty when the first solve succeeded.
    pub attempts: Vec<RecoveryAttempt>,
}

impl RecoveredSolution {
    /// Whether any retry was needed (i.e. the result is a *recovered* solve
    /// and the search should be accounted as degraded).
    pub fn recovered(&self) -> bool {
        !self.attempts.is_empty()
    }
}

/// The escalation of retry `attempt` (1-based): `(tol_factor,
/// perturbation)`.
fn schedule(attempt: usize) -> (f64, f64) {
    (
        TOL_RELAX.powi(attempt as i32),
        PERTURB_SCALE * attempt as f64,
    )
}

/// One attempt of the recovering solve: what was escalated and how it
/// ended.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryAttempt {
    /// Attempt index: 0 is the initial solve, `i ≥ 1` the `i`-th retry.
    pub attempt: usize,
    /// Barrier tolerance used.
    pub tol: f64,
    /// Relative warm-start perturbation applied (0 = none).
    pub perturbation: f64,
    /// Error message of the attempt, or `None` when it succeeded.
    pub error: Option<String>,
    /// Stable label of the attempt's error kind (see [`error_kind`]), or
    /// `None` when it succeeded.
    pub error_kind: Option<String>,
}

/// Cached handles into the global metrics registry (registered once per
/// process; recording is lock-free).
struct SolveMetrics {
    solves: Arc<obs::Counter>,
    recovered_solves: Arc<obs::Counter>,
    failed_solves: Arc<obs::Counter>,
    retries: Arc<obs::Counter>,
    newton_steps: Arc<obs::Counter>,
    solve_us: Arc<obs::Histogram>,
    failed_solve_us: Arc<obs::Histogram>,
    newton_per_solve: Arc<obs::Histogram>,
}

fn solve_metrics() -> &'static SolveMetrics {
    static METRICS: OnceLock<SolveMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::Registry::global();
        SolveMetrics {
            solves: r.counter("solver.solves"),
            recovered_solves: r.counter("solver.recovered_solves"),
            failed_solves: r.counter("solver.failed_solves"),
            retries: r.counter("solver.retries"),
            newton_steps: r.counter("solver.newton_steps"),
            solve_us: r.histogram("solver.solve_us"),
            failed_solve_us: r.histogram("solver.failed_solve_us"),
            newton_per_solve: r.histogram("solver.newton_steps_per_solve"),
        }
    })
}

/// Per-SOCP-solve telemetry: counters always (a handful of relaxed atomic
/// adds per solve), a `solver.solved` trace event only when tracing is on.
/// `times` holds the stage split of every attempt when the solve was timed
/// (tracing was on when it started). The event's `bound` is
/// [`SocpProblem::lower_bound`]: the bound a branch-and-bound node takes
/// from this solve, its objective constant included.
fn record_solve(
    problem: &SocpProblem,
    recovered: &RecoveredSolution,
    started: Instant,
    times: Option<&StageTimes>,
) {
    let m = solve_metrics();
    m.solves.inc();
    if recovered.recovered() {
        m.recovered_solves.inc();
    }
    m.newton_steps.add(recovered.solution.newton_steps as u64);
    m.newton_per_solve
        .record(recovered.solution.newton_steps as u64);
    m.solve_us
        .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    if obs::enabled() {
        let mut event = obs::Event::new("solver.solved")
            .with("newton_steps", recovered.solution.newton_steps)
            .with("phase1_steps", recovered.solution.phase1_steps)
            .with("stages", recovered.solution.stages)
            .with("objective", recovered.solution.objective)
            .with("duality_gap_bound", recovered.solution.duality_gap_bound)
            .with("bound", problem.lower_bound(&recovered.solution))
            .with("retries", recovered.attempts.len())
            .with(
                "elapsed_us",
                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            );
        if let Some(t) = times {
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            event = event
                .with("assembly_us", us(t.assembly))
                .with("factor_us", us(t.factor))
                .with("line_search_us", us(t.line_search))
                .with("phase1_us", us(t.phase1))
                .with("line_search_trials", t.line_search_trials);
        }
        obs::emit(event);
    }
}

/// A solve that ended in an error (infeasibility certificates included):
/// counted in `solver.failed_solves` and timed in `solver.failed_solve_us`,
/// so `solver.solve_us` keeps meaning successful solves only.
fn record_failure(started: Instant) {
    let m = solve_metrics();
    m.failed_solves.inc();
    m.failed_solve_us
        .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
}

/// Solves `problem`, retrying up to `max_retries` times on the fixed
/// schedule (see the module docs) after non-`Infeasible` failures.
///
/// Infeasibility is *not* retried: it is a phase-I certificate, not a
/// numerical accident, and branch-and-bound must see it to prune.
///
/// `inject(attempt)` may return an error that replaces the real solve of
/// that attempt (attempt 0 is the initial solve). Production callers pass
/// a hook that always returns `None`; the fault-injection harness forces
/// `NumericalFailure`/`Infeasible` at chosen attempts to exercise the
/// schedule.
///
/// # Errors
///
/// Returns the **last** attempt's error when the schedule is exhausted, or
/// the original error for non-recoverable kinds ([`SolverError::Infeasible`],
/// [`SolverError::InvalidProblem`]).
pub fn solve_with_recovery_checked(
    problem: &SocpProblem,
    x0: Option<&[f64]>,
    config: &SolverConfig,
    max_retries: usize,
    mut inject: impl FnMut(usize) -> Option<SolverError>,
) -> Result<RecoveredSolution> {
    let started = Instant::now();
    // Stage times, summed over every attempt, are taken only for a solve
    // that starts with tracing on.
    let mut times = obs::enabled().then(StageTimes::default);
    let mut run = |start: Option<&[f64]>, cfg: &SolverConfig, attempt: usize| match inject(attempt)
    {
        Some(e) => Err(e),
        None => problem.solve_timed(start, cfg, times.as_mut()),
    };

    // Attempt 0: the initial solve.
    let first_err = match run(x0, config, 0) {
        Ok(solution) => {
            let recovered = RecoveredSolution {
                solution,
                attempts: Vec::new(),
            };
            record_solve(problem, &recovered, started, times.as_ref());
            return Ok(recovered);
        }
        Err(e) if !is_recoverable(&e) => {
            record_failure(started);
            return Err(e);
        }
        Err(e) => e,
    };

    let mut attempts: Vec<RecoveryAttempt> = vec![RecoveryAttempt {
        attempt: 0,
        tol: config.tol,
        perturbation: 0.0,
        error: Some(first_err.to_string()),
        error_kind: Some(error_kind(&first_err).to_string()),
    }];
    let mut last_err = first_err;

    for attempt in 1..=max_retries {
        let (tol_factor, perturbation) = schedule(attempt);
        solve_metrics().retries.inc();
        if obs::enabled() {
            // Retry-escalation trail: what failed and what is escalated.
            obs::emit(
                obs::Event::new("solver.retry")
                    .with("attempt", attempt)
                    .with("prior_error_kind", error_kind(&last_err))
                    .with("tol_factor", tol_factor)
                    .with("perturbation", perturbation),
            );
        }
        let cfg = SolverConfig {
            tol: config.tol * tol_factor,
            newton_tol: config.newton_tol * tol_factor,
        };
        let perturbed = x0.map(|x| perturb_start(x, perturbation, attempt));
        let trail = |error: Option<&SolverError>| RecoveryAttempt {
            attempt,
            tol: cfg.tol,
            perturbation,
            error: error.map(ToString::to_string),
            error_kind: error.map(|e| error_kind(e).to_string()),
        };
        match run(perturbed.as_deref(), &cfg, attempt) {
            Ok(solution) => {
                attempts.push(trail(None));
                let recovered = RecoveredSolution { solution, attempts };
                record_solve(problem, &recovered, started, times.as_ref());
                return Ok(recovered);
            }
            Err(e) if !is_recoverable(&e) => {
                record_failure(started);
                return Err(e);
            }
            Err(e) => {
                attempts.push(trail(Some(&e)));
                last_err = e;
            }
        }
    }
    record_failure(started);
    if obs::enabled() {
        obs::emit(
            obs::Event::new("solver.exhausted")
                .with("attempts", max_retries + 1)
                .with("error_kind", error_kind(&last_err)),
        );
    }
    Err(last_err)
}

/// Whether an error is worth retrying: numerical stalls and linear-algebra
/// failures are; infeasibility certificates and malformed problems are not.
pub(crate) fn is_recoverable(e: &SolverError) -> bool {
    matches!(
        e,
        SolverError::NumericalFailure { .. } | SolverError::Linalg(_)
    )
}

/// A short, stable label for a solver error kind — the key used by
/// degradation accounting histograms.
pub fn error_kind(e: &SolverError) -> &'static str {
    match e {
        SolverError::InvalidProblem { .. } => "invalid-problem",
        SolverError::Infeasible { .. } => "infeasible",
        SolverError::NumericalFailure { .. } => "numerical-failure",
        SolverError::Linalg(_) => "linalg",
    }
}

/// Deterministic warm-start perturbation: each coordinate moves by
/// `scale · max(1, |xⱼ|) · uⱼ` with `uⱼ ∈ [−1, 1]` derived from a
/// SplitMix64 hash of `(attempt, j)`.
fn perturb_start(x: &[f64], scale: f64, attempt: usize) -> Vec<f64> {
    if scale == 0.0 {
        return x.to_vec();
    }
    x.iter()
        .enumerate()
        .map(|(j, &v)| {
            let h = splitmix64((attempt as u64) << 32 ^ j as u64 ^ 0x9e37_79b9_7f4a_7c15);
            // Map to [−1, 1].
            let u = (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            v + scale * v.abs().max(1.0) * u
        })
        .collect()
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldafp_linalg::Matrix;

    /// The trainer's default retry budget.
    const MAX_RETRIES: usize = 3;

    /// minimize (x−2)² + (y−2)² s.t. x + y ≤ 2 → optimum (1, 1).
    fn toy_problem() -> SocpProblem {
        let mut p = SocpProblem::new(Matrix::identity(2).scaled(2.0), vec![-4.0, -4.0]).unwrap();
        p.add_linear(vec![1.0, 1.0], 2.0).unwrap();
        p
    }

    #[test]
    fn clean_solve_records_no_attempts() {
        let p = toy_problem();
        let r =
            solve_with_recovery_checked(&p, None, &SolverConfig::default(), MAX_RETRIES, |_| None)
                .unwrap();
        assert!(r.attempts.is_empty());
        assert!(!r.recovered());
        assert!((r.solution.x[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn recovers_after_injected_failures() {
        let p = toy_problem();
        // Attempts 0 and 1 fail; attempt 2 is allowed through.
        let r = solve_with_recovery_checked(
            &p,
            Some(&[0.0, 0.0]),
            &SolverConfig::default(),
            MAX_RETRIES,
            |attempt| {
                (attempt < 2).then(|| SolverError::NumericalFailure {
                    reason: "injected".to_string(),
                })
            },
        )
        .unwrap();
        assert!(r.recovered());
        // Failed attempts 0 and 1 plus the successful attempt 2.
        assert_eq!(r.attempts.len(), 3);
        assert!(r.attempts[0].error.is_some());
        assert!(r.attempts[1].error.is_some());
        assert!(r.attempts[2].error.is_none());
        // Attempt 2 runs at tolerances loosened by 100² from a start
        // perturbed by 2e-3; the loose tolerance barely moves the solution.
        let config = SolverConfig::default();
        assert_eq!(r.attempts[2].tol, config.tol * 1e4);
        assert_eq!(r.attempts[2].perturbation, 2e-3);
        assert!((r.solution.x[0] - 1.0).abs() < 1e-3);
        assert!((r.solution.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn exhausted_schedule_returns_last_error() {
        let p = toy_problem();
        let timed = failed_solves_timed();
        let mut calls = 0usize;
        let err = solve_with_recovery_checked(&p, None, &SolverConfig::default(), 2, |_| {
            calls += 1;
            Some(SolverError::NumericalFailure {
                reason: format!("injected #{calls}"),
            })
        })
        .unwrap_err();
        // Initial attempt + 2 retries, all injected.
        assert_eq!(calls, 3);
        assert!(matches!(err, SolverError::NumericalFailure { .. }));
        assert!(err.to_string().contains("#3"), "{err}");
        assert!(
            failed_solves_timed() > timed,
            "exhausted solve left untimed"
        );
    }

    /// Solves timed into `solver.failed_solve_us` so far (the registry is
    /// process-wide, so tests compare deltas).
    fn failed_solves_timed() -> u64 {
        solve_metrics().failed_solve_us.count()
    }

    #[test]
    fn infeasible_is_not_retried() {
        let p = toy_problem();
        let timed = failed_solves_timed();
        let mut calls = 0usize;
        let err =
            solve_with_recovery_checked(&p, None, &SolverConfig::default(), MAX_RETRIES, |_| {
                calls += 1;
                Some(SolverError::Infeasible { max_violation: 0.1 })
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert!(matches!(err, SolverError::Infeasible { .. }));
        assert!(
            failed_solves_timed() > timed,
            "infeasible solve left untimed"
        );
    }

    #[test]
    fn zero_retries_disables_recovery() {
        let p = toy_problem();
        let mut calls = 0usize;
        let err = solve_with_recovery_checked(&p, None, &SolverConfig::default(), 0, |_| {
            calls += 1;
            Some(SolverError::NumericalFailure {
                reason: "injected".to_string(),
            })
        })
        .unwrap_err();
        assert_eq!(calls, 1);
        assert!(is_recoverable(&err));
    }

    #[test]
    fn schedule_escalates_monotonically() {
        let mut prev_tol = 0.0;
        let mut prev_perturb = 0.0;
        for attempt in 1..=4 {
            let (tol_factor, perturb) = schedule(attempt);
            assert!(tol_factor > prev_tol, "tol must escalate");
            assert!(perturb > prev_perturb, "perturbation must escalate");
            prev_tol = tol_factor;
            prev_perturb = perturb;
        }
        // Retry i loosens by 100^i and perturbs by 1e-3·i.
        assert_eq!(schedule(1), (100.0, 1e-3));
        assert_eq!(schedule(2), (1e4, 2e-3));
    }

    #[test]
    fn perturbation_is_deterministic_and_bounded() {
        let x = vec![1.0, -2.0, 0.0];
        let a = perturb_start(&x, 1e-3, 1);
        let b = perturb_start(&x, 1e-3, 1);
        assert_eq!(a, b);
        let c = perturb_start(&x, 1e-3, 2);
        assert_ne!(a, c);
        for (orig, p) in x.iter().zip(&a) {
            assert!((orig - p).abs() <= 1e-3 * orig.abs().max(1.0) + 1e-15);
        }
        assert_eq!(perturb_start(&x, 0.0, 1), x);
    }

    #[test]
    fn error_kinds_are_stable() {
        assert_eq!(
            error_kind(&SolverError::Infeasible { max_violation: 0.0 }),
            "infeasible"
        );
        assert_eq!(
            error_kind(&SolverError::NumericalFailure {
                reason: String::new()
            }),
            "numerical-failure"
        );
    }
}
