use std::fmt;

/// Errors produced while training or evaluating classifiers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The training data cannot produce a classifier (degenerate classes,
    /// mismatched dimensions, identical means, …).
    InvalidTrainingData {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The LDA-FP constraint set admits no fixed-point weight vector at all
    /// (every grid point violates the overflow constraints).
    NoFeasibleClassifier,
    /// Every `QK.F` split tried by the automatic format search failed.
    /// Each entry pairs the format label (e.g. `"Q2.3"`) with the error it
    /// produced, so callers see the full picture instead of only the last
    /// failure.
    AutoFormatSearchFailed {
        /// `(format label, error message)` per attempted split, in order.
        failures: Vec<(String, String)>,
    },
    /// A linear-algebra kernel failed.
    Linalg(ldafp_linalg::LinalgError),
    /// The convex relaxation solver failed.
    Solver(ldafp_solver::SolverError),
    /// A statistics routine failed (e.g. invalid confidence level).
    Stats(ldafp_stats::StatsError),
    /// A fixed-point operation failed (format mismatches are programming
    /// errors surfaced as errors, never silently re-aligned).
    FixedPoint(ldafp_fixedpoint::FixedPointError),
    /// Training was cooperatively interrupted mid-search. The final search
    /// snapshot was flushed to the checkpoint path, so a later call with the
    /// same checkpoint policy resumes bit-identically; no model is returned.
    Interrupted,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidTrainingData { reason } => {
                write!(f, "invalid training data: {reason}")
            }
            CoreError::NoFeasibleClassifier => {
                write!(
                    f,
                    "no fixed-point weight vector satisfies the overflow constraints"
                )
            }
            CoreError::AutoFormatSearchFailed { failures } => {
                write!(f, "automatic format search failed for every split:")?;
                for (fmt, err) in failures {
                    write!(f, " [{fmt}: {err}]")?;
                }
                Ok(())
            }
            CoreError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            CoreError::Solver(e) => write!(f, "solver failure: {e}"),
            CoreError::Stats(e) => write!(f, "statistics failure: {e}"),
            CoreError::FixedPoint(e) => write!(f, "fixed-point failure: {e}"),
            CoreError::Interrupted => {
                write!(f, "training interrupted; checkpoint flushed, resumable")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Linalg(e) => Some(e),
            CoreError::Solver(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::FixedPoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ldafp_linalg::LinalgError> for CoreError {
    fn from(e: ldafp_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}
impl From<ldafp_solver::SolverError> for CoreError {
    fn from(e: ldafp_solver::SolverError) -> Self {
        CoreError::Solver(e)
    }
}
impl From<ldafp_stats::StatsError> for CoreError {
    fn from(e: ldafp_stats::StatsError) -> Self {
        CoreError::Stats(e)
    }
}
impl From<ldafp_fixedpoint::FixedPointError> for CoreError {
    fn from(e: ldafp_fixedpoint::FixedPointError) -> Self {
        CoreError::FixedPoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = CoreError::from(ldafp_linalg::LinalgError::Singular { pivot: 0 });
        assert!(e.to_string().contains("singular"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&CoreError::NoFeasibleClassifier).is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
