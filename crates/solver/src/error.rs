use std::fmt;

/// Errors produced by the convex solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolverError {
    /// The problem definition is malformed (dimension mismatches,
    /// non-finite data, non-PSD objective).
    InvalidProblem {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// Phase I certified (within tolerance) that no strictly feasible point
    /// exists. Branch-and-bound treats this as a pruned node.
    Infeasible {
        /// The smallest achieved maximum constraint violation.
        max_violation: f64,
    },
    /// Newton iterations stopped progressing before reaching tolerance —
    /// typically an extremely ill-conditioned relaxation.
    NumericalFailure {
        /// Human-readable description of where progress stalled.
        reason: String,
    },
    /// A linear-algebra kernel failed irrecoverably.
    Linalg(ldafp_linalg::LinalgError),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::InvalidProblem { reason } => write!(f, "invalid problem: {reason}"),
            SolverError::Infeasible { max_violation } => {
                write!(
                    f,
                    "problem is infeasible (best max violation {max_violation:e})"
                )
            }
            SolverError::NumericalFailure { reason } => {
                write!(f, "numerical failure: {reason}")
            }
            SolverError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ldafp_linalg::LinalgError> for SolverError {
    fn from(e: ldafp_linalg::LinalgError) -> Self {
        SolverError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SolverError::Infeasible { max_violation: 0.5 }
            .to_string()
            .contains("infeasible"));
        assert!(SolverError::InvalidProblem {
            reason: "bad".into()
        }
        .to_string()
        .contains("bad"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolverError>();
    }
}
