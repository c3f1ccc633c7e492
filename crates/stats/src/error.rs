use std::fmt;

/// Errors produced by the statistics substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// A probability argument fell outside its valid open or closed interval.
    InvalidProbability {
        /// The offending value.
        value: f64,
        /// Human-readable description of the expected range.
        expected: &'static str,
    },
    /// A distribution parameter is invalid (e.g. non-PSD covariance).
    InvalidDistribution {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A cross-validation request cannot be satisfied by the data
    /// (e.g. more folds than samples in a class).
    InvalidSplit {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A linear-algebra operation inside the statistics layer failed.
    Linalg(ldafp_linalg::LinalgError),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidProbability { value, expected } => {
                write!(f, "invalid probability {value}: expected {expected}")
            }
            StatsError::InvalidDistribution { reason } => {
                write!(f, "invalid distribution: {reason}")
            }
            StatsError::InvalidSplit { reason } => write!(f, "invalid split: {reason}"),
            StatsError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for StatsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StatsError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ldafp_linalg::LinalgError> for StatsError {
    fn from(e: ldafp_linalg::LinalgError) -> Self {
        StatsError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = StatsError::from(ldafp_linalg::LinalgError::NotPositiveDefinite {
            pivot: 1,
            value: -1.0,
        });
        assert!(e.to_string().contains("not positive definite"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
