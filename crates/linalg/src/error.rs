use std::fmt;

/// Errors produced by the linear-algebra substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands have incompatible dimensions.
    DimensionMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Dimensions of the left-hand operand (rows, cols).
        left: (usize, usize),
        /// Dimensions of the right-hand operand (rows, cols).
        right: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Observed dimensions (rows, cols).
        dims: (usize, usize),
    },
    /// A matrix that must be symmetric is not (within tolerance).
    NotSymmetric {
        /// Largest observed asymmetry `|a_ij - a_ji|`.
        max_asymmetry: f64,
    },
    /// Cholesky factorization met a non-positive pivot: the matrix is not
    /// positive definite (after any requested ridge).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Value of the failing pivot.
        value: f64,
    },
    /// LU factorization met an exactly (or numerically) singular matrix.
    Singular {
        /// Index of the failing pivot column.
        pivot: usize,
    },
    /// A matrix or vector was constructed from malformed data
    /// (e.g. ragged rows, zero dimension where forbidden, non-finite entry).
    InvalidInput {
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { dims } => {
                write!(f, "matrix must be square, got {}x{}", dims.0, dims.1)
            }
            LinalgError::NotSymmetric { max_asymmetry } => {
                write!(
                    f,
                    "matrix is not symmetric (max asymmetry {max_asymmetry:e})"
                )
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite (pivot {pivot} = {value:e})"
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (pivot column {pivot})")
            }
            LinalgError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::DimensionMismatch {
            op: "mul",
            left: (2, 3),
            right: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("mul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&LinalgError::Singular { pivot: 0 });
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
