//! Error type shared by all linear-algebra kernels.

use std::fmt;

/// Errors produced by the dense linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes. The payload carries the
    /// offending `(rows, cols)` pairs in operand order.
    ShapeMismatch {
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
        /// The operation that was attempted, e.g. `"matmul"`.
        op: &'static str,
    },
    /// A square matrix was required (solve, inverse, exponential, eigen).
    NotSquare {
        /// Actual shape encountered.
        shape: (usize, usize),
        /// The operation that was attempted.
        op: &'static str,
    },
    /// The matrix was singular (or numerically singular) to working precision.
    Singular {
        /// Pivot index at which elimination broke down.
        pivot: usize,
    },
    /// An iterative kernel failed to converge within its iteration budget.
    NoConvergence {
        /// The kernel that failed, e.g. `"ql"`.
        kernel: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual measure at the point of failure.
        residual: f64,
    },
    /// Input contained NaN or infinity where finite values are required.
    NonFinite {
        /// The operation that rejected the input.
        op: &'static str,
    },
    /// An index was out of bounds for the matrix shape.
    IndexOutOfBounds {
        /// The requested index.
        index: (usize, usize),
        /// The matrix shape.
        shape: (usize, usize),
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ShapeMismatch { left, right, op } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            Self::NotSquare { shape, op } => {
                write!(f, "{op} requires a square matrix, got {}x{}", shape.0, shape.1)
            }
            Self::Singular { pivot } => {
                write!(f, "matrix is singular to working precision (pivot {pivot})")
            }
            Self::NoConvergence { kernel, iterations, residual } => write!(
                f,
                "{kernel} failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
            Self::NonFinite { op } => write!(f, "{op} received non-finite input"),
            Self::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = LinalgError::ShapeMismatch { left: (2, 3), right: (4, 5), op: "matmul" };
        assert!(e.to_string().contains("matmul"));
        assert!(e.to_string().contains("2x3"));

        let e = LinalgError::Singular { pivot: 3 };
        assert!(e.to_string().contains("singular"));

        let e = LinalgError::NoConvergence { kernel: "jacobi", iterations: 10, residual: 0.5 };
        assert!(e.to_string().contains("jacobi"));
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<LinalgError>();
    }
}
