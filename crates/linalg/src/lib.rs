//! Dense linear-algebra kernels for the `mosc` workspace.
//!
//! The RC thermal model of Sha et al. (ICPP 2016) is a linear time-invariant
//! system `dT/dt = A·T + B(v)`. Everything the scheduling algorithms need from
//! numerical linear algebra is small and dense (thermal networks have a few
//! dozen nodes at most), so this crate implements the required kernel set from
//! scratch rather than pulling in a general-purpose library:
//!
//! * [`Matrix`] / [`Vector`] — column-major-free, row-major dense storage with
//!   the usual arithmetic.
//! * [`Lu`] — LU decomposition with partial pivoting: solves, inverses,
//!   determinants, condition estimates.
//! * [`expm`] — matrix exponential via Higham's scaling-and-squaring with
//!   Padé-13 approximants, the workhorse behind the interval propagator
//!   `Φ = e^{A·l}` of eq. (3).
//! * [`SymmetricEigen`] — symmetric eigensolver (Householder tridiagonalization
//!   plus implicit-shift QL, with cyclic Jacobi kept as the test oracle),
//!   used to verify the spectrum assumptions of the paper (all eigenvalues of
//!   `A` negative reals) and for the fast diagonalized propagator.
//!
//! All numerics are `f64`. Matrices are small (N ≤ a few hundred), so clarity
//! and robustness win over cache blocking; the hot paths that matter
//! (schedule-candidate evaluation) are made fast algebraically upstream, by
//! precomputing resolvent matrices, not by micro-optimizing GEMM.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod eigen;
mod error;
mod expm;
mod lu;
mod matrix;
mod norms;
mod vector;

pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use expm::{count_expm_call, expm, expm_action, expm_scaled};
pub use lu::{solve as lu_solve, Lu};
pub use matrix::Matrix;
pub use norms::{norm_1, norm_fro, norm_inf};
pub use vector::Vector;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Default absolute tolerance used by approximate comparisons in tests and
/// iterative kernels.
pub const DEFAULT_TOL: f64 = 1e-10;

/// Returns `true` when `a` and `b` agree to within `tol` absolutely or
/// relatively (whichever is looser), the standard mixed criterion.
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-10));
        assert!(!approx_eq(1.0, 1.1, 1e-10));
        assert!(approx_eq(0.0, 0.0, 1e-10));
    }
}
