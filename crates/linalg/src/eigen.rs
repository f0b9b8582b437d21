//! Symmetric eigendecomposition: Householder tridiagonalization followed by
//! implicit-shift QL ([`SymmetricEigen::new`]), with the cyclic Jacobi method
//! kept as an independent test oracle ([`SymmetricEigen::jacobi`]).
//!
//! The thermal state matrix `A = C⁻¹(βI − G)` is similar to the symmetric
//! matrix `C^{-1/2}(βI − G)C^{-1/2}`, so its eigenvalues are the (real)
//! eigenvalues produced here. The paper's proofs (and our validation tests)
//! rely on all of them being negative; [`SymmetricEigen`] is how the thermal
//! crate asserts that at model-construction time, and its eigenbasis carries
//! every propagator, period map and peak the solvers evaluate.
//!
//! The QL path is the classic `tred2`/`tql2` pair (Bowdler, Martin, Reinsch
//! and Wilkinson, as in EISPACK and JAMA): one reduction plus one or two QL
//! sweeps per eigenvalue, where Jacobi needs several full sweeps of O(n³)
//! each. The working matrix is stored transposed, so every inner loop — the
//! Householder updates and each QL rotation of the eigenvector basis — runs
//! over contiguous rows.
//!
//! The two methods agree to rounding relative to `max|a_ij|`, not bit for
//! bit: eigenvectors may differ in sign, and by a rotation inside a
//! degenerate eigenspace (symmetric floorplans have repeated eigenvalues).

use crate::{LinalgError, Matrix, Result, Vector};

/// Symmetric eigendecompositions performed, by either method (model
/// construction is the only production caller).
static EIGEN_CALLS: mosc_obs::Counter = mosc_obs::Counter::new("eigen.calls");

/// QL iterations allowed per eigenvalue before giving up; one or two is
/// typical, and 30 is the classic EISPACK budget.
const QL_MAX_ITERS: usize = 30;

/// Jacobi sweep budget over all off-diagonal pairs.
const JACOBI_MAX_SWEEPS: usize = 100;

/// Jacobi convergence threshold on the off-diagonal Frobenius norm, relative
/// to the matrix's own Frobenius norm.
const JACOBI_REL_TOL: f64 = 1e-14;

/// Eigendecomposition `A = V·Λ·Vᵀ` of a symmetric matrix, with eigenvalues
/// sorted ascending and `V` orthonormal (columns are eigenvectors).
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vector,
    /// Orthonormal eigenvector matrix; column `k` pairs with `values[k]`.
    pub vectors: Matrix,
}

impl SymmetricEigen {
    /// Decomposes a symmetric matrix by Householder tridiagonalization and
    /// implicit-shift QL.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`LinalgError::NonFinite`] for NaN/∞ entries.
    /// * [`LinalgError::ShapeMismatch`] when the matrix is not symmetric
    ///   (within `1e-8·max(1, max|a_ij|)`).
    /// * [`LinalgError::NoConvergence`] (kernel `"ql"`) when one eigenvalue
    ///   takes more than 30 QL iterations.
    pub fn new(a: &Matrix) -> Result<Self> {
        check_symmetric(a, "ql")?;
        let n = a.rows();
        if n == 0 {
            return Ok(Self { values: Vector::zeros(0), vectors: Matrix::zeros(0, 0) });
        }
        // `w` holds Vᵀ: row k ends up as the eigenvector paired with d[k].
        // A is symmetric, so its row-major copy already is Aᵀ.
        let mut w = a.as_slice().to_vec();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tridiagonalize(&mut w, &mut d, &mut e);
        ql_implicit(&mut w, &mut d, &mut e)?;
        Ok(Self::sorted(&d, |i, k| w[k * n + i]))
    }

    /// Decomposes a symmetric matrix by the cyclic Jacobi method.
    ///
    /// This is the test oracle for [`SymmetricEigen::new`]: slower (several
    /// ~6n³ sweeps), but built from independent arithmetic. No production
    /// path calls it.
    ///
    /// # Errors
    /// As [`SymmetricEigen::new`], with kernel `"jacobi"` when 100 sweeps
    /// leave the off-diagonal norm above `1e-14` of the matrix norm.
    pub fn jacobi(a: &Matrix) -> Result<Self> {
        check_symmetric(a, "jacobi")?;
        let n = a.rows();
        if n == 0 {
            return Ok(Self { values: Vector::zeros(0), vectors: Matrix::zeros(0, 0) });
        }

        let mut m = a.clone();
        let mut v = Matrix::identity(n);
        let fro = crate::norm_fro(a).max(f64::MIN_POSITIVE);

        let mut converged = false;
        let mut sweeps = 0;
        while sweeps < JACOBI_MAX_SWEEPS {
            let off = off_diag_fro(&m);
            if off <= JACOBI_REL_TOL * fro {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq == 0.0 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Classic Jacobi rotation angle selection.
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = if tau >= 0.0 {
                        1.0 / (tau + (1.0 + tau * tau).sqrt())
                    } else {
                        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    apply_rotation(&mut m, p, q, c, s);
                    accumulate_vectors(&mut v, p, q, c, s);
                }
            }
            sweeps += 1;
        }
        if !converged && off_diag_fro(&m) > JACOBI_REL_TOL * fro {
            return Err(LinalgError::NoConvergence {
                kernel: "jacobi",
                iterations: sweeps,
                residual: off_diag_fro(&m),
            });
        }
        let d: Vec<f64> = (0..n).map(|k| m[(k, k)]).collect();
        Ok(Self::sorted(&d, |i, k| v[(i, k)]))
    }

    /// Pairs eigenvalues `d` with eigenvector entries `vec(i, k)` (component
    /// `i` of the vector for `d[k]`), sorted ascending by eigenvalue.
    fn sorted(d: &[f64], vec: impl Fn(usize, usize) -> f64) -> Self {
        let n = d.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).expect("finite eigenvalues"));
        let values = Vector::from_fn(n, |k| d[order[k]]);
        let vectors = Matrix::from_fn(n, n, |i, k| vec(i, order[k]));
        Self { values, vectors }
    }

    /// Reconstructs `A` from the decomposition — used by tests and available
    /// for diagnostics.
    ///
    /// # Errors
    /// Propagates shape errors (cannot occur for a well-formed decomposition).
    pub fn reconstruct(&self) -> Result<Matrix> {
        let lam = Matrix::from_diag(self.values.as_slice());
        self.vectors.matmul(&lam)?.matmul(&self.vectors.transpose())
    }

    /// Applies `f` to each eigenvalue and reassembles `V·f(Λ)·Vᵀ` — e.g.
    /// `f = exp` gives the matrix exponential of a symmetric matrix in O(n³)
    /// after a one-time decomposition, which is what makes sweeping `m` in
    /// Algorithm 2 cheap.
    ///
    /// # Errors
    /// Propagates shape errors (cannot occur for a well-formed decomposition).
    pub fn map_spectrum(&self, f: impl Fn(f64) -> f64) -> Result<Matrix> {
        let mapped: Vec<f64> = self.values.iter().map(|&l| f(l)).collect();
        let lam = Matrix::from_diag(&mapped);
        self.vectors.matmul(&lam)?.matmul(&self.vectors.transpose())
    }

    /// Largest eigenvalue.
    #[must_use]
    pub fn max_eigenvalue(&self) -> f64 {
        self.values.max()
    }
}

/// Counts the call and validates the input of either method.
fn check_symmetric(a: &Matrix, op: &'static str) -> Result<()> {
    EIGEN_CALLS.incr();
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape(), op });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite { op });
    }
    if !a.is_symmetric(1e-8 * a.max_abs().max(1.0)) {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: a.shape(),
            op: "symmetric eigen (matrix not symmetric)",
        });
    }
    Ok(())
}

/// Householder reduction to tridiagonal form (`tred2`), accumulating the
/// orthogonal transform.
///
/// On entry `w` is the n×n symmetric matrix, row-major. On exit `d` holds
/// the diagonal, `e[1..]` the subdiagonal (`e[0] = 0`), and `w` holds `Qᵀ`
/// for the orthogonal `Q` with `Qᵀ·A·Q` tridiagonal. This is the textbook
/// algorithm on the transpose of its usual working matrix, so every column
/// walk of the original is a row walk here.
fn tridiagonalize(w: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            // Row i is already reduced; skip the reflection.
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Householder vector u = x ∓ ‖x‖·e_{i-1}, scaled to avoid
            // over/underflow, with the sign chosen to avoid cancellation.
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // p = A·u / h over the leading i×i block (upper triangle).
            for j in 0..i {
                let f = d[j];
                w[i * n + j] = f;
                let row = &w[j * n..j * n + i];
                let mut g = e[j] + row[j] * f;
                for k in (j + 1)..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            // q = p − (uᵀp / 2h)·u, then A ← A − u·qᵀ − q·uᵀ.
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut w[j * n..j * n + i];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the reflections into Qᵀ.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            let (head, tail) = w.split_at_mut((i + 1) * n);
            let u = &tail[..=i];
            for (dk, uk) in d[..=i].iter_mut().zip(u) {
                *dk = uk / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..=j * n + i];
                let g: f64 = u.iter().zip(row.iter()).map(|(uk, rk)| uk * rk).sum();
                for (rk, dk) in row.iter_mut().zip(&d[..=i]) {
                    *rk -= g * dk;
                }
            }
        }
        w[(i + 1) * n..=(i + 1) * n + i].fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` from [`tridiagonalize`]
/// (`tql2`), rotating the rows of `w` along.
///
/// On exit `d` holds the eigenvalues (unsorted) and row `k` of `w` the
/// eigenvector for `d[k]`.
fn ql_implicit(w: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;

    let mut shift = 0.0;
    let mut tst1: f64 = 0.0;
    for l in 0..n {
        // Find the first negligible subdiagonal element at or past l.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n - 1 && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        let mut iters = 0;
        while m > l && e[l].abs() > f64::EPSILON * tst1 {
            if iters == QL_MAX_ITERS {
                return Err(LinalgError::NoConvergence {
                    kernel: "ql",
                    iterations: iters,
                    residual: e[l].abs(),
                });
            }
            iters += 1;

            // Wilkinson-style shift from the leading 2×2 block, with the
            // root's sign matched to p so p + r cannot cancel.
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for di in &mut d[l + 2..] {
                *di -= h;
            }
            shift += h;

            // One implicit QL sweep of plane rotations from m up to l.
            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);

                let (lo, hi) = w.split_at_mut((i + 1) * n);
                for (zi, zi1) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
                    let t = *zi1;
                    *zi1 = s * *zi + c * t;
                    *zi = c * *zi - s * t;
                }
            }
            let p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
    Ok(())
}

fn off_diag_fro(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut sum = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += 2.0 * m[(i, j)] * m[(i, j)];
        }
    }
    sum.sqrt()
}

/// Applies the symmetric two-sided rotation J(p,q,θ)ᵀ·M·J(p,q,θ) in place.
fn apply_rotation(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    let app = m[(p, p)];
    let aqq = m[(q, q)];
    let apq = m[(p, q)];
    m[(p, p)] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
    m[(q, q)] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
    m[(p, q)] = 0.0;
    m[(q, p)] = 0.0;
    for i in 0..n {
        if i == p || i == q {
            continue;
        }
        let aip = m[(i, p)];
        let aiq = m[(i, q)];
        m[(i, p)] = c * aip - s * aiq;
        m[(p, i)] = m[(i, p)];
        m[(i, q)] = s * aip + c * aiq;
        m[(q, i)] = m[(i, q)];
    }
}

/// Accumulates the rotation into the eigenvector matrix.
fn accumulate_vectors(v: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = v.rows();
    for i in 0..n {
        let vip = v[(i, p)];
        let viq = v[(i, q)];
        v[(i, p)] = c * vip - s * viq;
        v[(i, q)] = s * vip + c * viq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_is_its_own_spectrum() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_eq!(e.values.as_slice(), &[-1.0, 2.0, 3.0]);
        assert_eq!(e.max_eigenvalue(), 3.0);
    }

    /// Both methods, so the oracle is held to the same known answers.
    const METHODS: [fn(&Matrix) -> Result<SymmetricEigen>; 2] =
        [SymmetricEigen::new, SymmetricEigen::jacobi];

    #[test]
    fn known_2x2_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        for method in METHODS {
            let e = method(&a).unwrap();
            assert!((e.values[0] - 1.0).abs() < 1e-12);
            assert!((e.values[1] - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 5.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert!(e.reconstruct().unwrap().max_abs_diff(&a) < 1e-10);
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn map_spectrum_exp_matches_expm() {
        let a = Matrix::from_rows(&[&[-1.0, 0.3], &[0.3, -2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        let via_eigen = e.map_spectrum(f64::exp).unwrap();
        let via_pade = crate::expm(&a).unwrap();
        assert!(via_eigen.max_abs_diff(&via_pade) < 1e-12);
    }

    #[test]
    fn laplacian_spectrum_nonnegative() {
        // Path-graph Laplacian: eigenvalues 0, 1, 3 for n=3.
        let l = Matrix::from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]);
        for method in METHODS {
            let e = method(&l).unwrap();
            assert!(e.values[0].abs() < 1e-12);
            assert!((e.values[1] - 1.0).abs() < 1e-12);
            assert!((e.values[2] - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_asymmetric_and_bad_shapes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let mut b = Matrix::identity(2);
        b[(0, 0)] = f64::NAN;
        for method in METHODS {
            assert!(method(&a).is_err());
            assert!(method(&Matrix::zeros(2, 3)).is_err());
            assert!(method(&b).is_err());
        }
    }

    #[test]
    fn empty_matrix() {
        for method in METHODS {
            let e = method(&Matrix::zeros(0, 0)).unwrap();
            assert!(e.values.is_empty());
        }
    }

    #[test]
    fn larger_random_symmetric_matrix() {
        let mut state: u64 = 42;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let n = 12;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let e = SymmetricEigen::new(&a).unwrap();
        assert!(e.reconstruct().unwrap().max_abs_diff(&a) < 1e-9);
        // Trace equals sum of eigenvalues.
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        assert!((trace - e.values.sum()).abs() < 1e-9);
    }
}
