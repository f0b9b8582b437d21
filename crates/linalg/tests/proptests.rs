//! Property-based tests for the dense linear-algebra kernels.

use mosc_linalg::{
    expm, expm_scaled, norm_1, norm_fro, norm_inf, Lu, Matrix, SymmetricEigen, Vector,
};
use mosc_testutil::{propcheck, Rng64};

/// A well-conditioned square matrix (random entries in [-1, 1] with a
/// diagonal boost that guarantees strict diagonal dominance).
fn dominant_matrix(rng: &mut Rng64, n: usize) -> Matrix {
    let mut m = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    for i in 0..n {
        let row_sum: f64 = m.row(i).iter().map(|v| v.abs()).sum();
        m[(i, i)] += row_sum + 1.0;
    }
    m
}

/// A symmetric matrix with entries in [-1, 1].
fn symmetric_matrix(rng: &mut Rng64, n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = rng.gen_range(-1.0..1.0);
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

/// A stable Metzler matrix (off-diagonal ≥ 0, strictly dominant negative
/// diagonal) — the structure of every thermal state matrix `A`.
fn stable_metzler(rng: &mut Rng64, n: usize) -> Matrix {
    let mut m = Matrix::from_fn(n, n, |_, _| rng.gen_range(0.0..1.0));
    for i in 0..n {
        let row_sum: f64 = m.row(i).iter().map(|v| v.abs()).sum();
        m[(i, i)] = -(row_sum + 0.5);
    }
    m
}

#[test]
fn lu_solve_has_small_residual() {
    propcheck("lu_solve_has_small_residual", |rng| {
        let n = rng.gen_range(1..8usize);
        let m = dominant_matrix(rng, n);
        let b = Vector::from_fn(n, |i| (i as f64 + 1.0).sin());
        let x = Lu::new(&m).unwrap().solve_vec(&b).unwrap();
        let r = m.matvec(&x).unwrap().max_abs_diff(&b);
        assert!(r < 1e-9, "residual {r}");
    });
}

#[test]
fn matmul_is_associative() {
    propcheck("matmul_is_associative", |rng| {
        let a = dominant_matrix(rng, 4);
        let b = dominant_matrix(rng, 4);
        let c = dominant_matrix(rng, 4);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        let scale = left.max_abs().max(1.0);
        assert!(left.max_abs_diff(&right) / scale < 1e-12);
    });
}

#[test]
fn transpose_reverses_products() {
    propcheck("transpose_reverses_products", |rng| {
        let a = dominant_matrix(rng, 3);
        let b = dominant_matrix(rng, 3);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    });
}

#[test]
fn lu_inverse_roundtrips() {
    propcheck("lu_inverse_roundtrips", |rng| {
        let a = dominant_matrix(rng, 5);
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(5)) < 1e-9);
    });
}

#[test]
fn det_of_product_is_product_of_dets() {
    propcheck("det_of_product_is_product_of_dets", |rng| {
        let a = dominant_matrix(rng, 4);
        let b = dominant_matrix(rng, 4);
        let da = Lu::new(&a).unwrap().det();
        let db = Lu::new(&b).unwrap().det();
        let dab = Lu::new(&a.matmul(&b).unwrap()).unwrap().det();
        let scale = dab.abs().max(1.0);
        assert!((da * db - dab).abs() / scale < 1e-9);
    });
}

#[test]
fn expm_semigroup() {
    propcheck("expm_semigroup", |rng| {
        let a = stable_metzler(rng, 4);
        let s = rng.gen_range(0.05..2.0);
        let t = rng.gen_range(0.05..2.0);
        let whole = expm_scaled(&a, s + t).unwrap();
        let split = expm_scaled(&a, s).unwrap().matmul(&expm_scaled(&a, t).unwrap()).unwrap();
        assert!(whole.max_abs_diff(&split) < 1e-10);
    });
}

#[test]
fn expm_of_metzler_is_nonnegative() {
    propcheck("expm_of_metzler_is_nonnegative", |rng| {
        // e^{At} for a Metzler matrix is element-wise nonnegative — the
        // physical fact that heat put in one node never lowers another.
        let a = stable_metzler(rng, 5);
        let t = rng.gen_range(0.01..5.0);
        let e = expm_scaled(&a, t).unwrap();
        for v in e.as_slice() {
            assert!(*v >= -1e-12, "negative propagator entry {v}");
        }
    });
}

#[test]
fn expm_of_stable_matrix_is_substochastic() {
    propcheck("expm_of_stable_matrix_is_substochastic", |rng| {
        // Strict diagonal dominance with negative diagonal ⇒ ‖e^{At}‖∞ < 1.
        let a = stable_metzler(rng, 4);
        let t = rng.gen_range(0.1..10.0);
        let e = expm_scaled(&a, t).unwrap();
        assert!(norm_inf(&e) < 1.0 + 1e-12);
    });
}

#[test]
fn eigen_reconstructs() {
    propcheck("eigen_reconstructs", |rng| {
        let a = symmetric_matrix(rng, 5);
        let e = SymmetricEigen::new(&a).unwrap();
        assert!(e.reconstruct().unwrap().max_abs_diff(&a) < 1e-9);
        // Eigenvalues are sorted ascending.
        for w in e.values.as_slice().windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    });
}

#[test]
fn eigen_trace_identity() {
    propcheck("eigen_trace_identity", |rng| {
        let a = symmetric_matrix(rng, 6);
        let e = SymmetricEigen::new(&a).unwrap();
        let trace: f64 = (0..6).map(|i| a[(i, i)]).sum();
        assert!((trace - e.values.sum()).abs() < 1e-9);
    });
}

/// A random orthogonal matrix: the product of three Householder reflectors.
fn random_orthogonal(rng: &mut Rng64, n: usize) -> Matrix {
    let mut q = Matrix::identity(n);
    for _ in 0..3 {
        let u = Vector::from_fn(n, |_| rng.gen_range(-1.0..1.0));
        let uu = u.dot(&u).unwrap();
        if uu == 0.0 {
            continue;
        }
        let qu = q.matvec(&u).unwrap();
        q = Matrix::from_fn(n, n, |i, j| q[(i, j)] - 2.0 * qu[i] * u[j] / uu);
    }
    q
}

/// `Q·diag(λ)·Qᵀ` with repeated eigenvalues and clusters 1e-9 wide.
fn clustered_spectrum(rng: &mut Rng64, n: usize) -> Matrix {
    let centers = [-2.0, 0.5, 1.0, 3.0];
    let lam: Vec<f64> = (0..n)
        .map(|_| {
            let c = centers[rng.gen_range(0..centers.len())];
            if rng.gen_range(0..2usize) == 0 {
                c
            } else {
                c + rng.gen_range(-1e-9..1e-9)
            }
        })
        .collect();
    let q = random_orthogonal(rng, n);
    let a = q.matmul(&Matrix::from_diag(&lam)).unwrap().matmul(&q.transpose()).unwrap();
    Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
}

/// Diagonal blocks of random symmetric matrices at scales 1e-3 to 1e3,
/// zero elsewhere.
fn block_diagonal(rng: &mut Rng64, n: usize) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    let mut start = 0;
    while start < n {
        let len = rng.gen_range(1..=n - start);
        let scale = 10f64.powi(rng.gen_range(0..=6usize) as i32 - 3);
        let block = symmetric_matrix(rng, len);
        for i in 0..len {
            for j in 0..len {
                a[(start + i, start + j)] = scale * block[(i, j)];
            }
        }
        start += len;
    }
    a
}

/// A weighted graph Laplacian plus a positive ground conductance per node
/// (SPD), congruence-scaled by `C^{-1/2}` with capacitances spanning five
/// decades — the shape and stiffness of a thermal model's `S`.
fn scaled_laplacian(rng: &mut Rng64, n: usize) -> Matrix {
    let mut g = Matrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_range(0..3usize) == 0 {
                let w = rng.gen_range(0.1..10.0);
                g[(i, j)] = -w;
                g[(j, i)] = -w;
                g[(i, i)] += w;
                g[(j, j)] += w;
            }
        }
        g[(i, i)] += 10f64.powf(rng.gen_range(-6.0..0.0));
    }
    let c_inv_sqrt: Vec<f64> =
        (0..n).map(|_| 10f64.powf(rng.gen_range(-2.0..3.0)).sqrt()).collect();
    Matrix::from_fn(n, n, |i, j| c_inv_sqrt[i] * g[(i, j)] * c_inv_sqrt[j])
}

/// QL against the Jacobi oracle: eigenvalues within `1e-12·max|a_ij|`, every
/// column's residual `‖A·v − λ·v‖∞` within `1e-13·max|a_ij|`, orthonormal
/// vectors, and `A` reconstructed.
fn assert_matches_oracle(a: &Matrix, family: &str) {
    let n = a.rows();
    let scale = a.max_abs();
    let ql = SymmetricEigen::new(a).unwrap();
    let oracle = SymmetricEigen::jacobi(a).unwrap();
    for k in 0..n {
        let diff = (ql.values[k] - oracle.values[k]).abs();
        assert!(
            diff <= 1e-12 * scale,
            "{family} n={n}: λ_{k} differs by {diff:e} (scale {scale:e})"
        );
    }
    for w in ql.values.as_slice().windows(2) {
        assert!(w[0] <= w[1], "{family} n={n}: eigenvalues not ascending");
    }
    let av = a.matmul(&ql.vectors).unwrap();
    let lv = Matrix::from_fn(n, n, |i, k| ql.vectors[(i, k)] * ql.values[k]);
    let residual = av.max_abs_diff(&lv);
    assert!(residual <= 1e-13 * scale, "{family} n={n}: residual {residual:e} (scale {scale:e})");
    let vtv = ql.vectors.transpose().matmul(&ql.vectors).unwrap();
    let ortho = vtv.max_abs_diff(&Matrix::identity(n));
    assert!(ortho <= 1e-13, "{family} n={n}: ‖VᵀV − I‖ = {ortho:e}");
    let recon = ql.reconstruct().unwrap().max_abs_diff(a);
    assert!(recon <= 1e-12 * scale, "{family} n={n}: reconstruction off by {recon:e}");
}

#[test]
fn ql_matches_jacobi_oracle() {
    propcheck("ql_matches_jacobi_oracle", |rng| {
        let n = rng.gen_range(0..=40usize);
        assert_matches_oracle(&symmetric_matrix(rng, n), "dense");
        let diag: Vec<f64> =
            (0..n).map(|_| [-1.0, 0.0, 2.0, 3.5][rng.gen_range(0..4usize)]).collect();
        assert_matches_oracle(&Matrix::from_diag(&diag), "diagonal");
        assert_matches_oracle(&clustered_spectrum(rng, n), "clustered");
        assert_matches_oracle(&block_diagonal(rng, n), "block-diagonal");
        assert_matches_oracle(&scaled_laplacian(rng, n), "laplacian");
    });
}

#[test]
fn norms_are_consistent() {
    propcheck("norms_are_consistent", |rng| {
        // max_abs ≤ each norm, and the Frobenius norm is transpose-invariant.
        let a = dominant_matrix(rng, 4);
        let fro = norm_fro(&a);
        assert!(a.max_abs() <= norm_1(&a) + 1e-12);
        assert!(a.max_abs() <= norm_inf(&a) + 1e-12);
        assert!(a.max_abs() <= fro + 1e-12);
        assert!((fro - norm_fro(&a.transpose())).abs() < 1e-12);
    });
}

#[test]
fn expm_matches_eigen_path_for_symmetric() {
    propcheck("expm_matches_eigen_path_for_symmetric", |rng| {
        let a = symmetric_matrix(rng, 4);
        let t = rng.gen_range(0.1..3.0);
        let scaled = a.scaled(t);
        let via_pade = expm(&scaled).unwrap();
        let via_eigen = SymmetricEigen::new(&scaled).unwrap().map_spectrum(f64::exp).unwrap();
        let scale = via_pade.max_abs().max(1.0);
        assert!(via_pade.max_abs_diff(&via_eigen) / scale < 1e-9);
    });
}

#[test]
fn vector_axpy_linearity() {
    propcheck("vector_axpy_linearity", |rng| {
        let n = rng.gen_range(1..10usize);
        let s = rng.gen_range(-5.0..5.0);
        let x = Vector::from_fn(n, |i| (i as f64).cos());
        let y = Vector::from_fn(n, |i| (i as f64 * 0.3).sin());
        let lhs = x.axpy(s, &y);
        let rhs = &x + &y.scaled(s);
        assert!(lhs.max_abs_diff(&rhs) < 1e-14);
    });
}
