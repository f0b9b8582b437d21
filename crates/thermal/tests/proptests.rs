//! Property-based tests for the thermal substrate.

use mosc_linalg::{Matrix, SymmetricEigen, Vector};
use mosc_testutil::{propcheck_cases, Rng64};
use mosc_thermal::{Floorplan, RcConfig, RcNetwork, ThermalModel};

const CASES: usize = 32;

fn grid_dims(rng: &mut Rng64) -> (usize, usize) {
    (rng.gen_range(1..=3usize), rng.gen_range(1..=3usize))
}

fn power_profile(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(0.0..20.0)).collect()
}

fn model(rows: usize, cols: usize) -> ThermalModel {
    let f = Floorplan::paper_grid(rows, cols).expect("floorplan");
    let n = RcNetwork::build(&f, &RcConfig::default()).expect("network");
    ThermalModel::new(n, 0.03).expect("model")
}

#[test]
fn conductance_is_spd_for_all_grids() {
    propcheck_cases("conductance_is_spd_for_all_grids", CASES, |rng| {
        let (rows, cols) = grid_dims(rng);
        let f = Floorplan::paper_grid(rows, cols).unwrap();
        let net = RcNetwork::build(&f, &RcConfig::default()).unwrap();
        let g = net.conductance();
        assert!(g.is_symmetric(1e-12));
        let eig = SymmetricEigen::new(g).unwrap();
        assert!(eig.values.min() > 0.0);
    });
}

#[test]
fn steady_state_is_linear_and_monotone() {
    propcheck_cases("steady_state_is_linear_and_monotone", CASES, |rng| {
        let (rows, cols) = grid_dims(rng);
        let seed = rng.gen_range(0..500usize) as u64;
        let m = model(rows, cols);
        let n = m.n_cores();
        // Deterministic pseudo-profiles from the seed.
        let p1: Vec<f64> = (0..n).map(|i| ((seed + i as u64) % 17) as f64).collect();
        let p2: Vec<f64> = (0..n).map(|i| ((seed * 3 + i as u64) % 11) as f64).collect();
        let t1 = m.steady_state_cores(&p1).unwrap();
        let t2 = m.steady_state_cores(&p2).unwrap();
        let sum_profile: Vec<f64> = p1.iter().zip(&p2).map(|(a, b)| a + b).collect();
        let t_sum = m.steady_state_cores(&sum_profile).unwrap();
        // Linearity (superposition).
        assert!(t_sum.max_abs_diff(&(&t1 + &t2)) < 1e-9);
        // Monotonicity: extra power never cools any core.
        assert!(t1.le_elementwise(&t_sum, 1e-9));
        assert!(t2.le_elementwise(&t_sum, 1e-9));
    });
}

#[test]
fn advance_composes() {
    propcheck_cases("advance_composes", CASES, |rng| {
        let (rows, cols) = grid_dims(rng);
        let psi = power_profile(rng, 9);
        let dt = rng.gen_range(1e-4..0.5);
        let m = model(rows, cols);
        let psi = &psi[..m.n_cores()];
        let t0 = Vector::zeros(m.n_nodes());
        let whole = m.advance(&t0, psi, 2.0 * dt).unwrap();
        let half = m.advance(&t0, psi, dt).unwrap();
        let halves = m.advance(&half, psi, dt).unwrap();
        assert!(whole.max_abs_diff(&halves) < 1e-8);
    });
}

#[test]
fn temperatures_stay_nonnegative_and_bounded() {
    propcheck_cases("temperatures_stay_nonnegative_and_bounded", CASES, |rng| {
        // Heating from ambient with nonnegative power: temperatures stay in
        // [0, T∞] element-wise.
        let (rows, cols) = grid_dims(rng);
        let psi = power_profile(rng, 9);
        let dt = rng.gen_range(1e-3..1.0);
        let m = model(rows, cols);
        let psi = &psi[..m.n_cores()];
        let t_inf = m.steady_state(psi).unwrap();
        let mut t = Vector::zeros(m.n_nodes());
        for _ in 0..5 {
            t = m.advance(&t, psi, dt).unwrap();
            for i in 0..t.len() {
                assert!(t[i] >= -1e-9, "node {i} went below ambient");
                assert!(t[i] <= t_inf[i] + 1e-9, "node {i} overshot steady state");
            }
        }
    });
}

#[test]
fn propagator_rows_are_substochastic() {
    propcheck_cases("propagator_rows_are_substochastic", CASES, |rng| {
        // Without leakage feedback (β = 0), e^{A·dt} is nonnegative with row
        // sums <= 1: heat is conserved or lost to ambient, never created.
        // (With β > 0 the die rows may exceed 1 — leakage injects heat
        // proportional to temperature; nonnegativity still holds and is
        // checked for the leaky model too.)
        let (rows, cols) = grid_dims(rng);
        let dt = rng.gen_range(1e-3..10.0);
        let f = Floorplan::paper_grid(rows, cols).unwrap();
        let net = RcNetwork::build(&f, &RcConfig::default()).unwrap();
        let m0 = ThermalModel::new(net.clone(), 0.0).unwrap();
        let phi = m0.propagator(dt).unwrap();
        for i in 0..m0.n_nodes() {
            let mut row_sum = 0.0;
            for j in 0..m0.n_nodes() {
                assert!(phi[(i, j)] >= -1e-10, "negative propagator entry ({i},{j})");
                row_sum += phi[(i, j)];
            }
            assert!(row_sum <= 1.0 + 1e-9, "row {i} sums to {row_sum}");
        }
        let m_leak = ThermalModel::new(net, 0.03).unwrap();
        let phi_leak = m_leak.propagator(dt).unwrap();
        for v in phi_leak.as_slice() {
            assert!(*v >= -1e-10);
        }
    });
}

#[test]
fn hotter_start_stays_hotter() {
    propcheck_cases("hotter_start_stays_hotter", CASES, |rng| {
        // Order preservation of the positive propagator: T0 <= T0' (element-
        // wise) implies T(dt) <= T'(dt).
        let (rows, cols) = grid_dims(rng);
        let psi = power_profile(rng, 9);
        let dt = rng.gen_range(1e-3..1.0);
        let m = model(rows, cols);
        let psi = &psi[..m.n_cores()];
        let cold = Vector::zeros(m.n_nodes());
        let warm = Vector::filled(m.n_nodes(), 3.0);
        let t_cold = m.advance(&cold, psi, dt).unwrap();
        let t_warm = m.advance(&warm, psi, dt).unwrap();
        assert!(t_cold.le_elementwise(&t_warm, 1e-9));
    });
}

#[test]
fn beta_increases_temperatures() {
    propcheck_cases("beta_increases_temperatures", CASES, |rng| {
        // Leakage feedback can only heat.
        let (rows, cols) = grid_dims(rng);
        let psi = power_profile(rng, 9);
        let f = Floorplan::paper_grid(rows, cols).unwrap();
        let n1 = RcNetwork::build(&f, &RcConfig::default()).unwrap();
        let n2 = n1.clone();
        let m_no_leak = ThermalModel::new(n1, 0.0).unwrap();
        let m_leak = ThermalModel::new(n2, 0.05).unwrap();
        let psi = &psi[..m_leak.n_cores()];
        let t0 = m_no_leak.steady_state_cores(psi).unwrap();
        let t1 = m_leak.steady_state_cores(psi).unwrap();
        assert!(t0.le_elementwise(&t1, 1e-9));
    });
}

/// The model's QL eigendecomposition of `S = C^{-1/2}(G − βE)C^{-1/2}`
/// against the Jacobi oracle on the platform grids (4 mm tiles, β = 0.03,
/// 14 to 110 nodes): eigenvalues within `1e-12·max|S_ij|`, each residual
/// within `1e-13·max|S_ij|`, orthonormal vectors, `S` reconstructed. The
/// smallest eigenvalue sits near `2e-6·λ_max` on the 6×6 grid, so a
/// per-eigenvalue relative bound would mostly measure Jacobi's own rounding.
#[test]
fn ql_matches_jacobi_on_grid_models() {
    for (rows, cols) in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (4, 4), (5, 5), (6, 6)] {
        let f = Floorplan::grid(rows, cols, 4.0e-3, 4.0e-3).unwrap();
        let net = RcNetwork::build(&f, &RcConfig::default()).unwrap();
        let beta = 0.03;
        let c_inv_sqrt: Vec<f64> = net.capacitance().iter().map(|c| 1.0 / c.sqrt()).collect();
        let g = net.conductance();
        let n = net.n_nodes();
        let s = Matrix::from_fn(n, n, |i, j| {
            let leak = if i == j && i < net.n_cores() { beta } else { 0.0 };
            c_inv_sqrt[i] * (g[(i, j)] - leak) * c_inv_sqrt[j]
        });
        let scale = s.max_abs();
        let ql = SymmetricEigen::new(&s).unwrap();
        let oracle = SymmetricEigen::jacobi(&s).unwrap();
        let dl = ql.values.max_abs_diff(&oracle.values);
        assert!(dl <= 1e-12 * scale, "{rows}x{cols}: eigenvalues differ by {dl:e}");
        let sv = s.matmul(&ql.vectors).unwrap();
        let lv = Matrix::from_fn(n, n, |i, k| ql.vectors[(i, k)] * ql.values[k]);
        let residual = sv.max_abs_diff(&lv);
        assert!(residual <= 1e-13 * scale, "{rows}x{cols}: residual {residual:e}");
        let vtv = ql.vectors.transpose().matmul(&ql.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(n)) <= 1e-13, "{rows}x{cols}: not orthonormal");
        assert!(ql.reconstruct().unwrap().max_abs_diff(&s) <= 1e-12 * scale, "{rows}x{cols}");

        // The model is built on this same decomposition: A's spectrum is −S's.
        let model = ThermalModel::new(net, beta).unwrap();
        let a_eigs = model.eigenvalues();
        for k in 0..n {
            assert_eq!(a_eigs[k], -ql.values[n - 1 - k], "{rows}x{cols}: model spectrum");
        }
    }
}
