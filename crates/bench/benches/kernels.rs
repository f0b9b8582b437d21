//! Micro-benchmarks of the numerical kernels behind the computation-time
//! claims: the matrix exponential, LU solves, the symmetric eigensolver (QL,
//! timed against the Jacobi oracle), and the diagonalized propagator that
//! makes Algorithm 2's m sweep cheap.

use mosc_bench::micro::Runner;
use mosc_linalg::{expm_scaled, Lu, Matrix, SymmetricEigen, Vector};
use mosc_thermal::{Floorplan, RcConfig, RcNetwork, ThermalModel};
use std::hint::black_box;

fn thermal_model(rows: usize, cols: usize) -> ThermalModel {
    let f = Floorplan::paper_grid(rows, cols).expect("floorplan");
    let n = RcNetwork::build(&f, &RcConfig::default()).expect("network");
    ThermalModel::new(n, 0.03).expect("model")
}

fn bench_expm(r: &mut Runner) {
    let mut group = r.group("expm");
    for (rows, cols) in [(1usize, 2usize), (2, 3), (3, 3)] {
        let model = thermal_model(rows, cols);
        let a = model.a_matrix();
        group.bench(&format!("pade/{}n", a.rows()), || {
            expm_scaled(black_box(&a), 0.01).expect("expm")
        });
    }
}

fn bench_propagator_paths(r: &mut Runner) {
    let mut group = r.group("propagator");
    let model = thermal_model(3, 3);
    let a = model.a_matrix();
    // Padé from scratch per dt vs the model's diagonalized+cached path.
    let mut dt = 0.001;
    group.bench("pade_per_dt", || {
        dt += 1e-9; // force a fresh value each iteration
        expm_scaled(black_box(&a), dt).expect("expm")
    });
    let mut dt = 0.001;
    group.bench("eigen_per_dt", || {
        dt += 1e-9;
        model.propagator(black_box(dt)).expect("propagator")
    });
    group.bench("cached_dt", || model.propagator(black_box(0.005)).expect("propagator"));
}

fn bench_lu(r: &mut Runner) {
    let mut group = r.group("lu");
    for n in [8usize, 16, 32] {
        let mut a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 10) as f64 * 0.1);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let b_vec = Vector::from_fn(n, |i| (i as f64).sin());
        group.bench(&format!("factor/{n}"), || Lu::new(black_box(&a)).expect("lu"));
        let lu = Lu::new(&a).expect("lu");
        group.bench(&format!("solve/{n}"), || lu.solve_vec(black_box(&b_vec)).expect("solve"));
    }
}

fn bench_eigen(r: &mut Runner) {
    let mut group = r.group("eigen");
    // The symmetric form S = C^{1/2}·(−A)·C^{-1/2} of the 2×2, 3×3, 4×4 and
    // 6×6 grid models: n = 14, 29, 50 and 110 nodes.
    for (rows, cols) in [(2usize, 2usize), (3, 3), (4, 4), (6, 6)] {
        let model = thermal_model(rows, cols);
        let a = model.a_matrix();
        let c = model.network().capacitance();
        let s = Matrix::from_fn(a.rows(), a.cols(), |i, j| -a[(i, j)] * (c[i] / c[j]).sqrt());
        let n = s.rows();
        group.bench(&format!("ql/{n}"), || SymmetricEigen::new(black_box(&s)).expect("ql"));
        group.bench(&format!("jacobi/{n}"), || {
            SymmetricEigen::jacobi(black_box(&s)).expect("jacobi")
        });
    }
}

fn bench_steady_state(r: &mut Runner) {
    let mut group = r.group("steady_state");
    for (rows, cols) in [(1usize, 3usize), (3, 3)] {
        let model = thermal_model(rows, cols);
        let psi: Vec<f64> = (0..model.n_cores()).map(|i| 5.0 + i as f64).collect();
        group.bench(&(rows * cols).to_string(), || {
            model.steady_state_cores(black_box(&psi)).expect("steady")
        });
    }
}

fn main() {
    let mut r = Runner::from_args();
    bench_expm(&mut r);
    bench_propagator_paths(&mut r);
    bench_lu(&mut r);
    bench_eigen(&mut r);
    bench_steady_state(&mut r);
}
