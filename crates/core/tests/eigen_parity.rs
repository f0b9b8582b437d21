//! Solver answers on the paper's platforms, pinned across eigensolvers.
//!
//! Every thermal model is built on one symmetric eigendecomposition of
//! `S = C^{-1/2}·G_eff·C^{-1/2}`. The golden values below were recorded
//! while that decomposition was cyclic Jacobi; it is now Householder
//! tridiagonalization plus implicit-shift QL, whose eigenvectors may differ
//! in sign, or by a rotation inside a repeated eigenvalue's space
//! (symmetric floorplans). The period-map math does not depend on that
//! choice, so throughput and peak must agree to 1e-9 relative, with the
//! same oscillation factor and the same per-core time shares.
//!
//! One freedom is real: mirror-image cores of a symmetric grid tie exactly
//! in AO's TPT ranking, and rounding picks the winner. On the 3×3 grid at
//! 55 °C the Jacobi build gave the extra TPT share to core 1 and the QL
//! build to its mirror image, core 5. So shares are compared up to a
//! symmetry of the grid, and where that symmetry is not the identity, PCO —
//! whose phase search walks cores in index order and is not mirror
//! invariant — may land on a different phase set: its peak is then held to
//! 1e-5 relative (4.2e-6 observed), its throughput still to 1e-9.

use mosc_core::{solve, SolveOptions, SolverKind};
use mosc_sched::{Platform, PlatformSpec, Schedule};
use mosc_workload::PAPER_CONFIGS;
use SolverKind::{Ao, ExsBnb, Lns, Pco};

/// `(rows, cols, levels, T_max °C, solver, throughput, peak K, m, shares)`,
/// where `shares[i]` is the fraction of the period core `i` spends at its
/// top level (AO's TPT ratios).
type Golden = (usize, usize, usize, f64, SolverKind, f64, f64, usize, &'static [f64]);

/// Recorded with the Jacobi eigensolver, `SolveOptions { threads: 1, ..default }`.
#[rustfmt::skip]
const GOLDEN: [Golden; 32] = [
    (1, 2, 2, 55.0, Lns, 1.3, 18.755581036271458, 1, &[1.0, 1.0]),
    (1, 2, 2, 55.0, Ao, 1.3, 18.755581036271458, 1, &[1.0, 1.0]),
    (1, 2, 2, 55.0, Pco, 1.3, 18.755581036271458, 1, &[1.0, 1.0]),
    (1, 2, 2, 55.0, ExsBnb, 1.3, 18.755581036271458, 1, &[1.0, 1.0]),
    (1, 2, 3, 65.0, Lns, 1.3, 18.755581036271458, 1, &[1.0, 1.0]),
    (1, 2, 3, 65.0, Ao, 1.3, 18.755581036271458, 1, &[1.0, 1.0]),
    (1, 2, 3, 65.0, Pco, 1.3, 18.755581036271458, 1, &[1.0, 1.0]),
    (1, 2, 3, 65.0, ExsBnb, 1.3, 18.755581036271458, 1, &[1.0, 1.0]),
    (1, 3, 2, 55.0, Lns, 0.5999999999999999, 3.6722626260911397, 1, &[1.0, 1.0, 1.0]),
    (1, 3, 2, 55.0, Ao, 1.1198743203510921, 19.99999997088567, 68, &[0.7700211784459086, 0.7204991283352239, 0.765198209009263]),
    (1, 3, 2, 55.0, Pco, 1.1198743203510921, 19.999391700411028, 68, &[0.7700211784459086, 0.7204991283352239, 0.765198209009263]),
    (1, 3, 2, 55.0, ExsBnb, 1.0666666666666664, 19.754374661553832, 1, &[1.0, 1.0, 1.0]),
    (1, 3, 3, 65.0, Lns, 1.2999999999999998, 25.00584697297253, 1, &[1.0, 1.0, 1.0]),
    (1, 3, 3, 65.0, Ao, 1.2999999999999998, 25.00584697297253, 1, &[1.0, 1.0, 1.0]),
    (1, 3, 3, 65.0, Pco, 1.2999999999999998, 25.00584697297253, 1, &[1.0, 1.0, 1.0]),
    (1, 3, 3, 65.0, ExsBnb, 1.2999999999999998, 25.00584697297253, 1, &[1.0, 1.0, 1.0]),
    (2, 3, 2, 55.0, Lns, 0.5999999999999999, 6.466369101161156, 1, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    (2, 3, 2, 55.0, Ao, 0.8360638678179307, 19.999999992569816, 89, &[0.3558611302342861, 0.333859286755151, 0.35586113023428656, 0.3558611302342848, 0.3338592867551511, 0.3605740456548203]),
    (2, 3, 2, 55.0, Pco, 0.8360638678179307, 19.99948546002896, 89, &[0.3558611302342861, 0.333859286755151, 0.3558611302342865, 0.3558611302342848, 0.3338592867551511, 0.3605740456548203]),
    (2, 3, 2, 55.0, ExsBnb, 0.7166666666666666, 17.40449715387978, 1, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    (2, 3, 3, 65.0, Lns, 0.8, 12.079405036479942, 1, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    (2, 3, 3, 65.0, Ao, 1.0671342035855358, 29.999999999511903, 58, &[0.5643380333067262, 0.510657493847058, 0.5626791406751954, 0.5626791406751928, 0.510657493847058, 0.5676791406751976]),
    (2, 3, 3, 65.0, Pco, 1.0671342035855358, 29.99843287512718, 58, &[0.5643380333067263, 0.5106574938470579, 0.5626791406751955, 0.5626791406751926, 0.5106574938470579, 0.5676791406751976]),
    (2, 3, 3, 65.0, ExsBnb, 1.0166666666666666, 29.83947017149781, 1, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    (3, 3, 2, 55.0, Lns, 0.6, 9.438873411411118, 1, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    (3, 3, 2, 55.0, Ao, 0.7243113892902971, 19.999999987464502, 76, &[0.19907354975052385, 0.18381973847518884, 0.19907354975052405, 0.18205790623794635, 0.16483020611270371, 0.1820579062379452, 0.19907354975052535, 0.1820579062379447, 0.19907354975052294]),
    (3, 3, 2, 55.0, Pco, 0.7243113892902971, 19.99961843847206, 76, &[0.19907354975052385, 0.18381973847518884, 0.19907354975052405, 0.18205790623794635, 0.16483020611270371, 0.1820579062379452, 0.19907354975052535, 0.1820579062379447, 0.19907354975052294]),
    (3, 3, 2, 55.0, ExsBnb, 0.6, 9.438873411411118, 1, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    (3, 3, 3, 65.0, Lns, 0.8000000000000002, 17.6321476922841, 1, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    (3, 3, 3, 65.0, Ao, 0.9230712230519841, 29.999999966659328, 59, &[0.27928533951337775, 0.24785257396027516, 0.27928533951337775, 0.2478525739602763, 0.2182403610411012, 0.24785257396027427, 0.2792853395133804, 0.24785257396027427, 0.27928533951337686]),
    (3, 3, 3, 65.0, Pco, 0.9230712230519841, 29.999116087864287, 59, &[0.27928533951337775, 0.24785257396027516, 0.27928533951337775, 0.2478525739602763, 0.2182403610411012, 0.24785257396027427, 0.2792853395133804, 0.24785257396027427, 0.27928533951337686]),
    (3, 3, 3, 65.0, ExsBnb, 0.8666666666666669, 29.831960634604805, 1, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
];

fn top_level_shares(schedule: &Schedule) -> Vec<f64> {
    schedule
        .cores()
        .iter()
        .map(|core| {
            let top = core.segments().iter().map(|s| s.voltage).fold(f64::NEG_INFINITY, f64::max);
            let at_top: f64 =
                core.segments().iter().filter(|s| s.voltage == top).map(|s| s.duration).sum();
            at_top / core.period()
        })
        .collect()
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// The symmetries of a `rows × cols` grid as maps of row-major core
/// indices, identity first: the rectangle's two reflections and half turn,
/// plus the transposes and quarter turns when the grid is square.
fn grid_symmetries(rows: usize, cols: usize) -> Vec<Vec<usize>> {
    type Map = fn(usize, usize, usize, usize) -> (usize, usize);
    let mut maps: Vec<Map> = vec![
        |i, j, _, _| (i, j),
        |i, j, r, _| (r - 1 - i, j),
        |i, j, _, c| (i, c - 1 - j),
        |i, j, r, c| (r - 1 - i, c - 1 - j),
    ];
    if rows == cols {
        maps.extend::<[Map; 4]>([
            |i, j, _, _| (j, i),
            |i, j, r, c| (c - 1 - j, r - 1 - i),
            |i, j, r, _| (j, r - 1 - i),
            |i, j, _, c| (c - 1 - j, i),
        ]);
    }
    maps.iter()
        .map(|f| {
            (0..rows * cols)
                .map(|k| {
                    let (i, j) = f(k / cols, k % cols, rows, cols);
                    i * cols + j
                })
                .collect()
        })
        .collect()
}

#[test]
fn paper_configs_match_the_jacobi_golden_values() {
    for &(rows, cols) in &PAPER_CONFIGS {
        assert!(GOLDEN.iter().any(|g| (g.0, g.1) == (rows, cols)), "{rows}x{cols} not pinned");
    }
    let opts = SolveOptions { threads: 1, ..SolveOptions::default() };
    for (rows, cols, levels, t_max_c, kind, throughput, peak, m, shares) in GOLDEN {
        let case = format!("{kind} on {rows}x{cols}, {levels} levels, {t_max_c} C");
        let platform = Platform::build(&PlatformSpec::paper(rows, cols, levels, t_max_c)).unwrap();
        let got = solve(kind, &platform, &opts).unwrap().solution;
        assert!(close(got.throughput, throughput, 1e-9), "{case}: throughput {}", got.throughput);
        assert_eq!(got.m, m, "{case}: m");
        let got_shares = top_level_shares(&got.schedule);
        assert_eq!(got_shares.len(), shares.len(), "{case}: core count");
        let symmetry = grid_symmetries(rows, cols)
            .iter()
            .position(|sigma| {
                (0..shares.len()).all(|i| close(got_shares[sigma[i]], shares[i], 1e-9))
            })
            .unwrap_or_else(|| panic!("{case}: shares {got_shares:?}, golden {shares:?}"));
        let peak_tol = if symmetry != 0 && kind == Pco { 1e-5 } else { 1e-9 };
        assert!(close(got.peak, peak, peak_tol), "{case}: peak {}", got.peak);
    }
}
