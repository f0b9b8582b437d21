//! Regression: platforms where the oscillation-overhead compensation
//! already saturates a core at m = 1. The m-sweep used to stop before
//! evaluating any candidate there and then hit its "m = 1 always
//! evaluates" `unreachable!`. Every input below panicked that way; each
//! must now return a feasible schedule that survives the analyzer's
//! solution recompute.

use mosc_analyze::{SolutionClaim, Tolerances};
use mosc_core::{solve, Platform, PlatformSpec, SolveOptions, SolverKind};

/// `(solver, rows = cols, T_max in °C)`, all on the paper's 4-level table.
const CASES: &[(SolverKind, usize, f64)] = &[
    (SolverKind::Ao, 2, 66.1288520067282),
    (SolverKind::Ao, 3, 64.72),
    (SolverKind::Pco, 3, 68.595),
    (SolverKind::Pco, 4, 66.3976),
];

#[test]
fn overhead_saturated_at_m1_still_yields_a_feasible_schedule() {
    for &(kind, n, t_max) in CASES {
        let p = Platform::build(&PlatformSpec::paper(n, n, 4, t_max)).unwrap();
        let report = solve(kind, &p, &SolveOptions::default())
            .unwrap_or_else(|e| panic!("{kind:?} {n}x{n} @ {t_max}: {e}"));
        let s = &report.solution;
        assert!(s.feasible, "{kind:?} {n}x{n} @ {t_max}: infeasible, peak {}", s.peak);
        let claim =
            SolutionClaim { throughput: s.throughput, peak: s.peak, feasible: s.feasible, m: s.m };
        let audit = mosc_analyze::check_solution(&p, &s.schedule, &claim, &Tolerances::default());
        assert!(!audit.has_errors(), "{kind:?} {n}x{n} @ {t_max}:\n{audit}");
    }
}
