//! Pin: the unified `mosc_core::solve` dispatcher must return exactly what
//! the per-module entry points return — same schedules, same feasibility
//! stamps, same statistics — so the two surfaces cannot drift apart.

use mosc_core::ao::{self, AoOptions};
use mosc_core::pco::{self, PcoOptions};
use mosc_core::{exs, lns, solve, Platform, PlatformSpec, Solution, SolveOptions, SolverKind};

fn platform() -> Platform {
    Platform::build(&PlatformSpec::paper(1, 3, 2, 55.0)).unwrap()
}

fn quick_opts() -> SolveOptions {
    SolveOptions {
        base_period: 0.05,
        max_m: 32,
        m_patience: 3,
        t_unit_divisor: 40,
        phase_steps: 4,
        samples: 150,
        refill_divisor: 40,
        ..SolveOptions::default()
    }
}

fn assert_same(kind: SolverKind, new: &Solution, old: &Solution) {
    assert_eq!(new.algorithm, old.algorithm, "{kind:?}");
    assert_eq!(new.m, old.m, "{kind:?}");
    assert_eq!(new.feasible, old.feasible, "{kind:?}");
    assert!((new.throughput - old.throughput).abs() < 1e-12, "{kind:?}");
    assert!((new.peak - old.peak).abs() < 1e-12, "{kind:?}");
    assert_eq!(new.schedule.n_cores(), old.schedule.n_cores(), "{kind:?}");
    assert!((new.schedule.period() - old.schedule.period()).abs() < 1e-15, "{kind:?}");
}

#[test]
fn dispatcher_matches_lns() {
    let p = platform();
    let new = solve(SolverKind::Lns, &p, &quick_opts()).unwrap();
    let old = lns::solve(&p).unwrap();
    assert_same(SolverKind::Lns, &new.solution, &old);
}

#[test]
fn dispatcher_matches_the_exs_entry_point() {
    let p = platform();
    let new = solve(SolverKind::Exs, &p, &SolveOptions { threads: 2, ..quick_opts() }).unwrap();
    let old = exs::solve(&p).unwrap();
    assert_same(SolverKind::Exs, &new.solution, &old);
    // EXS enumerates the full space: 3 cores x 2 levels = 8 assignments.
    assert_eq!(new.stats.explored, 8);
}

#[test]
fn dispatcher_matches_ao_and_pco_under_equivalent_options() {
    let p = platform();
    let opts = quick_opts();
    let ao_opts = AoOptions {
        base_period: opts.base_period,
        max_m: opts.max_m,
        m_patience: opts.m_patience,
        t_unit_divisor: opts.t_unit_divisor,
        threads: opts.threads,
    };
    let new = solve(SolverKind::Ao, &p, &opts).unwrap();
    let old = ao::solve_with(&p, &ao_opts).unwrap();
    assert_same(SolverKind::Ao, &new.solution, &old);

    let pco_opts = PcoOptions {
        ao: ao_opts,
        phase_steps: opts.phase_steps,
        samples: opts.samples,
        refill_divisor: opts.refill_divisor,
    };
    let new = solve(SolverKind::Pco, &p, &opts).unwrap();
    let old = pco::solve_with(&p, &pco_opts).unwrap();
    assert_same(SolverKind::Pco, &new.solution, &old);
}
