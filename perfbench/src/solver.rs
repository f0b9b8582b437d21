//! The in-process solver workloads: `Platform::build` plus
//! `mosc_core::solve` with `SolveOptions::default()`, the options
//! `mosc-cli solve` and the daemon use.
//!
//! Every timed solve runs on a freshly built platform, as `mosc-cli solve`
//! does, so no solve inherits another's memoized thermal kernels. The low
//! phase runs one solve at a time; the high phase runs one closed solve
//! loop per CPU, the way the daemon's worker pool does under load.

use crate::gen::{self, Plat};
use crate::report::{Layer, Report};
use crate::rng::Rng;
use crate::stats::{median, quantile};
use crate::{procfs, Args};
use mosc_core::{solve, Schedule, SolveOptions, SolveReport, SolverKind};
use mosc_sched::SteadyState;
use std::time::{Duration, Instant};

/// Samples per period of the independent sampled-peak check.
const CHECK_SAMPLES: usize = 2000;
/// How far (K) the sampled-peak check may read above `T_max`: the solvers
/// judge PCO's shifted schedules on their own, coarser sampling grid.
const PEAK_TOL_K: f64 = 1e-3;
/// Relative tolerance against the checked-in seed-0 reference throughputs.
const REFERENCE_TOL: f64 = 1e-6;
/// Times the platform set is built to measure `setup_s`.
const SETUP_REPS: usize = 25;

/// The seed-0 reference throughputs, one `workload index throughput` line
/// per generated platform (first-solve order).
const REFERENCE: &str = include_str!("../reference.tsv");

pub struct Workload {
    kind: SolverKind,
    plats: Vec<Plat>,
    /// Generated platforms the solver does not answer, left out.
    dropped: Vec<Plat>,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let (kind, plats) = match name {
            // AO on 4×4 platforms hot enough that the TPT pass runs
            // 200–300 rounds and takes ~95% of each solve.
            "solver-tpt" => {
                (SolverKind::Ao, gen::stratified(&mut rng, 16, (4, 4, 4), (72.0, 78.0)))
            }
            // PCO on 3×3 platforms where AO's TPT pass is short, so the
            // phase search and the sampled-peak refill do about half the work.
            "solver-phase" => {
                (SolverKind::Pco, gen::stratified(&mut rng, 16, (3, 3, 4), (63.0, 67.0)))
            }
            other => unreachable!("not a solver workload: {other}"),
        };
        // Also the warm-up: every kept platform is solved once here.
        let (plats, dropped) = gen::answered(kind, plats);
        Self { kind, plats, dropped }
    }
}

/// One timed iteration: build the platform, then solve it.
struct Solve {
    idx: usize,
    build_s: f64,
    solve_s: f64,
    outcome: Result<SolveReport, String>,
}

fn timed_solve(kind: SolverKind, plats: &[Plat], idx: usize) -> Solve {
    let t0 = Instant::now();
    let platform = {
        let _span = mosc_obs::span("bench.build");
        plats[idx].build()
    };
    let t1 = Instant::now();
    // A panicking solve is a failed operation, not the end of the run.
    let outcome = std::panic::catch_unwind(|| {
        let _span = mosc_obs::span("bench.solve");
        solve(kind, std::hint::black_box(&platform), &SolveOptions::default())
    });
    let t2 = Instant::now();
    Solve {
        idx,
        build_s: (t1 - t0).as_secs_f64(),
        solve_s: (t2 - t1).as_secs_f64(),
        outcome: match outcome {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("solver panicked".into()),
        },
    }
}

/// Solves in `plats` order, one at a time, until `budget` has passed.
fn serial_phase(kind: SolverKind, plats: &[Plat], budget: Duration) -> Vec<Solve> {
    let end = Instant::now() + budget;
    let mut out = Vec::new();
    while out.is_empty() || Instant::now() < end {
        out.push(timed_solve(kind, plats, out.len() % plats.len()));
    }
    out
}

/// One solve loop per CPU, each starting at its own offset in `plats`,
/// until `budget` has passed. Returns every solve and the phase's wall time
/// up to the last completion.
fn concurrent_phase(
    kind: SolverKind,
    plats: &[Plat],
    budget: Duration,
    loops: usize,
) -> (Vec<Solve>, f64) {
    let start = Instant::now();
    let end = start + budget;
    let per_loop: Vec<Vec<Solve>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..loops)
            .map(|l| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = l * plats.len() / loops;
                    while Instant::now() < end {
                        out.push(timed_solve(kind, plats, i % plats.len()));
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("solve loop panicked")).collect()
    });
    (per_loop.into_iter().flatten().collect(), start.elapsed().as_secs_f64())
}

/// Independent answer check for one platform's solution: the solver's own
/// feasibility flag, a sampled-peak re-evaluation of the schedule that does
/// not use the Theorem-1 fast path, and throughput at least LNS's. Returns
/// the LNS throughput.
fn verify(plat: &Plat, report: &SolveReport) -> Result<f64, String> {
    let p = plat.build();
    let sol = &report.solution;
    if !sol.feasible {
        return Err("solver reported an infeasible schedule".into());
    }
    let peak = sampled_peak(&p, &sol.schedule)?;
    if peak > p.t_max() + PEAK_TOL_K {
        return Err(format!("sampled peak {peak:.6} K exceeds T_max {:.6} K", p.t_max()));
    }
    let lns = solve(SolverKind::Lns, &p, &SolveOptions::default()).map_err(|e| e.to_string())?;
    let lns = lns.solution.throughput;
    if sol.throughput < lns - 1e-9 {
        return Err(format!("throughput {} below LNS {lns}", sol.throughput));
    }
    Ok(lns)
}

fn sampled_peak(p: &mosc_core::Platform, schedule: &Schedule) -> Result<f64, String> {
    let ss = SteadyState::compute(p.thermal(), p.power(), schedule).map_err(|e| e.to_string())?;
    let tol = schedule.block_period() / CHECK_SAMPLES as f64 * 1e-3;
    ss.peak_refined(p.thermal(), CHECK_SAMPLES, tol).map(|r| r.temp).map_err(|e| e.to_string())
}

/// Reference throughputs for `workload` at seed 0, by platform index.
fn reference(workload: &str) -> Vec<(usize, f64)> {
    REFERENCE
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            (f.next()? == workload).then_some(())?;
            Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?))
        })
        .collect()
}

/// Checks every solve: each platform's first answer is verified
/// independently, every repeat must reproduce it exactly, and at seed 0
/// the answers must match the checked-in reference. A solve without an
/// answer counts as failed, a solve with a wrong answer as failed and
/// wrong. Returns the mean throughput ratio to LNS over the platforms.
fn check_all(args: &Args, w: &Workload, solves: &[&Solve], report: &mut Report) -> f64 {
    let mut first: Vec<Option<(f64, Result<f64, String>)>> = vec![None; w.plats.len()];
    let mut wrong = 0u64;
    let mut unanswered = 0u64;
    for s in solves {
        let right = match (&s.outcome, &first[s.idx]) {
            (Err(e), _) => {
                report
                    .note(format!("platform {} ({:?}): solve failed: {e}", s.idx, w.plats[s.idx]));
                unanswered += 1;
                continue;
            }
            (Ok(r), None) => {
                let v = verify(&w.plats[s.idx], r);
                if let Err(e) = &v {
                    report.note(format!("platform {}: {e}", s.idx));
                }
                let ok = v.is_ok();
                first[s.idx] = Some((r.solution.throughput, v));
                ok
            }
            (Ok(r), Some((thr, v))) => {
                let same = r.solution.throughput == *thr;
                if !same {
                    report.note(format!(
                        "platform {}: throughput {} differs from an earlier solve's {thr}",
                        s.idx, r.solution.throughput
                    ));
                }
                same && v.is_ok()
            }
        };
        wrong += u64::from(!right);
    }
    if args.seed == 0 {
        for (idx, want) in reference(&args.workload) {
            if let Some(Some((got, _))) = first.get(idx) {
                if ((got - want) / want).abs() > REFERENCE_TOL {
                    report.note(format!(
                        "platform {idx}: throughput {got} differs from the seed-0 reference {want}"
                    ));
                    wrong += 1;
                }
            }
        }
    }
    report.attempted += solves.len() as u64;
    report.failed += wrong + unanswered;
    report.wrong += wrong;
    let ratios: Vec<f64> = first
        .iter()
        .flatten()
        .filter_map(|(thr, v)| v.as_ref().ok().map(|lns| thr / lns))
        .collect();
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

/// Times building the whole platform set, `SETUP_REPS` times; the median.
fn setup(plats: &[Plat]) -> f64 {
    let reps: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            for p in plats {
                std::hint::black_box(p.build());
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&reps)
}

/// Quantile `q` of the wall time (ms) of the solves that answered.
fn ms(solves: &[Solve], q: f64) -> f64 {
    quantile(
        &solves.iter().filter(|s| s.outcome.is_ok()).map(|s| s.solve_s * 1e3).collect::<Vec<_>>(),
        q,
    )
}

pub fn run(args: &Args) -> Report {
    let w = Workload::new(&args.workload, args.seed);
    let mut report = Report::default();
    report.note(format!(
        "{} on {} platforms ({}x{} first), {} solver",
        args.workload,
        w.plats.len(),
        w.plats[0].rows,
        w.plats[0].cols,
        w.kind.id()
    ));
    for p in &w.dropped {
        report.note(format!("dropped, the solver gives no answer: {}", p.command(w.kind)));
    }
    let setup_s = setup(&w.plats);
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        traced(args, &w, budget, &mut report);
        return report;
    }
    let cpu0 = procfs::cpu_seconds(None);
    let low = serial_phase(w.kind, &w.plats, budget.mul_f64(0.5));
    let cpu1 = procfs::cpu_seconds(None);
    let loops = procfs::nproc();
    let (high, high_wall) = concurrent_phase(w.kind, &w.plats, budget.mul_f64(0.5), loops);
    let cpu2 = procfs::cpu_seconds(None);
    let all: Vec<&Solve> = low.iter().chain(&high).collect();
    let quality = check_all(args, &w, &all, &mut report);
    report.note(format!(
        "low phase: {} solves; high phase: {} solves over {loops} loops",
        low.len(),
        high.len()
    ));
    report.e2e("setup_s", setup_s);
    report.e2e("cpu_ms_per_op.low", (cpu1 - cpu0) * 1e3 / low.len() as f64);
    report.e2e("cpu_ms_per_op.high", (cpu2 - cpu1) * 1e3 / high.len().max(1) as f64);
    report.e2e("lat_ms.p50.low", ms(&low, 0.5));
    report.e2e("lat_ms.p90.low", ms(&low, 0.9));
    report.e2e("lat_ms.p50.high", ms(&high, 0.5));
    report.e2e("lat_ms.p90.high", ms(&high, 0.9));
    let answered = high.iter().filter(|s| s.outcome.is_ok()).count();
    report.e2e("max_rate_per_s", answered as f64 / high_wall);
    report.e2e("quality_vs_lns", quality);
    report.e2e("peak_rss_mb", procfs::peak_rss_mb(None));
    report
}

/// The traced run: an untraced serial phase for the overhead baseline,
/// then a serial phase with the `mosc-obs` recorder on, read per solve.
fn traced(args: &Args, w: &Workload, budget: Duration, report: &mut Report) {
    let (cpu0, t0) = (procfs::cpu_seconds(None), Instant::now());
    let plain = serial_phase(w.kind, &w.plats, budget.mul_f64(0.4));
    let cpu_over_wall = (procfs::cpu_seconds(None) - cpu0) / t0.elapsed().as_secs_f64();

    const COUNTERS: [&str; 12] = [
        "expm.calls",
        "eigen.calls",
        "linalg.matmuls",
        "steady_state.calls",
        "period_map.matmuls",
        "peak_eval.calls",
        "peak_eval.exact_path",
        "ao.tpt_rounds",
        "ao.m_candidates",
        "pco.phases_tried",
        "registry.hits",
        "registry.misses",
    ];
    let read = || COUNTERS.map(|c| mosc_obs::counter_value(c).unwrap_or(0) as f64);
    mosc_obs::enable();
    mosc_obs::reset();
    // At least one full pass, so every platform contributes its counts.
    let end = Instant::now() + budget.mul_f64(0.6);
    let mut traced = Vec::new();
    let mut per_plat: Vec<Option<[f64; 12]>> = vec![None; w.plats.len()];
    while traced.len() < w.plats.len() || Instant::now() < end {
        let before = read();
        let s = timed_solve(w.kind, &w.plats, traced.len() % w.plats.len());
        let after = read();
        if s.outcome.is_ok() && per_plat[s.idx].is_none() {
            per_plat[s.idx] = Some({
                let mut d = [0.0; 12];
                for (k, v) in d.iter_mut().enumerate() {
                    *v = after[k] - before[k];
                }
                d
            });
        }
        traced.push(s);
    }
    let telemetry = mosc_obs::snapshot();
    mosc_obs::disable();
    mosc_obs::reset();

    let all: Vec<&Solve> = plain.iter().chain(&traced).collect();
    check_all(args, w, &all, report);
    report.note(format!("untraced: {} solves; traced: {} solves", plain.len(), traced.len()));

    // Exactly repeating counts: the mean over the platform set of each
    // platform's per-solve count (build plus solve).
    let counts: Vec<[f64; 12]> = per_plat.into_iter().flatten().collect();
    let count = |name: &str| {
        let k = COUNTERS.iter().position(|c| *c == name).expect("known counter");
        counts.iter().map(|c| c[k]).sum::<f64>() / counts.len() as f64
    };
    let span_s = |name: &str| -> f64 {
        telemetry.spans().iter().filter(|s| s.name == name).map(|s| s.total.as_secs_f64()).sum()
    };
    let n = traced.len() as f64;
    let solve_total = span_s("bench.solve");
    let tpt = span_s("ao.tpt_adjust");
    let reg = count("registry.hits") + count("registry.misses");

    let mut l = Layer::default();
    l.set("linalg.expm_calls", count("expm.calls"));
    l.set("linalg.eigen_calls", count("eigen.calls"));
    l.set("linalg.matmuls", count("linalg.matmuls"));
    l.set(
        "sched.build_ms.p50",
        quantile(&traced.iter().map(|s| s.build_s * 1e3).collect::<Vec<_>>(), 0.5),
    );
    l.set("sched.steady_state_calls", count("steady_state.calls"));
    l.set("sched.period_map_matmuls", count("period_map.matmuls"));
    l.set("sched.peak_evals", count("peak_eval.calls"));
    l.set(
        "sched.peak_exact_share",
        count("peak_eval.exact_path") / count("peak_eval.calls").max(1.0),
    );
    l.set("core.tpt_ms", tpt * 1e3 / n);
    l.set("core.tpt_share", tpt / solve_total);
    l.set("core.tpt_rounds", count("ao.tpt_rounds"));
    l.set("core.sweep_m_ms", span_s("ao.sweep_m") * 1e3 / n);
    l.set("core.m_candidates", count("ao.m_candidates"));
    l.set("core.phase_search_ms", span_s("pco.phase_search") * 1e3 / n);
    l.set("core.refill_ms", span_s("pco.refill") * 1e3 / n);
    l.set("core.phases_tried", count("pco.phases_tried"));
    l.set("core.cpu_over_wall", cpu_over_wall);
    l.set("core.registry_hit_ratio", if reg > 0.0 { count("registry.hits") / reg } else { 0.0 });
    l.set("obs.trace_overhead_x", ms(&traced, 0.5) / ms(&plain, 0.5));
    report.layer = l;
}

/// Prints the reference lines for `args.workload` at `args.seed`: one
/// `workload index throughput` line per generated platform.
pub fn emit_reference(args: &Args) -> Result<(), String> {
    let w = Workload::new(&args.workload, args.seed);
    for (i, plat) in w.plats.iter().enumerate() {
        let r =
            solve(w.kind, &plat.build(), &SolveOptions::default()).map_err(|e| e.to_string())?;
        println!("{} {i} {:?}", args.workload, r.solution.throughput);
    }
    Ok(())
}
