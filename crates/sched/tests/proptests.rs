//! Property-based tests for the schedule algebra.

use mosc_sched::{
    text, CoreSchedule, PeakReport, Platform, PlatformSpec, Schedule, Segment, SteadyState,
};
use mosc_testutil::{propcheck_cases, Rng64};

const CASES: usize = 48;

/// A valid random core timeline with the given period.
fn core_timeline(rng: &mut Rng64, period: f64) -> CoreSchedule {
    let n = rng.gen_range(1..5usize);
    let raw: Vec<(f64, f64)> =
        (0..n).map(|_| (rng.gen_range(0.6..1.3), rng.gen_range(0.05..1.0))).collect();
    let total: f64 = raw.iter().map(|(_, d)| d).sum();
    let segs: Vec<Segment> =
        raw.into_iter().map(|(v, d)| Segment::new(v, d / total * period)).collect();
    CoreSchedule::new(segs).expect("normalized segments are valid")
}

fn schedule(rng: &mut Rng64, n_cores: usize, period: f64) -> Schedule {
    let cores: Vec<CoreSchedule> = (0..n_cores).map(|_| core_timeline(rng, period)).collect();
    Schedule::new(cores).expect("equal periods by construction")
}

#[test]
fn stepup_transform_preserves_work_and_is_stepup() {
    propcheck_cases("stepup_transform_preserves_work_and_is_stepup", CASES, |rng| {
        let s = schedule(rng, 3, 1.0);
        let up = s.to_step_up();
        assert!(up.is_step_up());
        assert!((up.throughput() - s.throughput()).abs() < 1e-12);
        assert!((up.period() - s.period()).abs() < 1e-12);
        // Idempotence.
        assert_eq!(up.to_step_up(), up.clone());
    });
}

#[test]
fn oscillation_scales_period_only() {
    propcheck_cases("oscillation_scales_period_only", CASES, |rng| {
        let s = schedule(rng, 2, 1.0);
        let m = rng.gen_range(1..20usize);
        let o = s.oscillated(m);
        // Definition 3 carried structurally: the block compresses by m, the
        // repetition count absorbs it, the full period is invariant.
        assert!((o.block_period() - s.block_period() / m as f64).abs() < 1e-12);
        assert_eq!(o.repetitions(), s.repetitions() * m);
        assert!((o.period() - s.period()).abs() < 1e-12);
        assert!((o.throughput() - s.throughput()).abs() < 1e-12);
        assert_eq!(o.block_is_step_up(), s.block_is_step_up());
    });
}

#[test]
fn shift_preserves_work_and_period() {
    propcheck_cases("shift_preserves_work_and_period", CASES, |rng| {
        let s = schedule(rng, 3, 1.0);
        let core = rng.gen_range(0..3usize);
        let offset = rng.gen_range(0.0..2.0);
        let shifted = s.with_shifted_core(core, offset);
        assert!((shifted.throughput() - s.throughput()).abs() < 1e-12);
        assert!((shifted.period() - s.period()).abs() < 1e-9);
        // Shifting by the period is the identity (up to segment merging).
        let full = s.with_shifted_core(core, s.period());
        assert!((full.core(core).work() - s.core(core).work()).abs() < 1e-12);
    });
}

#[test]
fn shift_matches_voltage_lookup() {
    propcheck_cases("shift_matches_voltage_lookup", CASES, |rng| {
        let c = core_timeline(rng, 1.0);
        let offset = rng.gen_range(0.0..1.0);
        let probe = rng.gen_range(0.0..1.0);
        let shifted = c.shifted(offset);
        // Away from segment boundaries the lookup must match exactly.
        let v_direct = c.voltage_at(probe + offset);
        let v_shifted = shifted.voltage_at(probe);
        // Tolerate boundary ambiguity: accept when the probe sits within
        // 1e-6 of any boundary of either timeline.
        let near_boundary = |cs: &CoreSchedule, t: f64| {
            let period = cs.period();
            let mut acc = 0.0;
            let tt = t % period;
            for s in cs.segments() {
                acc += s.duration;
                if (tt - acc).abs() < 1e-6 || (tt - (acc - s.duration)).abs() < 1e-6 {
                    return true;
                }
            }
            false
        };
        if !near_boundary(&c, probe + offset) && !near_boundary(&shifted, probe) {
            assert_eq!(v_direct, v_shifted);
        }
    });
}

#[test]
fn state_intervals_partition_the_period() {
    propcheck_cases("state_intervals_partition_the_period", CASES, |rng| {
        let s = schedule(rng, 3, 1.0);
        let ivs = s.state_intervals();
        let total: f64 = ivs.iter().map(|(_, l)| l).sum();
        assert!((total - s.period()).abs() < 1e-9);
        // Each interval's voltages match the per-core lookup at its midpoint.
        let mut start = 0.0;
        for (voltages, len) in &ivs {
            let mid = start + len / 2.0;
            for (c, &v) in voltages.iter().enumerate() {
                assert!((s.core(c).voltage_at(mid) - v).abs() < 1e-12);
            }
            start += len;
        }
    });
}

#[test]
fn text_roundtrip() {
    propcheck_cases("text_roundtrip", CASES, |rng| {
        let s = schedule(rng, 3, 0.5);
        let rendered = text::to_text(&s);
        let back = text::from_text(&rendered).unwrap();
        assert_eq!(back.n_cores(), s.n_cores());
        assert!((back.period() - s.period()).abs() < 1e-9);
        assert!((back.throughput() - s.throughput()).abs() < 1e-9);
    });
}

#[test]
fn throughput_is_mean_of_core_speeds() {
    propcheck_cases("throughput_is_mean_of_core_speeds", CASES, |rng| {
        let s = schedule(rng, 3, 1.0);
        let mean: f64 =
            s.cores().iter().map(|c| c.work() / s.period()).sum::<f64>() / s.n_cores() as f64;
        assert!((s.throughput() - mean).abs() < 1e-12);
        // Bounded by the voltage range used by the generator.
        assert!(s.throughput() >= 0.6 - 1e-9 && s.throughput() <= 1.3 + 1e-9);
    });
}

#[test]
fn period_map_matches_dense_reference() {
    // The modal period-map fast path and the interval-by-interval dense
    // oracle must agree on the stable status — including for large
    // repetition counts, where the fast path exponentiates by squaring
    // while the oracle grinds through every materialized interval.
    propcheck_cases("period_map_matches_dense_reference", 6, |rng| {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 3, 65.0)).unwrap();
        for &m in &[1usize, 3, 17, 256] {
            let base = schedule(rng, 2, 0.3);
            // Both repetition flavors: plain repeat (same block, m blocks)
            // and Definition-3 oscillation (block compressed by m).
            let s =
                if rng.gen_range(0..2usize) == 0 { base.repeated(m) } else { base.oscillated(m) };
            let ss = mosc_sched::eval::SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
            let (t_start, at_ends) =
                mosc_sched::eval::compute_dense(p.thermal(), p.power(), &s).unwrap();
            let d0 = ss.t_start().max_abs_diff(&t_start);
            assert!(d0 < 1e-10, "m={m}: start fixed point differs by {d0}");
            // The stable trace is block-periodic: the fast path stores one
            // block of interval ends, the oracle all m·d of them.
            let d = ss.at_interval_ends().len();
            assert_eq!(at_ends.len(), d * s.repetitions());
            for (k, t) in ss.at_interval_ends().iter().enumerate() {
                let dk = t.max_abs_diff(&at_ends[k]);
                assert!(dk < 1e-10, "m={m}: interval end {k}/{d} differs by {dk}");
                // And again in the last block.
                let dk = t.max_abs_diff(&at_ends[at_ends.len() - d + k]);
                assert!(dk < 1e-10, "m={m}: last-block end {k}/{d} differs by {dk}");
            }
        }
    });
}

#[test]
fn peak_agrees_with_dense_sampling_under_repetition() {
    // peak_temperature routes through the period-map kernel; a brute-force
    // scan of the dense oracle's stable trace must find the same value.
    propcheck_cases("peak_agrees_with_dense_sampling_under_repetition", 8, |rng| {
        let p = Platform::build(&PlatformSpec::paper(1, 2, 3, 65.0)).unwrap();
        let m = [1usize, 3, 17][rng.gen_range(0..3usize)];
        let s = schedule(rng, 2, 0.3).oscillated(m);
        let fast =
            mosc_sched::eval::peak_temperature(p.thermal(), p.power(), &s, Some(600)).unwrap();
        let ss = mosc_sched::eval::SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        let dense = ss.peak_sampled(p.thermal(), 8000).unwrap();
        assert!(
            (fast.temp - dense.temp).abs() < 1e-4,
            "m={m}: fast peak {} vs dense {}",
            fast.temp,
            dense.temp
        );
    });
}

#[test]
fn steady_state_invariant_under_stepup_throughput() {
    propcheck_cases("steady_state_invariant_under_stepup_throughput", 16, |rng| {
        // Not a theorem about temperature — but both schedules must agree on
        // work, and their steady states must both be valid fixed points.
        let s = schedule(rng, 2, 0.4);
        let p = Platform::build(&PlatformSpec::paper(1, 2, 5, 65.0)).unwrap();
        let up = s.to_step_up();
        let ss1 = mosc_sched::eval::SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        let ss2 = mosc_sched::eval::SteadyState::compute(p.thermal(), p.power(), &up).unwrap();
        assert!(ss1.at_interval_ends().last().unwrap().max_abs_diff(ss1.t_start()) < 1e-8);
        assert!(ss2.at_interval_ends().last().unwrap().max_abs_diff(ss2.t_start()) < 1e-8);
        // Theorem 2 as a property: step-up peak bounds the original's.
        let p1 = mosc_sched::eval::peak_temperature(p.thermal(), p.power(), &s, Some(300)).unwrap();
        let p2 = p.peak(&up).unwrap();
        assert!(p1.temp <= p2.temp + 1e-4 + 1e-3 * p2.temp.abs());
    });
}

/// The peak evaluation as `SteadyState` alone computes it, from public API
/// only: the core maximum of `t_start()` for a step-up block; otherwise the
/// hottest sample of `trace().peak()`, refined by golden-section search on
/// `at_time()[core]` exactly as `peak_temperature` documents it.
fn reference_peak(p: &Platform, s: &Schedule, samples: Option<usize>) -> PeakReport {
    const EPS: f64 = 1e-9; // the crate's time-comparison slack
    let model = p.thermal();
    let ss = SteadyState::compute(model, p.power(), s).unwrap();
    if s.block_is_step_up() {
        let t = ss.t_start();
        let mut best = PeakReport { temp: f64::NEG_INFINITY, core: 0, time: 0.0, exact: true };
        for c in 0..s.n_cores() {
            if t[c] > best.temp {
                best = PeakReport { temp: t[c], core: c, time: 0.0, exact: true };
            }
        }
        return best;
    }
    let samples = samples.unwrap_or(mosc_sched::eval::DEFAULT_SAMPLES_PER_PERIOD);
    let tol = s.block_period() / samples as f64 * 1e-3;
    let coarse = ss.trace(model, samples).unwrap().peak().unwrap();
    let ivs = s.block_intervals();
    let period: f64 = ivs.iter().map(|(_, len)| len).sum();
    let window = period / samples as f64;
    let (lo, hi) = ((coarse.time - window).max(0.0), (coarse.time + window).min(period));
    let core = coarse.core;
    let f = |t: f64| ss.at_time(model, t).unwrap()[core];

    let mut cuts = vec![lo];
    let mut start = 0.0;
    for (_, len) in &ivs {
        for b in [start, start + len] {
            if b > lo + EPS && b < hi - EPS {
                cuts.push(b);
            }
        }
        start += len;
    }
    cuts.push(hi);
    cuts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    cuts.dedup_by(|a, b| (*a - *b).abs() < EPS);

    let mut best = PeakReport { temp: coarse.temp, core, time: coarse.time, exact: false };
    for &c in &cuts {
        let v = f(c);
        if v > best.temp {
            best = PeakReport { temp: v, core, time: c, exact: false };
        }
    }
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    for w in cuts.windows(2) {
        let (mut lo, mut hi) = (w[0], w[1]);
        let mut a = hi - INV_PHI * (hi - lo);
        let mut b = lo + INV_PHI * (hi - lo);
        let (mut fa, mut fb) = (f(a), f(b));
        let mut guard = 0;
        while hi - lo > tol && guard < 200 {
            guard += 1;
            if fa >= fb {
                (hi, b, fb) = (b, a, fa);
                a = hi - INV_PHI * (hi - lo);
                fa = f(a);
            } else {
                (lo, a, fa) = (a, b, fb);
                b = lo + INV_PHI * (hi - lo);
                fb = f(b);
            }
        }
        let t_best = 0.5 * (lo + hi);
        let refined = f(t_best);
        if refined > best.temp {
            best = PeakReport { temp: refined, core, time: t_best, exact: false };
        }
    }
    best
}

#[test]
fn peak_temperature_is_bit_identical_to_the_steady_state_oracle() {
    // The core-row peak paths must reproduce the full-vector evaluation
    // exactly (`==`), on step-up, repeated and phase-shifted schedules.
    propcheck_cases("peak_temperature_is_bit_identical_to_the_steady_state_oracle", 24, |rng| {
        let (rows, cols) = [(1usize, 2usize), (1, 3), (2, 2)][rng.gen_range(0..3usize)];
        let p = Platform::build(&PlatformSpec::paper(rows, cols, 3, 65.0)).unwrap();
        let n = rows * cols;
        let period = rng.gen_range(0.02..0.5);
        let base = schedule(rng, n, period);
        let m = [1usize, 2, 5, 16][rng.gen_range(0..4usize)];
        let s = match rng.gen_range(0..4usize) {
            0 => base.to_step_up().oscillated(m),
            1 => base.repeated(m),
            2 => base
                .to_step_up()
                .with_shifted_core(rng.gen_range(0..n), rng.gen_range(0.0..base.period())),
            _ => base.oscillated(m),
        };
        let samples = [None, Some(40), Some(150)][rng.gen_range(0..3usize)];
        let fast = mosc_sched::eval::peak_temperature(p.thermal(), p.power(), &s, samples).unwrap();
        assert_eq!(fast, reference_peak(&p, &s, samples), "schedule {}", text::to_text(&s));
        // The sampled peak is the trace's peak, tie rule included.
        let ss = SteadyState::compute(p.thermal(), p.power(), &s).unwrap();
        let sampled = ss.peak_sampled(p.thermal(), 60).unwrap();
        let traced = ss.trace(p.thermal(), 60).unwrap().peak().unwrap();
        assert_eq!(
            (sampled.temp, sampled.core, sampled.time),
            (traced.temp, traced.core, traced.time)
        );
        // And one core's start temperature is its `t_start()` entry.
        let core = rng.gen_range(0..n);
        let t = mosc_sched::eval::core_start_temperature(p.thermal(), p.power(), &s, core).unwrap();
        assert_eq!(t, ss.t_start()[core]);
    });
}
