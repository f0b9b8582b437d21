//! Sample statistics and the open-loop step verdict.
//!
//! A *step* is one open-loop phase at a fixed offered rate: requests are
//! due at Poisson-spaced intended send times over `duration` seconds, and
//! each one's latency runs from its intended send time to its completion.
//! The verdict uses completion timestamps only; dividing the completed
//! count by the *scheduled* span would report a step in which everything
//! completes, however late, as keeping up.

/// Quantile `q` in `[0, 1]` of `samples` by linear interpolation between
/// closest ranks. `samples` need not be sorted; empty input gives `NaN`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// [`quantile`] over already sorted samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if sorted[lo] == sorted[hi] {
                // Also keeps an infinite tail infinite rather than NaN.
                sorted[lo]
            } else {
                sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
            }
        }
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// One request of a step, as the client saw it. Times are seconds from the
/// step's start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the schedule said to send it.
    pub intended: f64,
    /// When its response arrived; `None` if none arrived.
    pub done: Option<f64>,
    /// `true` when the response was a correct `ok` answer.
    pub ok: bool,
}

/// The measured outcome of one step.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    pub offered_rps: f64,
    /// Correct answers ÷ (last completion − step start).
    pub achieved_rps: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    /// Requests still unanswered `limit` after the schedule ended.
    pub backlog: usize,
    /// Requests without a correct answer (errors, refusals, unanswered,
    /// wrong answers).
    pub failed: usize,
    pub requests: usize,
    pub kept_up: bool,
}

/// Judges one step against the workload's latency limit on percentile
/// `pct` (e.g. 0.99). A failed request counts as missing the limit. The
/// step keeps up only if (1) the `pct` latency is within `limit_ms`,
/// (2) achieved ≥ 0.95 × offered, and (3) at most the `1 − pct` share of
/// requests is still outstanding `limit_ms` after the schedule's end.
pub fn judge_step(samples: &[Sample], duration: f64, limit_ms: f64, pct: f64) -> StepOutcome {
    let n = samples.len();
    let mut lat: Vec<f64> = samples
        .iter()
        .map(|s| match (s.ok, s.done) {
            (true, Some(done)) => (done - s.intended) * 1e3,
            _ => f64::INFINITY,
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    let failed = samples.iter().filter(|s| !s.ok || s.done.is_none()).count();
    let last_done = samples.iter().filter(|s| s.ok).filter_map(|s| s.done).fold(0.0, f64::max);
    let achieved_rps = if last_done > 0.0 { (n - failed) as f64 / last_done } else { 0.0 };
    let drain_end = duration + limit_ms / 1e3;
    let backlog = samples.iter().filter(|s| s.done.is_none_or(|d| d > drain_end)).count();
    let offered_rps = n as f64 / duration;
    let tail = quantile_sorted(&lat, pct);
    let kept_up = n > 0
        && tail <= limit_ms
        && achieved_rps >= 0.95 * offered_rps
        && backlog as f64 <= (1.0 - pct) * n as f64;
    StepOutcome {
        offered_rps,
        achieved_rps,
        p50_ms: quantile_sorted(&lat, 0.5),
        p90_ms: quantile_sorted(&lat, 0.9),
        p99_ms: quantile_sorted(&lat, 0.99),
        backlog,
        failed,
        requests: n,
        kept_up,
    }
}

/// Latency quantile `q` (ms) of a step as the median over up to
/// `max_windows` equal, consecutive windows of the schedule, each holding at
/// least 100 requests, of each window's own quantile. A host stall that
/// lands in one window moves one window's figure, not the step's. Failed
/// requests count as infinitely late, as in [`judge_step`].
pub fn windowed_quantile(samples: &[Sample], q: f64, max_windows: usize) -> f64 {
    let windows = (samples.len() / 100).clamp(1, max_windows.max(1));
    let per = samples.len().div_ceil(windows).max(1);
    let figures: Vec<f64> = samples
        .chunks(per)
        .map(|w| {
            let lat: Vec<f64> = w
                .iter()
                .map(|s| match (s.ok, s.done) {
                    (true, Some(done)) => (done - s.intended) * 1e3,
                    _ => f64::INFINITY,
                })
                .collect();
            quantile(&lat, q)
        })
        .collect();
    median(&figures)
}

/// The highest rung of the fixed, ascending `rungs` whose step keeps up,
/// found by bisection (offered load only ever makes a step harder) and
/// starting from rung `start`. A rung fails only if two steps at it in a
/// row fail: on a shared host a stall of a few tens of milliseconds can
/// fail one step well below capacity, and bisection never revisits a
/// rung. Returns the rung index, `None` when even the lowest fails.
pub fn max_rung(
    rungs: &[f64],
    start: usize,
    mut probe: impl FnMut(f64) -> StepOutcome,
) -> Option<usize> {
    // Invariant: rungs below `lo` pass (as far as probed), `hi` and above fail.
    let (mut lo, mut hi) = (0usize, rungs.len());
    let mut best = None;
    let mut next = start.min(rungs.len() - 1);
    while lo < hi {
        let mut out = probe(rungs[next]);
        if !out.kept_up {
            out = probe(rungs[next]);
        }
        if out.kept_up {
            best = Some(next);
            lo = next + 1;
        } else {
            hi = next;
        }
        next = lo + (hi - lo) / 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A step at `rate` req/s for `duration` s whose server completes one
    /// request every `1/capacity` s, first come first served.
    fn fifo_step(rate: f64, capacity: f64, duration: f64) -> Vec<Sample> {
        let n = (rate * duration) as usize;
        let mut free_at = 0.0f64;
        (0..n)
            .map(|i| {
                let intended = i as f64 / rate;
                free_at = free_at.max(intended) + 1.0 / capacity;
                Sample { intended, done: Some(free_at), ok: true }
            })
            .collect()
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn a_step_within_capacity_keeps_up() {
        let out = judge_step(&fifo_step(1_000.0, 5_000.0, 2.0), 2.0, 5.0, 0.99);
        assert!(out.kept_up, "{out:?}");
        assert!((out.achieved_rps / out.offered_rps - 1.0).abs() < 0.01, "{out:?}");
        assert_eq!(out.backlog, 0);
    }

    /// Offered 40k/s against a server that completes 15k/s: every request
    /// is eventually answered, so a count divided by the scheduled span
    /// reads 40k/s. Completion timestamps show the server fell behind.
    #[test]
    fn everything_answered_late_is_not_kept_up() {
        let samples = fifo_step(40_000.0, 15_000.0, 1.0);
        assert!(samples.iter().all(|s| s.done.is_some() && s.ok));
        let scheduled_span_rate = samples.len() as f64 / 1.0;
        assert!((scheduled_span_rate - 40_000.0).abs() < 1.0);
        let out = judge_step(&samples, 1.0, 10.0, 0.99);
        assert!(!out.kept_up, "{out:?}");
        assert!(out.achieved_rps < 0.95 * out.offered_rps, "{out:?}");
        assert!(out.backlog > 0, "{out:?}");
        assert!(out.p50_ms > 100.0, "{out:?}");
    }

    /// A fast median does not rescue a step whose queue has not drained
    /// when the schedule ends.
    #[test]
    fn a_backlog_at_the_end_fails_the_step() {
        let mut samples = fifo_step(1_000.0, 5_000.0, 1.0);
        for s in samples.iter_mut().rev().take(50) {
            s.done = s.done.map(|d| d + 2.0);
        }
        let out = judge_step(&samples, 1.0, 100.0, 0.99);
        assert!(out.p50_ms < 1.0, "{out:?}");
        assert!(!out.kept_up, "{out:?}");
        assert_eq!(out.backlog, 50);
    }

    #[test]
    fn failures_count_as_missing_the_limit() {
        let mut samples = fifo_step(1_000.0, 5_000.0, 1.0);
        for s in samples.iter_mut().step_by(20) {
            s.ok = false;
        }
        let out = judge_step(&samples, 1.0, 5.0, 0.99);
        assert!(!out.kept_up, "{out:?}");
        assert!(out.p99_ms.is_infinite());
        assert_eq!(out.failed, 50);
    }

    #[test]
    fn windowed_quantiles_shrug_off_one_bad_window() {
        let mut samples = fifo_step(1_000.0, 5_000.0, 6.0);
        let calm = windowed_quantile(&samples, 0.9, 6);
        assert!(
            (calm
                - quantile(
                    &samples
                        .iter()
                        .map(|s| (s.done.unwrap() - s.intended) * 1e3)
                        .collect::<Vec<_>>(),
                    0.9
                ))
            .abs()
                < 0.01
        );
        for s in samples.iter_mut().take(1000) {
            s.done = s.done.map(|d| d + 0.05);
        }
        assert!((windowed_quantile(&samples, 0.9, 6) - calm).abs() < 0.01);
        assert_eq!(
            windowed_quantile(&samples[..50], 0.5, 6),
            windowed_quantile(&samples[..50], 0.5, 1)
        );
    }

    #[test]
    fn a_rung_fails_only_when_it_fails_twice() {
        let rungs: Vec<f64> = (0..20).map(|k| 100.0 * 1.25f64.powi(k)).collect();
        let mut tries = std::collections::HashMap::new();
        let best = max_rung(&rungs, 6, |rate| {
            // Every rung's first step fails, as after a host stall.
            let n = tries.entry(rate.to_bits()).or_insert(0);
            *n += 1;
            let capacity = if *n == 1 { 1.0 } else { 2_000.0 };
            judge_step(&fifo_step(rate, capacity, 1.0), 1.0, 50.0, 0.99)
        });
        let expected = rungs
            .iter()
            .rposition(|&r| judge_step(&fifo_step(r, 2_000.0, 1.0), 1.0, 50.0, 0.99).kept_up);
        assert_eq!(best, expected);
    }

    #[test]
    fn bisection_finds_the_highest_passing_rung() {
        let rungs: Vec<f64> = (0..20).map(|k| 100.0 * 1.25f64.powi(k)).collect();
        for capacity in [50.0, 120.0, 900.0, 5_000.0, 1e9] {
            let mut steps = 0;
            let best = max_rung(&rungs, 6, |rate| {
                steps += 1;
                judge_step(&fifo_step(rate, capacity, 1.0), 1.0, 50.0, 0.99)
            });
            let expected = rungs
                .iter()
                .rposition(|&r| judge_step(&fifo_step(r, capacity, 1.0), 1.0, 50.0, 0.99).kept_up);
            assert_eq!(best, expected, "capacity {capacity}");
            assert!(steps <= 12, "capacity {capacity}: {steps} steps");
        }
    }
}
