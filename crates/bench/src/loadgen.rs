//! Open-loop arrival schedules for the `mosc-bench loadgen` binary.
//!
//! A closed-loop client sends its next request only
//! after the previous response arrives, so when the server slows down the
//! client slows down with it and the recorded latencies silently exclude
//! the queueing the *intended* workload would have suffered — coordinated
//! omission. An open-loop generator fixes the arrival times up front from
//! a seeded random process, sends each request at its scheduled instant
//! whether or not earlier responses are back, and measures every latency
//! from the **intended** send time. This module provides the deterministic
//! schedule half of that design; the binary adds sockets and threads.
//!
//! Schedules are reproducible: the same `(process, rate, duration, seed)`
//! always yields the same arrival times, so a regression run offers
//! byte-identical load to its baseline.

use mosc_testutil::Rng64;

/// The inter-arrival distribution of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival times (a Poisson process) — the bursty
    /// memoryless arrivals a shared service actually sees.
    Poisson,
    /// Constant inter-arrival times — perfectly paced load, the easiest
    /// case for the server and a useful lower bound on latency.
    Uniform,
}

impl ArrivalProcess {
    /// Parses the CLI spelling (`"poisson"` / `"uniform"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "poisson" => Some(Self::Poisson),
            "uniform" => Some(Self::Uniform),
            _ => None,
        }
    }

    /// The artifact spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Poisson => "poisson",
            Self::Uniform => "uniform",
        }
    }
}

/// Builds the arrival schedule: intended send times in seconds from the
/// run start, strictly within `[0, duration_s)`, sorted ascending.
///
/// For [`ArrivalProcess::Poisson`] the gaps are `-ln(1-u)/rate` draws from
/// a [`Rng64`] seeded with `seed` (inverse-CDF exponential sampling); for
/// [`ArrivalProcess::Uniform`] the gaps are exactly `1/rate` and the seed
/// is ignored. The expected schedule length is `rate_hz * duration_s`
/// either way.
///
/// # Panics
/// When `rate_hz` or `duration_s` is not finite and positive.
#[must_use]
pub fn arrival_schedule(
    process: ArrivalProcess,
    rate_hz: f64,
    duration_s: f64,
    seed: u64,
) -> Vec<f64> {
    assert!(rate_hz.is_finite() && rate_hz > 0.0, "rate must be positive, got {rate_hz}");
    assert!(
        duration_s.is_finite() && duration_s > 0.0,
        "duration must be positive, got {duration_s}"
    );
    let mut rng = Rng64::seed_from_u64(seed);
    let mut t = 0.0_f64;
    let mut out = Vec::with_capacity((rate_hz * duration_s) as usize + 1);
    loop {
        let gap = match process {
            ArrivalProcess::Poisson => {
                // Inverse-CDF exponential; next_f64 is in [0, 1) so the
                // argument of ln stays in (0, 1].
                -(1.0 - rng.next_f64()).ln() / rate_hz
            }
            ArrivalProcess::Uniform => 1.0 / rate_hz,
        };
        t += gap;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

/// Locates the saturation knee of a rate sweep: the highest offered rate
/// whose achieved rate kept up within `tolerance` (achieved ≥ tolerance ×
/// offered). Returns `None` when no point kept up — the sweep started past
/// saturation.
#[must_use]
pub fn saturation_knee(points: &[(f64, f64)], tolerance: f64) -> Option<f64> {
    points
        .iter()
        .filter(|(offered, achieved)| *achieved >= tolerance * *offered)
        .map(|(offered, _)| *offered)
        .fold(None, |best, offered| Some(best.map_or(offered, |b: f64| b.max(offered))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_from_seed() {
        let a = arrival_schedule(ArrivalProcess::Poisson, 200.0, 2.0, 42);
        let b = arrival_schedule(ArrivalProcess::Poisson, 200.0, 2.0, 42);
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        let c = arrival_schedule(ArrivalProcess::Poisson, 200.0, 2.0, 43);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn poisson_schedule_matches_the_offered_rate() {
        let (rate, duration) = (500.0, 4.0);
        let s = arrival_schedule(ArrivalProcess::Poisson, rate, duration, 7);
        // Count ~ Poisson(2000); 5 sigma is ~±224.
        let expected = rate * duration;
        assert!(
            (s.len() as f64 - expected).abs() < 5.0 * expected.sqrt(),
            "got {} arrivals, expected about {expected}",
            s.len()
        );
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "arrivals must be sorted");
        assert!(s.iter().all(|&t| (0.0..duration).contains(&t)));
    }

    #[test]
    fn uniform_schedule_is_exactly_paced() {
        // Rate 8 makes the 1/8 s gap exact in binary, so the count is too.
        let s = arrival_schedule(ArrivalProcess::Uniform, 8.0, 1.0, 999);
        assert_eq!(s.len(), 7, "arrivals at 0.125 .. 0.875; 1.0 is excluded");
        for w in s.windows(2) {
            assert!((w[1] - w[0] - 0.125).abs() < 1e-12, "gap must be exactly 1/rate");
        }
    }

    #[test]
    fn knee_is_the_last_rate_that_kept_up() {
        let sweep =
            [(100.0, 99.0), (200.0, 198.0), (400.0, 392.0), (800.0, 430.0), (1600.0, 428.0)];
        assert_eq!(saturation_knee(&sweep, 0.9), Some(400.0));
        assert_eq!(saturation_knee(&[(100.0, 20.0)], 0.9), None);
        assert_eq!(saturation_knee(&[], 0.9), None);
    }

    #[test]
    fn process_parsing_roundtrips() {
        for p in [ArrivalProcess::Poisson, ArrivalProcess::Uniform] {
            assert_eq!(ArrivalProcess::parse(p.name()), Some(p));
        }
        assert_eq!(ArrivalProcess::parse("bursty"), None);
    }
}
