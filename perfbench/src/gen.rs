//! Seeded workload inputs. The program only ever sees what these
//! generators produce; every platform they return keeps its all-lowest
//! assignment within `T_max`, so every solve has an answer and every
//! non-`ok` response is a real failure.
//!
//! The solver and `serve-hit` workloads also drop every platform on which
//! the in-process solver returns no answer (it errs or panics): a workload
//! is a performance measurement, and one on which operations fail is not
//! repeatable. Each dropped platform is reported with the command that
//! reproduces the failure, so the defect stays visible.

use crate::rng::Rng;
use mosc_core::{solve, Platform, PlatformSpec, SolveOptions, SolverKind};

/// One platform as the benchmark describes it: the paper's grid of 4×4 mm
/// cores with the Table IV level set and the default cooler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plat {
    pub rows: usize,
    pub cols: usize,
    pub levels: usize,
    pub t_max_c: f64,
}

impl Plat {
    pub fn spec(&self) -> PlatformSpec {
        PlatformSpec::paper(self.rows, self.cols, self.levels, self.t_max_c)
    }

    pub fn build(&self) -> Platform {
        Platform::build(&self.spec()).expect("generated platforms build")
    }

    /// The wire protocol's `platform` object for this platform.
    pub fn json(&self) -> String {
        let levels: Vec<String> =
            self.spec().modes.levels().iter().map(|v| format!("{v:?}")).collect();
        format!(
            "{{\"rows\":{},\"cols\":{},\"levels\":[{}],\"t_max_c\":{:?}}}",
            self.rows,
            self.cols,
            levels.join(","),
            self.t_max_c
        )
    }

    /// `true` when `kind` with default options returns an answer here:
    /// the solve neither errs nor panics.
    pub fn answered_by(&self, kind: SolverKind) -> bool {
        let p = self.build();
        std::panic::catch_unwind(|| solve(kind, &p, &SolveOptions::default()))
            .is_ok_and(|r| r.is_ok())
    }

    /// The `mosc-cli` command line that solves this platform with `kind`.
    pub fn command(&self, kind: SolverKind) -> String {
        format!(
            "mosc-cli solve --algo {} --rows {} --cols {} --levels {} --tmax {:?}",
            kind.id(),
            self.rows,
            self.cols,
            self.levels,
            self.t_max_c
        )
    }

    /// `true` when running every core at the lowest level respects `T_max`.
    fn all_lowest_feasible(&self) -> bool {
        let p = self.build();
        let lowest = vec![p.modes().lowest(); p.n_cores()];
        p.steady_peak(&lowest).is_ok_and(|peak| peak <= p.t_max())
    }
}

/// `count` platforms of one grid size whose `T_max` values are stratified
/// over `[lo, hi)`: one uniform draw per equal-width stratum, in seeded
/// order. Stratifying keeps the mix of easy and hard platforms the same
/// from seed to seed, so a run's median does not hinge on the draw.
pub fn stratified(
    rng: &mut Rng,
    count: usize,
    (rows, cols, levels): (usize, usize, usize),
    (lo, hi): (f64, f64),
) -> Vec<Plat> {
    let width = (hi - lo) / count as f64;
    let mut out: Vec<Plat> = (0..count)
        .map(|i| Plat { rows, cols, levels, t_max_c: lo + width * (i as f64 + rng.f64()) })
        .filter(Plat::all_lowest_feasible)
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// Splits `plats` into those `kind` answers and those it does not, in
/// order. The dropped ones are for the run's notes.
pub fn answered(kind: SolverKind, plats: Vec<Plat>) -> (Vec<Plat>, Vec<Plat>) {
    plats.into_iter().partition(|p| p.answered_by(kind))
}

/// What one serve request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    Solve {
        kind: SolverKind,
        want_schedule: bool,
    },
    /// `solve_batch`: option variants of one platform, each `(kind, max_m)`.
    Batch(Vec<(SolverKind, usize)>),
}

/// One serve request: a platform and what to solve on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub plat: Plat,
    pub ask: Ask,
}

impl Job {
    /// The request line, without its newline. Hand-built: the benchmark
    /// speaks the wire protocol from outside the program.
    pub fn line(&self, id: &str) -> String {
        let platform = self.plat.json();
        match &self.ask {
            Ask::Solve { kind, want_schedule } => format!(
                "{{\"id\":\"{id}\",\"op\":\"solve\",\"solver\":\"{}\",\"platform\":{platform},\"want_schedule\":{want_schedule}}}",
                kind.id()
            ),
            Ask::Batch(variants) => {
                let vs: Vec<String> = variants
                    .iter()
                    .map(|(k, m)| format!("{{\"solver\":\"{}\",\"options\":{{\"max_m\":{m}}}}}", k.id()))
                    .collect();
                format!(
                    "{{\"id\":\"{id}\",\"op\":\"solve_batch\",\"platform\":{platform},\"variants\":[{}]}}",
                    vs.join(",")
                )
            }
        }
    }

    /// The solves this request stands for: `(kind, options)` per answer.
    pub fn solves(&self) -> Vec<(SolverKind, SolveOptions)> {
        match &self.ask {
            Ask::Solve { kind, .. } => vec![(*kind, SolveOptions::default())],
            Ask::Batch(variants) => variants
                .iter()
                .map(|&(k, max_m)| (k, SolveOptions { max_m, ..SolveOptions::default() }))
                .collect(),
        }
    }
}

/// The `serve-hit` key set: 16 distinct solve requests, four per grid
/// size from 2×2 to 4×4 with `T_max` stratified over the size's range,
/// over AO, PCO and LNS, half of them asking for the schedule. Keys the
/// in-process solver does not answer are left out and returned second.
pub fn hit_keys(rng: &mut Rng) -> (Vec<Job>, Vec<Job>) {
    let sizes = [
        ((2, 2), (62.0, 70.0)),
        ((2, 3), (62.0, 70.0)),
        ((3, 3), (64.0, 68.0)),
        ((4, 4), (66.0, 68.0)),
    ];
    let kinds = [SolverKind::Ao, SolverKind::Pco, SolverKind::Lns, SolverKind::Ao];
    let mut jobs = Vec::new();
    for ((rows, cols), range) in sizes {
        for plat in stratified(rng, 4, (rows, cols, 4), range) {
            let i = jobs.len();
            jobs.push(Job {
                plat,
                ask: Ask::Solve { kind: kinds[i % 4], want_schedule: i % 2 == 0 },
            });
        }
    }
    jobs.into_iter().partition(|j| j.solves().iter().all(|(kind, _)| j.plat.answered_by(*kind)))
}

/// `count` never-seen `serve-miss` requests, each on a fresh platform. In
/// every block of 20 requests, in seeded order: 16 LNS solves on 2×2–3×3
/// with 3 or 4 levels, 3 AO solves on 4-level 2×2s, and one `solve_batch`
/// of 8 variants (LNS and AO at several oscillation caps) on a 4-level
/// 2×2. The AO and batch platforms' `T_max` is stratified over 63–69 °C,
/// so every block carries about the same solver work.
pub fn miss_jobs(rng: &mut Rng, count: usize) -> Vec<Job> {
    let mut out = Vec::with_capacity(count);
    let mut block = 0usize;
    while out.len() < count {
        let mut jobs: Vec<Job> = (0..16).map(|_| lns_miss(rng)).collect();
        for stratum in 0..3 {
            let lo = 63.0 + 2.0 * f64::from(stratum);
            let plat = fresh(rng, (2, 2, 4), (lo, lo + 2.0));
            jobs.push(Job { plat, ask: Ask::Solve { kind: SolverKind::Ao, want_schedule: false } });
        }
        let lo = 63.0 + 2.0 * (block % 3) as f64;
        let plat = fresh(rng, (2, 2, 4), (lo, lo + 2.0));
        let mut variants = vec![(SolverKind::Lns, 1)];
        variants.extend([2, 3, 4, 6, 8, 12, 16].map(|m| (SolverKind::Ao, m)));
        jobs.push(Job { plat, ask: Ask::Batch(variants) });
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.below(i + 1));
        }
        out.extend(jobs.into_iter().take(count - out.len()));
        block += 1;
    }
    out
}

fn lns_miss(rng: &mut Rng) -> Job {
    let (rows, cols) = [(2, 2), (2, 3), (3, 2), (3, 3)][rng.below(4)];
    let levels = 3 + rng.below(2);
    let plat = fresh(rng, (rows, cols, levels), (62.0, 70.0));
    Job { plat, ask: Ask::Solve { kind: SolverKind::Lns, want_schedule: false } }
}

/// A platform of the given shape with `T_max` uniform in `[lo, hi)`,
/// redrawn until its all-lowest assignment is feasible.
fn fresh(rng: &mut Rng, (rows, cols, levels): (usize, usize, usize), (lo, hi): (f64, f64)) -> Plat {
    loop {
        let plat = Plat { rows, cols, levels, t_max_c: rng.range(lo, hi) };
        if plat.all_lowest_feasible() {
            return plat;
        }
    }
}
