//! The daemon workloads: the release `mosc-cli serve` with its defaults,
//! driven over its JSON-lines protocol by an open-loop client.
//!
//! The client is one connection with two threads: the sending thread sleeps
//! until each request's intended send time (Poisson arrivals drawn from
//! the seed) and the receiving thread stamps each response line as it
//! arrives. Latency runs from the intended send time, so a stall in the
//! client or the daemon is charged to every request it delays.

use crate::gen::{self, Ask, Job};
use crate::json::Value;
use crate::report::{Layer, Report};
use crate::rng::Rng;
use crate::stats::{
    judge_step, max_rung, median, quantile, windowed_quantile, Sample, StepOutcome,
};
use crate::{procfs, Args};
use mosc_core::{solve, SolverKind};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Daemon start-ups timed per run for `setup_s`; the median is reported.
const SETUP_REPS: usize = 5;
/// Longest a step waits for stragglers after its schedule ends. A step
/// waits for every answer (up to this), so the next step starts on an
/// idle daemon.
const DRAIN: Duration = Duration::from_secs(5);
/// Longest wait for the daemon to start, answer a ping, or stop.
const PATIENCE: Duration = Duration::from_secs(60);
/// Longest wait for the cache warm-up answers (a few solves of up to 4×4).
const WARM_WAIT: Duration = Duration::from_secs(15);

/// The fixed shape of one serve workload.
struct Shape {
    /// Fixed low and high offered rates (req/s), both within capacity.
    low_rps: f64,
    high_rps: f64,
    /// The ladder's latency limit (ms) on percentile `pct`. The 90th
    /// percentile, not the 99th: one stall of a few tens of milliseconds
    /// on a shared host would otherwise decide a whole ladder probe.
    limit_ms: f64,
    pct: f64,
    /// The ladder: `base × ratio^k` for `k < rungs`.
    ladder: (f64, f64, usize),
}

impl Shape {
    fn of(workload: &str) -> Self {
        match workload {
            "serve-hit" => Self {
                low_rps: 3000.0,
                high_rps: 8000.0,
                limit_ms: 10.0,
                pct: 0.9,
                ladder: (1000.0, 1.1, 40),
            },
            _ => Self {
                low_rps: 120.0,
                high_rps: 240.0,
                limit_ms: 100.0,
                pct: 0.9,
                ladder: (20.0, 1.1, 40),
            },
        }
    }

    fn rungs(&self) -> Vec<f64> {
        let (base, ratio, n) = self.ladder;
        (0..n).map(|k| base * ratio.powi(k as i32)).collect()
    }
}

/// A running daemon. Dropping it kills the process if it still runs,
/// waits for it, and removes its output files.
struct Daemon {
    child: Child,
    addr: String,
    files: Vec<PathBuf>,
}

impl Daemon {
    fn spawn(bin: &Path, out_dir: &Path, tag: &str, extra: &[&str]) -> Result<Self, String> {
        let stdout_path = out_dir.join(format!("{tag}.out"));
        let stderr_path = out_dir.join(format!("{tag}.err"));
        let file = |p: &Path| std::fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(file(&stdout_path)?)
            .stderr(file(&stderr_path)?)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut d = Self {
            child,
            addr: String::new(),
            files: vec![stdout_path.clone(), stderr_path.clone()],
        };
        let start = Instant::now();
        loop {
            let text = std::fs::read_to_string(&stdout_path).unwrap_or_default();
            if let Some((addr, _)) =
                text.split("listening on ").nth(1).and_then(|r| r.split_once('\n'))
            {
                d.addr = addr.trim().to_owned();
                return Ok(d);
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                let err = std::fs::read_to_string(&stderr_path).unwrap_or_default();
                return Err(format!("daemon exited ({status}) before listening: {err}"));
            }
            if start.elapsed() > PATIENCE {
                return Err("daemon did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and stop, and waits for it to exit.
    fn shutdown(mut self, mut client: Client) {
        let _ = client.send_line("{\"id\":\"bye\",\"op\":\"shutdown\"}");
        let start = Instant::now();
        while start.elapsed() < PATIENCE {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// One response line, reduced to what the benchmark checks.
struct Resp {
    at: Instant,
    id: String,
    pong: bool,
    overloaded: bool,
    /// One throughput per solve the request stood for (`None` for a
    /// variant that did not answer `ok` and feasible), or what was wrong
    /// with the response as a whole.
    answers: Result<Vec<Option<f64>>, String>,
}

impl Resp {
    fn reduce(line: &[u8], at: Instant) -> Self {
        let v = match Value::parse(String::from_utf8_lossy(line).trim_end()) {
            Ok(v) => v,
            Err(e) => {
                return Self {
                    at,
                    id: String::new(),
                    pong: false,
                    overloaded: false,
                    answers: Err(e),
                };
            }
        };
        let one = |v: &Value| {
            (v.str("status") == Some("ok") && v.bool("feasible") == Some(true))
                .then(|| v.num("throughput"))
                .flatten()
        };
        let answers = match (v.arr("results"), v.str("status")) {
            (Some(results), _) => Ok(results.iter().map(one).collect()),
            (None, Some("ok")) => Ok(vec![one(&v)]),
            (None, status) => Err(format!(
                "{}: {}",
                status.unwrap_or("no status"),
                v.str("message").or(v.str("kind")).unwrap_or("")
            )),
        };
        Self {
            at,
            id: v.str("id").unwrap_or("").to_owned(),
            pong: v.bool("pong") == Some(true),
            overloaded: v.str("status") == Some("overloaded"),
            answers,
        }
    }

    /// The request index when this answers request `<tag>-<i>`.
    fn index(&self, tag: &str) -> Option<usize> {
        self.id.strip_prefix(tag)?.strip_prefix('-')?.parse().ok()
    }
}

/// One connection: the caller's thread writes, a reader thread stamps each
/// response line on arrival. Lines are parsed later, off the clock, so the
/// client spends as little CPU as it can while the daemon is measured.
struct Client {
    stream: TcpStream,
    rx: mpsc::Receiver<(Instant, Vec<u8>)>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Client {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(read_half);
            let mut buf = Vec::new();
            loop {
                buf.clear();
                match r.read_until(b'\n', &mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        if tx.send((Instant::now(), std::mem::take(&mut buf))).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(Self { stream, rx, reader: Some(reader) })
    }

    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// Sends `lines` (ids `"<tag>-<i>"`) at once and waits up to `wait`
    /// for every answer; `None` for a request left unanswered. For set-up
    /// traffic, not for timing.
    fn call_all(
        &mut self,
        tag: &str,
        lines: &[String],
        wait: Duration,
    ) -> Result<Vec<Option<Resp>>, String> {
        for l in lines {
            self.send_line(l).map_err(|e| e.to_string())?;
        }
        let mut out: Vec<Option<Resp>> = lines.iter().map(|_| None).collect();
        let deadline = Instant::now() + wait;
        while out.iter().any(Option::is_none) {
            let Ok((at, line)) =
                self.rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
            else {
                break;
            };
            let r = Resp::reduce(&line, at);
            if let Some(i) = r.index(tag).filter(|&i| i < out.len()) {
                out[i] = Some(r);
            }
        }
        Ok(out)
    }

    /// One open-loop step: sends `lines[i]` at `times[i]` seconds after the
    /// step starts, then waits for every answer, up to [`DRAIN`] past the
    /// schedule's end.
    fn step(&mut self, tag: &str, lines: &[String], times: &[f64], duration: f64) -> StepRaw {
        let start = Instant::now() + Duration::from_millis(1);
        let mut sent = Vec::with_capacity(lines.len());
        let mut pending = Vec::new();
        for (line, &t) in lines.iter().zip(times) {
            let due = start + Duration::from_secs_f64(t);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent.push(start.elapsed().as_secs_f64());
            if self.send_line(line).is_err() {
                break;
            }
            pending.extend(self.rx.try_iter());
        }
        let mut got: Vec<Option<(f64, Resp)>> = lines.iter().map(|_| None).collect();
        let mut open = lines.len();
        let mut take = |(at, line): (Instant, Vec<u8>), open: &mut usize| {
            let r = Resp::reduce(&line, at);
            if let Some(i) = r.index(tag).filter(|&i| i < got.len() && got[i].is_none()) {
                got[i] = Some((r.at.saturating_duration_since(start).as_secs_f64(), r));
                *open -= 1;
            }
        };
        for r in pending {
            take(r, &mut open);
        }
        let deadline = start + Duration::from_secs_f64(duration) + DRAIN;
        while open > 0 {
            match self.rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(r) => take(r, &mut open),
                Err(_) => break,
            }
        }
        StepRaw { times: times.to_vec(), sent, got, duration }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// What the client saw in one step. Times are seconds from its start.
struct StepRaw {
    times: Vec<f64>,
    sent: Vec<f64>,
    got: Vec<Option<(f64, Resp)>>,
    duration: f64,
}

/// Poisson arrival offsets at `rate` over `duration` seconds.
fn arrivals(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = rng.exp(1.0 / rate);
    while t < duration {
        out.push(t);
        t += rng.exp(1.0 / rate);
    }
    out
}

/// The traffic of one workload.
enum Traffic {
    /// Requests drawn from a fixed key set, warmed into the cache in set-up,
    /// with each key's in-process answers and LNS throughput.
    Hit { keys: Vec<Job>, expect: Vec<(Vec<f64>, f64)> },
    /// Every request a never-seen platform.
    Miss,
}

impl Traffic {
    fn draw(&self, rng: &mut Rng, count: usize) -> Vec<Job> {
        match self {
            Self::Hit { keys, .. } => {
                (0..count).map(|_| keys[rng.below(keys.len())].clone()).collect()
            }
            Self::Miss => gen::miss_jobs(rng, count),
        }
    }
}

/// The in-process answers for `job`: one throughput per solve it stands
/// for, from `mosc_core::solve` with the same options; and the LNS
/// throughput on its platform.
fn expected(job: &Job) -> (Vec<f64>, f64) {
    let p = job.plat.build();
    // NaN where the in-process solve errs or panics: no answer can match.
    let thr = |kind, opts: &_| {
        std::panic::catch_unwind(|| solve(kind, &p, opts))
            .ok()
            .and_then(Result::ok)
            .map_or(f64::NAN, |r| r.solution.throughput)
    };
    let want = job.solves().iter().map(|(kind, opts)| thr(*kind, opts)).collect();
    (want, thr(SolverKind::Lns, &Default::default()))
}

/// One step and what its verdict needs.
struct Step {
    tag: String,
    jobs: Vec<Job>,
    raw: StepRaw,
    /// Fixed-rate steps count every request toward `attempted`/`failed`;
    /// ladder probes count only their answers and the wrong ones, since
    /// refusals above capacity are how the ladder finds it.
    counted: bool,
}

/// Runs steps against one daemon.
struct Runner<'a> {
    client: Client,
    rng: Rng,
    traffic: &'a Traffic,
    steps: Vec<Step>,
}

impl Runner<'_> {
    fn run_step(&mut self, rate: f64, duration: f64, counted: bool) -> usize {
        let times = arrivals(&mut self.rng, rate, duration);
        let jobs = self.traffic.draw(&mut self.rng, times.len());
        let tag = format!("s{}", self.steps.len());
        let lines: Vec<String> =
            jobs.iter().enumerate().map(|(i, j)| j.line(&format!("{tag}-{i}"))).collect();
        let raw = self.client.step(&tag, &lines, &times, duration);
        self.steps.push(Step { tag, jobs, raw, counted });
        self.steps.len() - 1
    }
}

/// A step's samples; `truth` gives each request's expected answers, or
/// `None` to judge on response status alone.
fn samples(step: &Step, truth: Option<&[Vec<f64>]>) -> Vec<Sample> {
    step.raw
        .got
        .iter()
        .enumerate()
        .map(|(i, g)| Sample {
            intended: step.raw.times[i],
            done: g.as_ref().map(|(t, _)| *t),
            ok: g.as_ref().is_some_and(|(_, r)| match (&r.answers, truth) {
                (Ok(got), Some(truth)) => {
                    got.len() == truth[i].len()
                        && got.iter().zip(&truth[i]).all(|(g, w)| *g == Some(*w))
                }
                (Ok(got), None) => got.iter().all(Option::is_some),
                (Err(_), _) => false,
            }),
        })
        .collect()
}

/// Checks every answer of every step against the in-process solves,
/// counts attempts and failures into `report`, and judges each step.
/// Returns the verdicts and the mean served-over-LNS throughput ratio.
fn verify(
    steps: &[&Step],
    traffic: &Traffic,
    shape: &Shape,
    report: &mut Report,
) -> (Vec<Judged>, f64) {
    let mut ratios = Vec::new();
    let mut outcomes = Vec::new();
    for &step in steps {
        let truth: Vec<Vec<f64>> = match traffic {
            Traffic::Hit { keys, expect } => step
                .jobs
                .iter()
                .map(|j| {
                    expect
                        [keys.iter().position(|k| k == j).expect("hit jobs come from the key set")]
                    .0
                    .clone()
                })
                .collect(),
            // Computed after the daemon stopped, so the in-process solves
            // never compete with it for the CPUs.
            Traffic::Miss => parallel(&step.jobs, |jobs| jobs.iter().map(expected).collect())
                .into_iter()
                .map(|(want, lns)| {
                    ratios.extend(want.iter().map(|w| w / lns));
                    want
                })
                .collect(),
        };
        let s = samples(step, Some(&truth));
        let mut wrong = 0;
        let mut answered = 0;
        for (i, sample) in s.iter().enumerate() {
            let Some((_, r)) = &step.raw.got[i] else {
                report.note(format!("{}-{i}: unanswered", step.tag));
                continue;
            };
            answered += u64::from(r.answers.is_ok());
            if sample.ok {
                continue;
            }
            match &r.answers {
                Err(_) if r.overloaded && !step.counted => {}
                Err(e) => report.note(format!("{}-{i}: {e}", step.tag)),
                Ok(got) => {
                    // A variant without an answer is a failure; an answer
                    // that differs from the in-process solve is wrong.
                    if got.iter().zip(&truth[i]).any(|(g, w)| g.is_some_and(|g| g != *w)) {
                        wrong += 1;
                    }
                    report.note(format!(
                        "{}-{i}: answer {got:?} differs from in-process {:?}",
                        step.tag, truth[i]
                    ));
                }
            }
        }
        let out = judge_step(&s, step.raw.duration, shape.limit_ms, shape.pct);
        if step.counted {
            report.attempted += out.requests as u64;
            report.failed += out.failed as u64;
        } else {
            report.attempted += answered;
            report.failed += wrong;
        }
        report.wrong += wrong;
        outcomes.push(Judged { out, samples: s });
    }
    if let Traffic::Hit { expect, .. } = traffic {
        for (want, lns) in expect {
            ratios.extend(want.iter().map(|w| w / lns));
        }
    }
    // Requests the in-process solver could not answer have no ratio.
    ratios.retain(|r| r.is_finite());
    (outcomes, ratios.iter().sum::<f64>() / ratios.len().max(1) as f64)
}

/// A step's verdict and the verified samples it was judged on.
struct Judged {
    out: StepOutcome,
    samples: Vec<Sample>,
}

impl Judged {
    /// Latency quantile `q` (ms) as the median over up to six windows.
    fn ms(&self, q: f64) -> f64 {
        windowed_quantile(&self.samples, q, 6)
    }
}

/// Maps `f` over the two halves of `items` on two threads, keeping order.
fn parallel<T: Sync, R: Send>(items: &[T], f: impl Fn(&[T]) -> Vec<R> + Sync) -> Vec<R> {
    let (a, b) = items.split_at(items.len() / 2);
    std::thread::scope(|s| {
        let h = s.spawn(|| f(b));
        let mut out = f(a);
        out.extend(h.join().expect("verification thread panicked"));
        out
    })
}

/// Starts a daemon, connects, waits for a pong, and for `serve-hit` warms
/// the cache with the key set. Returns the daemon, its client and the time
/// from spawn to warm.
///
/// A key the daemon does not answer `ok` at warm-up cannot be a cache hit:
/// it is counted as a failed operation, named in a note, and dropped from
/// the key set, so later start-ups and the measured traffic use only keys
/// that are cached. A wrong warm-up answer stays in: every hit on it is
/// then checked, and counted, as wrong.
fn start(
    args: &Args,
    traffic: &mut Traffic,
    report: &mut Report,
    tag: &str,
    extra: &[&str],
) -> Result<(Daemon, Client, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&args.daemon, &args.out_dir, tag, extra)?;
    let mut client = Client::connect(&daemon.addr)?;
    let ping = ["{\"id\":\"ping-0\",\"op\":\"ping\"}".to_owned()];
    if !client.call_all("ping", &ping, PATIENCE)?[0].as_ref().is_some_and(|r| r.pong) {
        return Err("daemon did not answer ping".into());
    }
    if let Traffic::Hit { keys, expect } = traffic {
        let lines: Vec<String> =
            keys.iter().enumerate().map(|(i, k)| k.line(&format!("warm-{i}"))).collect();
        let answers = client.call_all("warm", &lines, WARM_WAIT)?;
        let keep: Vec<bool> =
            answers.iter().map(|r| r.as_ref().is_some_and(|r| r.answers.is_ok())).collect();
        for (i, r) in answers.iter().enumerate().filter(|(i, _)| !keep[*i]) {
            let why =
                r.as_ref().map_or_else(|| "unanswered".to_owned(), |r| format!("{:?}", r.answers));
            report.note(format!(
                "warm-up key {i} ({:?}): {why}; dropped from the key set",
                keys[i].plat
            ));
            report.attempted += 1;
            report.failed += 1;
        }
        let mut k = keep.iter();
        keys.retain(|_| *k.next().expect("one flag per key"));
        let mut k = keep.iter();
        expect.retain(|_| *k.next().expect("one flag per key"));
        if keys.is_empty() {
            return Err("no warm-up key was answered".into());
        }
    }
    Ok((daemon, client, t0.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let shape = Shape::of(&args.workload);
    let mut rng = Rng::new(args.seed, 2);
    let mut report = Report::default();
    let mut traffic = if args.workload == "serve-hit" {
        let (keys, dropped) = gen::hit_keys(&mut rng);
        for job in &dropped {
            if let Ask::Solve { kind, .. } = job.ask {
                report.note(format!(
                    "dropped, the solver gives no answer: {}",
                    job.plat.command(kind)
                ));
            }
        }
        let expect = keys.iter().map(expected).collect();
        Traffic::Hit { keys, expect }
    } else {
        Traffic::Miss
    };
    report.note(format!(
        "{}: daemon {}, one connection, two client threads, nproc {}",
        args.workload,
        args.daemon.display(),
        procfs::nproc()
    ));
    if args.trace {
        return traced(args, &mut traffic, &shape, rng, report);
    }
    let mut setups = Vec::new();
    for r in 1..SETUP_REPS {
        let (daemon, client, s) =
            start(args, &mut traffic, &mut report, &format!("setup{r}"), &[])?;
        setups.push(s);
        daemon.shutdown(client);
    }
    let (daemon, client, s) = start(args, &mut traffic, &mut report, "main", &[])?;
    setups.push(s);
    let r = args.seconds;
    let mut d = Runner { client, rng, traffic: &traffic, steps: Vec::new() };
    let cpu = || procfs::cpu_seconds(Some(daemon.pid()));
    let cpu0 = cpu();
    let low = d.run_step(shape.low_rps, 0.3 * r, true);
    let cpu1 = cpu();
    let high = d.run_step(shape.high_rps, 0.3 * r, true);
    let cpu2 = cpu();
    let per_req = |cpu: f64, step: usize| cpu * 1e3 / d.steps[step].jobs.len().max(1) as f64;
    let cpu_per_req = (per_req(cpu1 - cpu0, low), per_req(cpu2 - cpu1, high));
    let rungs = shape.rungs();
    let first_probe = d.steps.len();
    let start_rung = rungs.iter().position(|&x| x >= shape.high_rps).unwrap_or(0);
    // Bisection over the ladder, steered by response status; every
    // probe is re-judged on verified answers below.
    max_rung(&rungs, start_rung, |rate| {
        let i = d.run_step(rate, 0.06 * r, false);
        judge_step(&samples(&d.steps[i], None), d.steps[i].raw.duration, shape.limit_ms, shape.pct)
    });
    let rss = procfs::peak_rss_mb(Some(daemon.pid()));
    let Runner { client, steps, .. } = d;
    daemon.shutdown(client);

    let (outcomes, quality) =
        verify(&steps.iter().collect::<Vec<_>>(), &traffic, &shape, &mut report);
    let best = outcomes[first_probe..]
        .iter()
        .filter(|j| j.out.kept_up)
        .map(|j| j.out.offered_rps)
        .fold(0.0, f64::max);
    note_steps(&mut report, &outcomes);
    report.e2e("setup_s", median(&setups));
    report.e2e("cpu_ms_per_op.low", cpu_per_req.0);
    report.e2e("cpu_ms_per_op.high", cpu_per_req.1);
    report.e2e("lat_ms.p50.low", outcomes[low].ms(0.5));
    report.e2e("lat_ms.p90.low", outcomes[low].ms(0.9));
    report.e2e("lat_ms.p50.high", outcomes[high].ms(0.5));
    report.e2e("lat_ms.p90.high", outcomes[high].ms(0.9));
    report.e2e("max_rate_per_s", best);
    report.e2e("quality_vs_lns", quality);
    report.e2e("peak_rss_mb", rss);
    Ok(report)
}

fn note_steps(report: &mut Report, outcomes: &[Judged]) {
    for (i, Judged { out: o, .. }) in outcomes.iter().enumerate() {
        report.note(format!(
            "step {i}: offered {:.1}/s achieved {:.1}/s p50 {:.3} p90 {:.3} p99 {:.3} ms backlog {} failed {} of {} kept_up {}",
            o.offered_rps, o.achieved_rps, o.p50_ms, o.p90_ms, o.p99_ms, o.backlog, o.failed, o.requests, o.kept_up
        ));
    }
}

/// One access-log entry of a solve, reduced to what the layer metrics use.
struct Entry {
    /// The client's request id (the batch id for a batch variant).
    request: String,
    cached: bool,
    queue_s: f64,
    service_s: f64,
    total_s: f64,
    kernel: [f64; 7],
    /// Total seconds per span name.
    spans: HashMap<String, f64>,
}

const KERNEL: [&str; 7] = [
    "expm_calls",
    "eigen_calls",
    "linalg_matmuls",
    "steady_state_calls",
    "period_map_matmuls",
    "registry_hits",
    "registry_misses",
];

fn read_access_log(path: &Path) -> Result<Vec<Entry>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let Ok(v) = Value::parse(&line) else { continue };
        if v.str("type") != Some("access") || v.str("op") != Some("solve") {
            continue;
        }
        let mut spans = HashMap::new();
        for s in v.arr("spans").unwrap_or(&[]) {
            let name = s.str("path").and_then(|p| p.rsplit('/').next()).unwrap_or("");
            *spans.entry(name.to_owned()).or_insert(0.0) += s.num("total_s").unwrap_or(0.0);
        }
        out.push(Entry {
            request: v.str("batch").or(v.str("id")).unwrap_or("").to_owned(),
            cached: v.bool("cached") == Some(true),
            queue_s: v.num("queue_wait_s").unwrap_or(0.0),
            service_s: v.num("service_s").unwrap_or(0.0),
            total_s: v.num("total_s").unwrap_or(0.0),
            kernel: KERNEL.map(|k| v.num(k).unwrap_or(0.0)),
            spans,
        });
    }
    Ok(out)
}

/// The traced run: a low-rate step against an untraced daemon for the
/// overhead baseline, then a low and a high step against a daemon started
/// with `--obs --access-log` (and `--slow-ms 0`, so every log line carries
/// its span tree), whose log lines are joined with the client's send and
/// receive times by request id.
fn traced(
    args: &Args,
    traffic: &mut Traffic,
    shape: &Shape,
    rng: Rng,
    mut report: Report,
) -> Result<Report, String> {
    let r = args.seconds;
    let (daemon, client, _) = start(args, traffic, &mut report, "plain", &[])?;
    let mut d = Runner { client, rng, traffic, steps: Vec::new() };
    d.run_step(shape.low_rps, 0.3 * r, true);
    let Runner { client, rng, steps: plain, .. } = d;
    daemon.shutdown(client);

    let log = args.out_dir.join("access.jsonl");
    let log_arg = log.to_string_lossy().into_owned();
    let (daemon, client, _) = start(
        args,
        traffic,
        &mut report,
        "traced",
        &["--obs", "--access-log", &log_arg, "--slow-ms", "0"],
    )?;
    let mut d = Runner { client, rng, traffic, steps: Vec::new() };
    d.run_step(shape.low_rps, 0.3 * r, true);
    let cpu0 = procfs::cpu_seconds(Some(daemon.pid()));
    let high = d.run_step(shape.high_rps, 0.3 * r, true);
    let cpu = procfs::cpu_seconds(Some(daemon.pid())) - cpu0;
    let Runner { client, steps, .. } = d;
    daemon.shutdown(client);
    let entries = read_access_log(&log);
    let _ = std::fs::remove_file(&log);
    let entries = entries?;

    let all: Vec<&Step> = plain.iter().chain(&steps).collect();
    let (outcomes, _) = verify(&all, traffic, shape, &mut report);
    note_steps(&mut report, &outcomes);
    let hs = &steps[high];

    // Layer times from the high step, where queueing shows.
    let prefix = format!("{}-", hs.tag);
    let in_high: Vec<&Entry> = entries.iter().filter(|e| e.request.starts_with(&prefix)).collect();
    let ms = |f: &dyn Fn(&Entry) -> f64, q: f64| {
        quantile(&in_high.iter().map(|e| f(e) * 1e3).collect::<Vec<_>>(), q)
    };
    let mut total_by_request: HashMap<&str, f64> = HashMap::new();
    for e in &in_high {
        let t = total_by_request.entry(&e.request).or_insert(0.0);
        *t = t.max(e.total_s);
    }
    // Client latency from the actual send, minus the daemon's own total.
    let outside: Vec<f64> = hs
        .raw
        .got
        .iter()
        .enumerate()
        .filter_map(|(i, g)| {
            let (done, _) = g.as_ref()?;
            let total = total_by_request.get(format!("{}-{i}", hs.tag).as_str())?;
            Some((done - hs.raw.sent.get(i)? - total) * 1e3)
        })
        .collect();

    // Work per answered request over both traced steps.
    let traced_entries: Vec<&Entry> =
        entries.iter().filter(|e| e.request.starts_with('s')).collect();
    let answered: usize = steps.iter().map(|s| s.raw.got.iter().flatten().count()).sum();
    let answered = answered.max(1) as f64;
    let kernel = |k: &str| {
        let i = KERNEL.iter().position(|n| *n == k).expect("known kernel counter");
        traced_entries.iter().map(|e| e.kernel[i]).sum::<f64>()
    };
    let span_ms = |name: &str| {
        traced_entries.iter().filter_map(|e| e.spans.get(name)).sum::<f64>() * 1e3 / answered
    };
    let solve_ms = span_ms("ao.solve") + span_ms("pco.solve") + span_ms("lns.solve");
    let registry = kernel("registry_hits") + kernel("registry_misses");
    let refused =
        all.iter().flat_map(|s| &s.raw.got).flatten().filter(|(_, r)| r.overloaded).count();
    let lags: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.raw.sent.iter().zip(&s.raw.times).map(|(a, b)| (a - b) * 1e3))
        .collect();

    let mut l = Layer::default();
    l.set("linalg.expm_calls", kernel("expm_calls") / answered);
    l.set("linalg.eigen_calls", kernel("eigen_calls") / answered);
    l.set("linalg.matmuls", kernel("linalg_matmuls") / answered);
    l.set("sched.steady_state_calls", kernel("steady_state_calls") / answered);
    l.set("sched.period_map_matmuls", kernel("period_map_matmuls") / answered);
    l.set("core.tpt_ms", span_ms("ao.tpt_adjust"));
    l.set("core.tpt_share", if solve_ms > 0.0 { span_ms("ao.tpt_adjust") / solve_ms } else { 0.0 });
    l.set("core.sweep_m_ms", span_ms("ao.sweep_m"));
    l.set("core.phase_search_ms", span_ms("pco.phase_search"));
    l.set("core.refill_ms", span_ms("pco.refill"));
    l.set("core.cpu_over_wall", cpu / hs.raw.duration);
    l.set(
        "core.registry_hit_ratio",
        if registry > 0.0 { kernel("registry_hits") / registry } else { 0.0 },
    );
    l.set("serve.queue_wait_ms.p50", ms(&|e| e.queue_s, 0.5));
    l.set("serve.queue_wait_ms.p99", ms(&|e| e.queue_s, 0.99));
    l.set("serve.service_ms.p50", ms(&|e| e.service_s, 0.5));
    l.set("serve.pre_queue_ms.p50", ms(&|e| e.total_s - e.queue_s - e.service_s, 0.5));
    l.set("serve.outside_ms.p50", quantile(&outside, 0.5));
    l.set("serve.cpu_ms_per_req", cpu * 1e3 / hs.raw.got.len().max(1) as f64);
    l.set(
        "serve.cache_hit_ratio",
        traced_entries.iter().filter(|e| e.cached).count() as f64
            / traced_entries.len().max(1) as f64,
    );
    l.set("serve.refused", refused as f64);
    l.set("client.send_lag_ms.p99", quantile(&lags, 0.99));
    l.set("client.achieved_rps", outcomes[1 + high].out.achieved_rps);
    l.set("obs.trace_overhead_x", outcomes[1].ms(0.5) / outcomes[0].ms(0.5));
    report.layer = l;
    Ok(report)
}
