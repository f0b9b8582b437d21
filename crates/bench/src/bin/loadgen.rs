//! `mosc-bench loadgen` — open-loop load generation against `mosc-serve`.
//!
//! A closed-loop client waits for each response before sending again, so
//! a slow server throttles its own measurement and the recorded latencies
//! omit the queueing the intended workload would have seen (coordinated
//! omission). This binary fixes the arrival
//! times up front from a seeded random process
//! (`mosc_bench::loadgen::arrival_schedule`), fans them out over N
//! persistent connections whose writer threads send at the scheduled
//! instants *without waiting for responses*, and measures every latency
//! from the **intended** send time — send-side scheduling delay counts
//! against the server, exactly as a real client would experience it.
//!
//! The run is split into a warmup prefix (sent, recorded into the
//! timeline, excluded from the summary) and a measurement window. The
//! summary reports offered vs achieved rate and exact sorted-tail
//! latency quantiles; a windowed `mosc_obs::Timeline` records the whole
//! run as `{"type":"timeline",...}` JSONL. With `--sweep r1,r2,...` the
//! generator runs once per rate, emits `{"type":"sweep",...}` points and
//! locates the saturation knee (highest rate with achieved ≥ 90% of
//! offered).
//!
//! With `--csv <dir>` everything lands in `BENCH_loadgen.json`, a schema
//! v2 artifact (`mosc_bench::record`) that `mosc-cli analyze` lints
//! (M100–M104) and `mosc-bench compare` diffs against a baseline.
//!
//! Without `--addr`, an in-process `mosc-serve` server is spun up on
//! `127.0.0.1:0` — the self-contained smoke CI runs. With `--addr
//! HOST:PORT` it drives a live daemon.
//!
//! `--idle-conns N` opens N extra connections before the first run and
//! holds them idle across every run — the many-mostly-quiet-clients regime
//! the daemon's event loop exists for. Each one must still answer a ping
//! after the last run or the generator exits nonzero; the count is
//! recorded as `idle_conns` on every bench record.
//!
//! `--trace` originates a fresh v2 trace context (random 128-bit trace id
//! plus a root span id) on every request, exercising the daemon's trace
//! continuation path end to end. `--trace-overhead` runs every rate twice —
//! tracing off, then on — and emits a `{"type":"trace_overhead",...}`
//! record whose `trace_overhead_x` (traced p50 over untraced p50) is
//! compare-gated against the checked-in `BENCH_trace.json` baseline.
//!
//! `--repeat-platform` switches the traffic shape from "four distinct
//! cache keys" to "one platform forever": every arrival is a `solve_batch`
//! request against the same platform with a cycling `threads` option, so
//! after the first request the daemon answers from the interned platform
//! registry (and, once the option cycle wraps, the solution cache). This
//! is the traffic a design-space sweep generates, and the regime the
//! registry exists for.

use mosc_analyze::json::Value;
use mosc_bench::loadgen::{arrival_schedule, saturation_knee, ArrivalProcess};
use mosc_bench::record::{BenchLog, RunMeta};
use mosc_bench::{csv_dir_from_args, Table};
use mosc_core::{SolveOptions, SolverKind};
use mosc_obs::Timeline;
use mosc_serve::{
    fresh_span_id, fresh_trace_id, BatchRequest, BatchVariantRequest, Request, Server,
    SolveRequest, TraceContext,
};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinct `t_max_c` values cycled through the request mix: four cache
/// keys, so most requests are answered from the LRU cache and the server
/// keeps up at smoke scale.
const T_MAX_VARIANTS: [f64; 4] = [55.0, 56.0, 57.0, 58.0];

/// Achieved/offered ratio defining "kept up" for the sweep knee.
const KNEE_TOLERANCE: f64 = 0.9;

/// Reader-side socket timeout; after the writer finishes, a reader that
/// stays silent this long gives up and counts the remainder as drops.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

fn smoke_platform(t_max_c: f64) -> Value {
    Value::parse(&format!(r#"{{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":{t_max_c:?}}}"#))
        .expect("platform literal")
}

fn smoke_options() -> SolveOptions {
    SolveOptions { max_m: 64, m_patience: 4, t_unit_divisor: 50, ..SolveOptions::default() }
}

/// Mints a fresh root trace context when tracing is on; `None` keeps the
/// request line byte-identical to the pre-v2 wire form.
fn origin(trace: bool) -> Option<TraceContext> {
    trace.then(|| TraceContext { trace_id: fresh_trace_id(), parent_id: fresh_span_id() })
}

fn request_line(id: &str, t_max_c: f64, trace: bool) -> String {
    Request::Solve(SolveRequest {
        id: id.to_owned(),
        kind: SolverKind::Ao,
        platform: smoke_platform(t_max_c),
        options: smoke_options(),
        want_schedule: false,
        trace: origin(trace),
    })
    .to_json()
}

/// `--repeat-platform` request: a single-variant `solve_batch` against one
/// fixed platform. `threads` cycles 1..=8 — it is part of the cache key but
/// does not change the math, so the first eight arrivals are real solves on
/// the interned platform and the rest are solution-cache hits.
fn batch_request_line(id: &str, k: usize, trace: bool) -> String {
    Request::SolveBatch(BatchRequest {
        id: id.to_owned(),
        platform: smoke_platform(55.0),
        variants: vec![BatchVariantRequest {
            kind: SolverKind::Ao,
            options: SolveOptions { threads: k % 8 + 1, ..smoke_options() },
            want_schedule: false,
        }],
        trace: origin(trace),
    })
    .to_json()
}

/// One completed request, in run-relative seconds.
struct Sample {
    /// Intended send time from the schedule.
    intended_s: f64,
    /// Completion latency measured from the intended send time.
    latency_s: f64,
    /// Served from the solution cache.
    cached: bool,
}

/// Everything one open-loop run produced.
struct RunResult {
    offered: f64,
    achieved: f64,
    arrivals: usize,
    completed: usize,
    measured: usize,
    dropped: usize,
    hit_rate: f64,
    /// Exact measurement-window quantiles, milliseconds.
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    max_ms: f64,
    timeline_jsonl: String,
}

/// Exact quantile of an ascending-sorted slice: smallest element whose
/// rank covers `q` of the mass (matches the analyzer's oracle).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Opens and holds `n` idle connections against the daemon. They carry no
/// traffic while the measured runs proceed — their job is to occupy server
/// connection slots, the regime the daemon's event loop exists for.
fn open_idle_conns(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    let mut conns = Vec::with_capacity(n);
    for i in 0..n {
        let stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("idle connection {i} of {n} failed to open: {e}"));
        stream.set_read_timeout(Some(READ_TIMEOUT)).expect("read timeout");
        conns.push(stream);
    }
    conns
}

/// Reads one newline-terminated response off a blocking socket.
fn read_response_line(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ))
            }
            _ if byte[0] == b'\n' => {
                return String::from_utf8(buf).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response")
                })
            }
            _ => buf.push(byte[0]),
        }
    }
}

/// Proves every held connection survived the run: pings are pipelined
/// across all of them first, then one pong is read per connection.
/// Returns the number of dead connections.
fn verify_idle_conns(conns: &mut [TcpStream]) -> usize {
    let mut dead = 0usize;
    let mut wrote = vec![true; conns.len()];
    for (i, stream) in conns.iter_mut().enumerate() {
        let mut line = Request::Ping { id: format!("idle-{i}") }.to_json();
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() {
            eprintln!("idle connection {i}: ping write failed");
            wrote[i] = false;
            dead += 1;
        }
    }
    for (i, stream) in conns.iter_mut().enumerate() {
        if !wrote[i] {
            continue;
        }
        match read_response_line(stream) {
            Ok(pong) if pong.contains("\"pong\"") && pong.contains(&format!("idle-{i}")) => {}
            Ok(other) => {
                eprintln!("idle connection {i}: unexpected response {other}");
                dead += 1;
            }
            Err(e) => {
                eprintln!("idle connection {i}: {e}");
                dead += 1;
            }
        }
    }
    dead
}

/// One connection's work: a writer thread pacing the schedule and a
/// reader thread matching responses by id against intended send times.
#[allow(clippy::too_many_arguments)]
fn run_connection(
    addr: SocketAddr,
    conn: usize,
    schedule: &[f64],
    start: Instant,
    timeline: &Timeline,
    in_flight: &AtomicU64,
    repeat_platform: bool,
    trace: bool,
) -> (Vec<Sample>, usize) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream.set_read_timeout(Some(READ_TIMEOUT)).expect("read timeout");
    let reader_stream = stream.try_clone().expect("clone socket");

    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut stream = stream;
            for (k, &t) in schedule.iter().enumerate() {
                let now = start.elapsed().as_secs_f64();
                if t > now {
                    std::thread::sleep(Duration::from_secs_f64(t - now));
                }
                let id = format!("c{conn}-{k}");
                let mut line = if repeat_platform {
                    batch_request_line(&id, k, trace)
                } else {
                    request_line(&id, T_MAX_VARIANTS[k % T_MAX_VARIANTS.len()], trace)
                };
                line.push('\n');
                in_flight.fetch_add(1, Ordering::Relaxed);
                if stream.write_all(line.as_bytes()).is_err() {
                    // Server gone; the reader will see EOF and tally drops.
                    return;
                }
            }
            let _ = stream.flush();
        });

        let mut samples: Vec<Sample> = Vec::with_capacity(schedule.len());
        let mut errors = 0usize;
        let mut responses = BufReader::new(reader_stream);
        let mut line = String::new();
        while samples.len() + errors < schedule.len() {
            line.clear();
            match responses.read_line(&mut line) {
                Ok(0) => break, // EOF: server closed the connection.
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if writer.is_finished() {
                        break;
                    }
                    continue;
                }
                Err(_) => break,
            }
            let now = start.elapsed().as_secs_f64();
            let Ok(doc) = Value::parse(line.trim()) else {
                errors += 1;
                continue;
            };
            let Some(k) = doc
                .get("id")
                .and_then(Value::as_str)
                .and_then(|id| id.rsplit('-').next())
                .and_then(|k| k.parse::<usize>().ok())
                .filter(|&k| k < schedule.len())
            else {
                errors += 1;
                continue;
            };
            let depth = in_flight.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
            if doc.get("status").and_then(Value::as_str) != Some("ok") {
                errors += 1;
                continue;
            }
            let intended_s = schedule[k];
            let latency_s = (now - intended_s).max(0.0);
            // Single solves carry `cached` at the top level; batch responses
            // carry it per variant (one variant in repeat-platform mode).
            let cached = doc
                .get("cached")
                .and_then(Value::as_bool)
                .or_else(|| {
                    doc.get("results")
                        .and_then(Value::as_array)
                        .and_then(|r| r.first())
                        .and_then(|r| r.get("cached"))
                        .and_then(Value::as_bool)
                })
                .unwrap_or(false);
            timeline.record_at(now, latency_s, cached);
            timeline.depth_at(now, depth);
            samples.push(Sample { intended_s, latency_s, cached });
        }
        writer.join().expect("writer thread");
        let dropped = schedule.len() - samples.len();
        (samples, dropped)
    })
}

/// Runs one full open-loop round at `rate` req/s.
#[allow(clippy::too_many_arguments)]
fn run_open_loop(
    addr: SocketAddr,
    process: ArrivalProcess,
    rate: f64,
    duration_s: f64,
    warmup_s: f64,
    conns: usize,
    seed: u64,
    window_s: f64,
    repeat_platform: bool,
    trace: bool,
) -> RunResult {
    let schedule = arrival_schedule(process, rate, duration_s, seed);
    let arrivals = schedule.len();
    // Round-robin fan-out preserves each connection's time ordering.
    let mut per_conn: Vec<Vec<f64>> = vec![Vec::new(); conns];
    for (i, &t) in schedule.iter().enumerate() {
        per_conn[i % conns].push(t);
    }

    let timeline = Timeline::new(window_s);
    let in_flight = AtomicU64::new(0);
    let start = Instant::now();
    let results: Vec<(Vec<Sample>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .enumerate()
            .map(|(conn, sched)| {
                let (timeline, in_flight) = (&timeline, &in_flight);
                scope.spawn(move || {
                    run_connection(
                        addr,
                        conn,
                        sched,
                        start,
                        timeline,
                        in_flight,
                        repeat_platform,
                        trace,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });

    let mut samples: Vec<Sample> = Vec::with_capacity(arrivals);
    let mut dropped = 0usize;
    for (s, d) in results {
        samples.extend(s);
        dropped += d;
    }

    // The summary covers only the measurement window, keyed by *intended*
    // send time so warmup membership is deterministic under the seed.
    let measured: Vec<&Sample> = samples.iter().filter(|s| s.intended_s >= warmup_s).collect();
    let mut lat_ms: Vec<f64> = measured.iter().map(|s| s.latency_s * 1e3).collect();
    lat_ms.sort_by(f64::total_cmp);
    let hits = measured.iter().filter(|s| s.cached).count();
    let span = (duration_s - warmup_s).max(1e-9);
    RunResult {
        offered: rate,
        achieved: measured.len() as f64 / span,
        arrivals,
        completed: samples.len(),
        measured: measured.len(),
        dropped,
        hit_rate: if measured.is_empty() { 0.0 } else { hits as f64 / measured.len() as f64 },
        p50_ms: exact_quantile(&lat_ms, 0.50),
        p90_ms: exact_quantile(&lat_ms, 0.90),
        p99_ms: exact_quantile(&lat_ms, 0.99),
        p999_ms: exact_quantile(&lat_ms, 0.999),
        max_ms: lat_ms.last().copied().unwrap_or(0.0),
        timeline_jsonl: Timeline::render_jsonl(&timeline.finish()),
    }
}

#[allow(clippy::too_many_arguments)]
fn bench_record(
    r: &RunResult,
    process: ArrivalProcess,
    seed: u64,
    conns: usize,
    repeat_platform: bool,
    idle_conns: usize,
    trace: bool,
) -> String {
    // A distinct mode keeps repeat-platform (and traced) records from
    // colliding with the default traffic shape under `compare`'s
    // (mode, process, rate) identity.
    let mode = match (repeat_platform, trace) {
        (true, false) => "open_repeat",
        (true, true) => "open_repeat_traced",
        (false, false) => "open",
        (false, true) => "open_traced",
    };
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"type\":\"bench\",\"mode\":\"{mode}\",\"process\":\"{}\",\"seed\":{seed},\
         \"conns\":{conns},\"idle_conns\":{idle_conns},\
         \"offered_req_per_s\":{:?},\"achieved_req_per_s\":{:?},\
         \"arrivals\":{},\"completed\":{},\"count\":{},\"dropped\":{},\
         \"cache_hit_rate\":{:?},\"p50_ms\":{:?},\"p90_ms\":{:?},\"p99_ms\":{:?},\
         \"p999_ms\":{:?},\"max_ms\":{:?}}}",
        process.name(),
        r.offered,
        r.achieved,
        r.arrivals,
        r.completed,
        r.measured,
        r.dropped,
        r.hit_rate,
        r.p50_ms,
        r.p90_ms,
        r.p99_ms,
        r.p999_ms,
        r.max_ms
    );
    line
}

struct Args {
    addr: Option<String>,
    rate: f64,
    duration_s: f64,
    warmup_s: f64,
    conns: usize,
    process: ArrivalProcess,
    seed: u64,
    window_s: f64,
    sweep: Vec<f64>,
    repeat_platform: bool,
    /// Originate a fresh v2 trace context on every request.
    trace: bool,
    /// Run each rate twice — tracing off then on — and emit a
    /// `trace_overhead` record comparing the two p50s.
    trace_overhead: bool,
    /// Extra connections opened before the first run and held idle (no
    /// traffic) until after the last; every one must still answer a ping
    /// at the end or the generator exits nonzero.
    idle_conns: usize,
    /// File name of the artifact written under `--csv DIR`; the idle-fleet
    /// CI smoke writes `BENCH_evloop.json` so its baseline is gated apart
    /// from the plain `BENCH_loadgen.json`.
    artifact: String,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        addr: None,
        rate: 200.0,
        duration_s: 2.0,
        warmup_s: 0.5,
        conns: 4,
        process: ArrivalProcess::Poisson,
        seed: 42,
        window_s: 0.25,
        sweep: Vec::new(),
        repeat_platform: false,
        trace: false,
        trace_overhead: false,
        idle_conns: 0,
        artifact: "BENCH_loadgen.json".to_owned(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize, flag: &str| {
        argv.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => out.addr = Some(value(&argv, i, "--addr")?),
            "--rate" => {
                out.rate =
                    value(&argv, i, "--rate")?.parse().map_err(|e| format!("--rate: {e}"))?;
            }
            "--duration" => {
                out.duration_s = value(&argv, i, "--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?;
            }
            "--warmup" => {
                out.warmup_s =
                    value(&argv, i, "--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?;
            }
            "--conns" => {
                out.conns =
                    value(&argv, i, "--conns")?.parse().map_err(|e| format!("--conns: {e}"))?;
            }
            "--process" => {
                let name = value(&argv, i, "--process")?;
                out.process = ArrivalProcess::parse(&name)
                    .ok_or_else(|| format!("--process: unknown process '{name}'"))?;
            }
            "--seed" => {
                out.seed =
                    value(&argv, i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--window" => {
                out.window_s =
                    value(&argv, i, "--window")?.parse().map_err(|e| format!("--window: {e}"))?;
            }
            "--sweep" => {
                out.sweep = value(&argv, i, "--sweep")?
                    .split(',')
                    .map(|r| r.trim().parse::<f64>().map_err(|e| format!("--sweep: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--idle-conns" => {
                out.idle_conns = value(&argv, i, "--idle-conns")?
                    .parse()
                    .map_err(|e| format!("--idle-conns: {e}"))?;
            }
            "--artifact" => {
                let name = value(&argv, i, "--artifact")?;
                if name.contains('/') || !name.ends_with(".json") {
                    return Err(format!("--artifact: '{name}' must be a bare *.json file name"));
                }
                out.artifact = name;
            }
            // Valueless flags: step past them alone.
            "--repeat-platform" => {
                out.repeat_platform = true;
                i += 1;
                continue;
            }
            "--trace" => {
                out.trace = true;
                i += 1;
                continue;
            }
            "--trace-overhead" => {
                out.trace_overhead = true;
                i += 1;
                continue;
            }
            // Parsed by csv_dir_from_args; its value is skipped below like
            // every other flag's.
            "--csv" => {}
            flag => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if out.warmup_s >= out.duration_s {
        return Err(format!(
            "--warmup {} must be shorter than --duration {}",
            out.warmup_s, out.duration_s
        ));
    }
    if out.conns == 0 {
        return Err("--conns must be at least 1".into());
    }
    if out.trace_overhead && !out.sweep.is_empty() {
        return Err("--trace-overhead and --sweep are mutually exclusive".into());
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "loadgen: {e}\nusage: loadgen [--addr HOST:PORT] [--rate R] [--duration S] \
                 [--warmup S] [--conns N] [--process poisson|uniform] [--seed N] \
                 [--window S] [--sweep r1,r2,...] [--repeat-platform] [--trace] \
                 [--trace-overhead] [--idle-conns N] [--csv DIR] [--artifact NAME.json]"
            );
            std::process::exit(2);
        }
    };
    let csv = csv_dir_from_args();

    // Without --addr, spin up an in-process daemon on an ephemeral port.
    // The server's own histograms feed its /stats path; arm the recorder
    // so a co-located `mosc-cli stats` sees latencies too.
    mosc_obs::enable();
    let (addr, server) = match &args.addr {
        Some(a) => (a.parse().expect("--addr HOST:PORT"), None),
        None => {
            let server = Server::builder().addr("127.0.0.1:0").bind().expect("bind 127.0.0.1:0");
            let addr = server.local_addr();
            let handle = server.handle();
            let join = std::thread::spawn(move || server.run().expect("serve loop"));
            (addr, Some((handle, join)))
        }
    };

    // The held-idle fleet opens before any traffic flows and must survive
    // every run below untouched.
    let mut idle = Vec::new();
    if args.idle_conns > 0 {
        idle = open_idle_conns(addr, args.idle_conns);
        println!("holding {} idle connection(s) open across the whole run", idle.len());
    }

    let mut meta = RunMeta::capture("loadgen")
        .option("process", args.process.name())
        .option("rate", args.rate)
        .option("duration_s", args.duration_s)
        .option("warmup_s", args.warmup_s)
        .option("conns", args.conns)
        .option("seed", args.seed)
        .option("window_s", args.window_s);
    if args.repeat_platform {
        meta = meta.option("repeat_platform", true);
    }
    if args.trace {
        meta = meta.option("trace", true);
    }
    if args.trace_overhead {
        meta = meta.option("trace_overhead", true);
    }
    if args.idle_conns > 0 {
        meta = meta.option("idle_conns", args.idle_conns);
    }
    let mut log = BenchLog::new(&meta);

    println!(
        "open-loop loadgen — {} arrivals, {} connection(s), warmup {:.2}s of {:.2}s\n",
        args.process.name(),
        args.conns,
        args.warmup_s,
        args.duration_s
    );
    let mut table = Table::new(&[
        "offered/s",
        "achieved/s",
        "count",
        "drops",
        "hit rate",
        "p50 (ms)",
        "p90 (ms)",
        "p99 (ms)",
        "p999 (ms)",
        "max (ms)",
    ]);

    let rates: Vec<f64> = if args.sweep.is_empty() { vec![args.rate] } else { args.sweep.clone() };
    let sweeping = !args.sweep.is_empty();
    let mut knee_points: Vec<(f64, f64)> = Vec::new();

    for (i, &rate) in rates.iter().enumerate() {
        // Distinct seeds per sweep point, still fully deterministic; the
        // overhead pair reuses one seed so both runs replay one schedule.
        let seed = args.seed.wrapping_add(i as u64);
        let modes: &[bool] = if args.trace_overhead { &[false, true] } else { &[args.trace] };
        let mut p50s = Vec::with_capacity(modes.len());
        for &trace in modes {
            let r = run_open_loop(
                addr,
                args.process,
                rate,
                args.duration_s,
                args.warmup_s,
                args.conns,
                seed,
                args.window_s,
                args.repeat_platform,
                trace,
            );
            table.row(vec![
                format!("{:.0}", r.offered),
                format!("{:.0}", r.achieved),
                r.measured.to_string(),
                r.dropped.to_string(),
                format!("{:.3}", r.hit_rate),
                format!("{:.3}", r.p50_ms),
                format!("{:.3}", r.p90_ms),
                format!("{:.3}", r.p99_ms),
                format!("{:.3}", r.p999_ms),
                format!("{:.3}", r.max_ms),
            ]);
            log.push(&bench_record(
                &r,
                args.process,
                seed,
                args.conns,
                args.repeat_platform,
                args.idle_conns,
                trace,
            ));
            if sweeping {
                let mut line = String::new();
                let _ = write!(
                    line,
                    "{{\"type\":\"sweep\",\"offered_req_per_s\":{:?},\
                     \"achieved_req_per_s\":{:?},\"p50_ms\":{:?},\"p99_ms\":{:?},\
                     \"p999_ms\":{:?}}}",
                    r.offered, r.achieved, r.p50_ms, r.p99_ms, r.p999_ms
                );
                log.push(&line);
                knee_points.push((r.offered, r.achieved));
            } else if !args.trace_overhead {
                log.push_block(&r.timeline_jsonl);
            }
            p50s.push(r.p50_ms);
        }
        if let [off, on] = p50s[..] {
            let overhead_x = on / off.max(1e-6);
            println!(
                "tracing overhead at {rate:.0} req/s: p50 {off:.3} ms off -> {on:.3} ms on \
                 ({overhead_x:.2}x)"
            );
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"type\":\"trace_overhead\",\"process\":\"{}\",\
                 \"offered_req_per_s\":{rate:?},\"p50_off_ms\":{off:?},\
                 \"p50_on_ms\":{on:?},\"trace_overhead_x\":{overhead_x:?}}}",
                args.process.name()
            );
            log.push(&line);
        }
    }
    println!("{}", table.render());

    if sweeping {
        match saturation_knee(&knee_points, KNEE_TOLERANCE) {
            Some(knee) => {
                println!(
                    "saturation knee: {knee:.0} req/s (highest offered rate with achieved >= \
                     {:.0}% of offered)",
                    100.0 * KNEE_TOLERANCE
                );
                let mut line = String::new();
                let _ = write!(
                    line,
                    "{{\"type\":\"knee\",\"offered_req_per_s\":{knee:?},\
                     \"tolerance\":{KNEE_TOLERANCE:?}}}"
                );
                log.push(&line);
            }
            None => println!(
                "no saturation knee: no offered rate kept achieved >= {:.0}% of offered",
                100.0 * KNEE_TOLERANCE
            ),
        }
    } else {
        println!("latency is measured from the intended send time (coordinated-omission safe);");
        println!("the timeline windows in the artifact show the run second by second.");
    }

    // Every held connection must have survived all runs and still answer.
    if !idle.is_empty() {
        let dead = verify_idle_conns(&mut idle);
        assert!(dead == 0, "{dead} of {} idle connections died during the run", idle.len());
        println!("all {} idle connections survived the run and answered a ping", idle.len());
    }

    if let Some(dir) = csv {
        log.write(&dir, &args.artifact);
    }
    if let Some((handle, join)) = server {
        drop(idle);
        handle.shutdown();
        join.join().expect("server thread");
    }
}
