//! The TCP daemon: configuration, request dispatch, worker pool, drain.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//!   event loop (one I/O thread) ──► bounded MPMC queue
//!   (accept, read, parse, cache        │
//!    fast path, backpressure:          ▼
//!    overloaded, write)          fixed worker pool
//!           ▲                    (deadline check, solve,
//!           └──── outbox ─────── cache fill, respond)
//! ```
//!
//! The event loop ([`crate::evloop`]) owns every socket. Every response
//! line reaches it through the completion outbox, whether the I/O thread
//! answered it inline (protocol ops, cache hits, rejections) or a worker
//! did (solve results), so each line lands on the socket unfragmented.
//!
//! ## One worker path
//!
//! A solver's output is a pure function of `(platform, solver, options)`,
//! so a `solve` line is the one-variant case of a `solve_batch`. The I/O
//! thread turns either into one `Job`: the platform, canonicalized once,
//! plus 1..=256 variants, each with its own solver, options, cache key
//! and deadline (counted from receipt). Only a `solve` takes the cache
//! fast path on the I/O thread. A worker runs every job the same way
//! (`process_dispatch`): resolve the platform once, then per variant
//! check the deadline and the cache, then solve the misses together and
//! refuse to cache a result that finished past its deadline. A small
//! framing value decides only the response shape, the variant ids, span
//! parenting and how a whole-line answer is logged; the platform-resolve
//! policy (registry for `solve_batch` only) also follows the op.
//!
//! ## Request lifecycle timestamps
//!
//! Every request is stamped at the points DESIGN.md §12 names: `t_recv`
//! (full line read), `t_enqueue` (queue push), `t_dequeue` (worker pop) and
//! completion (response written). The derived phases feed the per-op
//! latency histograms and the access log:
//!
//! * `queue_wait = t_dequeue − t_enqueue` (0 for answers made on the I/O
//!   thread),
//! * `service   = done − t_dequeue` (platform build + solve + write),
//! * `total     = done − t_recv`.
//!
//! All three come from one monotone clock, so
//! `queue_wait + service ≤ total` always holds (the M070 lint checks it on
//! the access log). When [`ServeBuilder::access_log`] is set, every
//! completed request appends one JSONL line; requests whose `total` is at
//! least [`ServeBuilder::slow_threshold`] additionally carry the solver's
//! span tree captured via [`mosc_obs::TraceContext`].
//!
//! Shutdown is a protocol op, not a signal: the workspace forbids `unsafe`,
//! so no signal handler can be installed, and `{"op":"shutdown"}` plays the
//! role SIGTERM would. On shutdown the daemon stops accepting connections
//! and new requests, closes the queue, lets the workers drain every queued
//! job (each still gets its response, an `internal` error if its solve
//! panicked), and joins all threads before returning from [`Server::run`].

use crate::cache::{cache_key_parts, fnv1a, CacheKey, CachedSolve, LruCache};
use crate::metrics::ServeMetrics;
use crate::outbox::Outbox;
use crate::proto::{
    batch_response_to_json, canonical_json, error_to_json, fresh_span_id, fresh_trace_id,
    overloaded_to_json, parse_request, value_to_json, BatchRequest, BatchVariantRequest, ErrorKind,
    HelloResponse, ProtoError, Request, Response, SolveRequest, SolveResponse,
};
use crate::queue::{BoundedQueue, QueueFull};
use mosc_analyze::json::Value;
use mosc_analyze::SpecError;
use mosc_core::{BatchVariant, KernelDelta, Platform, SolveOptions, SolverKind};
use mosc_obs::{
    bucket_upper, FlightKind, FlightRecorder, TraceContext, TraceSnapshot, LOG_BUCKETS,
};
use std::borrow::Cow;
use std::fs::File;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub use crate::proto::ServeStats;

/// Fluent configuration for a [`Server`], and the only way to build one.
/// The builder is also the configuration the running server consults.
///
/// ```no_run
/// use mosc_serve::Server;
/// use std::time::Duration;
///
/// let server = Server::builder()
///     .addr("127.0.0.1:0")
///     .workers(4)
///     .queue_capacity(256)
///     .cache_capacity(1024)
///     .default_deadline(Duration::from_secs(5))
///     .idle_timeout(Duration::from_secs(300))
///     .bind()
///     .expect("bind");
/// ```
#[derive(Debug, Clone)]
pub struct ServeBuilder {
    addr: String,
    workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    default_deadline: Option<Duration>,
    access_log: Option<String>,
    slow_threshold: Duration,
    timeline: Option<String>,
    timeline_window: Duration,
    pub(crate) idle_timeout: Option<Duration>,
    flight_dump: Option<String>,
    flight_capacity: usize,
}

impl Default for ServeBuilder {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7070".into(),
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 128,
            default_deadline: None,
            access_log: None,
            slow_threshold: Duration::from_millis(100),
            timeline: None,
            timeline_window: Duration::from_secs(1),
            idle_timeout: None,
            flight_dump: None,
            flight_capacity: mosc_obs::DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

impl ServeBuilder {
    /// Starts from the defaults: `127.0.0.1:7070`, one worker per core, a
    /// 64-slot queue, a 128-entry cache, no deadline, no sinks.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Listen address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Worker threads solving queued requests (`0` = all available cores).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Bounded queue capacity; pushes beyond it answer `overloaded`.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// LRU solution-cache capacity (`0` disables caching).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Deadline applied to requests that do not carry their own.
    #[must_use]
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Structured JSONL access-log sink, one line per completed request
    /// (truncated at bind: one run, one log).
    #[must_use]
    pub fn access_log(mut self, path: impl Into<String>) -> Self {
        self.access_log = Some(path.into());
        self
    }

    /// Requests at least this slow (default 100 ms) get their solver span
    /// tree attached to the access-log line; the spans exist only while
    /// the `mosc-obs` recorder is enabled.
    #[must_use]
    pub fn slow_threshold(mut self, threshold: Duration) -> Self {
        self.slow_threshold = threshold;
        self
    }

    /// Windowed timeline JSONL sink: every completed request lands in a
    /// [`mosc_obs::Timeline`] window, and closed windows are appended as
    /// `{"type":"timeline",...}` lines. Unlike the latency histograms it
    /// does not need the `mosc-obs` recorder.
    #[must_use]
    pub fn timeline(mut self, path: impl Into<String>) -> Self {
        self.timeline = Some(path.into());
        self
    }

    /// Width of one timeline window (default 1 s).
    #[must_use]
    pub fn timeline_window(mut self, window: Duration) -> Self {
        self.timeline_window = window;
        self
    }

    /// Close connections idle (no bytes received, no responses pending)
    /// this long. Without it, connections are kept forever.
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Flight-recorder dump sink; without it the recorder is off. Every
    /// request milestone lands in a fixed-size in-memory ring, and each
    /// anomaly — deadline exceeded, queue saturation, a request over the
    /// slow threshold, a worker panic — snapshots the ring into one
    /// `{"type":"flight_dump"}` JSONL line at this path (truncated at
    /// bind, like the access log).
    #[must_use]
    pub fn flight_dump(mut self, path: impl Into<String>) -> Self {
        self.flight_dump = Some(path.into());
        self
    }

    /// Flight-recorder ring capacity in entries (rounded up to a power of
    /// two; ignored without [`Self::flight_dump`]).
    #[must_use]
    pub fn flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity;
        self
    }

    /// Binds the listen socket and creates the configured sinks; the
    /// server only starts serving on [`Server::run`].
    ///
    /// # Errors
    /// I/O errors from binding, inspecting the socket, or creating the
    /// access-log/timeline/flight-dump files.
    pub fn bind(self) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&self.addr)?;
        let addr = listener.local_addr()?;
        let access = match &self.access_log {
            None => None,
            Some(path) => Some(Mutex::new(File::create(path)?)),
        };
        let timeline = match &self.timeline {
            None => None,
            Some(path) => Some((
                mosc_obs::Timeline::new(self.timeline_window.as_secs_f64()),
                Mutex::new(File::create(path)?),
            )),
        };
        let flight = match &self.flight_dump {
            None => None,
            Some(path) => {
                let recorder = FlightRecorder::new(self.flight_capacity);
                recorder.enable();
                Some((recorder, Mutex::new(File::create(path)?)))
            }
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(self.queue_capacity),
            cache: Mutex::new(LruCache::new(self.cache_capacity)),
            metrics: ServeMetrics::new(),
            access,
            timeline,
            flight,
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            addr,
            opts: self,
        });
        Ok(Server { listener, shared })
    }
}

/// The distributed-tracing identity of one server-side unit of work: which
/// trace it belongs to, the span the server minted for it, and the span it
/// descends from (`0` = a root the server originated itself). Every access
/// log entry carries all three, so `mosc-cli trace` can join client, queue
/// and solver views of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceIds {
    pub(crate) trace_id: u128,
    pub(crate) span_id: u64,
    pub(crate) parent_id: u64,
}

impl TraceIds {
    /// Continues a wire trace context (the v2 `trace` member) under a fresh
    /// server span, or originates a new root trace when the client sent
    /// none — either way every request ends up traceable.
    fn continue_from(wire: Option<&crate::proto::TraceContext>) -> Self {
        match wire {
            Some(t) => {
                Self { trace_id: t.trace_id, span_id: fresh_span_id(), parent_id: t.parent_id }
            }
            None => Self { trace_id: fresh_trace_id(), span_id: fresh_span_id(), parent_id: 0 },
        }
    }

    /// A child span of `self` in the same trace (batch variants hang off
    /// their dispatch span this way).
    fn child(self) -> Self {
        Self { trace_id: self.trace_id, span_id: fresh_span_id(), parent_id: self.span_id }
    }
}

/// Which line a [`Job`] answers. A `solve` is the one-variant case of a
/// `solve_batch`, so both run the same worker path; the framing decides
/// only the response shape, the variant ids, the span parenting and how
/// an answer covering the whole line (overload, broken platform, panic)
/// is logged. The platform-resolve policy also follows the op (see
/// [`Job::resolve_platform`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// A `solve` line: its one variant answers under the line's id and span.
    Solve,
    /// A `solve_batch` line: one framed response, variant `i` answering as
    /// `"<id>#<i>"` under a child span of the line's dispatch span.
    Batch,
}

/// One variant of a dispatch, keyed and given its deadline at receipt.
struct Variant {
    kind: SolverKind,
    options: SolveOptions,
    want_schedule: bool,
    key: CacheKey,
    /// `deadline_ms` (or the daemon default) counted from `t_recv`, so time
    /// spent queued counts against it.
    deadline_at: Option<Instant>,
}

/// One queued unit of work: a platform and the variants to run on it,
/// stamped at receipt and at enqueue.
pub(crate) struct Job {
    framing: Framing,
    /// The line's id: a solve answers under it, batch variants derive
    /// theirs from it.
    id: String,
    platform: Value,
    /// The canonical platform serialization, computed once on the I/O
    /// thread: every variant's cache key and the registry preimage.
    canonical_platform: String,
    /// 1..=256 variants, in request (and response) order.
    variants: Vec<Variant>,
    conn: u64,
    /// First per-connection sequence number of this line. A line consumes
    /// one seq per variant (variant `i` logs as `seq + i`), so the
    /// per-connection sequence stays collision-free for the M093 lint.
    seq: u64,
    /// Where the response goes: the event loop's completion outbox.
    outbox: Arc<Outbox>,
    t_recv: Instant,
    t_enqueue: Instant,
    /// The server span for this line (the dispatch span for a batch, whose
    /// variants each get a child span).
    trace: TraceIds,
}

impl Job {
    /// Canonicalizes the platform, then keys every variant and starts its
    /// deadline clock at `t_recv`.
    fn new(
        shared: &Shared,
        framing: Framing,
        req: BatchRequest,
        outbox: &Arc<Outbox>,
        t_recv: Instant,
        conn: u64,
        seq: u64,
    ) -> Self {
        let canonical_platform = canonical_json(&req.platform);
        let default_deadline = shared.opts.default_deadline;
        let variants = req
            .variants
            .into_iter()
            .map(|v| Variant {
                key: cache_key_parts(&canonical_platform, v.kind, &v.options),
                deadline_at: v.options.deadline.or(default_deadline).map(|d| t_recv + d),
                kind: v.kind,
                options: v.options,
                want_schedule: v.want_schedule,
            })
            .collect();
        Self {
            framing,
            id: req.id,
            platform: req.platform,
            canonical_platform,
            variants,
            conn,
            seq,
            outbox: outbox.clone(),
            t_recv,
            t_enqueue: Instant::now(),
            trace: TraceIds::continue_from(req.trace.as_ref()),
        }
    }

    /// Builds the platform once for every variant. A batch interns it
    /// through [`mosc_core::registry`] and reports whether the registry was
    /// warm (`Some`); a single solve builds it and drops it with the
    /// request (`None`), which keeps the daemon's resident set flat under
    /// single-solve traffic (DESIGN.md §15).
    fn resolve_platform(&self) -> Result<(Arc<Platform>, Option<bool>), SpecError> {
        let build = || {
            let doc = Value::Object(vec![("platform".to_owned(), self.platform.clone())]);
            mosc_analyze::platform_from_doc(&doc)
        };
        match self.framing {
            Framing::Solve => build().map(|p| (Arc::new(p), None)),
            Framing::Batch => mosc_core::registry::intern_with(&self.canonical_platform, build)
                .map(|(p, warm)| (p, Some(warm))),
        }
    }

    /// Variant `i`'s response id and trace identity: the line's own for a
    /// solve; `"<id>#<i>"` and a fresh child span (one shared trace id, one
    /// shared parent — the containment the M122 lint asserts) in a batch.
    fn variant_ids(&self, i: usize) -> (Cow<'_, str>, TraceIds) {
        match self.framing {
            Framing::Solve => (Cow::Borrowed(&self.id), self.trace),
            Framing::Batch => (Cow::Owned(format!("{}#{i}", self.id)), self.trace.child()),
        }
    }

    /// Variant `i`'s access entry under `id`/`ids`: received at `t_recv`
    /// and answered without queueing, until the caller overrides the
    /// outcome and queue-timing fields.
    fn variant_completion<'a>(&'a self, i: usize, id: &'a str, ids: TraceIds) -> Completion<'a> {
        let v = &self.variants[i];
        Completion {
            id,
            op: "solve",
            solver: Some(v.kind),
            status: "ok",
            cached: false,
            conn: self.conn,
            seq: self.seq + i as u64,
            key: Some(v.key.hash),
            t_recv: self.t_recv,
            t_enqueue: self.t_recv,
            queue_wait: 0.0,
            service_start: self.t_recv,
            deadline_at: v.deadline_at,
            kernel: KernelDelta::default(),
            trace: None,
            batch: (self.framing == Framing::Batch).then_some(self.id.as_str()),
            ids,
        }
    }

    /// The access entry of an answer covering the whole line: a solve logs
    /// it as its one variant's entry, a batch as one `solve_batch` entry
    /// under the batch id.
    fn line_completion(&self, status: &'static str) -> Completion<'_> {
        match self.framing {
            Framing::Solve => {
                Completion { status, ..self.variant_completion(0, &self.id, self.trace) }
            }
            Framing::Batch => Completion {
                batch: Some(&self.id),
                ids: self.trace,
                ..Completion::proto(
                    &self.id,
                    "solve_batch",
                    status,
                    self.t_recv,
                    self.conn,
                    self.seq,
                )
            },
        }
    }
}

/// A `solve` line as the one-variant dispatch it is.
fn one_variant(req: SolveRequest) -> BatchRequest {
    BatchRequest {
        id: req.id,
        platform: req.platform,
        variants: vec![BatchVariantRequest {
            kind: req.kind,
            options: req.options,
            want_schedule: req.want_schedule,
        }],
        trace: req.trace,
    }
}

/// State shared by the event loop and the workers.
pub(crate) struct Shared {
    /// The configuration the server was built with.
    pub(crate) opts: ServeBuilder,
    addr: SocketAddr,
    pub(crate) queue: BoundedQueue<Job>,
    cache: Mutex<LruCache>,
    pub(crate) metrics: ServeMetrics,
    access: Option<Mutex<File>>,
    /// Windowed completion timeline plus its output file; closed windows
    /// are appended as they fill, the in-progress window at drain.
    timeline: Option<(mosc_obs::Timeline, Mutex<File>)>,
    /// Flight recorder plus its dump file: request milestones ring-buffer
    /// in memory, anomalies snapshot the ring as `flight_dump` JSONL lines.
    flight: Option<(FlightRecorder, Mutex<File>)>,
    start: Instant,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        let merged = self.metrics.solve_total();
        let q = |p: f64| merged.quantile(p).map(|s| s * 1e3);
        ServeStats {
            requests: self.metrics.requests.get(),
            responses: self.metrics.responses.get(),
            cache_hits: self.metrics.cache_hits.get(),
            cache_misses: self.metrics.cache_misses.get(),
            cache_evictions: self.metrics.cache_evictions.get(),
            rejected: self.metrics.rejected.get(),
            deadline_exceeded: self.metrics.deadline_exceeded.get(),
            malformed: self.metrics.malformed.get(),
            queue_depth: self.queue.len() as u64,
            queue_peak: self.metrics.queue_peak.get(),
            cache_len: self.lock_cache().len() as u64,
            uptime_s: self.start.elapsed().as_secs_f64(),
            req_per_s: self.metrics.rate.per_sec(),
            p50_ms: q(0.5),
            p90_ms: q(0.9),
            p99_ms: q(0.99),
            p999_ms: q(0.999),
            max_ms: (merged.count > 0).then_some(merged.max * 1e3),
            slow_exemplar: self.metrics.slow_exemplar().map_or(0, |e| e.trace_id),
        }
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, LruCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured worker-pool size (`0` = all available cores).
    fn worker_count(&self) -> usize {
        if self.opts.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.opts.workers
        }
    }

    /// Flags shutdown and wakes the accept loop with a throwaway
    /// connection (the pure-std replacement for signalling the thread).
    fn initiate_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A cloneable remote control for a bound server; lets tests and the CLI
/// trigger the same drain-then-exit path as the wire `shutdown` op.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Begins drain-then-exit, as if `{"op":"shutdown"}` had arrived.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Current service counters and latency summary.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }
}

/// A bound (but not yet running) solve service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Starts a fluent configuration; finish with [`ServeBuilder::bind`].
    #[must_use]
    pub fn builder() -> ServeBuilder {
        ServeBuilder::new()
    }

    /// The bound address (useful with `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A remote control for this server.
    #[must_use]
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: self.shared.clone() }
    }

    /// Serves until a shutdown is requested (wire op or [`ServeHandle`]),
    /// then drains: queued jobs all get responses, every thread is joined,
    /// and the access log (if any) gets its `hist_snapshot` and
    /// `serve_summary` trailer lines.
    ///
    /// # Errors
    /// Fatal event-loop I/O errors only (`Unsupported` off unix);
    /// per-connection errors are contained to their connection.
    pub fn run(self) -> std::io::Result<()> {
        #[cfg(not(unix))]
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the event loop needs poll(2)/epoll and is unix-only",
        ));
        #[cfg(unix)]
        {
            let shared = &self.shared;
            let result = std::thread::scope(|scope| {
                for _ in 0..shared.worker_count() {
                    scope.spawn(|| worker_loop(shared));
                }
                let result = crate::evloop::run(&self.listener, shared);
                // The event loop closes the queue when its drain starts; an
                // early error must still release the blocked workers.
                shared.queue.close();
                result
            });
            write_access_trailer(shared);
            write_timeline_trailer(shared);
            result
        }
    }
}

/// The worker side: pop, then [`process_dispatch`].
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        run_job(shared, &job, process_dispatch);
    }
}

/// Runs one dequeued job. A panicking solve must not shrink the worker
/// pool for the rest of the process lifetime, so the job runs under
/// `catch_unwind`. A panic is recorded as a flight anomaly (with a ring
/// dump) and still answers the line with one `internal` error: the event
/// loop retires a connection only once every line it dispatched has its
/// response. The poisoned-mutex consequences are already handled
/// everywhere via `PoisonError::into_inner`.
fn run_job(shared: &Shared, job: &Job, work: impl FnOnce(&Shared, &Job, Instant)) {
    let t_dequeue = Instant::now();
    shared.metrics.on_queue_depth(shared.queue.len() as u64);
    let wait_us = t_dequeue.saturating_duration_since(job.t_enqueue).as_micros() as u64;
    flight_record(shared, FlightKind::Dequeue, job.trace, wait_us);
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(shared, job, t_dequeue)));
    if let Err(payload) = outcome {
        flight_record(shared, FlightKind::Panic, job.trace, 0);
        flight_dump(shared, "panic");
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message");
        let message = format!("the solver panicked: {what}");
        answer_line_error(shared, job, t_dequeue, ErrorKind::Internal, &message);
    }
}

/// Answers a dequeued line with one error line under the line's own id
/// (a panic, or a platform every variant shares failing to build).
fn answer_line_error(
    shared: &Shared,
    job: &Job,
    t_dequeue: Instant,
    kind: ErrorKind,
    message: &str,
) {
    let c = job.line_completion("error").dequeued(job, t_dequeue);
    let stamped = record_completion(shared, &c, Instant::now());
    respond(shared, &job.outbox, &job.id, &error_to_json(&job.id, kind.id(), message), stamped);
}

/// Everything [`finish`] needs to close out one request: identity, timing
/// anchors, and (for solved requests) the kernel-counter deltas and the
/// captured span tree.
struct Completion<'a> {
    id: &'a str,
    /// `"solve"` for solver requests, else the protocol op (or `"parse"`).
    op: &'a str,
    solver: Option<SolverKind>,
    /// `"ok"`, `"error"` or `"overloaded"`.
    status: &'a str,
    cached: bool,
    /// Connection id and per-connection line sequence number — the join
    /// fields the M093 lint orders the log by.
    conn: u64,
    seq: u64,
    /// Canonical cache key for solve ops (the M082 lint joins hits to
    /// fills on it); `None` for protocol ops.
    key: Option<u64>,
    t_recv: Instant,
    /// Queue-push time; answers made on the I/O thread never queue, so it
    /// equals `t_recv` for them.
    t_enqueue: Instant,
    queue_wait: f64,
    service_start: Instant,
    deadline_at: Option<Instant>,
    kernel: KernelDelta,
    trace: Option<TraceSnapshot>,
    /// The enclosing `solve_batch` request id when this completion is one
    /// variant of a batch (the M110/M111 lints group entries on it);
    /// `None` for single solves and protocol ops.
    batch: Option<&'a str>,
    /// Distributed-trace identity: continued from the client's wire trace
    /// when one arrived, originated by the server otherwise.
    ids: TraceIds,
}

impl<'a> Completion<'a> {
    /// A protocol op or parse error: never queued, no solver attached.
    fn proto(
        id: &'a str,
        op: &'a str,
        status: &'a str,
        t_recv: Instant,
        conn: u64,
        seq: u64,
    ) -> Self {
        Self {
            id,
            op,
            solver: None,
            status,
            cached: false,
            conn,
            seq,
            key: None,
            t_recv,
            t_enqueue: t_recv,
            queue_wait: 0.0,
            service_start: t_recv,
            deadline_at: None,
            kernel: KernelDelta::default(),
            trace: None,
            batch: None,
            ids: TraceIds::continue_from(None),
        }
    }

    /// This entry of `job`'s line, dequeued by a worker at `t_dequeue`.
    fn dequeued(self, job: &Job, t_dequeue: Instant) -> Self {
        Self {
            t_enqueue: job.t_enqueue,
            queue_wait: t_dequeue.saturating_duration_since(job.t_enqueue).as_secs_f64(),
            service_start: t_dequeue,
            ..self
        }
    }
}

/// Proof that [`record_completion`] ran for a request, naming the
/// connection the request came in on, which is where the response goes.
/// The response writers ([`respond`], [`respond_proto`]) each consume one,
/// so "stamp the histograms/timeline/access log, **then** write the bytes" is
/// the only order the code can express. The guarantee this buys: a client
/// that reads its response and immediately scrapes `stats`, `metrics`, or
/// the access log is certain to see its own request already recorded —
/// including the I/O thread's cache-hit fast path, which used to make
/// that ordering a per-call-site convention rather than a type invariant.
#[must_use = "a completion stamp exists to be spent on the response write"]
struct Stamped(u64);

/// Records the request's phase latencies into the per-op histograms,
/// appends the access-log line, then writes the response. The single exit
/// path for every request, so no completion can miss a histogram or log
/// entry — and because recording happens *before* the bytes land, a client
/// that reads its response and immediately scrapes `metrics` (or `stats`)
/// is guaranteed to see its own request counted. The phases therefore
/// exclude the socket write itself, which is microseconds against
/// millisecond solves.
fn finish(shared: &Shared, outbox: &Outbox, line: &str, c: &Completion<'_>) {
    let stamped = record_completion(shared, c, Instant::now());
    if c.solver.is_some() {
        respond(shared, outbox, c.id, line, stamped);
    } else {
        respond_proto(shared, outbox, line, stamped);
    }
}

/// The recording half of [`finish`]: histograms, timeline and access log
/// for one completion, without writing any response bytes. The batch path
/// calls this once per variant and then frames a single response line.
/// Returns the [`Stamped`] receipt the response writers demand.
fn record_completion(shared: &Shared, c: &Completion<'_>, done: Instant) -> Stamped {
    let service = done.saturating_duration_since(c.service_start).as_secs_f64();
    let total = done.saturating_duration_since(c.t_recv).as_secs_f64();
    match c.solver {
        Some(kind) => {
            shared.metrics.record_solve(kind, c.queue_wait, service, total, c.ids.trace_id);
        }
        None => shared.metrics.record_proto(total),
    }
    let total_us = (total * 1e6) as u64;
    flight_record(shared, FlightKind::Done, c.ids, total_us);
    if total >= shared.opts.slow_threshold.as_secs_f64() {
        flight_record(shared, FlightKind::Slow, c.ids, total_us);
        flight_dump(shared, "slow");
    }
    record_timeline(shared, total, c.cached);
    log_access(shared, c, done, service, total);
    Stamped(c.conn)
}

/// Lands one completion in the windowed timeline (when configured) and
/// appends any windows that closed. Writing here, on the completion path,
/// keeps the output ordered without a sampler thread; an idle server
/// simply flushes its backlog of empty windows on the next request.
fn record_timeline(shared: &Shared, total_s: f64, cached: bool) {
    let Some((timeline, file)) = &shared.timeline else { return };
    timeline.record(total_s, cached);
    timeline.note_depth(shared.queue.len() as u64);
    let closed = timeline.drain_closed();
    if !closed.is_empty() {
        let mut file = file.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = file.write_all(mosc_obs::Timeline::render_jsonl(&closed).as_bytes());
    }
}

/// Flushes the in-progress timeline window at drain.
fn write_timeline_trailer(shared: &Shared) {
    let Some((timeline, file)) = &shared.timeline else { return };
    let remaining = timeline.finish();
    if !remaining.is_empty() {
        let mut file = file.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = file.write_all(mosc_obs::Timeline::render_jsonl(&remaining).as_bytes());
    }
}

/// Lands one milestone in the flight ring (no-op without `--flight-dump`).
fn flight_record(shared: &Shared, kind: FlightKind, ids: TraceIds, value: u64) {
    if let Some((recorder, _)) = &shared.flight {
        recorder.record(kind, ids.trace_id, ids.span_id, value);
    }
}

/// Snapshots the flight ring into one `{"type":"flight_dump"}` JSONL line —
/// the "what led up to this" record an anomaly leaves behind. Torn entries
/// (overwritten mid-copy) are counted, never emitted, so every entry in the
/// dump is internally consistent; the M123 lint checks the accounting.
fn flight_dump(shared: &Shared, reason: &str) {
    let Some((recorder, file)) = &shared.flight else { return };
    let snap = recorder.snapshot();
    let num = Value::Number;
    let entries: Vec<Value> = snap
        .entries
        .iter()
        .map(|e| {
            Value::Object(vec![
                ("seq".to_owned(), num(e.seq as f64)),
                ("t_us".to_owned(), num(e.t_us as f64)),
                (
                    "kind".to_owned(),
                    e.kind.map_or(Value::Null, |k| Value::String(k.as_str().to_owned())),
                ),
                ("trace_id".to_owned(), Value::String(format!("{:032x}", e.trace_id))),
                ("span_id".to_owned(), Value::String(format!("{:016x}", e.span_id))),
                ("value".to_owned(), num(e.value as f64)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("type".to_owned(), Value::String("flight_dump".to_owned())),
        ("reason".to_owned(), Value::String(reason.to_owned())),
        ("t_s".to_owned(), num(shared.start.elapsed().as_secs_f64())),
        ("head".to_owned(), num(snap.head as f64)),
        ("capacity".to_owned(), num(snap.capacity as f64)),
        ("dropped".to_owned(), num(snap.dropped as f64)),
        ("torn".to_owned(), num(snap.torn as f64)),
        ("entries".to_owned(), Value::Array(entries)),
    ]);
    let line = value_to_json(&doc);
    let mut file = file.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = writeln!(file, "{line}");
}

/// Most spans one access-log line may carry; anything beyond is dropped
/// and accounted in `spans_truncated`.
const MAX_ACCESS_SPANS: usize = 256;

/// Appends one `{"type":"access",...}` JSONL line for a completed request.
fn log_access(shared: &Shared, c: &Completion<'_>, done: Instant, service: f64, total: f64) {
    let Some(access) = &shared.access else { return };
    let num = Value::Number;
    let mut members: Vec<(String, Value)> = vec![
        ("type".to_owned(), Value::String("access".to_owned())),
        ("t_s".to_owned(), num(shared.start.elapsed().as_secs_f64())),
        ("id".to_owned(), Value::String(c.id.to_owned())),
        ("op".to_owned(), Value::String(c.op.to_owned())),
        ("solver".to_owned(), c.solver.map_or(Value::Null, |k| Value::String(k.id().to_owned()))),
        ("status".to_owned(), Value::String(c.status.to_owned())),
        ("cached".to_owned(), Value::Bool(c.cached)),
        ("queue_wait_s".to_owned(), num(c.queue_wait)),
        ("service_s".to_owned(), num(service)),
        ("total_s".to_owned(), num(total)),
        (
            "deadline_slack_s".to_owned(),
            c.deadline_at.map_or(Value::Null, |at| num(signed_slack(at, done))),
        ),
        ("expm_calls".to_owned(), num(c.kernel.expm_calls as f64)),
        ("period_map_matmuls".to_owned(), num(c.kernel.period_map_matmuls as f64)),
        ("steady_state_calls".to_owned(), num(c.kernel.steady_state_calls as f64)),
        ("linalg_matmuls".to_owned(), num(c.kernel.linalg_matmuls as f64)),
        ("eigen_calls".to_owned(), num(c.kernel.eigen_calls as f64)),
        ("registry_hits".to_owned(), num(c.kernel.registry_hits as f64)),
        ("registry_misses".to_owned(), num(c.kernel.registry_misses as f64)),
        ("conn".to_owned(), num(c.conn as f64)),
        ("seq".to_owned(), num(c.seq as f64)),
        // Distributed-trace identity, hex like the wire form: JSON numbers
        // are f64 and cannot carry 64/128 bits losslessly. A null parent
        // marks a server-originated root (the client sent no trace).
        ("trace_id".to_owned(), Value::String(format!("{:032x}", c.ids.trace_id))),
        ("span_id".to_owned(), Value::String(format!("{:016x}", c.ids.span_id))),
        (
            "parent_id".to_owned(),
            if c.ids.parent_id == 0 {
                Value::Null
            } else {
                Value::String(format!("{:016x}", c.ids.parent_id))
            },
        ),
        // The cache key travels as a hex string: JSON numbers are f64 and
        // cannot carry 64 bits losslessly.
        ("key".to_owned(), c.key.map_or(Value::Null, |k| Value::String(format!("{k:016x}")))),
        ("t_recv_s".to_owned(), num(since_start(shared, c.t_recv))),
        ("t_enqueue_s".to_owned(), num(since_start(shared, c.t_enqueue))),
        ("t_dequeue_s".to_owned(), num(since_start(shared, c.service_start))),
        ("t_done_s".to_owned(), num(since_start(shared, done))),
    ];
    if let Some(batch) = c.batch {
        members.push(("batch".to_owned(), Value::String(batch.to_owned())));
    }
    if total >= shared.opts.slow_threshold.as_secs_f64() {
        if let Some(trace) = c.trace.as_ref().filter(|t| !t.is_empty()) {
            // A pathological solve can open thousands of distinct span
            // paths; cap the attachment so one bad request cannot balloon
            // the log line, and say how much was cut (the M091 span lint
            // skips containment checks on truncated entries).
            let spans: Vec<Value> = trace
                .spans
                .iter()
                .take(MAX_ACCESS_SPANS)
                .map(|s| {
                    Value::Object(vec![
                        ("path".to_owned(), Value::String(s.path.clone())),
                        ("depth".to_owned(), num(s.depth as f64)),
                        ("calls".to_owned(), num(s.calls as f64)),
                        ("total_s".to_owned(), num(s.total.as_secs_f64())),
                        ("self_s".to_owned(), num(s.self_time.as_secs_f64())),
                    ])
                })
                .collect();
            members.push(("spans".to_owned(), Value::Array(spans)));
            if trace.spans.len() > MAX_ACCESS_SPANS {
                let cut = trace.spans.len() - MAX_ACCESS_SPANS;
                members.push(("spans_truncated".to_owned(), num(cut as f64)));
            }
        }
    }
    write_access_line(access, &Value::Object(members));
}

/// Seconds since server start on the one monotone clock every lifecycle
/// timestamp shares — the clock the M090/M092 lints assume.
fn since_start(shared: &Shared, at: Instant) -> f64 {
    at.saturating_duration_since(shared.start).as_secs_f64()
}

/// Seconds from `now` until `at`: positive when the deadline is still
/// ahead, negative when it has already passed.
fn signed_slack(at: Instant, now: Instant) -> f64 {
    match at.checked_duration_since(now) {
        Some(left) => left.as_secs_f64(),
        None => -now.saturating_duration_since(at).as_secs_f64(),
    }
}

/// One serialized line into the access log. Write errors (disk full, log
/// on a vanished mount) must not take the request path down with them.
fn write_access_line(access: &Mutex<File>, doc: &Value) {
    let line = value_to_json(doc);
    let mut file = access.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = writeln!(file, "{line}");
}

/// Drain-time access-log trailer: one `hist_snapshot` line per non-empty
/// latency histogram (elided empty buckets, `+Inf` last) and one
/// `serve_summary` line with the final counters — the inputs to the M072
/// and M073 lints.
fn write_access_trailer(shared: &Shared) {
    let Some(access) = &shared.access else { return };
    let num = Value::Number;
    for (name, snap, exemplars) in shared.metrics.latency_snapshots() {
        let cumulative = snap.cumulative();
        let mut buckets = Vec::new();
        let mut prev = 0u64;
        for (i, &(le, cum)) in cumulative.iter().enumerate() {
            let last = i == cumulative.len() - 1;
            if cum == prev && !last {
                continue;
            }
            prev = cum;
            let le_value = if last { Value::String("+Inf".to_owned()) } else { Value::Number(le) };
            buckets.push(Value::Object(vec![
                ("le".to_owned(), le_value),
                ("cum".to_owned(), num(cum as f64)),
            ]));
        }
        let mut doc = vec![
            ("type".to_owned(), Value::String("hist_snapshot".to_owned())),
            ("name".to_owned(), Value::String(name.to_owned())),
            ("count".to_owned(), num(snap.count as f64)),
            ("sum".to_owned(), num(snap.sum)),
            ("buckets".to_owned(), Value::Array(buckets)),
        ];
        if !exemplars.is_empty() {
            let list: Vec<Value> = exemplars
                .iter()
                .map(|&(i, e)| {
                    let le = if i == LOG_BUCKETS - 1 {
                        Value::String("+Inf".to_owned())
                    } else {
                        Value::Number(bucket_upper(i))
                    };
                    Value::Object(vec![
                        ("le".to_owned(), le),
                        ("trace_id".to_owned(), Value::String(format!("{:032x}", e.trace_id))),
                        ("value".to_owned(), num(e.value)),
                    ])
                })
                .collect();
            doc.push(("exemplars".to_owned(), Value::Array(list)));
        }
        write_access_line(access, &Value::Object(doc));
    }
    let s = shared.stats();
    let doc = Value::Object(vec![
        ("type".to_owned(), Value::String("serve_summary".to_owned())),
        ("requests".to_owned(), num(s.requests as f64)),
        ("responses".to_owned(), num(s.responses as f64)),
        ("cache_hits".to_owned(), num(s.cache_hits as f64)),
        ("cache_misses".to_owned(), num(s.cache_misses as f64)),
        ("cache_evictions".to_owned(), num(s.cache_evictions as f64)),
        ("rejected".to_owned(), num(s.rejected as f64)),
        ("deadline_exceeded".to_owned(), num(s.deadline_exceeded as f64)),
        ("malformed".to_owned(), num(s.malformed as f64)),
        ("queue_peak".to_owned(), num(s.queue_peak as f64)),
        ("uptime_s".to_owned(), num(s.uptime_s)),
    ]);
    write_access_line(access, &doc);
}

/// One variant's outcome: the rendered result object plus what its access
/// entry must say.
struct VariantOutcome {
    line: String,
    status: &'static str,
    cached: bool,
    kernel: KernelDelta,
    /// The solver's span tree, when it is this variant's alone.
    trace: Option<TraceSnapshot>,
}

impl VariantOutcome {
    fn ok(line: String, cached: bool, kernel: KernelDelta) -> Self {
        Self { line, status: "ok", cached, kernel, trace: None }
    }

    fn error(id: &str, kind: ErrorKind, message: &str) -> Self {
        Self {
            line: error_to_json(id, kind.id(), message),
            status: "error",
            cached: false,
            kernel: KernelDelta::default(),
            trace: None,
        }
    }
}

/// The worker side of every solve line, in one order: resolve the platform
/// once; per variant check the deadline, then the cache; solve the misses
/// together with [`mosc_core::solve_batch`] and fill the cache; record one
/// access entry per variant (sequence number `job.seq + i`); answer the
/// line once, in its framing.
fn process_dispatch(shared: &Shared, job: &Job, t_dequeue: Instant) {
    // Eigendecomposition work across the resolve is measured so the access
    // log can prove a warm batch did none — the M110 lint joins
    // `registry_hits > 0` against `eigen_calls`.
    let eigs = || mosc_obs::counter_value("eigen.calls").unwrap_or(0);
    let eigs_before = eigs();
    let resolved = job.resolve_platform();
    let resolve_eigs = eigs().saturating_sub(eigs_before);
    let (platform, registry) = match resolved {
        Ok(resolved) => resolved,
        Err(e) => {
            // Every variant shares the broken platform: one error line.
            answer_line_error(shared, job, t_dequeue, ErrorKind::Usage, &e.to_string());
            return;
        }
    };
    let ids: Vec<_> = (0..job.variants.len()).map(|i| job.variant_ids(i)).collect();
    let mut outcomes: Vec<Option<VariantOutcome>> = Vec::with_capacity(job.variants.len());
    let mut misses: Vec<usize> = Vec::new();
    let mut to_solve: Vec<BatchVariant> = Vec::new();
    for (i, v) in job.variants.iter().enumerate() {
        let (id, span) = &ids[i];
        // The deadline may already have burned off while queued.
        let remaining = match v.deadline_at {
            None => None,
            Some(at) => match at.checked_duration_since(Instant::now()) {
                Some(left) if left > Duration::ZERO => Some(left),
                _ => {
                    deadline_exceeded(shared, *span, 0);
                    let message = "deadline expired while queued";
                    outcomes.push(Some(VariantOutcome::error(id, ErrorKind::Deadline, message)));
                    continue;
                }
            },
        };
        // A duplicate may have filled the cache while this job waited.
        if let Some(hit) = shared.lock_cache().get(&v.key) {
            shared.metrics.on_cache_hit();
            let line = render_ok(id, v.want_schedule, &hit, true);
            outcomes.push(Some(VariantOutcome::ok(line, true, KernelDelta::default())));
            continue;
        }
        shared.metrics.on_cache_miss();
        misses.push(i);
        outcomes.push(None);
        let options = SolveOptions { deadline: remaining, ..v.options };
        to_solve.push(BatchVariant { kind: v.kind, options });
    }
    // The context hands the solve's identity across: the solver's root span
    // tree recorded on this thread lands in the snapshot. It is attached
    // only when the dispatch solved exactly one variant, because only then
    // does the tree belong to one solve.
    let trace = TraceContext::new();
    let results = trace.observe(|| mosc_core::solve_batch(&platform, &to_solve, 0));
    let mut spans = (misses.len() == 1).then(|| trace.snapshot());
    for (&i, result) in misses.iter().zip(results) {
        let (v, (id, span)) = (&job.variants[i], &ids[i]);
        let outcome = match result {
            // The deadline must hold when the response is written, not just
            // at dequeue: the polynomial solvers run to completion by
            // contract, so a slow solve can sail past it. Answer the
            // deadline error the client asked for, and do NOT cache the
            // late result — a cache fill logged as an error would leave
            // later hits' keys unannounced for the M082 lint.
            Ok(report) => match v.deadline_at.filter(|&at| Instant::now() > at) {
                Some(at) => {
                    let late_us = Instant::now().saturating_duration_since(at).as_micros() as u64;
                    deadline_exceeded(shared, *span, late_us);
                    let message = "deadline expired during solve";
                    VariantOutcome {
                        kernel: report.kernel,
                        ..VariantOutcome::error(id, ErrorKind::Deadline, message)
                    }
                }
                None => {
                    let cached = CachedSolve::of_report(v.kind, &report, &platform);
                    let line = render_ok(id, v.want_schedule, &cached, false);
                    if shared.lock_cache().insert(&v.key, cached) {
                        shared.metrics.on_cache_eviction();
                    }
                    VariantOutcome::ok(line, false, report.kernel)
                }
            },
            Err(e) => {
                let kind = ErrorKind::of_algo(&e);
                if kind == ErrorKind::Deadline {
                    shared.metrics.on_deadline_exceeded();
                }
                VariantOutcome::error(id, kind, &e.to_string())
            }
        };
        outcomes[i] = Some(VariantOutcome { trace: spans.take(), ..outcome });
    }
    // Record every variant, then answer once. Registry attribution is
    // deterministic: each variant reports the dispatch's resolve outcome,
    // and the resolve's eigendecomposition work lands on the first variant.
    let done = Instant::now();
    let mut lines = Vec::with_capacity(outcomes.len());
    let mut stamped = None;
    for (i, (outcome, (id, span))) in outcomes.into_iter().zip(&ids).enumerate() {
        let Some(mut o) = outcome else { continue };
        if let Some(warm) = registry {
            o.kernel.registry_hits = u64::from(warm);
            o.kernel.registry_misses = u64::from(!warm);
        }
        if i == 0 {
            o.kernel.eigen_calls = o.kernel.eigen_calls.saturating_add(resolve_eigs);
        }
        let c = Completion {
            status: o.status,
            cached: o.cached,
            kernel: o.kernel,
            trace: o.trace,
            ..job.variant_completion(i, id, *span).dequeued(job, t_dequeue)
        };
        stamped = Some(record_completion(shared, &c, done));
        lines.push(o.line);
    }
    // The parser guarantees at least one variant, so at least one stamp.
    let Some(stamped) = stamped else { return };
    let line = match job.framing {
        Framing::Solve => lines.swap_remove(0),
        Framing::Batch => batch_response_to_json(&job.id, registry == Some(true), &lines),
    };
    respond(shared, &job.outbox, &job.id, &line, stamped);
}

/// Counts a variant whose deadline passed and snapshots the flight ring;
/// `late_us` is the overshoot.
fn deadline_exceeded(shared: &Shared, ids: TraceIds, late_us: u64) {
    shared.metrics.on_deadline_exceeded();
    flight_record(shared, FlightKind::Deadline, ids, late_us);
    flight_dump(shared, "deadline");
}

/// Renders an ok response line under `id` from a (fresh or cached) solve;
/// batch variants answer under a derived id (`"<batch id>#<i>"`).
fn render_ok(id: &str, want_schedule: bool, solve: &CachedSolve, cached: bool) -> String {
    SolveResponse {
        id: id.to_owned(),
        solver: solve.solver,
        throughput: solve.throughput,
        peak_c: solve.peak_c,
        feasible: solve.feasible,
        m: solve.m,
        wall_ms: solve.wall_ms,
        cached,
        stats: solve.stats,
        schedule: want_schedule.then(|| solve.schedule_text.clone()),
    }
    .to_json()
}

/// Writes one solve-response line: response metrics plus the
/// `serve.response` event the M062 lint pairs against `serve.request`.
/// Demands the caller's [`Stamped`] receipt: no response without its
/// completion recorded first.
fn respond(shared: &Shared, outbox: &Outbox, id: &str, line: &str, stamped: Stamped) {
    respond_proto(shared, outbox, line, stamped);
    mosc_obs::event("serve.response", &[("id", id_hash(id).into())]);
}

/// Writes one response line and records the response metrics, without the
/// request/response event pairing — protocol ops (ping/stats/metrics/
/// shutdown) and parse errors answer lines that no `serve.request` event
/// announced. The [`Stamped`] receipt proves the completion was recorded
/// before any byte lands.
// Taking `Stamped` by value (not reference) is the whole point of the
// receipt: a moved-in token cannot be spent on two response writes.
#[allow(clippy::needless_pass_by_value)]
fn respond_proto(shared: &Shared, outbox: &Outbox, line: &str, stamped: Stamped) {
    // Spent here: the record precedes the write.
    let Stamped(conn) = stamped;
    // Count before writing: the moment the bytes land, a client may read
    // them and query `stats`, and the response it just received must
    // already be in the counter.
    shared.metrics.on_response();
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    // A line for a connection that has since closed is dropped by the
    // event loop: the client went away.
    outbox.push(conn, framed);
}

/// 32-bit id hash for obs events: event fields travel through JSON numbers
/// (f64), so a full 64-bit hash would not survive the round trip.
fn id_hash(id: &str) -> u64 {
    fnv1a(id.as_bytes()) & 0xFFFF_FFFF
}

/// Answers a request line the event loop would not buffer whole with one
/// `usage` error. Logged and counted like a parse error; consumes one
/// sequence number.
pub(crate) fn reject_line(
    outbox: &Outbox,
    shared: &Shared,
    t_recv: Instant,
    conn: u64,
    seq: u64,
    message: &str,
) {
    shared.metrics.on_malformed();
    finish(
        shared,
        outbox,
        &error_to_json("", ErrorKind::Usage.id(), message),
        &Completion::proto("", "parse", "error", t_recv, conn, seq),
    );
}

/// Dispatches the `seq`-th request line of connection `conn`, received at
/// `t_recv`. Returns how many sequence numbers the line consumed (one per
/// logged completion: 1 for everything except `solve_batch`, which claims
/// one per variant). Every non-empty line produces **exactly one**
/// response line, now or when a worker completes (an `internal` error if
/// the worker panics) — the event loop's close-when-drained accounting
/// depends on that invariant.
pub(crate) fn handle_line(
    line: &str,
    outbox: &Arc<Outbox>,
    shared: &Shared,
    t_recv: Instant,
    conn: u64,
    seq: u64,
) -> u64 {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(ProtoError { message, id, kind }) => {
            shared.metrics.on_malformed();
            finish(
                shared,
                outbox,
                &error_to_json(&id, kind.id(), &message),
                &Completion::proto(&id, "parse", "error", t_recv, conn, seq),
            );
            return 1;
        }
    };
    match request {
        Request::Ping { id } => {
            let pong = Response::Pong { id: id.clone() }.to_json();
            finish(shared, outbox, &pong, &Completion::proto(&id, "ping", "ok", t_recv, conn, seq));
            1
        }
        Request::Stats { id } => {
            let line = Response::Stats { id: id.clone(), stats: shared.stats() }.to_json();
            finish(
                shared,
                outbox,
                &line,
                &Completion::proto(&id, "stats", "ok", t_recv, conn, seq),
            );
            1
        }
        Request::Metrics { id } => {
            let text = shared.metrics.render_prometheus(
                shared.queue.len() as u64,
                shared.lock_cache().len() as u64,
                shared.start.elapsed().as_secs_f64(),
            );
            let line = Response::Metrics { id: id.clone(), text }.to_json();
            finish(
                shared,
                outbox,
                &line,
                &Completion::proto(&id, "metrics", "ok", t_recv, conn, seq),
            );
            1
        }
        Request::Hello { id, max_version } => {
            let (line, status) = match HelloResponse::negotiate(&id, max_version) {
                Ok(hello) => (Response::Hello(hello).to_json(), "ok"),
                Err(message) => (error_to_json(&id, ErrorKind::Usage.id(), &message), "error"),
            };
            finish(
                shared,
                outbox,
                &line,
                &Completion::proto(&id, "hello", status, t_recv, conn, seq),
            );
            1
        }
        Request::Shutdown { id } => {
            let bye = Response::ShuttingDown { id: id.clone() }.to_json();
            finish(
                shared,
                outbox,
                &bye,
                &Completion::proto(&id, "shutdown", "ok", t_recv, conn, seq),
            );
            shared.initiate_shutdown();
            1
        }
        Request::Solve(req) => {
            dispatch(shared, Framing::Solve, one_variant(req), outbox, t_recv, conn, seq)
        }
        Request::SolveBatch(req) => {
            dispatch(shared, Framing::Batch, req, outbox, t_recv, conn, seq)
        }
    }
}

/// Queues a solve line for the workers, answering a `solve` that hits the
/// cache on the I/O thread instead, and a line the full queue cannot take
/// with `overloaded`. Returns the sequence numbers the line consumed (one
/// per variant).
fn dispatch(
    shared: &Shared,
    framing: Framing,
    req: BatchRequest,
    outbox: &Arc<Outbox>,
    t_recv: Instant,
    conn: u64,
    seq: u64,
) -> u64 {
    shared.metrics.on_request();
    let job = Job::new(shared, framing, req, outbox, t_recv, conn, seq);
    let consumed = job.variants.len() as u64;
    flight_record(shared, FlightKind::Recv, job.trace, conn);
    mosc_obs::event(
        "serve.request",
        &[
            ("id", id_hash(&job.id).into()),
            ("key", (job.variants[0].key.hash & 0xFFFF_FFFF).into()),
        ],
    );
    // Fast path: answer a solve's cache hit on the I/O thread, without
    // occupying a queue slot or a worker. Answered at receipt, it logs no
    // deadline slack.
    if job.framing == Framing::Solve {
        if let Some(hit) = shared.lock_cache().get(&job.variants[0].key) {
            shared.metrics.on_cache_hit();
            let line = render_ok(&job.id, job.variants[0].want_schedule, &hit, true);
            let c = Completion {
                cached: true,
                deadline_at: None,
                ..job.variant_completion(0, &job.id, job.trace)
            };
            finish(shared, outbox, &line, &c);
            return consumed;
        }
    }
    let trace = job.trace;
    match shared.queue.try_push(job) {
        Ok(depth) => {
            shared.metrics.on_queue_depth(depth as u64);
            flight_record(shared, FlightKind::Enqueue, trace, depth as u64);
        }
        Err(QueueFull(job)) => {
            shared.metrics.on_rejected();
            flight_record(shared, FlightKind::Overload, trace, shared.queue.len() as u64);
            flight_dump(shared, "overload");
            // A rejected job never queued: its enqueue and dequeue anchors
            // stay on `t_recv` so the logged pipeline order stays monotone.
            let stamped =
                record_completion(shared, &job.line_completion("overloaded"), Instant::now());
            respond(shared, &job.outbox, &job.id, &overloaded_to_json(&job.id), stamped);
        }
    }
    consumed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the old hand-rolled `format!` serializer: ids with
    /// JSON metacharacters must escape, and every field must round-trip
    /// through the parser.
    #[test]
    fn stats_json_escapes_and_round_trips() {
        let stats = ServeStats {
            requests: 7,
            responses: 7,
            cache_hits: 2,
            cache_misses: 5,
            cache_evictions: 1,
            rejected: 0,
            deadline_exceeded: 0,
            malformed: 3,
            queue_depth: 0,
            queue_peak: 4,
            cache_len: 5,
            uptime_s: 1.25,
            req_per_s: 2.5,
            p50_ms: Some(10.0),
            p90_ms: Some(20.0),
            p99_ms: Some(30.0),
            p999_ms: Some(31.0),
            max_ms: None,
            slow_exemplar: 0xdead_beef,
        };
        let line = stats.to_json("quote\"and\nnewline");
        let doc = Value::parse(&line).expect("stats line must be valid JSON");
        assert_eq!(doc.get("id").and_then(Value::as_str), Some("quote\"and\nnewline"));
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        let payload = doc.get("stats").expect("stats member");
        assert_eq!(payload.get("requests").and_then(Value::as_usize), Some(7));
        assert_eq!(payload.get("malformed").and_then(Value::as_usize), Some(3));
        assert_eq!(payload.get("queue_peak").and_then(Value::as_usize), Some(4));
        assert_eq!(payload.get("p99_ms").and_then(Value::as_f64), Some(30.0));
        assert_eq!(payload.get("p999_ms").and_then(Value::as_f64), Some(31.0));
        assert_eq!(payload.get("req_per_s").and_then(Value::as_f64), Some(2.5));
        // An absent summary value travels as null, not as a false zero.
        assert_eq!(payload.get("max_ms"), Some(&Value::Null));
        assert_eq!(ServeStats::from_value(payload).expect("parses back"), stats);
        assert_eq!(
            payload.get("slow_exemplar").and_then(Value::as_str),
            Some("000000000000000000000000deadbeef"),
            "the slow exemplar travels as a 32-hex trace id"
        );
    }

    /// A job whose processing panics still gets exactly one response line,
    /// an `internal` error under its own id — for a batch too — so the
    /// event loop's one-response-per-line accounting holds.
    #[test]
    fn a_panicking_job_is_answered_with_one_internal_error() {
        let server = Server::builder().addr("127.0.0.1:0").bind().expect("bind");
        let shared = &server.shared;
        let (outbox, _wake_rx) = Outbox::new().expect("outbox");
        let outbox = Arc::new(outbox);
        let platform = r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#;
        let single = format!(r#"{{"id":"s","solver":"ao","platform":{platform}}}"#);
        let batch = format!(
            r#"{{"id":"b","op":"solve_batch","platform":{platform},"variants":[{{"solver":"ao"}},{{"solver":"lns"}}]}}"#
        );
        for (line, id) in [(single, "s"), (batch, "b")] {
            let (framing, req) = match parse_request(&line).expect("request parses") {
                Request::Solve(req) => (Framing::Solve, one_variant(req)),
                Request::SolveBatch(req) => (Framing::Batch, req),
                other => panic!("not a solve: {other:?}"),
            };
            let job = Job::new(shared, framing, req, &outbox, Instant::now(), 1, 0);
            run_job(shared, &job, |_, _, _| panic!("injected"));
            let want = error_to_json(id, "internal", "the solver panicked: injected") + "\n";
            assert_eq!(Vec::from(outbox.drain()), [(1, want)], "exactly one line for {id}");
        }
        assert_eq!(server.handle().stats().responses, 2);
    }

    #[test]
    fn signed_slack_has_both_signs() {
        let now = Instant::now();
        let ahead = now + Duration::from_millis(250);
        assert!(signed_slack(ahead, now) > 0.2);
        assert!(signed_slack(now, ahead) < -0.2);
    }
}
