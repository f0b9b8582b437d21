//! `mosc-serve`: a concurrent solve service over the unified solver API.
//!
//! A zero-dependency TCP daemon speaking newline-delimited JSON: each
//! request line names a solver ([`mosc_core::SolverKind`]), carries an
//! inline platform spec (the same `"platform"` object `mosc-analyze`
//! validates) and optional [`mosc_core::SolveOptions`] overrides, and gets
//! exactly one response line back. Internals:
//!
//! - a fixed worker pool over a bounded MPMC [`queue`] — a full queue sheds
//!   load with an immediate `overloaded` response instead of buffering;
//! - an LRU solution [`cache`] keyed by the canonical hash of
//!   `(platform, solver, options)`, so identical queries are answered
//!   without re-solving;
//! - per-request deadlines that abort the enumeration solvers (EXS, `BnB`)
//!   cleanly through [`mosc_core::SolveOptions::deadline`];
//! - graceful drain-then-exit on the `shutdown` op (a wire op stands in
//!   for a signal handler);
//! - one front end: a nonblocking event loop (epoll on Linux, poll(2) on
//!   other unixes or with the `poll-backend` feature) that holds tens of
//!   thousands of connections on a single I/O thread (DESIGN.md §16).
//!
//! The daemon is unix-only: off unix, [`Server::run`] returns
//! [`std::io::ErrorKind::Unsupported`].
//!
//! The wire protocol is versioned: clients may open with a `hello` op to
//! negotiate a protocol version and discover supported ops (see
//! [`proto`]); v1 is today's line set, and unknown ops get a structured
//! `unsupported` error instead of a dropped connection.
//!
//! Run it as `mosc-cli serve --addr 127.0.0.1:7070`, or
//! embed it via [`Server::builder`] ([`ServeBuilder`]) as the loopback
//! tests do.
//!
//! Observability (DESIGN.md §12): every request is stamped through its
//! lifecycle (receive → enqueue → dequeue → respond) and the phase
//! latencies land in per-op `mosc-obs` log-bucketed histograms; the
//! `metrics` wire op exposes them (plus the service counters and rate
//! gauges) as Prometheus text exposition; `--access-log` appends one JSONL
//! line per request, with the solver's span tree and kernel-counter deltas
//! attached to slow requests. Telemetry also flows through `mosc-obs`
//! (`serve.*` counters/gauges/events) and is linted by `mosc-analyze`'s
//! M060–M062 (telemetry) and M070–M073 (access log) checks.

pub mod cache;
#[cfg(unix)]
mod evloop;
mod metrics;
mod outbox;
#[cfg(unix)]
mod poller;
pub mod proto;
pub mod queue;
pub mod server;

pub use cache::{cache_key, cache_key_parts, CacheKey, CachedSolve, LruCache};
pub use proto::{
    fresh_span_id, fresh_trace_id, negotiate_version, parse_request, BatchRequest, BatchResponse,
    BatchVariantRequest, ErrorKind, HelloResponse, Request, Response, SolveRequest, SolveResponse,
    TraceContext, PROTO_VERSION_MAX, PROTO_VERSION_MIN,
};
pub use queue::{BoundedQueue, QueueFull};
pub use server::{ServeBuilder, ServeHandle, ServeStats, Server};
