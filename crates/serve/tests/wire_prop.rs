//! Property tests for the wire format: randomly generated requests and
//! responses must survive serialize → `mosc_analyze::json` parse →
//! deserialize bit-for-bit, including escaped strings and float members.

use mosc_analyze::json::Value;
use mosc_core::{SolveOptions, SolverKind, SolverStats};
use mosc_serve::proto::{
    canonical_json, parse_request, request_to_json, BatchRequest, BatchResponse,
    BatchVariantRequest, ErrorKind, HelloResponse, Request, Response, ServeStats, SolveRequest,
    SolveResponse, TraceContext,
};
use mosc_testutil::{propcheck, Rng64};
use std::time::Duration;

/// Random string over a charset that exercises every escape path of
/// `json_string` (quotes, backslashes, control characters, non-ASCII).
fn random_string(rng: &mut Rng64) -> String {
    const CHARS: &[char] =
        &['a', 'Z', '0', '-', '_', '"', '\\', '\n', '\t', '\r', '\u{1}', 'µ', '€', ' '];
    let len = rng.below(12) as usize;
    (0..len).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize]).collect()
}

/// A random dyadic rational with a short exact decimal expansion, so the
/// shortest-round-trip writer and any correct decimal parser agree exactly.
fn random_f64(rng: &mut Rng64) -> f64 {
    (rng.below(1 << 20) as f64) / 256.0
}

/// An optional random v2 trace context: absent half the time (the v1 wire
/// shape), otherwise a random nonzero trace id with a random parent span.
fn random_trace(rng: &mut Rng64) -> Option<TraceContext> {
    if rng.below(2) == 0 {
        return None;
    }
    let trace_id = ((u128::from(rng.below(u64::MAX)) << 64) | u128::from(rng.below(u64::MAX))) | 1;
    Some(TraceContext { trace_id, parent_id: rng.below(u64::MAX) })
}

fn random_kind(rng: &mut Rng64) -> SolverKind {
    let all = SolverKind::all();
    all[rng.below(all.len() as u64) as usize]
}

fn random_platform(rng: &mut Rng64) -> Value {
    let mut members = vec![
        ("rows".to_owned(), Value::Number(1.0 + rng.below(3) as f64)),
        ("cols".to_owned(), Value::Number(1.0 + rng.below(3) as f64)),
        ("t_max_c".to_owned(), Value::Number(40.0 + random_f64(rng) % 40.0)),
        (
            "levels".to_owned(),
            Value::Array(vec![Value::Number(0.6), Value::Number(random_f64(rng))]),
        ),
    ];
    rng.shuffle(&mut members);
    Value::Object(members)
}

fn random_options(rng: &mut Rng64) -> SolveOptions {
    SolveOptions {
        threads: rng.below(9) as usize,
        max_m: 1 + rng.below(4096) as usize,
        deadline: if rng.below(2) == 0 {
            None
        } else {
            Some(Duration::from_millis(rng.below(60_000)))
        },
        base_period: 0.001 + random_f64(rng),
        m_patience: 1 + rng.below(16) as usize,
        t_unit_divisor: 1 + rng.below(500) as usize,
        phase_steps: 1 + rng.below(16) as usize,
        samples: 1 + rng.below(500) as usize,
        refill_divisor: 1 + rng.below(200) as usize,
        governor: mosc_core::reactive::GovernorOptions {
            control_period: 0.001 + random_f64(rng),
            guard_band: random_f64(rng),
            upgrade_band: random_f64(rng),
            horizon: 1.0 + random_f64(rng),
            warmup: random_f64(rng),
        },
    }
}

#[test]
fn solve_requests_round_trip_through_the_wire() {
    propcheck("solve request wire round-trip", |rng| {
        let req = SolveRequest {
            id: random_string(rng),
            kind: random_kind(rng),
            platform: random_platform(rng),
            options: random_options(rng),
            want_schedule: rng.below(2) == 1,
            trace: random_trace(rng),
        };
        let line = request_to_json(&req);
        let parsed = match parse_request(&line) {
            Ok(Request::Solve(r)) => r,
            other => panic!("expected a solve request back, got {other:?}\nline: {line}"),
        };
        assert_eq!(parsed.id, req.id, "line: {line}");
        assert_eq!(parsed.kind, req.kind, "line: {line}");
        assert_eq!(parsed.options, req.options, "line: {line}");
        assert_eq!(parsed.want_schedule, req.want_schedule, "line: {line}");
        assert_eq!(parsed.trace, req.trace, "line: {line}");
        assert_eq!(canonical_json(&parsed.platform), canonical_json(&req.platform), "line: {line}");
    });
}

#[test]
fn solve_responses_round_trip_through_the_wire() {
    propcheck("solve response wire round-trip", |rng| {
        let response = SolveResponse {
            id: random_string(rng),
            solver: random_kind(rng),
            throughput: random_f64(rng),
            peak_c: random_f64(rng),
            feasible: rng.below(2) == 1,
            m: rng.below(100_000) as usize,
            wall_ms: random_f64(rng),
            cached: rng.below(2) == 1,
            stats: SolverStats {
                explored: rng.below(1 << 32),
                thermal_prunes: rng.below(1 << 32),
                throughput_prunes: rng.below(1 << 32),
                transitions: rng.below(1 << 32),
                violation_time: random_f64(rng),
            },
            schedule: if rng.below(2) == 0 { None } else { Some(random_string(rng)) },
        };
        let line = response.to_json();
        let doc = Value::parse(&line).unwrap_or_else(|e| panic!("parse {line}: {e:?}"));
        let parsed =
            SolveResponse::from_value(&doc).unwrap_or_else(|e| panic!("from_value {line}: {e:?}"));
        assert_eq!(parsed, response, "line: {line}");
    });
}

fn random_solve_response(rng: &mut Rng64) -> SolveResponse {
    SolveResponse {
        id: random_string(rng),
        solver: random_kind(rng),
        throughput: random_f64(rng),
        peak_c: random_f64(rng),
        feasible: rng.below(2) == 1,
        m: rng.below(100_000) as usize,
        wall_ms: random_f64(rng),
        cached: rng.below(2) == 1,
        stats: SolverStats {
            explored: rng.below(1 << 32),
            thermal_prunes: rng.below(1 << 32),
            throughput_prunes: rng.below(1 << 32),
            transitions: rng.below(1 << 32),
            violation_time: random_f64(rng),
        },
        schedule: if rng.below(2) == 0 { None } else { Some(random_string(rng)) },
    }
}

fn random_error_kind(rng: &mut Rng64) -> ErrorKind {
    const ALL: &[ErrorKind] = &[
        ErrorKind::Parse,
        ErrorKind::Unsupported,
        ErrorKind::Usage,
        ErrorKind::Infeasible,
        ErrorKind::Deadline,
        ErrorKind::Internal,
    ];
    ALL[rng.below(ALL.len() as u64) as usize]
}

/// A latency summary value: absent (an empty histogram) one time in four.
fn random_latency(rng: &mut Rng64) -> Option<f64> {
    (rng.below(4) != 0).then(|| random_f64(rng))
}

fn random_serve_stats(rng: &mut Rng64) -> ServeStats {
    let mut count = || rng.below(1 << 32);
    ServeStats {
        requests: count(),
        responses: count(),
        cache_hits: count(),
        cache_misses: count(),
        cache_evictions: count(),
        rejected: count(),
        deadline_exceeded: count(),
        malformed: count(),
        queue_depth: count(),
        queue_peak: count(),
        cache_len: count(),
        uptime_s: random_f64(rng),
        req_per_s: random_f64(rng),
        p50_ms: random_latency(rng),
        p90_ms: random_latency(rng),
        p99_ms: random_latency(rng),
        p999_ms: random_latency(rng),
        max_ms: random_latency(rng),
        slow_exemplar: if rng.below(2) == 0 {
            0
        } else {
            (u128::from(rng.below(u64::MAX)) << 64) | u128::from(rng.below(u64::MAX))
        },
    }
}

/// A random response of every shape the daemon can write, including batch
/// results (which may only nest ok/error shapes, as on the wire).
fn random_response(rng: &mut Rng64) -> Response {
    match rng.below(9) {
        0 => Response::Ok(random_solve_response(rng)),
        1 => Response::Batch(BatchResponse {
            id: random_string(rng),
            registry_warm: rng.below(2) == 1,
            results: (0..rng.below(4))
                .map(|_| {
                    if rng.below(2) == 0 {
                        Response::Ok(random_solve_response(rng))
                    } else {
                        Response::Error {
                            id: random_string(rng),
                            kind: random_error_kind(rng),
                            message: random_string(rng),
                        }
                    }
                })
                .collect(),
        }),
        2 => Response::Error {
            id: random_string(rng),
            kind: random_error_kind(rng),
            message: random_string(rng),
        },
        3 => Response::Overloaded { id: random_string(rng) },
        4 => Response::Pong { id: random_string(rng) },
        5 => Response::Stats { id: random_string(rng), stats: random_serve_stats(rng) },
        6 => Response::Metrics { id: random_string(rng), text: random_string(rng) },
        7 => Response::ShuttingDown { id: random_string(rng) },
        _ => Response::Hello(HelloResponse {
            id: random_string(rng),
            server: random_string(rng),
            version: rng.below(1 << 16) as u32,
            versions: (0..1 + rng.below(4)).map(|_| rng.below(1 << 16) as u32).collect(),
            ops: (0..rng.below(5)).map(|_| random_string(rng)).collect(),
        }),
    }
}

#[test]
fn responses_of_every_shape_round_trip_through_the_wire() {
    propcheck("typed response wire round-trip", |rng| {
        let response = random_response(rng);
        let line = response.to_json();
        let parsed = Response::parse(&line).unwrap_or_else(|e| panic!("parse {line}: {e:?}"));
        assert_eq!(parsed, response, "line: {line}");
        assert_eq!(parsed.id(), response.id());
    });
}

/// A random request of every op, matching what [`Request::to_json`] can
/// express.
fn random_request(rng: &mut Rng64) -> Request {
    match rng.below(7) {
        0 => Request::Solve(SolveRequest {
            id: random_string(rng),
            kind: random_kind(rng),
            platform: random_platform(rng),
            options: random_options(rng),
            want_schedule: rng.below(2) == 1,
            trace: random_trace(rng),
        }),
        1 => Request::SolveBatch(BatchRequest {
            id: random_string(rng),
            platform: random_platform(rng),
            variants: (0..1 + rng.below(4))
                .map(|_| BatchVariantRequest {
                    kind: random_kind(rng),
                    options: random_options(rng),
                    want_schedule: rng.below(2) == 1,
                })
                .collect(),
            trace: random_trace(rng),
        }),
        2 => Request::Ping { id: random_string(rng) },
        3 => Request::Stats { id: random_string(rng) },
        4 => Request::Metrics { id: random_string(rng) },
        5 => Request::Shutdown { id: random_string(rng) },
        _ => Request::Hello {
            id: random_string(rng),
            max_version: if rng.below(2) == 0 { None } else { Some(1 + rng.below(16) as u32) },
        },
    }
}

#[test]
fn requests_of_every_op_round_trip_through_the_wire() {
    propcheck("typed request wire round-trip", |rng| {
        let req = random_request(rng);
        let line = req.to_json();
        let parsed = parse_request(&line).unwrap_or_else(|e| panic!("parse_request {line}: {e:?}"));
        // The serializers canonicalize platform member order (the batch
        // platform is the registry preimage), so value equality is modulo
        // that; the wire form itself must be a fixpoint.
        assert_eq!(parsed.to_json(), line, "serialize→parse→serialize must be a fixpoint");
        assert_eq!(parsed.id(), req.id());
        match (&parsed, &req) {
            (Request::Solve(p), Request::Solve(r)) => {
                assert_eq!(
                    canonical_json(&p.platform),
                    canonical_json(&r.platform),
                    "line: {line}"
                );
                assert_eq!(
                    (&p.kind, &p.options, p.want_schedule, &p.trace),
                    (&r.kind, &r.options, r.want_schedule, &r.trace)
                );
            }
            (Request::SolveBatch(p), Request::SolveBatch(r)) => {
                assert_eq!(
                    canonical_json(&p.platform),
                    canonical_json(&r.platform),
                    "line: {line}"
                );
                assert_eq!(p.variants, r.variants, "line: {line}");
                assert_eq!(p.trace, r.trace, "line: {line}");
            }
            _ => assert_eq!(parsed, req, "line: {line}"),
        }
    });
}
