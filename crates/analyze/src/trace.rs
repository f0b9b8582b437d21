//! Concurrency and trace invariants (`M090`- and `M120`-series) over the
//! serve access log's per-request lifecycle fields and the distributed-
//! tracing artifacts that join against it.
//!
//! The daemon stamps every access line with the four phase timestamps
//! (`t_recv_s`, `t_enqueue_s`, `t_dequeue_s`, `t_done_s`, all relative to
//! server start on one monotone clock), the connection id and per-connection
//! sequence number (`conn`, `seq`), and — for slow requests — a span tree
//! with depths. These lints check what single-line `M070` checks cannot:
//!
//! * `M090` — the pipeline order `recv ≤ enqueue ≤ dequeue ≤ done` is
//!   violated. All four derive from one monotone clock, so no epsilon.
//! * `M091` — a span tree is malformed: a nested path with no parent span,
//!   a child whose total exceeds its parent's, a duplicated path, or a
//!   recorded depth disagreeing with the path's nesting. Entries carrying
//!   `spans_truncated` skip the orphan check — the parent may be in the cut.
//! * `M092` — phase accounting does not sum: `queue_wait_s`, `service_s`,
//!   or `total_s` disagree with the corresponding timestamp differences.
//! * `M093` — per-connection sequence numbers repeat, or receive times go
//!   backwards as sequence numbers increase: one connection's lines are
//!   read sequentially by the daemon's one I/O thread, so both are
//!   monotone.
//!
//! The `M120`-series checks the distributed-trace identity the v2 protocol
//! threads through every artifact:
//!
//! * `M120` — a trace identity triple is malformed or partial (`trace_id`
//!   must be 32 nonzero lowercase hex digits, `span_id` 16, `parent_id`
//!   null or 16).
//! * `M121` — one span id appears on two entries of the same trace, or an
//!   entry is its own parent.
//! * `M122` — the variants of one `solve_batch` do not share one
//!   `trace_id` and one dispatch-span `parent_id`.
//! * `M123` — a `flight_dump` ring snapshot's accounting is broken
//!   (non-monotone entry seqs, seq at or past `head`, wrong `dropped`,
//!   more entries than the ring could hold).
//! * `M124` — a `hist_snapshot` exemplar's trace id joins no access entry
//!   in the same log (warning: exemplars are last-writer-wins).
//!
//! Every lint is inert on records lacking the fields it reads, so logs from
//! older builds analyze cleanly.

use crate::diag::{Code, Report};
use crate::json::Value;
use crate::telemetry::StreamRecord;
use std::collections::{HashMap, HashSet};

/// Slack on phase-accounting sums: the daemon computes the durations from
/// the same Instants it logs, so only f64 rounding can separate them.
const PHASE_SUM_EPS: f64 = 1e-6;

/// Per-dispatch bookkeeping for M122: each distinct `(trace_id,
/// parent_id)` identity seen on a batch's variant entries, keyed to the
/// first line that carried it.
type BatchIdentities = HashMap<(String, Option<String>), usize>;

/// Runs the `M090`–`M093` and `M120`–`M124` lints over pre-parsed stream
/// records.
pub fn trace_lints(records: &[StreamRecord], report: &mut Report) {
    // conn -> [(seq, t_recv_s, lineno)]
    let mut conns: HashMap<u64, Vec<(u64, f64, usize)>> = HashMap::new();
    // trace_id -> span_id -> first lineno (M121 duplicate-span detection).
    let mut spans_by_trace: HashMap<String, HashMap<String, usize>> = HashMap::new();
    // (conn, batch id) -> distinct (trace_id, parent_id) -> first lineno.
    let mut batches: HashMap<(u64, String), BatchIdentities> = HashMap::new();
    // Trace ids seen on well-formed access entries (the M124 join target).
    let mut access_traces: HashSet<String> = HashSet::new();
    // (exemplar trace id, histogram name, lineno) awaiting the join check.
    let mut exemplars: Vec<(String, String, usize)> = Vec::new();

    for rec in records {
        let v = &rec.value;
        match v.get("type").and_then(Value::as_str) {
            Some("access") => {}
            Some("flight_dump") => {
                check_flight_dump(v, &format!("line {}", rec.lineno), report);
                continue;
            }
            Some("hist_snapshot") => {
                let name = v.get("name").and_then(Value::as_str).unwrap_or("?");
                for e in v.get("exemplars").and_then(Value::as_array).unwrap_or(&[]) {
                    if let Some(t) = e.get("trace_id").and_then(Value::as_str) {
                        exemplars.push((t.to_owned(), name.to_owned(), rec.lineno));
                    }
                }
                continue;
            }
            _ => continue,
        }
        let id = v.get("id").and_then(Value::as_str).unwrap_or("?");
        let ctx = format!("line {} (id {id})", rec.lineno);

        // --- M120/M121/M122 bookkeeping: trace identity --------------------
        if let Some((trace_id, span_id, parent_id)) = check_trace_identity(v, &ctx, report) {
            access_traces.insert(trace_id.clone());
            if parent_id.as_deref() == Some(span_id.as_str()) {
                report.push(
                    Code::TraceSpanConflict,
                    ctx.clone(),
                    format!("span {span_id} of trace {trace_id} claims to be its own parent"),
                );
            }
            let trace_spans = spans_by_trace.entry(trace_id.clone()).or_default();
            if let Some(&first) = trace_spans.get(&span_id) {
                report.push(
                    Code::TraceSpanConflict,
                    ctx.clone(),
                    format!(
                        "span id {span_id} of trace {trace_id} already appeared on \
                         line {first} — server spans are minted fresh per request"
                    ),
                );
            } else {
                trace_spans.insert(span_id, rec.lineno);
            }
            if let Some(batch) = v.get("batch").and_then(Value::as_str) {
                let conn = v.get("conn").and_then(Value::as_usize).unwrap_or(0) as u64;
                batches
                    .entry((conn, batch.to_owned()))
                    .or_default()
                    .entry((trace_id, parent_id))
                    .or_insert(rec.lineno);
            }
        }
        let ts = |key: &str| v.get(key).and_then(Value::as_f64);
        let (recv, enq, deq, done) =
            (ts("t_recv_s"), ts("t_enqueue_s"), ts("t_dequeue_s"), ts("t_done_s"));

        // --- M090: timestamp ordering --------------------------------------
        if let (Some(recv), Some(enq), Some(deq), Some(done)) = (recv, enq, deq, done) {
            let phases = [("recv", recv), ("enqueue", enq), ("dequeue", deq), ("done", done)];
            for w in phases.windows(2) {
                if w[0].1 > w[1].1 {
                    report.push(
                        Code::TimestampOrder,
                        ctx.clone(),
                        format!(
                            "t_{}_s = {} comes after t_{}_s = {} — the request pipeline \
                             is recv ≤ enqueue ≤ dequeue ≤ done on one monotone clock",
                            w[0].0, w[0].1, w[1].0, w[1].1
                        ),
                    );
                }
            }

            // --- M092: phase accounting sums to the timestamp deltas -------
            let sums =
                [("queue_wait_s", deq - enq), ("service_s", done - deq), ("total_s", done - recv)];
            for (field, expect) in sums {
                if let Some(got) = ts(field) {
                    if (got - expect).abs() > PHASE_SUM_EPS {
                        report.push(
                            Code::PhaseAccounting,
                            ctx.clone(),
                            format!(
                                "{field} = {got} but the phase timestamps imply {expect} — \
                                 queue-wait accounting does not sum"
                            ),
                        );
                    }
                }
            }
        }

        // --- M093 bookkeeping ---------------------------------------------
        if let (Some(conn), Some(seq), Some(recv)) =
            (v.get("conn").and_then(Value::as_usize), v.get("seq").and_then(Value::as_usize), recv)
        {
            conns.entry(conn as u64).or_default().push((seq as u64, recv, rec.lineno));
        }

        // --- M091: span-tree well-formedness -------------------------------
        if let Some(spans) = v.get("spans").and_then(Value::as_array) {
            let truncated =
                v.get("spans_truncated").and_then(Value::as_f64).is_some_and(|n| n > 0.0);
            check_span_tree(spans, truncated, &ctx, report);
        }
    }

    // --- M093: per-connection monotonicity --------------------------------
    for (conn, mut entries) in conns {
        entries.sort_by_key(|&(seq, _, _)| seq);
        for w in entries.windows(2) {
            let ((s0, t0, _), (s1, t1, l1)) = (w[0], w[1]);
            if s0 == s1 {
                report.push(
                    Code::SeqNonMonotonic,
                    format!("line {l1}"),
                    format!("connection {conn} logged sequence number {s1} twice"),
                );
            } else if t1 < t0 {
                report.push(
                    Code::SeqNonMonotonic,
                    format!("line {l1}"),
                    format!(
                        "connection {conn}: seq {s1} was received at {t1} s, before \
                         seq {s0} at {t0} s — the I/O thread reads a connection \
                         in order"
                    ),
                );
            }
        }
    }

    // --- M122: batch variants share one dispatch trace --------------------
    for ((conn, batch), traces) in batches {
        if traces.len() > 1 {
            let mut where_seen: Vec<String> = traces
                .iter()
                .map(|((t, p), line)| {
                    format!("line {line}: trace {t} parent {}", p.as_deref().unwrap_or("null"))
                })
                .collect();
            where_seen.sort();
            report.push(
                Code::BatchTraceDisagreement,
                format!("batch {batch} (conn {conn})"),
                format!(
                    "the variants of one solve_batch must share one trace id and one \
                     dispatch-span parent, but {} distinct identities appear: {}",
                    traces.len(),
                    where_seen.join("; ")
                ),
            );
        }
    }

    // --- M124: exemplars join the access log ------------------------------
    // Only meaningful when the log carries traced access entries at all; a
    // histogram-only artifact has nothing to join against.
    if !access_traces.is_empty() {
        for (trace_id, name, lineno) in exemplars {
            if !access_traces.contains(&trace_id) {
                report.push(
                    Code::ExemplarUnjoined,
                    format!("line {lineno}"),
                    format!(
                        "histogram '{name}' exemplar points at trace {trace_id}, which \
                         no access entry in this log carries"
                    ),
                );
            }
        }
    }
}

/// Validates one access entry's trace identity triple (`M120`) and returns
/// it when well-formed. Entries with none of the three members are legacy
/// logs and stay inert.
fn check_trace_identity(
    v: &Value,
    ctx: &str,
    report: &mut Report,
) -> Option<(String, String, Option<String>)> {
    let (t, s, p) = (v.get("trace_id"), v.get("span_id"), v.get("parent_id"));
    if t.is_none() && s.is_none() && p.is_none() {
        return None;
    }
    let mut ok = true;
    let mut id_of = |member: Option<&Value>, name: &str, digits: usize| -> Option<String> {
        match member {
            Some(Value::String(hex)) if well_formed_hex(hex, digits) => Some(hex.clone()),
            Some(Value::String(hex)) => {
                ok = false;
                report.push(
                    Code::TraceFieldMalformed,
                    ctx.to_owned(),
                    format!("{name} '{hex}' is not {digits} nonzero lowercase hex digits"),
                );
                None
            }
            Some(_) => {
                ok = false;
                report.push(
                    Code::TraceFieldMalformed,
                    ctx.to_owned(),
                    format!("{name} must be a hex string"),
                );
                None
            }
            None => {
                ok = false;
                report.push(
                    Code::TraceFieldMalformed,
                    ctx.to_owned(),
                    format!("trace identity is partial: '{name}' is missing"),
                );
                None
            }
        }
    };
    let trace_id = id_of(t, "trace_id", 32);
    let span_id = id_of(s, "span_id", 16);
    let parent_id = match p {
        Some(Value::Null) => None,
        other => id_of(other, "parent_id", 16),
    };
    match (trace_id, span_id) {
        (Some(t), Some(s)) if ok => Some((t, s, parent_id)),
        _ => None,
    }
}

/// `true` when `hex` is exactly `digits` lowercase hex digits and nonzero.
fn well_formed_hex(hex: &str, digits: usize) -> bool {
    hex.len() == digits
        && hex.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        && hex.bytes().any(|b| b != b'0')
}

/// Checks one `flight_dump` line's ring accounting (`M123`): the snapshot
/// protocol guarantees strictly increasing sequence numbers below `head`,
/// `dropped == max(0, head − capacity)`, and no more entries than the ring
/// could hold.
fn check_flight_dump(v: &Value, ctx: &str, report: &mut Report) {
    let num = |key: &str| v.get(key).and_then(Value::as_f64);
    let (Some(head), Some(capacity), Some(dropped)) =
        (num("head"), num("capacity"), num("dropped"))
    else {
        report.push(
            Code::FlightDumpBroken,
            ctx.to_owned(),
            "flight dump lacks head/capacity/dropped accounting",
        );
        return;
    };
    let expect_dropped = (head - capacity).max(0.0);
    if (dropped - expect_dropped).abs() > 0.5 {
        report.push(
            Code::FlightDumpBroken,
            ctx.to_owned(),
            format!(
                "dropped = {dropped} but head {head} over capacity {capacity} \
                 implies {expect_dropped}"
            ),
        );
    }
    let entries = v.get("entries").and_then(Value::as_array).unwrap_or(&[]);
    let torn = num("torn").unwrap_or(0.0);
    #[allow(clippy::cast_precision_loss)]
    let held = entries.len() as f64 + torn;
    if held > head.min(capacity) + 0.5 {
        report.push(
            Code::FlightDumpBroken,
            ctx.to_owned(),
            format!(
                "{} entries plus {torn} torn exceed the {} slots the ring \
                 could hold (head {head}, capacity {capacity})",
                entries.len(),
                head.min(capacity)
            ),
        );
    }
    let mut prev: Option<f64> = None;
    for e in entries {
        let Some(seq) = e.get("seq").and_then(Value::as_f64) else {
            report.push(Code::FlightDumpBroken, ctx.to_owned(), "flight entry lacks a seq");
            continue;
        };
        if seq >= head {
            report.push(
                Code::FlightDumpBroken,
                ctx.to_owned(),
                format!("flight entry seq {seq} is at or past head {head}"),
            );
        }
        if prev.is_some_and(|p| seq <= p) {
            report.push(
                Code::FlightDumpBroken,
                ctx.to_owned(),
                format!(
                    "flight entry seqs must strictly increase, got {seq} after {}",
                    prev.unwrap_or(0.0)
                ),
            );
        }
        prev = Some(seq);
    }
}

fn check_span_tree(spans: &[Value], truncated: bool, ctx: &str, report: &mut Report) {
    let mut totals: HashMap<&str, f64> = HashMap::new();
    for s in spans {
        let Some(path) = s.get("path").and_then(Value::as_str) else { continue };
        let total = s.get("total_s").and_then(Value::as_f64).unwrap_or(0.0);
        if totals.insert(path, total).is_some() {
            report.push(
                Code::SpanTreeMalformed,
                ctx.to_owned(),
                format!("span path '{path}' appears twice in one trace"),
            );
        }
        if let Some(depth) = s.get("depth").and_then(Value::as_usize) {
            let nesting = path.matches('/').count();
            if depth != nesting {
                report.push(
                    Code::SpanTreeMalformed,
                    ctx.to_owned(),
                    format!(
                        "span '{path}' records depth {depth} but its path nests \
                         {nesting} level(s)"
                    ),
                );
            }
        }
    }
    for s in spans {
        let Some(path) = s.get("path").and_then(Value::as_str) else { continue };
        let Some((parent, _)) = path.rsplit_once('/') else { continue };
        match totals.get(parent) {
            // A truncated span list may have cut the parent: the orphan
            // check only holds on complete trees.
            None if truncated => {}
            None => report.push(
                Code::SpanTreeMalformed,
                ctx.to_owned(),
                format!("span '{path}' has no parent span '{parent}' in the trace"),
            ),
            Some(&parent_total) => {
                let child_total = s.get("total_s").and_then(Value::as_f64).unwrap_or(0.0);
                if child_total > parent_total + 1e-9 {
                    report.push(
                        Code::SpanTreeMalformed,
                        ctx.to_owned(),
                        format!(
                            "span '{path}' total {child_total} s exceeds its parent \
                             '{parent}' total {parent_total} s"
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::load_stream;

    /// A pristine access line with the full v2 lifecycle and trace fields.
    const PRISTINE: &str = r#"{"type":"access","t_s":2.0,"id":"s1","op":"solve","solver":"ao","status":"ok","cached":false,"conn":1,"seq":0,"key":"00000000deadbeef","trace_id":"0123456789abcdef0123456789abcdef","span_id":"00000000000000a1","parent_id":null,"t_recv_s":1.0,"t_enqueue_s":1.001,"t_dequeue_s":1.005,"t_done_s":1.105,"queue_wait_s":0.004,"service_s":0.1,"total_s":0.105,"spans":[{"path":"ao.solve","calls":1,"total_s":0.09,"self_s":0.01,"depth":0},{"path":"ao.solve/ao.sweep_m","calls":1,"total_s":0.08,"self_s":0.08,"depth":1}]}"#;

    fn lint(text: &str) -> Report {
        let mut r = Report::new();
        trace_lints(&load_stream(text).unwrap(), &mut r);
        r
    }

    #[test]
    fn pristine_line_is_clean() {
        let r = lint(PRISTINE);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn timestamp_inversion_is_m090() {
        // dequeue before enqueue
        let bad = PRISTINE.replace(r#""t_dequeue_s":1.005"#, r#""t_dequeue_s":0.9"#);
        let r = lint(&bad);
        assert!(r.has_code(Code::TimestampOrder), "{r}");
        assert!(r.has_errors());

        // done before recv
        let bad = PRISTINE.replace(r#""t_done_s":1.105"#, r#""t_done_s":0.5"#);
        assert!(lint(&bad).has_code(Code::TimestampOrder));
    }

    #[test]
    fn accounting_mismatch_is_m092() {
        for (field, forged) in [
            (r#""queue_wait_s":0.004"#, r#""queue_wait_s":0.4"#),
            (r#""service_s":0.1"#, r#""service_s":0.9"#),
            (r#""total_s":0.105"#, r#""total_s":9.0"#),
        ] {
            let bad = PRISTINE.replace(field, forged);
            let r = lint(&bad);
            assert!(r.has_code(Code::PhaseAccounting), "{field}:\n{r}");
        }
    }

    #[test]
    fn span_tree_defects_are_m091() {
        // Orphan child: rename the root away.
        let bad = PRISTINE.replace(
            r#""path":"ao.solve","calls":1,"total_s":0.09"#,
            r#""path":"other.root","calls":1,"total_s":0.09"#,
        );
        assert!(lint(&bad).has_code(Code::SpanTreeMalformed), "orphan");

        // Child total exceeding the parent's.
        let bad = PRISTINE.replace(r#""total_s":0.08"#, r#""total_s":0.5"#);
        assert!(lint(&bad).has_code(Code::SpanTreeMalformed), "child > parent");

        // Duplicate path.
        let bad = PRISTINE.replace(
            r#"{"path":"ao.solve/ao.sweep_m","calls":1,"total_s":0.08,"self_s":0.08,"depth":1}"#,
            r#"{"path":"ao.solve","calls":1,"total_s":0.01,"self_s":0.01,"depth":0}"#,
        );
        assert!(lint(&bad).has_code(Code::SpanTreeMalformed), "duplicate");

        // Depth disagreeing with the path.
        let bad = PRISTINE.replace(r#""self_s":0.08,"depth":1"#, r#""self_s":0.08,"depth":3"#);
        assert!(lint(&bad).has_code(Code::SpanTreeMalformed), "depth");
    }

    #[test]
    fn per_connection_seq_defects_are_m093() {
        let second = PRISTINE
            .replace(r#""seq":0"#, r#""seq":1"#)
            .replace(r#""id":"s1""#, r#""id":"s2""#)
            .replace(r#""span_id":"00000000000000a1""#, r#""span_id":"00000000000000a2""#)
            .replace(r#""t_recv_s":1.0"#, r#""t_recv_s":1.2"#)
            .replace(r#""t_enqueue_s":1.001"#, r#""t_enqueue_s":1.201"#)
            .replace(r#""t_dequeue_s":1.005"#, r#""t_dequeue_s":1.205"#)
            .replace(r#""t_done_s":1.105"#, r#""t_done_s":1.305"#);
        let good = format!("{PRISTINE}\n{second}\n");
        assert!(lint(&good).is_clean(), "{}", lint(&good));

        // Duplicate seq on one connection.
        let dup = second.replace(r#""seq":1"#, r#""seq":0"#);
        let r = lint(&format!("{PRISTINE}\n{dup}\n"));
        assert!(r.has_code(Code::SeqNonMonotonic), "{r}");

        // Receive time regressing as seq increases.
        let regress = second.replace(r#""t_recv_s":1.2"#, r#""t_recv_s":0.2"#);
        let r = lint(&format!("{PRISTINE}\n{regress}\n"));
        assert!(r.has_code(Code::SeqNonMonotonic), "{r}");

        // Same seq on a *different* connection is fine.
        let other_conn = second.replace(r#""conn":1,"seq":1"#, r#""conn":2,"seq":0"#);
        let r = lint(&format!("{PRISTINE}\n{other_conn}\n"));
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn old_logs_without_lifecycle_fields_are_inert() {
        let legacy = r#"{"type":"access","t_s":1.0,"id":"s1","op":"solve","solver":"ao","status":"ok","cached":false,"queue_wait_s":0.0,"service_s":0.1,"total_s":0.1}"#;
        let r = lint(legacy);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn malformed_trace_identity_is_m120() {
        // Uppercase hex.
        let bad = PRISTINE
            .replace("0123456789abcdef0123456789abcdef", "0123456789ABCDEF0123456789ABCDEF");
        assert!(lint(&bad).has_code(Code::TraceFieldMalformed), "uppercase");

        // All-zero trace id.
        let bad = PRISTINE
            .replace("0123456789abcdef0123456789abcdef", "00000000000000000000000000000000");
        assert!(lint(&bad).has_code(Code::TraceFieldMalformed), "zero");

        // Wrong width.
        let bad = PRISTINE.replace(r#""span_id":"00000000000000a1""#, r#""span_id":"a1""#);
        assert!(lint(&bad).has_code(Code::TraceFieldMalformed), "width");

        // Partial identity: span_id present without trace_id.
        let bad = PRISTINE.replace(r#""trace_id":"0123456789abcdef0123456789abcdef","#, "");
        assert!(lint(&bad).has_code(Code::TraceFieldMalformed), "partial");

        // Wrong JSON type.
        let bad = PRISTINE.replace(r#""span_id":"00000000000000a1""#, r#""span_id":161"#);
        assert!(lint(&bad).has_code(Code::TraceFieldMalformed), "type");
    }

    #[test]
    fn span_conflicts_are_m121() {
        // Two entries of one trace reusing one span id.
        let second =
            PRISTINE.replace(r#""id":"s1""#, r#""id":"s2""#).replace(r#""seq":0"#, r#""seq":1"#);
        let r = lint(&format!("{PRISTINE}\n{second}\n"));
        assert!(r.has_code(Code::TraceSpanConflict), "{r}");

        // An entry that is its own parent.
        let own = PRISTINE.replace(r#""parent_id":null"#, r#""parent_id":"00000000000000a1""#);
        let r = lint(&own);
        assert!(r.has_code(Code::TraceSpanConflict), "{r}");

        // The same span id on a *different* trace is fine.
        let other_trace = PRISTINE
            .replace(r#""id":"s1""#, r#""id":"s2""#)
            .replace(r#""seq":0"#, r#""seq":1"#)
            .replace("0123456789abcdef0123456789abcdef", "fedcba9876543210fedcba9876543210");
        let r = lint(&format!("{PRISTINE}\n{other_trace}\n"));
        assert!(r.is_clean(), "{r}");
    }

    /// A batch access entry: one variant of batch `b1` on conn 1.
    fn batch_line(id: &str, seq: u64, trace: &str, span: &str, parent: &str) -> String {
        format!(
            r#"{{"type":"access","t_s":2.0,"id":"{id}","op":"solve_batch","solver":"ao","status":"ok","cached":false,"conn":1,"seq":{seq},"batch":"b1","trace_id":"{trace}","span_id":"{span}","parent_id":"{parent}","t_recv_s":1.0,"t_enqueue_s":1.001,"t_dequeue_s":1.005,"t_done_s":1.105,"queue_wait_s":0.004,"service_s":0.1,"total_s":0.105}}"#
        )
    }

    #[test]
    fn batch_trace_disagreement_is_m122() {
        const T1: &str = "0123456789abcdef0123456789abcdef";
        const T2: &str = "fedcba9876543210fedcba9876543210";
        // Two variants sharing the dispatch span: clean.
        let agree = format!(
            "{}\n{}\n",
            batch_line("b1#0", 0, T1, "00000000000000b1", "00000000000000d1"),
            batch_line("b1#1", 1, T1, "00000000000000b2", "00000000000000d1"),
        );
        assert!(lint(&agree).is_clean(), "{}", lint(&agree));

        // A variant on a different trace id: M122.
        let disagree = format!(
            "{}\n{}\n",
            batch_line("b1#0", 0, T1, "00000000000000b1", "00000000000000d1"),
            batch_line("b1#1", 1, T2, "00000000000000b2", "00000000000000d1"),
        );
        assert!(lint(&disagree).has_code(Code::BatchTraceDisagreement), "{}", lint(&disagree));

        // A variant hanging off a different dispatch span: M122.
        let forked = format!(
            "{}\n{}\n",
            batch_line("b1#0", 0, T1, "00000000000000b1", "00000000000000d1"),
            batch_line("b1#1", 1, T1, "00000000000000b2", "00000000000000d2"),
        );
        assert!(lint(&forked).has_code(Code::BatchTraceDisagreement), "{}", lint(&forked));
    }

    #[test]
    fn broken_flight_dumps_are_m123() {
        const DUMP: &str = r#"{"type":"flight_dump","reason":"deadline","t_s":3.0,"head":6,"capacity":4,"dropped":2,"torn":0,"entries":[{"seq":2,"t_us":10,"kind":"recv","trace_id":"0123456789abcdef0123456789abcdef","span_id":"00000000000000a1","value":0},{"seq":3,"t_us":20,"kind":"done","trace_id":"0123456789abcdef0123456789abcdef","span_id":"00000000000000a1","value":5}]}"#;
        assert!(lint(DUMP).is_clean(), "{}", lint(DUMP));

        // Wrong dropped accounting.
        let bad = DUMP.replace(r#""dropped":2"#, r#""dropped":0"#);
        assert!(lint(&bad).has_code(Code::FlightDumpBroken), "dropped");

        // Non-increasing entry seqs.
        let bad = DUMP.replace(r#""seq":3"#, r#""seq":2"#);
        assert!(lint(&bad).has_code(Code::FlightDumpBroken), "seq order");

        // Entry seq at or past head.
        let bad = DUMP.replace(r#""seq":3"#, r#""seq":6"#);
        assert!(lint(&bad).has_code(Code::FlightDumpBroken), "seq >= head");

        // More entries than the ring holds.
        let bad = DUMP.replace(r#""torn":0"#, r#""torn":9"#);
        assert!(lint(&bad).has_code(Code::FlightDumpBroken), "overfull");

        // Missing accounting members entirely.
        let bad = DUMP.replace(r#""head":6,"capacity":4,"dropped":2,"#, "");
        assert!(lint(&bad).has_code(Code::FlightDumpBroken), "missing accounting");
    }

    #[test]
    fn unjoined_exemplars_are_m124_warnings() {
        const SNAP: &str = r#"{"type":"hist_snapshot","t_s":4.0,"name":"solve_total","exemplars":[{"le":0.25,"trace_id":"0123456789abcdef0123456789abcdef","value":0.2}]}"#;
        // Exemplar joins the pristine access line's trace: clean.
        let joined = format!("{PRISTINE}\n{SNAP}\n");
        assert!(lint(&joined).is_clean(), "{}", lint(&joined));

        // Exemplar pointing at a trace no access entry carries: M124 warning.
        let orphan =
            SNAP.replace("0123456789abcdef0123456789abcdef", "fedcba9876543210fedcba9876543210");
        let r = lint(&format!("{PRISTINE}\n{orphan}\n"));
        assert!(r.has_code(Code::ExemplarUnjoined), "{r}");
        assert!(!r.has_errors(), "M124 is a warning:\n{r}");

        // A histogram-only artifact has nothing to join against: inert.
        let alone = lint(&orphan);
        assert!(alone.is_clean(), "{alone}");
    }

    #[test]
    fn truncated_span_lists_skip_the_orphan_check() {
        // Drop the root span and mark the list truncated: the parent may be
        // in the cut, so no M091.
        let cut = PRISTINE
            .replace(r#"{"path":"ao.solve","calls":1,"total_s":0.09,"self_s":0.01,"depth":0},"#, "")
            .replace(r#""spans":["#, r#""spans_truncated":3,"spans":["#);
        let r = lint(&cut);
        assert!(r.is_clean(), "{r}");

        // Without the marker the same cut is an orphan.
        let orphan = cut.replace(r#""spans_truncated":3,"#, "");
        assert!(lint(&orphan).has_code(Code::SpanTreeMalformed));
    }
}
