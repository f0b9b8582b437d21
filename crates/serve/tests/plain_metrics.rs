//! A daemon run without `--obs`: the process-global `mosc-obs` recorder
//! stays off, so the latency histograms never record. The `metrics` and
//! `stats` ops must then say "no data" — omitted gauges, `null` summary
//! values — rather than report a zero latency that reads as "fast".
//!
//! This file is its own test binary so that no other test can switch the
//! recorder on underneath it.
#![cfg(unix)]

mod common;

use common::{roundtrip, start, PLATFORM};
use mosc_analyze::json::Value;
use mosc_serve::Server;

#[test]
fn without_the_recorder_no_latency_quantile_is_reported() {
    assert!(!mosc_obs::enabled(), "this binary must run with the recorder off");
    let (addr, handle, join) = start(Server::builder().workers(1));
    for id in ["a", "b"] {
        let doc =
            roundtrip(addr, &format!(r#"{{"id":"{id}","solver":"ao","platform":{PLATFORM}}}"#));
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"), "{doc:?}");
    }

    let metrics = roundtrip(addr, r#"{"id":"m","op":"metrics"}"#);
    let text = metrics.get("metrics").and_then(Value::as_str).expect("metrics text");
    assert!(text.contains("mosc_serve_requests_total 2"), "{text}");
    assert!(text.contains("mosc_serve_queue_depth "), "other gauges stay: {text}");
    assert!(!text.contains("mosc_serve_latency_p"), "quantile gauge of an empty histogram: {text}");

    let stats = roundtrip(addr, r#"{"id":"s","op":"stats"}"#);
    let payload = stats.get("stats").expect("stats payload");
    assert_eq!(payload.get("requests").and_then(Value::as_usize), Some(2), "{payload:?}");
    for key in ["p50_ms", "p90_ms", "p99_ms", "p999_ms", "max_ms"] {
        assert_eq!(payload.get(key), Some(&Value::Null), "{key}: {payload:?}");
    }
    let local = handle.stats();
    assert_eq!((local.p50_ms, local.p99_ms, local.max_ms), (None, None, None), "{local:?}");

    handle.shutdown();
    join.join().expect("server thread");
}
