//! Regression test for stamp-then-respond ordering: a client that reads
//! its response and *immediately* scrapes the access log / stats must see
//! its own request already recorded. The I/O thread's cache-hit fast path
//! used to leave this to per-call-site convention; the `Stamped` receipt
//! in `server.rs` now makes the order a type invariant, and this test pins
//! the observable consequence — backed by the analyzer's M09x trace lints
//! over the resulting log.
#![cfg(unix)]

mod common;

use common::{start, PLATFORM};
use mosc_analyze::json::Value;
use mosc_serve::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

#[test]
fn cache_hits_are_stamped_before_the_response() {
    let log_path =
        std::env::temp_dir().join(format!("mosc-serve-stamp-{}.jsonl", std::process::id()));
    let (addr, handle, join) =
        start(Server::builder().workers(1).access_log(log_path.to_string_lossy().into_owned()));

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut roundtrip = |id: &str| -> Value {
        let line = format!(r#"{{"id":"{id}","solver":"ao","platform":{PLATFORM}}}"#);
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        Value::parse(&response).expect("response parses")
    };

    // Miss, then the identical request: the hit is answered on the I/O
    // thread without queueing.
    let miss = roundtrip("miss");
    assert_eq!(miss.get("cached").and_then(Value::as_bool), Some(false), "{miss:?}");
    let hit = roundtrip("hit");
    assert_eq!(hit.get("cached").and_then(Value::as_bool), Some(true), "{hit:?}");

    // The moment the hit's response bytes were readable, its completion
    // must already be in the counters and on disk: stamp precedes respond.
    let stats = handle.stats();
    assert!(stats.responses >= 2, "response counted before the bytes landed: {stats:?}");
    assert_eq!(stats.cache_hits, 1, "{stats:?}");
    let log_now = std::fs::read_to_string(&log_path).expect("access log readable mid-run");
    let hit_line = log_now
        .lines()
        .find(|l| l.contains(r#""id":"hit""#))
        .unwrap_or_else(|| panic!("hit must be stamped before its response is sent:\n{log_now}"));
    let doc = Value::parse(hit_line).expect("access line parses");
    assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(true), "{hit_line}");

    handle.shutdown();
    drop(stream);
    join.join().expect("server thread");

    // The full drained log must satisfy the analyzer's deny-mode lint
    // suite — including the M09x trace lints (M090 timestamp ordering,
    // M093 per-connection sequence monotonicity) that would flag a
    // response stamped after later work.
    let log = std::fs::read_to_string(&log_path).expect("access log");
    let report = mosc_analyze::analyze_telemetry(&log).expect("log loads as a stream");
    assert!(report.is_clean(), "lints flagged the stamp-order log:\n{report}");
    let _ = std::fs::remove_file(&log_path);
}
