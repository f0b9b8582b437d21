//! `solve_batch` observability loopback: per-variant access-log entries
//! with registry attribution, and the full `mosc-analyze` lint suite over
//! the resulting log — the same audit `ci.sh` runs against a live daemon.
//!
//! This file is its own test binary and holds exactly one `#[test]`: it
//! enables the process-global `mosc-obs` recorder, which must not race the
//! other loopback tests' assumptions.
#![cfg(unix)]

mod common;

use common::{roundtrip, start};
use mosc_analyze::json::Value;
use mosc_serve::Server;

/// A platform no other test interns: the registry is process-global.
const PLATFORM: &str = r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":57.0}"#;

#[test]
fn batch_access_entries_carry_registry_attribution_and_lint_clean() {
    mosc_obs::enable();
    let log_path =
        std::env::temp_dir().join(format!("mosc-serve-batch-access-{}.jsonl", std::process::id()));
    let (addr, _handle, join) =
        start(Server::builder().workers(2).access_log(log_path.to_string_lossy().into_owned()));

    // Cold batch: the resolve builds the platform, so variant 0's entry
    // carries the eigendecomposition work.
    let cold = format!(
        r#"{{"id":"cb","op":"solve_batch","platform":{PLATFORM},"variants":[{{"solver":"ao"}},{{"solver":"lns"}}]}}"#
    );
    let doc = roundtrip(addr, &cold);
    assert_eq!(doc.get("registry").and_then(Value::as_str), Some("cold"), "{doc:?}");

    // Warm batch, identical variants: answered from the solution cache.
    let doc = roundtrip(addr, &cold.replace(r#""id":"cb""#, r#""id":"wh""#));
    assert_eq!(doc.get("registry").and_then(Value::as_str), Some("warm"), "{doc:?}");

    // Warm batch, *fresh* cache keys (threads is part of the key but does
    // not change the math): a real solve on the interned platform — the
    // case the M110 lint polices, zero eigendecompositions.
    let warm_miss = format!(
        r#"{{"id":"wm","op":"solve_batch","platform":{PLATFORM},"variants":[{{"solver":"ao","options":{{"threads":2}}}}]}}"#
    );
    let doc = roundtrip(addr, &warm_miss);
    assert_eq!(doc.get("registry").and_then(Value::as_str), Some("warm"), "{doc:?}");
    let results = doc.get("results").and_then(Value::as_array).expect("results");
    assert_eq!(results[0].get("cached").and_then(Value::as_bool), Some(false), "{doc:?}");

    roundtrip(addr, r#"{"id":"q","op":"shutdown"}"#);
    join.join().expect("server thread");
    let log = std::fs::read_to_string(&log_path).expect("access log exists");
    let _ = std::fs::remove_file(&log_path);

    let f = |doc: &Value, name: &str| doc.get(name).and_then(Value::as_f64).unwrap();
    let mut batch_lines = 0;
    for line in log.lines() {
        let doc = Value::parse(line).expect("access log line parses");
        if doc.get("type").and_then(Value::as_str) != Some("access") {
            continue;
        }
        let Some(batch) = doc.get("batch").and_then(Value::as_str) else { continue };
        batch_lines += 1;
        let id = doc.get("id").and_then(Value::as_str).unwrap();
        assert!(id.starts_with(&format!("{batch}#")), "variant ids derive from the batch: {line}");
        assert_eq!(doc.get("op").and_then(Value::as_str), Some("solve"), "{line}");
        match batch {
            "cb" => {
                assert_eq!(f(&doc, "registry_misses"), 1.0, "cold batch: {line}");
                assert_eq!(f(&doc, "registry_hits"), 0.0, "cold batch: {line}");
                if id == "cb#0" {
                    assert!(f(&doc, "eigen_calls") > 0.0, "the build lands on variant 0: {line}");
                } else {
                    assert_eq!(f(&doc, "eigen_calls"), 0.0, "{line}");
                }
            }
            "wh" | "wm" => {
                assert_eq!(f(&doc, "registry_hits"), 1.0, "warm batch: {line}");
                assert_eq!(f(&doc, "registry_misses"), 0.0, "warm batch: {line}");
                assert_eq!(
                    f(&doc, "eigen_calls"),
                    0.0,
                    "a warm resolve must do zero eigen work: {line}"
                );
                if batch == "wm" {
                    assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(false), "{line}");
                    assert!(f(&doc, "period_map_matmuls") > 0.0, "real solve on warm: {line}");
                }
            }
            other => panic!("unexpected batch id {other}: {line}"),
        }
    }
    assert_eq!(batch_lines, 5, "2 cold + 2 warm-hit + 1 warm-miss variants\n{log}");

    // The analyzer's full telemetry suite — including the M110/M111
    // registry joins — must come back clean on a healthy log.
    let report = mosc_analyze::analyze_telemetry(&log).expect("log loads as a stream");
    assert!(report.is_clean(), "lints flagged a healthy batch log:\n{report}");
    mosc_obs::disable();
}
