//! Interleaving property test: for randomized multi-connection workloads —
//! pipelined bursts, mid-request disconnects, deadline expiries, protocol
//! ops — each connection's response stream under concurrent interleaving
//! must be byte-identical to the same script replayed alone on a fresh
//! server (modulo fields that are volatile by construction: wall-clock
//! timings, cache/registry warmth, and live counters).
#![cfg(unix)]

mod common;

use common::start;
use mosc_analyze::json::Value;
use mosc_serve::proto::value_to_json;
use mosc_serve::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mosc_testutil::{propcheck_cases, Rng64};

const PLATFORMS: &[&str] = &[
    r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":58.0}"#,
    r#"{"rows":1,"cols":3,"levels":[0.6,1.3],"t_max_c":58.5}"#,
    r#"{"rows":1,"cols":2,"levels":[0.6,1.0,1.3],"t_max_c":59.0}"#,
];

/// One scripted client connection: the request lines it writes (as one
/// pipelined burst) and whether it disconnects mid-line afterwards.
#[derive(Clone, Debug)]
struct Script {
    lines: Vec<String>,
    /// Sends these bytes *without* a newline, then closes: a mid-request
    /// disconnect the server must absorb without answering or crashing.
    partial_tail: Option<String>,
}

fn random_script(rng: &mut Rng64, conn: usize) -> Script {
    let n = 1 + rng.below(4);
    let lines = (0..n)
        .map(|i| {
            let id = format!("c{conn}r{i}");
            match rng.below(6) {
                0 => format!(r#"{{"id":"{id}","op":"ping"}}"#),
                1 => format!(r#"{{"id":"{id}","op":"hello","max_version":1}}"#),
                2 => format!(r#"{{"id":"{id}","op":"nonsense-op"}}"#),
                // A zero deadline expires while queued: a `deadline`
                // error, since no line caches an EXS answer it could hit
                // instead.
                3 => {
                    let p = PLATFORMS[rng.below(PLATFORMS.len() as u64) as usize];
                    format!(
                        r#"{{"id":"{id}","solver":"exs","platform":{p},"options":{{"deadline_ms":0}}}}"#
                    )
                }
                _ => {
                    let p = PLATFORMS[rng.below(PLATFORMS.len() as u64) as usize];
                    let solver = if rng.below(2) == 0 { "ao" } else { "lns" };
                    format!(r#"{{"id":"{id}","solver":"{solver}","platform":{p}}}"#)
                }
            }
        })
        .collect();
    let partial_tail =
        (rng.below(3) == 0).then(|| r#"{"id":"never","solver":"ao","pla"#.to_owned());
    Script { lines, partial_tail }
}

/// Normalizes one response line: volatile members (timings, cache/registry
/// warmth, live stats) are masked, then the document is re-serialized
/// canonically so member order cannot differ.
fn normalize(line: &str) -> String {
    let mut doc = Value::parse(line).unwrap_or_else(|e| panic!("response parses ({e:?}): {line}"));
    mask(&mut doc);
    value_to_json(&doc)
}

fn mask(doc: &mut Value) {
    if let Value::Object(members) = doc {
        for (name, value) in members.iter_mut() {
            match name.as_str() {
                "wall_ms" => *value = Value::Number(-1.0),
                "cached" => *value = Value::Bool(false),
                "registry" => *value = Value::String("masked".to_owned()),
                "results" => {
                    if let Value::Array(items) = value {
                        for item in items {
                            mask(item);
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Runs every script concurrently against a fresh single-worker server;
/// returns each connection's normalized responses, sorted.
fn run_scripts(scripts: &[Script]) -> Vec<Vec<String>> {
    let (addr, handle, join) = start(Server::builder().workers(1).queue_capacity(64));

    let clients: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|script| std::thread::spawn(move || run_client(addr, &script)))
        .collect();
    let outputs: Vec<Vec<String>> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();

    handle.shutdown();
    join.join().expect("server thread");
    outputs
}

fn run_client(addr: SocketAddr, script: &Script) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let burst: String = script.lines.iter().map(|l| format!("{l}\n")).collect();
    stream.write_all(burst.as_bytes()).expect("send burst");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut responses = Vec::with_capacity(script.lines.len());
    for _ in 0..script.lines.len() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        responses.push(normalize(&line));
    }
    if let Some(tail) = &script.partial_tail {
        // Mid-request disconnect: write a fragment, never the newline.
        let _ = stream.write_all(tail.as_bytes());
    }
    drop(stream);
    // Ops answered on the I/O thread (ping, cache hits) race
    // worker-answered solves, so per-connection arrival order of mixed
    // kinds is legitimately nondeterministic; the response *set* per
    // connection is not. Ids embed the request index, so sorting gives a
    // canonical order.
    responses.sort();
    responses
}

/// Each script replayed alone, one fresh server per script.
fn run_alone(scripts: &[Script]) -> Vec<Vec<String>> {
    scripts.iter().map(|script| run_scripts(std::slice::from_ref(script)).remove(0)).collect()
}

#[test]
fn interleaved_streams_match_each_script_replayed_alone() {
    // Few cases, real solves: each case runs one server per script plus
    // the shared one.
    propcheck_cases("interleaved vs. solo response streams", 6, |rng| {
        let scripts: Vec<Script> =
            (0..2 + rng.below(3)).map(|i| random_script(rng, i as usize)).collect();
        let interleaved = run_scripts(&scripts);
        assert_eq!(interleaved, run_alone(&scripts), "interleaving changed a stream: {scripts:?}");
    });
}

#[test]
fn deadline_and_disconnect_heavy_workload_matches() {
    // A fixed adversarial script mix: every connection ends in a
    // mid-request disconnect, half the requests carry an already-expired
    // deadline.
    let scripts: Vec<Script> = (0..3)
        .map(|c| Script {
            lines: (0..3)
                .map(|i| {
                    let id = format!("d{c}r{i}");
                    if i % 2 == 0 {
                        let p = PLATFORMS[c % PLATFORMS.len()];
                        format!(
                            r#"{{"id":"{id}","solver":"ao","platform":{p},"options":{{"deadline_ms":0}}}}"#
                        )
                    } else {
                        format!(r#"{{"id":"{id}","op":"ping"}}"#)
                    }
                })
                .collect(),
            partial_tail: Some(r#"{"id":"torn","op":"pi"#.to_owned()),
        })
        .collect();
    let interleaved = run_scripts(&scripts);
    assert_eq!(interleaved, run_alone(&scripts));
    for (c, responses) in interleaved.iter().enumerate() {
        // Sorted ids are exactly the request ids: every request answered,
        // nothing invented, and the torn tail got no response.
        let ids: Vec<String> = responses
            .iter()
            .map(|r| {
                let doc = Value::parse(r).expect("normalized response parses");
                doc.get("id").and_then(Value::as_str).expect("id").to_owned()
            })
            .collect();
        let want: Vec<String> = (0..3).map(|i| format!("d{c}r{i}")).collect();
        assert_eq!(ids, want, "{responses:?}");
    }
}

/// An idle connection is closed, an active one survives.
#[test]
fn idle_connections_are_reaped() {
    let (addr, handle, join) =
        start(Server::builder().workers(1).idle_timeout(Duration::from_millis(300)));

    let idle = TcpStream::connect(addr).expect("connect idle");
    let mut reader = BufReader::new(idle.try_clone().expect("clone"));
    // The server must close the idle connection: read_line returns 0.
    idle.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("idle close yields clean EOF");
    assert_eq!(n, 0, "idle connection reaped: {line:?}");

    // A connection that stays active outlives several idle windows.
    let mut active = TcpStream::connect(addr).expect("connect active");
    let mut active_reader = BufReader::new(active.try_clone().expect("clone"));
    for i in 0..4 {
        std::thread::sleep(Duration::from_millis(150));
        active
            .write_all(format!("{{\"id\":\"keep{i}\",\"op\":\"ping\"}}\n").as_bytes())
            .expect("send ping");
        let mut pong = String::new();
        active_reader.read_line(&mut pong).expect("read pong");
        assert!(pong.contains("pong"), "active connection stays up: {pong:?}");
    }
    handle.shutdown();
    join.join().expect("server thread");
}
