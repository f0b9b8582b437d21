//! Loopback integration tests: a real in-process [`Server`] on `127.0.0.1:0`
//! with real TCP clients — concurrency, exactly-once responses, cache
//! counters, backpressure and drain-then-exit, all on the `specs/smoke.json`
//! platform.
#![cfg(unix)]

mod common;

use common::{roundtrip, start, PLATFORM};
use mosc_analyze::json::Value;
use mosc_serve::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn solve_line(id: &str, solver: &str) -> String {
    format!(r#"{{"id":"{id}","solver":"{solver}","platform":{PLATFORM}}}"#)
}

#[test]
fn concurrent_clients_each_get_exactly_one_response() {
    let (addr, handle, join) = start(Server::builder());
    // Warm the cache sequentially so the concurrent round is deterministic
    // (identical misses racing in parallel would each count a miss).
    roundtrip(addr, &solve_line("warm-ao", "ao"));
    roundtrip(addr, &solve_line("warm-lns", "lns"));
    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let solver = if i % 2 == 0 { "ao" } else { "lns" };
                let id = format!("c{i}");
                let doc = roundtrip(addr, &solve_line(&id, solver));
                (id, doc)
            })
        })
        .collect();
    for client in clients {
        let (id, doc) = client.join().expect("client thread");
        assert_eq!(doc.get("id").and_then(Value::as_str), Some(id.as_str()), "{doc:?}");
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"), "{doc:?}");
        assert_eq!(doc.get("feasible").and_then(Value::as_bool), Some(true), "{doc:?}");
        assert!(doc.get("throughput").and_then(Value::as_f64).unwrap_or(0.0) > 0.0);
    }
    let stats = handle.stats();
    assert_eq!(stats.requests, 10, "{stats:?}");
    assert_eq!(stats.responses, 10, "{stats:?}");
    assert_eq!(stats.cache_misses, 2, "{stats:?}");
    assert_eq!(stats.cache_hits, 8, "{stats:?}");
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn repeated_identical_requests_are_answered_from_the_cache() {
    let (addr, handle, join) = start(Server::builder());
    let first = roundtrip(addr, &solve_line("r0", "ao"));
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false), "{first:?}");
    let throughput = first.get("throughput").and_then(Value::as_f64).unwrap();
    for i in 1..4 {
        let doc = roundtrip(addr, &solve_line(&format!("r{i}"), "ao"));
        assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(true), "{doc:?}");
        let t = doc.get("throughput").and_then(Value::as_f64).unwrap();
        assert!((t - throughput).abs() < 1e-12, "cached answer must be identical");
    }
    let stats = handle.stats();
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 3), "{stats:?}");

    // The wire `stats` op reports the same counters.
    let doc = roundtrip(addr, r#"{"id":"s","op":"stats"}"#);
    let wire = doc.get("stats").expect("stats payload");
    assert_eq!(wire.get("cache_hits").and_then(Value::as_usize), Some(3), "{doc:?}");
    assert_eq!(wire.get("cache_misses").and_then(Value::as_usize), Some(1), "{doc:?}");
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn want_schedule_round_trips_through_the_text_format() {
    let (addr, handle, join) = start(Server::builder());
    let line = format!(r#"{{"id":"ws","solver":"ao","platform":{PLATFORM},"want_schedule":true}}"#);
    let doc = roundtrip(addr, &line);
    let schedule_text = doc.get("schedule").and_then(Value::as_str).expect("schedule text");
    let schedule = mosc_sched::text::from_text(schedule_text).expect("parses");
    assert_eq!(schedule.n_cores(), 2);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn a_full_queue_answers_overloaded_immediately() {
    // One worker, one queue slot. Park the worker on a deliberately slow
    // request (9-core 4-level EXS), fill the slot, then watch the next
    // request bounce.
    let (addr, handle, join) = start(Server::builder().workers(1).queue_capacity(1));
    let slow = r#"{"rows":3,"cols":3,"levels":[0.6,0.8,1.0,1.3],"t_max_c":65.0}"#;
    let parked = {
        let line = format!(
            r#"{{"id":"slow","solver":"exs","platform":{slow},"options":{{"threads":1}}}}"#
        );
        std::thread::spawn(move || roundtrip(addr, &line))
    };
    // Wait until the slow job has been queued (peak >= 1) and picked up.
    loop {
        let s = handle.stats();
        if s.queue_peak >= 1 && s.queue_depth == 0 {
            break;
        }
        std::thread::yield_now();
    }
    // Fill the single queue slot with a second distinct platform...
    let fill = r#"{"rows":1,"cols":3,"levels":[0.6,1.3],"t_max_c":55.0}"#;
    let fill_client = {
        let line = format!(r#"{{"id":"fill","solver":"exs","platform":{fill}}}"#);
        std::thread::spawn(move || roundtrip(addr, &line))
    };
    while handle.stats().queue_depth == 0 && handle.stats().responses < 2 {
        std::thread::yield_now();
    }
    // ...so a third distinct request must shed immediately.
    let doc = roundtrip(addr, &solve_line("bounced", "pco"));
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("overloaded"), "{doc:?}");
    assert_eq!(doc.get("id").and_then(Value::as_str), Some("bounced"), "{doc:?}");
    assert!(handle.stats().rejected >= 1);
    // The parked and queued requests still complete normally.
    assert_eq!(parked.join().unwrap().get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(fill_client.join().unwrap().get("status").and_then(Value::as_str), Some("ok"));
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn malformed_and_unsolvable_requests_get_typed_errors() {
    let (addr, handle, join) = start(Server::builder());
    let doc = roundtrip(addr, "this is not json");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("error"), "{doc:?}");
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("parse"), "{doc:?}");

    // An unknown op is a structured `unsupported` error naming the real
    // ops, not a dropped connection (and an unknown solver stays `parse`).
    let doc = roundtrip(addr, r#"{"id":"u","op":"warp"}"#);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("error"), "{doc:?}");
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("unsupported"), "{doc:?}");
    assert!(
        doc.get("message").and_then(Value::as_str).is_some_and(|m| m.contains("solve_batch")),
        "the error lists the supported ops: {doc:?}"
    );
    let doc = roundtrip(addr, &solve_line("u2", "warp-drive"));
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("parse"), "{doc:?}");

    // An infeasible platform (T_max below what the floor level can hold).
    let cold = r#"{"rows":3,"cols":3,"levels":[0.6,1.3],"t_max_c":36.0}"#;
    let line = format!(r#"{{"id":"inf","solver":"exs","platform":{cold}}}"#);
    let doc = roundtrip(addr, &line);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("error"), "{doc:?}");
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("infeasible"), "{doc:?}");

    // A zero deadline trips the deadline path, not a solve.
    let line = format!(
        r#"{{"id":"dl","solver":"exs","platform":{PLATFORM},"options":{{"deadline_ms":0}}}}"#
    );
    let doc = roundtrip(addr, &line);
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("deadline"), "{doc:?}");
    assert!(handle.stats().deadline_exceeded >= 1);
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn a_deadline_expiring_mid_solve_is_enforced_before_the_response() {
    let (addr, handle, join) = start(Server::builder());
    // The governor ignores deadlines by contract, so a fine-grained control
    // period makes the solve reliably outlive a short deadline; the server
    // must notice at completion and answer `deadline` instead of returning
    // (and caching) a result the client already gave up on.
    let line = format!(
        concat!(
            r#"{{"id":"slowdl","solver":"governor","platform":{p},"#,
            r#""options":{{"deadline_ms":10,"governor_control_period":0.001}}}}"#
        ),
        p = PLATFORM
    );
    let doc = roundtrip(addr, &line);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("error"), "{doc:?}");
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("deadline"), "{doc:?}");
    assert!(handle.stats().deadline_exceeded >= 1);
    // The expired result must not have been cached (the deadline is masked
    // out of the cache key): the same query without a deadline re-solves.
    let line = format!(
        concat!(
            r#"{{"id":"fresh","solver":"governor","platform":{p},"#,
            r#""options":{{"governor_control_period":0.001}}}}"#
        ),
        p = PLATFORM
    );
    let doc = roundtrip(addr, &line);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"), "{doc:?}");
    assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(false), "{doc:?}");
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn solve_batch_interns_the_platform_and_answers_per_variant() {
    let (addr, handle, join) = start(Server::builder());
    // A platform unique to this test: the interning registry is
    // process-global, so sharing a platform across tests would make the
    // cold/warm assertions racy.
    let platform = r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":56.0}"#;
    let batch = |id: &str| {
        format!(
            concat!(
                r#"{{"id":"{id}","op":"solve_batch","platform":{p},"#,
                r#""variants":[{{"solver":"ao"}},{{"solver":"lns","want_schedule":true}}]}}"#
            ),
            id = id,
            p = platform
        )
    };
    let doc = roundtrip(addr, &batch("b0"));
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"), "{doc:?}");
    assert_eq!(doc.get("registry").and_then(Value::as_str), Some("cold"), "{doc:?}");
    let results = doc.get("results").and_then(Value::as_array).expect("results array");
    assert_eq!(results.len(), 2, "{doc:?}");
    let throughput: Vec<f64> = results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            assert_eq!(
                r.get("id").and_then(Value::as_str).unwrap(),
                format!("b0#{i}"),
                "variant ids derive from the batch id, in order"
            );
            assert_eq!(r.get("status").and_then(Value::as_str), Some("ok"), "{r:?}");
            assert_eq!(r.get("cached").and_then(Value::as_bool), Some(false), "{r:?}");
            assert_eq!(r.get("feasible").and_then(Value::as_bool), Some(true), "{r:?}");
            r.get("throughput").and_then(Value::as_f64).unwrap()
        })
        .collect();
    assert!(results[0].get("schedule").is_none(), "schedule only where requested");
    let schedule = results[1].get("schedule").and_then(Value::as_str).expect("schedule text");
    assert_eq!(mosc_sched::text::from_text(schedule).expect("parses").n_cores(), 2);

    // The identical batch again: warm registry, every variant a cache hit
    // with bit-identical answers.
    let doc = roundtrip(addr, &batch("b1"));
    assert_eq!(doc.get("registry").and_then(Value::as_str), Some("warm"), "{doc:?}");
    let results = doc.get("results").and_then(Value::as_array).expect("results array");
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.get("cached").and_then(Value::as_bool), Some(true), "{r:?}");
        let t = r.get("throughput").and_then(Value::as_f64).unwrap();
        assert!((t - throughput[i]).abs() < 1e-15, "cached variant must be identical");
    }
    let stats = handle.stats();
    assert_eq!(stats.requests, 2, "one request per batch line, {stats:?}");
    assert_eq!((stats.cache_misses, stats.cache_hits), (2, 2), "{stats:?}");
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn a_batch_with_a_broken_platform_gets_one_usage_error() {
    let (addr, handle, join) = start(Server::builder());
    let line = concat!(
        r#"{"id":"bad","op":"solve_batch","platform":{"rows":0,"cols":0,"levels":[],"t_max_c":55.0},"#,
        r#""variants":[{"solver":"ao"},{"solver":"lns"}]}"#
    );
    let doc = roundtrip(addr, line);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("error"), "{doc:?}");
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("usage"), "{doc:?}");
    assert_eq!(doc.get("id").and_then(Value::as_str), Some("bad"), "{doc:?}");
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn shutdown_op_drains_and_stops_the_server() {
    let (addr, handle, join) = start(Server::builder());
    let doc = roundtrip(addr, r#"{"id":"p","op":"ping"}"#);
    assert_eq!(doc.get("pong").and_then(Value::as_bool), Some(true), "{doc:?}");

    let doc = roundtrip(addr, r#"{"id":"bye","op":"shutdown"}"#);
    assert_eq!(doc.get("shutting_down").and_then(Value::as_bool), Some(true), "{doc:?}");
    // run() must return on its own — no handle.shutdown() here.
    join.join().expect("server thread exits after the shutdown op");
    let stats = handle.stats();
    assert_eq!(stats.responses, 2, "{stats:?}");
}

#[test]
fn hello_negotiates_the_protocol_version() {
    let (addr, handle, join) = start(Server::builder());
    // A plain hello negotiates the newest version the server speaks.
    let doc = roundtrip(addr, r#"{"id":"h","op":"hello"}"#);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"), "{doc:?}");
    assert_eq!(doc.get("server").and_then(Value::as_str), Some("mosc-serve"), "{doc:?}");
    assert_eq!(
        doc.get("version").and_then(Value::as_usize),
        Some(mosc_serve::PROTO_VERSION_MAX as usize),
        "{doc:?}"
    );
    let ops = doc.get("ops").and_then(Value::as_array).expect("ops array");
    let ops: Vec<&str> = ops.iter().filter_map(Value::as_str).collect();
    assert!(ops.contains(&"solve") && ops.contains(&"hello"), "{ops:?}");

    // A client capped below the server's floor gets a usage error; one
    // capped above settles on the server's max.
    let doc = roundtrip(addr, r#"{"id":"h0","op":"hello","max_version":0}"#);
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("error"), "{doc:?}");
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("usage"), "{doc:?}");
    let doc = roundtrip(addr, r#"{"id":"h9","op":"hello","max_version":9}"#);
    assert_eq!(
        doc.get("version").and_then(Value::as_usize),
        Some(mosc_serve::PROTO_VERSION_MAX as usize),
        "{doc:?}"
    );
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    // One worker serializes execution, so responses to a burst written in
    // one packet must come back in request order, one line each.
    let (addr, handle, join) = start(Server::builder().workers(1));
    let mut stream = TcpStream::connect(addr).expect("connect");
    let burst: String =
        (0..10).map(|i| format!(r#"{{"id":"pl{i}","op":"ping"}}"#) + "\n").collect();
    stream.write_all(burst.as_bytes()).expect("send burst");
    let mut reader = BufReader::new(stream);
    for i in 0..10 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        let doc = Value::parse(&line).expect("response parses");
        assert_eq!(doc.get("id").and_then(Value::as_str), Some(format!("pl{i}").as_str()));
    }
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn a_half_closed_connection_still_receives_its_responses() {
    // Write requests, shut down the send half, then read: the responses
    // must still arrive (EOF does not cancel in-flight work).
    let (addr, handle, join) = start(Server::builder());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let lines = format!("{}\n{}\n", solve_line("hc0", "ao"), r#"{"id":"hc1","op":"ping"}"#);
    stream.write_all(lines.as_bytes()).expect("send");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(stream);
    let mut got = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read") == 0 {
            break;
        }
        let doc = Value::parse(&line).expect("response parses");
        got.push(doc.get("id").and_then(Value::as_str).unwrap().to_string());
    }
    got.sort();
    assert_eq!(got, ["hc0", "hc1"], "both responses delivered after half-close");
    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn the_overhead_saturated_ao_platform_is_answered_and_shutdown_stays_prompt() {
    // AO's compensation saturates a core already at m = 1 here; the m-sweep
    // used to panic on it, which left the line unanswered and the drain
    // waiting on the client forever.
    let (addr, _handle, join) = start(Server::builder());
    let platform = r#"{"rows":2,"cols":2,"levels":[0.6,0.8,1.0,1.3],"t_max_c":66.1288520067282}"#;
    let mut held = TcpStream::connect(addr).expect("connect");
    writeln!(held, r#"{{"id":"sat","solver":"ao","platform":{platform}}}"#).expect("send");
    let mut line = String::new();
    BufReader::new(&held).read_line(&mut line).expect("read response");
    let doc = Value::parse(&line).expect("response parses");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"), "{doc:?}");
    assert_eq!(doc.get("feasible").and_then(Value::as_bool), Some(true), "{doc:?}");
    // `held` stays open across the shutdown.
    let asked = Instant::now();
    roundtrip(addr, r#"{"id":"bye","op":"shutdown"}"#);
    join.join().expect("server thread");
    assert!(asked.elapsed() < Duration::from_secs(1), "drain took {:?}", asked.elapsed());
    drop(held);
}

#[test]
fn an_unterminated_oversized_line_gets_one_usage_error_and_a_close() {
    let (addr, handle, join) = start(Server::builder());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut flood = stream.try_clone().expect("clone");
    // 2 MiB without a newline, from its own thread: the server stops
    // reading once the line passes its cap, so the rest never drains.
    let flooder = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        (0..32).all(|_| flood.write_all(&chunk).is_ok())
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the error line");
    let doc = Value::parse(&line).expect("response parses");
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("usage"), "{doc:?}");
    // Then the server closes: a clean EOF, or a reset because the rest of
    // the flood was left unread.
    let mut rest = String::new();
    if let Ok(n) = reader.read_line(&mut rest) {
        assert_eq!(n, 0, "nothing after the error line: {rest:?}");
    }
    flooder.join().expect("flood thread");
    // Other connections are unaffected.
    let pong = roundtrip(addr, r#"{"id":"p","op":"ping"}"#);
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true), "{pong:?}");
    assert_eq!(handle.stats().malformed, 1);
    handle.shutdown();
    join.join().expect("server thread");
}
