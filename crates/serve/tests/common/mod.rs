//! Helpers shared by the loopback test binaries; each binary uses a subset.
#![allow(dead_code)]

use mosc_analyze::json::Value;
use mosc_serve::{ServeBuilder, ServeHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

/// The `specs/smoke.json` platform, inlined.
pub const PLATFORM: &str = r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#;

/// Binds `builder` on an ephemeral loopback port and serves it on a thread.
pub fn start(builder: ServeBuilder) -> (SocketAddr, ServeHandle, JoinHandle<()>) {
    let server = builder.addr("127.0.0.1:0").bind().expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle, join)
}

/// Sends `line` and reads one response line on a fresh connection.
pub fn roundtrip(addr: SocketAddr, line: &str) -> Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Value::parse(&response).expect("response parses as JSON")
}
