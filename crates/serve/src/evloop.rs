//! The event loop: one nonblocking I/O thread owns every client socket,
//! multiplexed through [`crate::poller::Poller`], while the worker pool
//! executes solves behind it.
//!
//! ## Connection state machine
//!
//! Each accepted socket becomes a [`Conn`] that moves bytes through four
//! stages: **read** (fill `rbuf` until `WouldBlock`), **reassemble**
//! (split `rbuf` on `\n`, scanning only bytes not scanned before; a
//! trailing fragment is dispatched at EOF, so a client that sends a final
//! request without `\n` and half-closes still gets its answer),
//! **dispatch** (each non-empty line goes through [`handle_line`],
//! synchronously for protocol ops and cache hits, asynchronously via the
//! worker queue for solves), and **write** (framed response lines from the
//! [`Outbox`] are appended to `wbuf` and flushed while the socket accepts
//! them, with write interest registered only while a backlog exists).
//!
//! Accounting closes a connection at the right moment without tracking
//! request identity: [`handle_line`] guarantees exactly one response line
//! per non-empty request line, so `dispatched == responded && wbuf empty`
//! means the connection is fully answered. EOF plus that condition —
//! or a fatal socket error at any point — retires the `Conn`.
//!
//! ## Backpressure
//!
//! A client that sends faster than it reads grows `wbuf`; past
//! [`WBUF_MAX`] the loop drops the connection's read interest until the
//! backlog flushes below the limit, so one slow reader bounds its own
//! memory instead of the daemon's. A request line longer than
//! [`LINE_MAX`] gets one `usage` error and the connection is closed, so a
//! client that never sends `\n` cannot grow `rbuf` without limit either.
//!
//! ## Waking
//!
//! Workers hand their responses over through the [`Outbox`], whose wake
//! channel sits in the poll set next to the sockets (see
//! [`crate::outbox`]). The loop drains the outbox after every event batch.
//!
//! ## Shutdown
//!
//! The wire `shutdown` op (or [`crate::ServeHandle::shutdown`]) sets the
//! shared flag and pokes the listener with a throwaway connect. The loop
//! then closes the worker queue (drain-then-exit: every queued job still
//! runs), deregisters the listener, stops reading, and keeps flushing
//! until every dispatched line has its response delivered.

use crate::outbox::Outbox;
use crate::poller::{Interest, PollEvent, Poller, Token};
use crate::server::{handle_line, reject_line, Shared};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Write-backlog bound per connection; past this the loop stops reading
/// from the socket until the backlog drains below it again.
const WBUF_MAX: usize = 1 << 20;

/// Longest request line the loop buffers, newline excluded.
const LINE_MAX: usize = 1 << 20;

/// Read scratch size per `read(2)` call.
const SCRATCH: usize = 16 * 1024;

/// Poll-timeout cap while draining: a safety net so delivery re-checks
/// even if a wake were somehow missed.
const DRAIN_POLL: Duration = Duration::from_millis(200);

const TOKEN_LISTENER: Token = 0;
const TOKEN_WAKE: Token = 1;
/// Connection ids (allocated from 1, so `conn` is never falsy in
/// log-processing tools) map to tokens as `id + CONN_BASE`.
const CONN_BASE: Token = 2;

/// Per-connection state owned by the I/O thread.
struct Conn {
    stream: TcpStream,
    /// Unconsumed request bytes (at most one partial line after
    /// reassembly).
    rbuf: Vec<u8>,
    /// Length of the `rbuf` prefix already scanned for `\n` (none found).
    scanned: usize,
    /// Framed response bytes not yet accepted by the socket; `wpos` marks
    /// how far the kernel has taken them.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Next per-connection sequence number (batch lines consume several).
    seq: u64,
    /// Non-empty lines handed to `handle_line` / response lines received
    /// back. Equal ⇒ nothing is in flight for this connection.
    dispatched: u64,
    responded: u64,
    last_activity: Instant,
    /// Client closed its write half (trailing partial line already
    /// dispatched), or its request line ran past [`LINE_MAX`]: read no more.
    eof: bool,
    /// Fatal socket error or invalid UTF-8: retire without waiting.
    dead: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Every dispatched line answered and every answer on the wire.
    fn settled(&self) -> bool {
        self.dispatched == self.responded && self.backlog() == 0
    }
}

/// Runs the event loop until shutdown completes its drain. See the module
/// docs for the architecture.
pub(crate) fn run(listener: &TcpListener, shared: &Shared) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (outbox, mut wake_rx) = Outbox::new()?;
    let outbox = Arc::new(outbox);

    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut last_id = 0;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH];
    let mut draining = false;

    loop {
        if !draining && shared.shutdown.load(Ordering::SeqCst) {
            draining = true;
            poller.deregister(listener.as_raw_fd());
            // Everything already queued gets a response, nothing new is
            // read.
            shared.queue.close();
        }
        if draining && conns.is_empty() {
            return Ok(());
        }

        poller.wait(&mut events, poll_timeout(shared, &conns, draining))?;
        let now = Instant::now();

        let batch = std::mem::take(&mut events);
        for ev in &batch {
            match ev.token {
                TOKEN_LISTENER => {
                    if !draining {
                        accept_ready(listener, &mut last_id, &mut poller, &mut conns, now);
                    }
                }
                TOKEN_WAKE => {
                    // Discard wake bytes; the outbox drain below does the
                    // actual work.
                    while let Ok(n) = wake_rx.read(&mut scratch) {
                        if n == 0 {
                            break;
                        }
                    }
                }
                token => {
                    let id = token - CONN_BASE;
                    let Some(c) = conns.get_mut(&id) else { continue };
                    if ev.closed {
                        c.dead = true;
                        continue;
                    }
                    if ev.readable && !draining {
                        read_ready(c, id, shared, &outbox, &mut scratch, now);
                    }
                    if ev.writable {
                        flush(c);
                    }
                }
            }
        }
        events = batch;

        for (id, framed) in outbox.drain() {
            // A retired connection's late responses are dropped: its
            // client went away.
            if let Some(c) = conns.get_mut(&id) {
                c.responded += 1;
                c.wbuf.extend_from_slice(framed.as_bytes());
            }
        }

        // Flush fresh backlogs, retire finished connections, refresh
        // registered interest where it changed.
        let idle_limit = shared.opts.idle_timeout;
        let mut done: Vec<u64> = Vec::new();
        for (&id, c) in &mut conns {
            if c.backlog() > 0 {
                flush(c);
            }
            let idled = idle_limit
                .is_some_and(|limit| now.saturating_duration_since(c.last_activity) >= limit);
            if c.dead
                || (c.eof && c.settled())
                || (draining && c.settled())
                || (idled && c.settled())
            {
                done.push(id);
                continue;
            }
            let want = Interest {
                readable: !draining && !c.eof && c.backlog() < WBUF_MAX,
                writable: c.backlog() > 0,
            };
            if want != c.interest {
                if poller.modify(c.stream.as_raw_fd(), id + CONN_BASE, want).is_err() {
                    c.dead = true;
                    done.push(id);
                } else {
                    c.interest = want;
                }
            }
        }
        for id in done {
            if let Some(c) = conns.remove(&id) {
                poller.deregister(c.stream.as_raw_fd());
            }
        }
    }
}

/// Accepts every pending connection (edge-to-level safe: loops until
/// `WouldBlock`) and registers each with read interest.
fn accept_ready(
    listener: &TcpListener,
    last_id: &mut u64,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    now: Instant,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        // Responses are single small writes; Nagle + delayed ACK would add
        // tens of milliseconds of latency per request.
        let _ = stream.set_nodelay(true);
        *last_id += 1;
        let id = *last_id;
        if poller.register(stream.as_raw_fd(), id + CONN_BASE, Interest::READ).is_err() {
            continue;
        }
        conns.insert(
            id,
            Conn {
                stream,
                rbuf: Vec::new(),
                scanned: 0,
                wbuf: Vec::new(),
                wpos: 0,
                seq: 0,
                dispatched: 0,
                responded: 0,
                last_activity: now,
                eof: false,
                dead: false,
                interest: Interest::READ,
            },
        );
    }
}

/// Reads until `WouldBlock`/EOF (or until more than a line's worth is
/// buffered), reassembles lines, dispatches each non-empty one through
/// [`handle_line`].
fn read_ready(
    c: &mut Conn,
    id: u64,
    shared: &Shared,
    outbox: &Arc<Outbox>,
    scratch: &mut [u8],
    now: Instant,
) {
    loop {
        match c.stream.read(scratch) {
            Ok(0) => {
                c.eof = true;
                break;
            }
            Ok(n) => {
                c.last_activity = now;
                c.rbuf.extend_from_slice(&scratch[..n]);
                if c.backlog() >= WBUF_MAX || c.rbuf.len() > LINE_MAX {
                    // Stop pulling more until the client reads its
                    // responses (or the buffered lines dispatch); what is
                    // buffered still dispatches, and the socket stays
                    // readable.
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    // Split off every complete line, scanning only bytes no earlier pass
    // has seen, then keep the unterminated rest.
    let buf = std::mem::take(&mut c.rbuf);
    let mut start = 0;
    let mut from = c.scanned;
    while let Some(len) = buf[from..].iter().position(|&b| b == b'\n') {
        let end = from + len;
        if end - start > LINE_MAX {
            break; // the rest now starts with an overlong line
        }
        dispatch(c, id, shared, outbox, &buf[start..end]);
        if c.dead {
            return;
        }
        start = end + 1;
        from = start;
    }
    if buf.len() - start > LINE_MAX {
        // One `usage` error for the overlong line, then read no more: the
        // connection retires once that error is on the wire.
        c.scanned = 0;
        c.eof = true;
        c.dispatched += 1;
        let message = format!("request line longer than {LINE_MAX} bytes");
        reject_line(outbox, shared, Instant::now(), id, c.seq, &message);
        c.seq += 1;
        return;
    }
    c.rbuf = buf;
    c.rbuf.drain(..start);
    c.scanned = c.rbuf.len();
    if c.eof && !c.rbuf.is_empty() {
        let line = std::mem::take(&mut c.rbuf);
        dispatch(c, id, shared, outbox, &line);
    }
}

/// Dispatches one reassembled line. Invalid UTF-8 kills the connection.
fn dispatch(c: &mut Conn, id: u64, shared: &Shared, outbox: &Arc<Outbox>, line: &[u8]) {
    let Ok(text) = std::str::from_utf8(line) else {
        c.dead = true;
        return;
    };
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return;
    }
    c.dispatched += 1;
    c.seq += handle_line(trimmed, outbox, shared, Instant::now(), id, c.seq);
}

/// Writes backlog until the socket stops accepting; compacts the buffer
/// when fully flushed.
fn flush(c: &mut Conn) {
    while c.wpos < c.wbuf.len() {
        match c.stream.write(&c.wbuf[c.wpos..]) {
            Ok(0) => {
                c.dead = true;
                return;
            }
            Ok(n) => c.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    if c.wpos == c.wbuf.len() {
        c.wbuf.clear();
        c.wpos = 0;
    }
}

/// How long the next wait may park. Wakes bound it from the side, so this
/// only needs to cover timers: the next idle deadline when idle timeouts
/// are configured, a drain re-check cap while draining, else forever.
fn poll_timeout(shared: &Shared, conns: &HashMap<u64, Conn>, draining: bool) -> Option<Duration> {
    let mut timeout = if draining { Some(DRAIN_POLL) } else { None };
    if let Some(limit) = shared.opts.idle_timeout {
        let now = Instant::now();
        for c in conns.values() {
            let deadline = c.last_activity + limit;
            let wait = deadline.saturating_duration_since(now);
            timeout = Some(timeout.map_or(wait, |t| t.min(wait)));
        }
    }
    timeout
}
