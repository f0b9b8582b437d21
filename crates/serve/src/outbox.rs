//! The completion outbox: framed response lines on their way to the event
//! loop's I/O thread, which owns every socket.
//!
//! Workers finish on their own threads, so the loop parks in its poller
//! with a self-wake channel registered alongside the sockets: a loopback
//! socket pair (pure std — an ephemeral listener, connect, accept) whose
//! read end lives in the poll set. [`Outbox::push`] from a worker enqueues
//! the line and writes one byte to the other end unless a wake is already
//! pending. [`Outbox::drain`] clears the pending flag *before* taking the
//! queue, so a push that races the drain either lands in the current batch
//! or raises a fresh wake — never lost.
//!
//! Pushes from the I/O thread itself (protocol ops, cache hits, parse
//! errors) skip the wake: the loop drains the outbox after every event
//! batch, so a wake byte would only cost it an extra poll round trip.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::ThreadId;

/// Completed responses in flight to the I/O thread: framed
/// (newline-terminated) lines, tagged with the connection they answer.
pub(crate) struct Outbox {
    queue: Mutex<VecDeque<(u64, String)>>,
    /// Collapses wake bytes: set by the first worker push after a drain,
    /// cleared by the drain.
    wake_pending: AtomicBool,
    wake_tx: Mutex<TcpStream>,
    /// The thread that created the outbox and drains it.
    io_thread: ThreadId,
}

impl Outbox {
    /// An outbox drained by the calling thread, plus the nonblocking read
    /// end of its wake channel for the caller's poll set.
    ///
    /// # Errors
    /// I/O errors from building the loopback wake pair.
    pub(crate) fn new() -> io::Result<(Self, TcpStream)> {
        let wake_listener = TcpListener::bind(("127.0.0.1", 0))?;
        let wake_tx = TcpStream::connect(wake_listener.local_addr()?)?;
        let (wake_rx, _) = wake_listener.accept()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let outbox = Self {
            queue: Mutex::new(VecDeque::new()),
            wake_pending: AtomicBool::new(false),
            wake_tx: Mutex::new(wake_tx),
            io_thread: std::thread::current().id(),
        };
        Ok((outbox, wake_rx))
    }

    /// Queues one framed response line for `conn`, waking the I/O thread
    /// when the caller is some other thread.
    pub(crate) fn push(&self, conn: u64, framed: String) {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).push_back((conn, framed));
        if std::thread::current().id() != self.io_thread
            && !self.wake_pending.swap(true, Ordering::SeqCst)
        {
            // A failed write means the wake pipe's buffer already holds
            // unread bytes, which is itself a pending wake.
            let _ = self.wake_tx.lock().unwrap_or_else(PoisonError::into_inner).write_all(&[1]);
        }
    }

    /// Clears the pending wake, then takes the whole pending batch.
    pub(crate) fn drain(&self) -> VecDeque<(u64, String)> {
        self.wake_pending.store(false, Ordering::SeqCst);
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(PoisonError::into_inner))
    }
}
