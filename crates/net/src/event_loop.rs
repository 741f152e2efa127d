//! Readiness-driven TCP server: each worker owns a [`Poller`] (one epoll
//! instance) and drains hundreds-to-thousands of nonblocking connections
//! through per-connection state machines, so open-but-quiet connections
//! cost the active ones nothing (the C10k property).
//!
//! ## Per-connection state machine
//!
//! ```text
//!            readable                     complete frames
//!   ┌──────┐ ───────► read-accumulate ──► split_frame ──► ServiceMux
//!   │ idle │          (bounded budget)    (borrowed body)  dispatch
//!   └──────┘ ◄─────── flush write queue ◄─ encode replies ◄────┘
//!      ▲     writable  (partial-write      into the connection's
//!      │                resume)            reply buffer
//!      └── reaped after `idle_timeout` without traffic
//! ```
//!
//! * **Reads** accumulate into a per-connection buffer under a bounded
//!   per-wakeup budget (fairness: one fast peer cannot monopolize a
//!   worker; level-triggered registration re-delivers what remains).
//! * **Decode** borrows frame bodies straight out of the accumulation
//!   buffer ([`split_frame`]) — no per-request copy.
//! * **Replies** are packed back-to-back into the connection's own
//!   reply buffer and written with as few syscalls as the socket
//!   accepts; a partial write parks a cursor and resumes on the next
//!   writable event, across frame boundaries.
//! * **Backpressure**: a connection whose unsent reply backlog exceeds
//!   `write_queue_cap` stops being *read* until the backlog drains below
//!   half the cap — a client that stops reading replies stops being
//!   served, instead of growing the server's memory.
//! * **Accept** is edge-triggered with a bounded burst per wakeup: a
//!   connect flood cannot starve established connections, and the
//!   worker's own readiness flag keeps edge semantics correct even when
//!   the burst cap truncates a drain.
//! * **Idle reaping**: connections silent for `idle_timeout` are closed
//!   on a coarse sweep, so thousands of abandoned sockets cannot pin
//!   buffers forever. Clients treat the reap as a stale pooled
//!   connection and redial transparently ([`crate::TcpClient`]).
//!
//! ## Error posture per connection
//!
//! * A body that decodes to garbage gets a typed
//!   [`ErrorCode::Malformed`] reply and the connection **stays open** —
//!   framing is still in sync.
//! * A broken *frame* (bad magic, wrong version, oversized declared
//!   length, CRC mismatch) gets a best-effort error reply and the
//!   connection is **closed** once that reply flushes: after corrupt
//!   framing the byte stream can no longer be trusted to
//!   re-synchronize. Replies to frames drained before the corrupt one
//!   are still delivered.
//! * Oversized declared bodies are rejected from the 18-byte header
//!   alone; the body is never read into memory.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use proxy_runtime::{Event, Interest, Poller};
use proxy_wire::frame::split_frame;
use proxy_wire::{ErrorCode, Message, WireError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use restricted_proxy::prelude::KeyResolver;

use crate::mux::{Run, ServiceMux};

/// Bytes pulled from a socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;
/// Reads per connection per wakeup before yielding to other
/// connections (level-triggered readiness re-delivers the remainder).
const READS_PER_WAKE: usize = 4;
/// Flushed-prefix length above which the write queue is compacted
/// rather than letting the buffer grow behind the cursor.
const COMPACT_THRESHOLD: usize = 32 * 1024;
/// Token reserved for the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Maximum connections accepted per worker wakeup.
const ACCEPT_BURST: usize = 64;
/// Poll-wait bound: shutdown latency and the reap sweep cadence floor.
const TICK: Duration = Duration::from_millis(25);

/// Tuning for [`EventLoopServer`].
#[derive(Debug, Clone)]
pub struct EventLoopOptions {
    /// Event-loop worker threads, each with its own poller instance
    /// (minimum 1). One worker drains thousands of connections; more
    /// workers add CPU parallelism, not connection capacity.
    pub workers: usize,
    /// Unsent-reply bytes above which a connection stops being read
    /// (backpressure); reading resumes below half this value.
    pub write_queue_cap: usize,
    /// Connections with no traffic for this long are closed.
    pub idle_timeout: Duration,
}

impl Default for EventLoopOptions {
    fn default() -> Self {
        Self {
            workers: 1,
            write_queue_cap: 256 * 1024,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// A running readiness-driven TCP service endpoint.
///
/// Dropping the server shuts it down: workers notice the stop flag at
/// their next tick, close every connection, and are joined.
pub struct EventLoopServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl EventLoopServer {
    /// Binds an ephemeral loopback port and starts serving `mux` with
    /// default [`EventLoopOptions`] (one worker). Per-connection
    /// server-side randomness derives from `seed` plus a global
    /// connection counter, so a fixed seed gives reproducible server
    /// behavior.
    ///
    /// # Errors
    ///
    /// Bind, poller-creation, listener-clone, or thread-spawn failures.
    pub fn spawn<R>(mux: Arc<ServiceMux<R>>, seed: u64) -> std::io::Result<Self>
    where
        R: KeyResolver + Send + Sync + 'static,
    {
        Self::spawn_with(mux, EventLoopOptions::default(), seed)
    }

    /// As [`EventLoopServer::spawn`], with explicit options.
    ///
    /// # Errors
    ///
    /// Bind, poller-creation, listener-clone, or thread-spawn failures.
    pub fn spawn_with<R>(
        mux: Arc<ServiceMux<R>>,
        opts: EventLoopOptions,
        seed: u64,
    ) -> std::io::Result<Self>
    where
        R: KeyResolver + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_seq = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for w in 0..opts.workers.max(1) {
            // Register before spawning so registration errors surface
            // from `spawn_with` instead of dying silently in a thread.
            let listener = listener.try_clone()?;
            let mut poller = Poller::new()?;
            poller.register(
                listener.as_raw_fd(),
                LISTENER_TOKEN,
                Interest::READ | Interest::EDGE,
            )?;
            let mut worker = Worker {
                mux: Arc::clone(&mux),
                stop: Arc::clone(&stop),
                conn_seq: Arc::clone(&conn_seq),
                opts: opts.clone(),
                seed,
                listener,
                poller,
                slab: Vec::new(),
                free: Vec::new(),
                accept_ready: true,
                chunk: vec![0; READ_CHUNK],
                run: Run::default(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("event-loop-{w}"))
                    .spawn(move || worker.run())?,
            );
        }
        Ok(Self {
            addr,
            stop,
            workers,
        })
    }

    /// The bound address clients should dial.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for EventLoopServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    rng: StdRng,
    /// Read-accumulation buffer; complete frames are split off its
    /// front, a trailing partial frame waits for more bytes.
    inbuf: Vec<u8>,
    /// Reply write queue; `sent` is the flushed prefix.
    out: Vec<u8>,
    sent: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Reading suspended because the write backlog crossed the cap.
    paused: bool,
    /// Framing broke: flush what is queued, then close.
    close_after_flush: bool,
    last_seen: Instant,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.out.len().saturating_sub(self.sent)
    }
}

/// What a connection-level step decided about the connection's future.
#[derive(PartialEq, Eq)]
enum Verdict {
    Keep,
    Close,
}

struct Worker<R: KeyResolver> {
    mux: Arc<ServiceMux<R>>,
    stop: Arc<AtomicBool>,
    conn_seq: Arc<AtomicU64>,
    opts: EventLoopOptions,
    seed: u64,
    listener: TcpListener,
    poller: Poller,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Edge-triggered accept readiness: set on a listener event, cleared
    /// only when `accept` reports `WouldBlock` — correct even when the
    /// burst cap truncates a drain.
    accept_ready: bool,
    /// Where every `read` lands before its bytes join the connection's
    /// buffer: [`READ_CHUNK`] long, zeroed once for the worker's life.
    chunk: Vec<u8>,
    /// The run of `EndRequest`s or `CheckDeposit`s being gathered from
    /// one read, decided together when the run ends.
    run: Run,
}

impl<R: KeyResolver> Worker<R> {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let reap_every = (self.opts.idle_timeout / 4).max(TICK);
        let mut last_reap = Instant::now();
        while !self.stop.load(Ordering::Acquire) {
            // A truncated accept burst leaves `accept_ready` set: poll
            // without sleeping so a connect flood drains at burst pace,
            // not one burst per tick.
            let timeout = if self.accept_ready {
                Some(Duration::ZERO)
            } else {
                Some(TICK)
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing poller cannot drive connections; exiting the
                // worker closes them, which clients see as disconnects.
                break;
            }
            for ev in events.drain(..) {
                self.dispatch_event(ev);
            }
            if self.accept_ready {
                self.accept_burst();
            }
            if last_reap.elapsed() >= reap_every {
                last_reap = Instant::now();
                self.reap_idle();
            }
        }
        for slot in 0..self.slab.len() {
            self.close(slot);
        }
    }

    fn dispatch_event(&mut self, ev: Event) {
        if ev.token == LISTENER_TOKEN {
            self.accept_ready = true;
            return;
        }
        let Ok(slot) = usize::try_from(ev.token) else {
            return;
        };
        // A connection closed earlier in this same event batch may still
        // have queued events; its slot is `None` and they are ignored.
        if self.slab.get(slot).is_none_or(Option::is_none) {
            return;
        }
        if ev.hangup {
            // Drain any final bytes the peer sent before the hangup so a
            // request racing a close still gets dispatched, then drop
            // the connection — the peer is gone either way.
            let _ = self.on_readable(slot);
            self.close(slot);
            return;
        }
        if ev.readable && self.on_readable(slot) == Verdict::Close {
            self.close(slot);
            return;
        }
        if ev.writable && self.on_writable(slot) == Verdict::Close {
            self.close(slot);
        }
    }

    /// Accepts up to [`ACCEPT_BURST`] pending connections.
    fn accept_burst(&mut self) {
        for _ in 0..ACCEPT_BURST {
            match self.listener.accept() {
                Ok((stream, _)) => self.install(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.accept_ready = false;
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient accept failures (per-connection resets,
                // EMFILE pressure): stop this burst, keep the readiness
                // flag so the next wakeup retries.
                Err(_) => return,
            }
        }
    }

    fn install(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn_id = self.conn_seq.fetch_add(1, Ordering::Relaxed);
        let conn_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(conn_id);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slab.push(None);
                self.slab.len().saturating_sub(1)
            }
        };
        let token = slot as u64;
        let interest = Interest::READ;
        if self
            .poller
            .register(stream.as_raw_fd(), token, interest)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        let conn = Conn {
            stream,
            rng: StdRng::seed_from_u64(conn_seed),
            inbuf: Vec::new(),
            out: Vec::new(),
            sent: 0,
            interest,
            paused: false,
            close_after_flush: false,
            last_seen: Instant::now(),
        };
        if let Some(entry) = self.slab.get_mut(slot) {
            *entry = Some(conn);
        }
        // A request may already be buffered by the kernel before
        // registration completes; level-triggered readiness will report
        // it on the next wait, so nothing else to do here.
    }

    /// Reads under the fairness budget, dispatches every complete frame,
    /// and attempts a flush.
    fn on_readable(&mut self, slot: usize) -> Verdict {
        let Some(Some(conn)) = self.slab.get_mut(slot) else {
            return Verdict::Keep;
        };
        if conn.paused || conn.close_after_flush {
            return Verdict::Keep;
        }
        let mut saw_eof = false;
        for _ in 0..READS_PER_WAKE {
            match conn.stream.read(&mut self.chunk) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf
                        .extend_from_slice(self.chunk.get(..n).unwrap_or(&[]));
                    if n < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Verdict::Close,
            }
        }
        conn.last_seen = Instant::now();
        self.process_frames(slot);
        if saw_eof {
            // Serve what arrived before the close, then drop: flush is
            // best-effort on a peer that already went away.
            let _ = self.flush_and_rearm(slot);
            return Verdict::Close;
        }
        self.flush_and_rearm(slot)
    }

    /// Splits and dispatches every complete frame in the accumulation
    /// buffer, packing replies into the write queue. Each run of
    /// consecutive `EndRequest`s, and each run of consecutive
    /// `CheckDeposit`s, is decided as one group, so their Ed25519 checks
    /// settle together (DESIGN.md §8, "One settle step"); replies keep
    /// request order.
    fn process_frames(&mut self, slot: usize) {
        let Some(Some(conn)) = self.slab.get_mut(slot) else {
            return;
        };
        let mut consumed = 0;
        loop {
            match split_frame(conn.inbuf.get(consumed..).unwrap_or(&[])) {
                Ok(Some((header, body, used))) => {
                    consumed += used;
                    let request = match Message::decode_body(header.msg_type, body) {
                        Ok(request) => match self.run.push(header.request_id, request) {
                            None => continue,
                            Some(other) => Ok(other),
                        },
                        Err(e) => Err(e),
                    };
                    self.mux
                        .handle_run(&mut self.run, &mut conn.out, &mut conn.rng);
                    let reply = match request {
                        // A request of the other kind starts the next run.
                        Ok(request) => match self.run.push(header.request_id, request) {
                            None => continue,
                            Some(request) => self.mux.handle(request, &mut conn.rng),
                        },
                        // Framing is intact; answer the malformed body
                        // and keep the connection.
                        Err(e) => Message::Error {
                            code: ErrorCode::Malformed,
                            detail: e.to_string(),
                        },
                    };
                    reply.encode_frame_into(&mut conn.out, header.request_id);
                }
                Ok(None) => break,
                Err(
                    e @ (WireError::BadMagic(_)
                    | WireError::UnsupportedVersion(_)
                    | WireError::FrameTooLarge { .. }
                    | WireError::BadCrc { .. }),
                ) => {
                    // The stream can no longer be trusted to frame:
                    // report best-effort after the replies already
                    // due, then close once the queue flushes.
                    self.mux
                        .handle_run(&mut self.run, &mut conn.out, &mut conn.rng);
                    let reply = Message::Error {
                        code: ErrorCode::Malformed,
                        detail: e.to_string(),
                    };
                    reply.encode_frame_into(&mut conn.out, 0);
                    conn.close_after_flush = true;
                    conn.inbuf.clear();
                    consumed = 0;
                    break;
                }
                Err(_) => {
                    conn.close_after_flush = true;
                    conn.inbuf.clear();
                    consumed = 0;
                    break;
                }
            }
        }
        self.mux
            .handle_run(&mut self.run, &mut conn.out, &mut conn.rng);
        if consumed > 0 {
            conn.inbuf.drain(..consumed);
        }
    }

    fn on_writable(&mut self, slot: usize) -> Verdict {
        if let Some(Some(conn)) = self.slab.get_mut(slot) {
            conn.last_seen = Instant::now();
        }
        self.flush_and_rearm(slot)
    }

    /// Flushes as much of the write queue as the socket accepts, applies
    /// the backpressure rules, and reconciles poller interest.
    fn flush_and_rearm(&mut self, slot: usize) -> Verdict {
        let Some(Some(conn)) = self.slab.get_mut(slot) else {
            return Verdict::Keep;
        };
        while conn.sent < conn.out.len() {
            match conn.stream.write(conn.out.get(conn.sent..).unwrap_or(&[])) {
                Ok(0) => return Verdict::Close,
                Ok(n) => conn.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Verdict::Close,
            }
        }
        if conn.sent == conn.out.len() {
            conn.out.clear();
            conn.sent = 0;
            if conn.close_after_flush {
                let _ = conn.stream.shutdown(Shutdown::Both);
                return Verdict::Close;
            }
        } else if conn.sent >= COMPACT_THRESHOLD {
            // Reclaim the flushed prefix so a long-lived backlog does
            // not grow the buffer behind the cursor forever.
            conn.out.drain(..conn.sent);
            conn.sent = 0;
        }
        // Backpressure: pause reads above the cap, resume below half.
        if conn.paused {
            if conn.backlog() < self.opts.write_queue_cap / 2 {
                conn.paused = false;
            }
        } else if conn.backlog() > self.opts.write_queue_cap {
            conn.paused = true;
        }
        let want = if conn.paused || conn.close_after_flush {
            // Write-only while backed up (or draining toward a close):
            // not reading is exactly the backpressure.
            Interest::WRITE
        } else if conn.backlog() > 0 {
            Interest::READ | Interest::WRITE
        } else {
            Interest::READ
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            let token = slot as u64;
            conn.interest = want;
            if self.poller.reregister(fd, token, want).is_err() {
                return Verdict::Close;
            }
        }
        Verdict::Keep
    }

    fn reap_idle(&mut self) {
        let now = Instant::now();
        let timeout = self.opts.idle_timeout;
        let stale: Vec<usize> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(slot, entry)| {
                entry
                    .as_ref()
                    .filter(|conn| now.duration_since(conn.last_seen) >= timeout)
                    .map(|_| slot)
            })
            .collect();
        for slot in stale {
            self.close(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        let Some(entry) = self.slab.get_mut(slot) else {
            return;
        };
        let Some(conn) = entry.take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.free.push(slot);
    }
}
