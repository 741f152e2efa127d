//! Pooled blocking TCP client with deadlines, bounded retries, jittered
//! backoff, and per-connection pipelining
//! ([`TcpClient::call_pipelined`]).

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use proxy_wire::frame::{parse_header, split_frame, FrameHeader, HEADER_LEN, TRAILER_LEN};
use proxy_wire::Message;

use crate::error::NetError;
use crate::transport::Transport;

/// Bytes pulled from the socket per pipelined read: large enough to
/// drain a full window of typical replies in one syscall.
const READ_CHUNK: usize = 16 * 1024;

/// Room the read for a lone reply offers: any reply that arrives as one
/// network segment lands in one `read`, and the room is small enough
/// that zeroing it once per connection costs nothing. A longer reply is
/// finished by a read sized from its header.
const LONE_REPLY_ROOM: usize = 4096;

/// Largest buffer capacity a connection keeps when it returns to the
/// pool: several typical frames, far below [`proxy_wire::MAX_FRAME_BODY`],
/// so one oversized reply or refill does not stay pinned.
const MAX_KEPT_CAPACITY: usize = 64 * 1024;

/// The reply side of one connection: each `read` lands in the
/// connection's own buffer and complete frames are split off its front
/// in place.
#[derive(Default)]
struct ReplyReader {
    /// `buf[consumed..filled]` are reply bytes not yet split off;
    /// `buf[filled..]` is room for the next read, zeroed once when the
    /// buffer grows and then reused.
    buf: Vec<u8>,
    consumed: usize,
    filled: usize,
}

impl ReplyReader {
    /// Splits the next complete frame off the bytes already read, if
    /// one is there.
    fn buffered(&mut self) -> Result<Option<(FrameHeader, &[u8])>, NetError> {
        let pending = self.buf.get(self.consumed..self.filled).unwrap_or(&[]);
        match split_frame(pending)? {
            Some((header, body, used)) => {
                self.consumed += used;
                Ok(Some((header, body)))
            }
            None => Ok(None),
        }
    }

    /// Whether every byte read so far belonged to a frame split off.
    fn is_drained(&self) -> bool {
        self.consumed == self.filled
    }

    /// One `read` from `conn`, appended to the bytes not yet split off.
    /// Offers room for `room` bytes, or for the rest of the frame whose
    /// header has arrived when that is more ([`Self::buffered`] has
    /// already refused a header declaring an oversized body).
    fn fill(&mut self, conn: &mut impl Read, room: usize) -> Result<(), NetError> {
        self.buf.copy_within(self.consumed..self.filled, 0);
        self.filled -= self.consumed;
        self.consumed = 0;
        let rest_of_frame = self
            .buf
            .get(..self.filled)
            .and_then(|read| read.first_chunk::<HEADER_LEN>())
            .and_then(|header| parse_header(header).ok())
            .map_or(0, |header| {
                (HEADER_LEN + header.body_len as usize + TRAILER_LEN).saturating_sub(self.filled)
            });
        let end = self.filled + room.max(rest_of_frame);
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        match conn.read(self.buf.get_mut(self.filled..).unwrap_or(&mut [])) {
            Ok(0) => Err(NetError::Disconnected),
            Ok(n) => {
                self.filled += n;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(NetError::from(e)),
        }
    }

    /// Reads the reply to the one request outstanding on `conn`: a reply
    /// that arrives whole costs one `read`.
    fn lone_reply(&mut self, conn: &mut impl Read, request_id: u64) -> Result<Message, NetError> {
        let (header, body) = loop {
            if let Some(frame) = self.buffered()? {
                break frame;
            }
            self.fill(conn, LONE_REPLY_ROOM)?;
        };
        if header.request_id != request_id {
            return Err(NetError::Protocol("reply request id mismatch"));
        }
        let reply = Message::decode_body(header.msg_type, body)?;
        // One request was sent, so anything after its reply means the
        // stream is out of step with the protocol.
        if !self.is_drained() {
            return Err(NetError::Protocol("bytes trail the reply"));
        }
        Ok(reply)
    }
}

/// One kept-alive connection with the buffers that serve it: requests
/// are encoded into `out`, replies read through `replies`. A connection
/// is pooled only with its reader drained.
struct Connection {
    stream: TcpStream,
    out: Vec<u8>,
    replies: ReplyReader,
}

/// Retry budget for a call: how many attempts, and how long to back off
/// between them.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub attempts: u32,
    /// Base backoff before the second attempt; doubles per attempt.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// One attempt, no retries, no sleeping.
    #[must_use]
    pub fn none() -> Self {
        Self {
            attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
        }
    }
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Per-request deadline: connect, send, and receive each bounded by
    /// this duration.
    pub deadline: Duration,
    /// Retry budget for transport-level failures.
    pub retry: RetryPolicy,
    /// Seed for deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for ClientOptions {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            jitter_seed: 0x5EED,
        }
    }
}

/// A pooled blocking TCP client for one service endpoint.
///
/// Connections are checked out of a free-list per call and returned on
/// success, so N concurrent callers settle on N kept-alive connections.
/// A call that fails at the transport level discards its connection
/// (its stream state is unknowable) and, when the failure is retryable
/// and budget remains, redials after a jittered exponential backoff.
///
/// Server-side denials ([`NetError::Remote`]) are never retried — the
/// server *answered*; retrying would just be asking again.
pub struct TcpClient {
    addr: SocketAddr,
    opts: ClientOptions,
    pool: Mutex<Vec<Connection>>,
    next_id: AtomicU64,
    jitter: AtomicU64,
}

impl TcpClient {
    /// A client for the endpoint at `addr`.
    #[must_use]
    pub fn new(addr: SocketAddr, opts: ClientOptions) -> Self {
        Self {
            addr,
            jitter: AtomicU64::new(opts.jitter_seed | 1),
            opts,
            pool: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Connections currently idle in the pool.
    #[must_use]
    pub fn pooled_connections(&self) -> usize {
        self.pool_guard().len()
    }

    /// The pool holds connections with no invariant between them,
    /// so a panic in another thread that held the lock cannot have left
    /// the list inconsistent — recover the guard instead of propagating
    /// the poison (which would turn one panicked caller into a panic in
    /// every later caller).
    fn pool_guard(&self) -> MutexGuard<'_, Vec<Connection>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks out a connection; the flag says whether it came from the
    /// pool (and may therefore have been closed by the server while it
    /// sat idle) or was freshly dialed.
    fn checkout(&self) -> Result<(Connection, bool), NetError> {
        if let Some(conn) = self.pool_guard().pop() {
            return Ok((conn, true));
        }
        Ok((self.dial()?, false))
    }

    fn dial(&self) -> Result<Connection, NetError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.opts.deadline)?;
        stream.set_read_timeout(Some(self.opts.deadline))?;
        stream.set_write_timeout(Some(self.opts.deadline))?;
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            out: Vec::new(),
            replies: ReplyReader::default(),
        })
    }

    /// Returns a connection whose reader is drained to the pool, first
    /// dropping any buffer grown past [`MAX_KEPT_CAPACITY`].
    fn checkin(&self, mut conn: Connection) {
        if conn.out.capacity() > MAX_KEPT_CAPACITY {
            conn.out = Vec::new();
        }
        if conn.replies.buf.capacity() > MAX_KEPT_CAPACITY {
            conn.replies = ReplyReader::default();
        }
        self.pool_guard().push(conn);
    }

    /// xorshift step — deterministic jitter without a global RNG.
    fn next_jitter(&self) -> u64 {
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.store(x, Ordering::Relaxed);
        x
    }

    /// The sleep before attempt `attempt` (1-based beyond the first):
    /// exponential in the attempt number, capped, with ±50% jitter.
    fn backoff(&self, attempt: u32) -> Duration {
        // Saturating: a cap past u64::MAX µs (~584k years) is no cap.
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let base = micros(self.opts.retry.base_backoff);
        if base == 0 {
            return Duration::ZERO;
        }
        let max = micros(self.opts.retry.max_backoff);
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(16));
        let capped = exp.min(max);
        // jitter in [50%, 150%) of the capped value.
        let jittered = (capped / 2).saturating_add(self.next_jitter() % capped.max(1));
        Duration::from_micros(jittered.min(max))
    }

    fn try_call(&self, request: &Message) -> Result<Message, NetError> {
        let (conn, pooled) = self.checkout()?;
        match self.exchange(conn, request) {
            // A kept-alive connection the server closed while it sat
            // idle fails with a disconnect the moment it is exercised.
            // That says nothing about the server or the request: discard
            // the stale socket and redial fresh, once, without spending
            // the caller's retry budget (and without re-sleeping a
            // backoff the caller never asked for).
            Err(NetError::Disconnected) if pooled => {
                let fresh = self.dial()?;
                self.exchange(fresh, request)
            }
            other => other,
        }
    }

    /// One request/reply exchange on `conn`; checks the connection back
    /// in only after a fully successful exchange (anything less leaves
    /// the stream state unknowable).
    fn exchange(&self, mut conn: Connection, request: &Message) -> Result<Message, NetError> {
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // The connection's own buffers carry the request and the reply,
        // so a steady-state exchange reuses warm capacity.
        conn.out.clear();
        request.encode_frame_into(&mut conn.out, request_id);
        std::io::Write::write_all(&mut conn.stream, &conn.out)?;
        let reply = conn.replies.lone_reply(&mut conn.stream, request_id)?;
        self.checkin(conn);
        match reply {
            Message::Error { code, detail } => Err(NetError::Remote { code, detail }),
            message => Ok(message),
        }
    }

    /// Issues `requests` over **one** connection with up to `depth`
    /// in flight at a time, returning one result per request, in request
    /// order.
    ///
    /// Requests are batch-encoded into the connection's buffer and sent
    /// with one write per window top-up; replies are matched to requests
    /// by correlation id, so the server may answer out of order. Each
    /// request keeps its own deadline, measured from the moment it was
    /// sent. A transport failure poisons the stream: every request still
    /// outstanding fails with a clone of the same error and the
    /// connection is discarded. Server-side denials and malformed reply
    /// bodies are per-request results and do not disturb the pipeline.
    ///
    /// `depth = 1` degenerates to sequential calls on a kept-alive
    /// connection. No retries are attempted beyond the transparent
    /// stale-pooled-connection redial.
    pub fn call_pipelined(
        &self,
        requests: &[Message],
        depth: usize,
    ) -> Vec<Result<Message, NetError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let (conn, pooled) = match self.checkout() {
            Ok(c) => c,
            Err(e) => return requests.iter().map(|_| Err(e.clone())).collect(),
        };
        let mut run = self.run_pipeline(conn, requests, depth);
        if pooled && !run.any_reply && run.failure == Some(NetError::Disconnected) {
            // Stale pooled connection (see `try_call`): nothing was ever
            // answered, so the whole pipeline transparently restarts on
            // a fresh dial.
            match self.dial() {
                Ok(fresh) => run = self.run_pipeline(fresh, requests, depth),
                Err(e) => run.failure = Some(e),
            }
        }
        let failure = run
            .failure
            .unwrap_or(NetError::Protocol("pipeline slot left unfilled"));
        run.results
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| Err(failure.clone())))
            .collect()
    }

    /// Drives one pipeline over `conn`. On clean completion the
    /// connection is checked back in; on failure it is dropped.
    ///
    /// The send window refills at a low watermark (half of `depth`),
    /// batch-encoding the refill into one buffer and one write;
    /// replies are pulled off the socket in [`READ_CHUNK`]-sized reads
    /// and split out of the buffer in place, so a deep pipeline costs a
    /// couple of syscalls per window rather than several per reply.
    fn run_pipeline(
        &self,
        mut conn: Connection,
        requests: &[Message],
        depth: usize,
    ) -> PipelineRun {
        let depth = depth.max(1);
        let mut run = PipelineRun {
            results: requests.iter().map(|_| None).collect(),
            failure: None,
            any_reply: false,
        };
        // Outstanding requests: (request id, request index, deadline).
        // A bounded window (≤ `depth` ≤ a few dozen) makes a linear
        // scan of a small vector cheaper than hashing every id.
        let mut inflight: Vec<(u64, usize, Instant)> = Vec::with_capacity(depth);
        let mut next = 0;
        'pipeline: while next < requests.len() || !inflight.is_empty() {
            // Refill the window once it drains to the watermark:
            // batch-encode into one buffer, one write for the whole
            // refill.
            if next < requests.len() && inflight.len() <= depth / 2 {
                conn.out.clear();
                // One clock read covers the whole refill: every request
                // in this batch is sent by the same write below, so a
                // shared send timestamp is the honest one.
                let sent_deadline = Instant::now() + self.opts.deadline;
                while next < requests.len() && inflight.len() < depth {
                    let Some(request) = requests.get(next) else {
                        break;
                    };
                    let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                    request.encode_frame_into(&mut conn.out, id);
                    inflight.push((id, next, sent_deadline));
                    next += 1;
                }
                if let Err(e) = std::io::Write::write_all(&mut conn.stream, &conn.out)
                    .and_then(|()| std::io::Write::flush(&mut conn.stream))
                {
                    run.failure = Some(NetError::from(e));
                    break;
                }
            }
            // Deliver every complete reply already buffered; only hit
            // the socket when the buffer runs dry.
            loop {
                match conn.replies.buffered() {
                    Ok(Some((header, body))) => {
                        let Some(slot_at) = inflight
                            .iter()
                            .position(|&(id, _, _)| id == header.request_id)
                        else {
                            run.failure = Some(NetError::Protocol("reply to unknown request id"));
                            break 'pipeline;
                        };
                        let (_, index, _) = inflight.swap_remove(slot_at);
                        run.any_reply = true;
                        let result = match Message::decode_body(header.msg_type, body) {
                            Ok(Message::Error { code, detail }) => {
                                Err(NetError::Remote { code, detail })
                            }
                            Ok(message) => Ok(message),
                            // Framing stayed intact; a garbled body
                            // fails only its own request.
                            Err(e) => Err(NetError::from(e)),
                        };
                        if let Some(slot) = run.results.get_mut(index) {
                            *slot = Some(result);
                        }
                        continue 'pipeline;
                    }
                    Ok(None) => {}
                    // Broken framing (bad magic, CRC mismatch, …): the
                    // byte stream can no longer be trusted.
                    Err(e) => {
                        run.failure = Some(e);
                        break 'pipeline;
                    }
                }
                // Read more bytes, bounded by the earliest outstanding
                // deadline.
                let Some(earliest) = inflight.iter().map(|&(_, _, d)| d).min() else {
                    continue 'pipeline;
                };
                let remaining = earliest.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    run.failure = Some(NetError::DeadlineExceeded);
                    break 'pipeline;
                }
                if conn.stream.set_read_timeout(Some(remaining)).is_err() {
                    run.failure = Some(NetError::Io(std::io::ErrorKind::Other));
                    break 'pipeline;
                }
                if let Err(e) = conn.replies.fill(&mut conn.stream, READ_CHUNK) {
                    run.failure = Some(e);
                    break 'pipeline;
                }
            }
        }
        // Unconsumed trailing bytes mean the stream is out of sync with
        // the request/reply protocol — never pool such a connection.
        if run.failure.is_none()
            && conn.replies.is_drained()
            && conn
                .stream
                .set_read_timeout(Some(self.opts.deadline))
                .is_ok()
        {
            self.checkin(conn);
        }
        run
    }
}

/// Outcome of one [`TcpClient::run_pipeline`] drive.
struct PipelineRun {
    /// One slot per request; `None` means the pipeline failed before a
    /// reply arrived for it.
    results: Vec<Option<Result<Message, NetError>>>,
    failure: Option<NetError>,
    /// Whether any reply at all arrived (distinguishes a stale pooled
    /// connection from a mid-pipeline failure).
    any_reply: bool,
}

impl Transport for TcpClient {
    fn call(&self, request: &Message) -> Result<Message, NetError> {
        let attempts = self.opts.retry.attempts.max(1);
        let mut last = NetError::Protocol("no attempt made");
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt));
            }
            match self.try_call(request) {
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_retryable() && attempt + 1 < attempts => last = e,
                Err(e) => {
                    // Non-retryable (remote denial, protocol bug) — or
                    // the budget is spent.
                    if attempts == 1 {
                        return Err(e);
                    }
                    if !e.is_retryable() {
                        return Err(e);
                    }
                    return Err(NetError::RetriesExhausted {
                        attempts,
                        last: Box::new(e),
                    });
                }
            }
        }
        Err(NetError::RetriesExhausted {
            attempts,
            last: Box::new(last),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxy_wire::WireError;
    use std::collections::VecDeque;
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use restricted_proxy::principal::PrincipalId;

    /// A peer whose every `read` delivers the next scripted segment (or
    /// as much of it as the caller made room for), and counts the calls.
    struct Segments {
        segments: VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Segments {
        fn new(segments: impl IntoIterator<Item = Vec<u8>>) -> Self {
            Self {
                segments: segments.into_iter().collect(),
                reads: 0,
            }
        }
    }

    impl Read for Segments {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(mut segment) = self.segments.pop_front() else {
                return Ok(0);
            };
            let n = segment.len().min(buf.len());
            buf[..n].copy_from_slice(&segment[..n]);
            if n < segment.len() {
                self.segments.push_front(segment.split_off(n));
            }
            Ok(n)
        }
    }

    /// A reply frame carrying `detail_len` bytes of detail.
    fn reply_frame(request_id: u64, detail_len: usize) -> Vec<u8> {
        let reply = Message::Error {
            code: proxy_wire::ErrorCode::Malformed,
            detail: "x".repeat(detail_len),
        };
        let mut frame = Vec::new();
        reply.encode_frame_into(&mut frame, request_id);
        frame
    }

    fn lone_reply(peer: &mut Segments, request_id: u64) -> Result<Message, NetError> {
        ReplyReader::default().lone_reply(peer, request_id)
    }

    #[test]
    fn a_cap_past_u64_micros_still_backs_off() {
        let opts = ClientOptions {
            retry: RetryPolicy {
                attempts: 2,
                base_backoff: Duration::from_millis(10),
                // 2^69 · 15625 µs, which an `as u64` cast wraps to 0.
                max_backoff: Duration::from_secs(1 << 63),
            },
            ..ClientOptions::default()
        };
        let client = TcpClient::new(SocketAddr::from(([127, 0, 0, 1], 1)), opts);
        for _ in 0..16 {
            assert!(client.backoff(1) >= Duration::from_millis(5));
        }
    }

    fn detail_len(reply: Result<Message, NetError>) -> usize {
        match reply {
            Ok(Message::Error { detail, .. }) => detail.len(),
            other => panic!("not the scripted reply: {other:?}"),
        }
    }

    #[test]
    fn a_reply_that_arrives_whole_costs_one_read() {
        let mut peer = Segments::new([reply_frame(7, 200)]);
        assert_eq!(detail_len(lone_reply(&mut peer, 7)), 200);
        assert_eq!(peer.reads, 1);
    }

    #[test]
    fn a_reply_arriving_a_byte_at_a_time_still_decodes() {
        let frame = reply_frame(9, 300);
        let mut peer = Segments::new(frame.iter().map(|&b| vec![b]));
        assert_eq!(detail_len(lone_reply(&mut peer, 9)), 300);
        assert_eq!(peer.reads, frame.len());
    }

    #[test]
    fn a_reply_longer_than_the_first_read_is_finished_by_one_sized_from_its_header() {
        let mut peer = Segments::new([reply_frame(3, 5 * LONE_REPLY_ROOM)]);
        assert_eq!(detail_len(lone_reply(&mut peer, 3)), 5 * LONE_REPLY_ROOM);
        assert_eq!(peer.reads, 2);
    }

    #[test]
    fn bytes_trailing_a_lone_reply_are_a_protocol_error() {
        let mut bytes = reply_frame(7, 10);
        bytes.push(0);
        let mut peer = Segments::new([bytes]);
        assert_eq!(
            lone_reply(&mut peer, 7).unwrap_err(),
            NetError::Protocol("bytes trail the reply")
        );
        let mut peer = Segments::new([reply_frame(7, 10)]);
        assert_eq!(
            lone_reply(&mut peer, 8).unwrap_err(),
            NetError::Protocol("reply request id mismatch")
        );
        // A connection closed mid-reply is a disconnect, as before.
        let frame = reply_frame(7, 10);
        let mut peer = Segments::new([frame[..frame.len() - 1].to_vec()]);
        assert_eq!(
            lone_reply(&mut peer, 7).unwrap_err(),
            NetError::Disconnected
        );
    }

    #[test]
    fn an_oversized_declared_body_is_refused_from_the_header_alone() {
        let mut header = reply_frame(1, 0);
        header.truncate(HEADER_LEN);
        header[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut replies = ReplyReader::default();
        let mut peer = Segments::new([header]);
        replies.fill(&mut peer, LONE_REPLY_ROOM).unwrap();
        assert!(matches!(
            replies.buffered(),
            Err(NetError::Wire(WireError::FrameTooLarge { .. }))
        ));
        // Nothing was sized from the declared length.
        assert_eq!(replies.buf.len(), LONE_REPLY_ROOM);
    }

    #[test]
    fn a_call_whose_reply_has_trailing_bytes_fails_and_drops_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for trailing in [&b""[..], b"junk"] {
                let (header, _body) = proxy_wire::frame::read_frame(&mut stream).unwrap();
                let mut bytes = reply_frame(header.request_id, 10);
                bytes.extend_from_slice(trailing);
                stream.write_all(&bytes).unwrap();
            }
            // Hold the socket open until the client has hung up.
            let _ = stream.read(&mut [0u8; 1]);
        });
        let client = TcpClient::new(
            addr,
            ClientOptions {
                retry: RetryPolicy::none(),
                ..ClientOptions::default()
            },
        );
        let request = Message::RevocationFetch {
            issuer: restricted_proxy::principal::PrincipalId::new("R"),
            have_epoch: 0,
        };
        // A clean reply (a typed denial here) keeps the connection.
        assert!(matches!(
            client.call(&request),
            Err(NetError::Remote { .. })
        ));
        assert_eq!(client.pooled_connections(), 1);
        assert_eq!(
            client.call(&request).unwrap_err(),
            NetError::Protocol("bytes trail the reply")
        );
        assert_eq!(client.pooled_connections(), 0);
        drop(client);
        peer.join().unwrap();
    }

    /// Serves the one connection `listener` accepts until the client
    /// hangs up, answering request `i` with an `EndDecision` naming one
    /// principal `name_lens[i]` bytes long (10 past the list's end).
    /// Yields the requests answered.
    fn serve_one_connection(listener: TcpListener, name_lens: Vec<usize>) -> JoinHandle<usize> {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut answered = 0;
            while let Ok((header, _body)) = proxy_wire::frame::read_frame(&mut stream) {
                let len = name_lens.get(answered).copied().unwrap_or(10);
                let reply = Message::EndDecision {
                    principals: vec![PrincipalId::new("p".repeat(len))],
                    groups: Vec::new(),
                };
                let mut bytes = Vec::new();
                reply.encode_frame_into(&mut bytes, header.request_id);
                stream.write_all(&bytes).unwrap();
                answered += 1;
            }
            answered
        })
    }

    fn principal_len(reply: Result<Message, NetError>) -> usize {
        match reply {
            Ok(Message::EndDecision { principals, .. }) => {
                principals.iter().map(|p| p.as_str().len()).sum()
            }
            other => panic!("not the scripted reply: {other:?}"),
        }
    }

    fn fetch(issuer_len: usize) -> Message {
        Message::RevocationFetch {
            issuer: PrincipalId::new("R".repeat(issuer_len)),
            have_epoch: 0,
        }
    }

    #[test]
    fn a_pooled_connection_keeps_no_buffer_grown_past_the_bound() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = serve_one_connection(listener, vec![100 * 1024]);
        let client = TcpClient::new(addr, ClientOptions::default());
        // A request and a reply of about 100 KiB each grow both buffers
        // past the bound.
        assert_eq!(principal_len(client.call(&fetch(100 * 1024))), 100 * 1024);
        {
            let pool = client.pool_guard();
            let [conn] = pool.as_slice() else {
                panic!("{} pooled connections, want 1", pool.len());
            };
            assert!(conn.out.capacity() <= MAX_KEPT_CAPACITY);
            assert!(conn.replies.buf.capacity() <= MAX_KEPT_CAPACITY);
        }
        // The same connection still serves the next call: the peer
        // accepts only once.
        assert_eq!(principal_len(client.call(&fetch(1))), 10);
        assert_eq!(client.pooled_connections(), 1);
        drop(client);
        assert_eq!(peer.join().unwrap(), 2);
    }

    #[test]
    fn lone_calls_and_pipelines_share_one_pooled_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = serve_one_connection(listener, Vec::new());
        let client = TcpClient::new(addr, ClientOptions::default());
        let batch: Vec<Message> = (1..=8).map(fetch).collect();
        for _ in 0..3 {
            assert_eq!(principal_len(client.call(&fetch(1))), 10);
            for reply in client.call_pipelined(&batch, 4) {
                assert_eq!(principal_len(reply), 10);
            }
            assert_eq!(client.pooled_connections(), 1);
        }
        drop(client);
        assert_eq!(peer.join().unwrap(), 3 * (1 + batch.len()));
    }

    #[test]
    fn pool_survives_a_poisoned_lock() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let client = Arc::new(TcpClient::new(addr, ClientOptions::default()));
        let poisoner = Arc::clone(&client);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.pool.lock().unwrap();
            panic!("poison the pool lock");
        })
        .join();
        assert!(client.pool.lock().is_err(), "lock must be poisoned");

        // Regression: the pool accessors used `.expect("client pool
        // lock")`, so one panicked holder made every later call panic.
        // The free-list has no cross-entry invariant; recovery is safe.
        assert_eq!(client.pooled_connections(), 0);
        let checked_out = client.checkout();
        // No server is listening at the address; the only acceptable
        // outcomes are a typed dial error — never a lock panic.
        assert!(checked_out.is_err());
    }
}
