//! Pooled blocking TCP client with deadlines, bounded retries, jittered
//! backoff, and per-connection pipelining
//! ([`TcpClient::call_pipelined`]). A lone [`Transport::call`] is a
//! pipeline window of one: both run one exchange engine.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use proxy_wire::frame::{parse_header, split_frame, FrameHeader, HEADER_LEN, TRAILER_LEN};
use proxy_wire::Message;

use crate::error::NetError;
use crate::transport::Transport;

/// Bytes pulled from the socket per read: large enough to drain a full
/// window of typical replies in one syscall, and small enough that
/// zeroing it once per connection costs nothing. A longer reply is
/// finished by a read sized from its header.
const READ_CHUNK: usize = 16 * 1024;

/// Largest buffer capacity a connection keeps when it returns to the
/// pool: several typical frames, far below [`proxy_wire::MAX_FRAME_BODY`],
/// so one oversized reply or refill does not stay pinned.
const MAX_KEPT_CAPACITY: usize = 64 * 1024;

/// Where the reply to one request lands: `None` until it arrives.
type Slot = Option<Result<Message, NetError>>;

/// What a slot holds that no reply and no failure filled; the engine
/// returns `Ok` only with every slot filled, so no caller sees it.
const UNANSWERED: NetError = NetError::Protocol("pipeline slot left unfilled");

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
    /// Offers room for [`READ_CHUNK`] bytes, or for the rest of the
    /// frame whose header has arrived when that is more
    /// ([`Self::buffered`] has already refused a header declaring an
    /// oversized body).
    fn fill(&mut self, conn: &mut impl Read) -> Result<(), NetError> {
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
        let end = self.filled + READ_CHUNK.max(rest_of_frame);
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
}

/// One kept-alive connection with the buffers that serve it: requests
/// are encoded into `out`, replies read through `replies`, and
/// `inflight` lists the requests sent and not yet answered. A
/// connection is pooled only with its reader drained.
struct Connection<S = TcpStream> {
    stream: S,
    out: Vec<u8>,
    replies: ReplyReader,
    /// (request id, slot) per outstanding request. A window holds at
    /// most `depth` (a few dozen), so a linear scan beats hashing.
    inflight: Vec<(u64, usize)>,
}

impl<S: Read + Write> Connection<S> {
    fn new(stream: S) -> Self {
        Self {
            stream,
            out: Vec::new(),
            replies: ReplyReader::default(),
            inflight: Vec::new(),
        }
    }

    /// The exchange engine: sends `requests` with at most `depth` in
    /// flight, numbering them from `ids`, and puts the reply to request
    /// `i` in `slots[i]`; replies are matched by request id, so the
    /// server may answer out of order. `Ok` means every slot is filled.
    ///
    /// The send window refills at a low watermark (half of `depth`),
    /// batch-encoding the refill into one buffer and one write; replies
    /// are pulled off the socket in [`READ_CHUNK`]-sized reads and split
    /// out of the buffer in place. A depth-1 exchange is one `write`
    /// and, for a reply that arrives whole, one `read`.
    ///
    /// A server-side denial ([`NetError::Remote`]) and a reply body that
    /// does not decode fill their own slot only: framing and CRC held,
    /// so the stream is still in step. Anything else is returned, and
    /// leaves the stream untrusted: a failed read or write, broken
    /// framing, a reply to an id not in flight, or bytes after the last
    /// reply.
    fn run(
        &mut self,
        ids: &AtomicU64,
        requests: &[Message],
        depth: usize,
        slots: &mut [Slot],
    ) -> Result<(), NetError> {
        let depth = depth.max(1);
        self.inflight.clear();
        let mut next = 0;
        while next < requests.len() || !self.inflight.is_empty() {
            if next < requests.len() && self.inflight.len() <= depth / 2 {
                self.out.clear();
                let room = depth - self.inflight.len();
                for request in requests.iter().skip(next).take(room) {
                    let id = ids.fetch_add(1, Ordering::Relaxed);
                    request.encode_frame_into(&mut self.out, id);
                    self.inflight.push((id, next));
                    next += 1;
                }
                self.stream.write_all(&self.out)?;
            }
            let (header, body) = loop {
                if let Some(frame) = self.replies.buffered()? {
                    break frame;
                }
                self.replies.fill(&mut self.stream)?;
            };
            let Some(at) = self
                .inflight
                .iter()
                .position(|&(id, _)| id == header.request_id)
            else {
                return Err(NetError::Protocol("reply request id mismatch"));
            };
            let (_, slot) = self.inflight.swap_remove(at);
            let reply = match Message::decode_body(header.msg_type, body) {
                Ok(Message::Error { code, detail }) => Err(NetError::Remote { code, detail }),
                Ok(message) => Ok(message),
                Err(e) => Err(NetError::from(e)),
            };
            if let Some(slot) = slots.get_mut(slot) {
                *slot = Some(reply);
            }
        }
        // Every request sent has its reply, so anything after the last
        // one means the stream is out of step with the protocol.
        if self.replies.is_drained() {
            Ok(())
        } else {
            Err(NetError::Protocol("bytes trail the reply"))
        }
    }
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
    /// The deadline of each socket operation: the connect, and every
    /// write and every read, waits at most this long. An exchange whose
    /// replies stop arriving for this long fails with
    /// [`NetError::DeadlineExceeded`]; a pipeline whose replies keep
    /// arriving runs on. Set once per connection, when it is dialed.
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

    /// Dials the endpoint and sets the deadline of every later read and
    /// write on the socket: the one place [`ClientOptions::deadline`]
    /// takes effect.
    fn dial(&self) -> Result<Connection, NetError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.opts.deadline)?;
        stream.set_read_timeout(Some(self.opts.deadline))?;
        stream.set_write_timeout(Some(self.opts.deadline))?;
        let _ = stream.set_nodelay(true);
        Ok(Connection::new(stream))
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
        if conn.inflight.capacity() * std::mem::size_of::<(u64, usize)>() > MAX_KEPT_CAPACITY {
            conn.inflight = Vec::new();
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

    /// Runs `requests` through the engine on a checked-out connection,
    /// and pools it again only after a clean run (anything less leaves
    /// the stream state unknowable).
    ///
    /// A kept-alive connection the server closed while it sat idle
    /// fails with a disconnect the moment it is exercised. While
    /// nothing has been answered, that says nothing about the server or
    /// the requests: the stale socket is discarded and the run starts
    /// over on a fresh dial, once, without spending the caller's retry
    /// budget (and without a backoff the caller never asked for).
    fn drive(
        &self,
        requests: &[Message],
        depth: usize,
        slots: &mut [Slot],
    ) -> Result<(), NetError> {
        let (mut conn, pooled) = self.checkout()?;
        let mut outcome = conn.run(&self.next_id, requests, depth, slots);
        if pooled && outcome == Err(NetError::Disconnected) && slots.iter().all(Option::is_none) {
            conn = self.dial()?;
            outcome = conn.run(&self.next_id, requests, depth, slots);
        }
        if outcome.is_ok() {
            self.checkin(conn);
        }
        outcome
    }

    /// Issues `requests` over **one** connection with up to `depth`
    /// in flight at a time, returning one result per request, in request
    /// order.
    ///
    /// Requests are batch-encoded and sent with one write per window
    /// top-up; replies are matched to requests by correlation id, so the
    /// server may answer out of order. The deadline is
    /// [`ClientOptions::deadline`]'s: each read and write is bounded by
    /// it. A transport failure poisons the stream: every request still
    /// outstanding fails with a clone of the same error and the
    /// connection is discarded. Server-side denials and malformed reply
    /// bodies are per-request results and do not disturb the pipeline.
    /// Bytes after the last reply keep the results but unpool the
    /// connection.
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
        let mut slots: Vec<Slot> = requests.iter().map(|_| None).collect();
        let failure = self.drive(requests, depth, &mut slots).err();
        slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| Err(failure.clone().unwrap_or(UNANSWERED))))
            .collect()
    }
}

impl Transport for TcpClient {
    /// A pipeline window of one, retried after a jittered backoff while
    /// the failure is retryable and budget remains.
    fn call(&self, request: &Message) -> Result<Message, NetError> {
        let attempts = self.opts.retry.attempts.max(1);
        let mut attempt = 1;
        loop {
            let mut reply = None;
            let outcome = self
                .drive(
                    std::slice::from_ref(request),
                    1,
                    std::slice::from_mut(&mut reply),
                )
                .and_then(|()| reply.unwrap_or(Err(UNANSWERED)));
            match outcome {
                Err(e) if e.is_retryable() && attempt < attempts => {}
                Err(e) if e.is_retryable() && attempts > 1 => {
                    return Err(NetError::RetriesExhausted {
                        attempts,
                        last: Box::new(e),
                    })
                }
                // A reply, a remote denial, a protocol fault, or the one
                // attempt of a call without retries.
                other => return other,
            }
            std::thread::sleep(self.backoff(attempt));
            attempt += 1;
        }
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
    /// as much of it as the caller made room for), and counts the calls;
    /// it swallows and counts every `write`.
    struct Segments {
        segments: VecDeque<Vec<u8>>,
        reads: usize,
        writes: usize,
    }

    impl Segments {
        fn new(segments: impl IntoIterator<Item = Vec<u8>>) -> Self {
            Self {
                segments: segments.into_iter().collect(),
                reads: 0,
                writes: 0,
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

    impl Write for Segments {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A reply frame carrying `detail_len` bytes of detail: a typed
    /// denial, which the engine hands over as [`NetError::Remote`].
    fn reply_frame(request_id: u64, detail_len: usize) -> Vec<u8> {
        let reply = Message::Error {
            code: proxy_wire::ErrorCode::Malformed,
            detail: "x".repeat(detail_len),
        };
        let mut frame = Vec::new();
        reply.encode_frame_into(&mut frame, request_id);
        frame
    }

    /// A frame whose framing and CRC hold around a body that does not
    /// decode.
    fn garbled_frame(request_id: u64) -> Vec<u8> {
        proxy_wire::frame::encode_frame(0x06, request_id, &[0xFF; 3])
    }

    /// One request numbered `request_id` through the engine on a
    /// scripted peer, read the way [`Transport::call`] reads it: the
    /// engine's error first, then the reply.
    fn window_of_one(peer: Segments, request_id: u64) -> (Result<Message, NetError>, Segments) {
        let mut conn = Connection::new(peer);
        let mut reply = None;
        let outcome = conn
            .run(
                &AtomicU64::new(request_id),
                &[fetch(1)],
                1,
                std::slice::from_mut(&mut reply),
            )
            .and_then(|()| reply.expect("Ok fills every slot"));
        (outcome, conn.stream)
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
            Err(NetError::Remote { detail, .. }) => detail.len(),
            other => panic!("not the scripted reply: {other:?}"),
        }
    }

    #[test]
    fn a_reply_that_arrives_whole_costs_one_read() {
        let (reply, peer) = window_of_one(Segments::new([reply_frame(7, 200)]), 7);
        assert_eq!(detail_len(reply), 200);
        assert_eq!((peer.writes, peer.reads), (1, 1));
    }

    #[test]
    fn a_reply_arriving_a_byte_at_a_time_still_decodes() {
        let frame = reply_frame(9, 300);
        let (reply, peer) = window_of_one(Segments::new(frame.iter().map(|&b| vec![b])), 9);
        assert_eq!(detail_len(reply), 300);
        assert_eq!(peer.reads, frame.len());
    }

    #[test]
    fn a_reply_longer_than_the_first_read_is_finished_by_one_sized_from_its_header() {
        let (reply, peer) = window_of_one(Segments::new([reply_frame(3, 5 * READ_CHUNK)]), 3);
        assert_eq!(detail_len(reply), 5 * READ_CHUNK);
        assert_eq!(peer.reads, 2);
    }

    #[test]
    fn bytes_trailing_a_lone_reply_are_a_protocol_error() {
        let mut bytes = reply_frame(7, 10);
        bytes.push(0);
        assert_eq!(
            window_of_one(Segments::new([bytes]), 7).0.unwrap_err(),
            NetError::Protocol("bytes trail the reply")
        );
        assert_eq!(
            window_of_one(Segments::new([reply_frame(7, 10)]), 8)
                .0
                .unwrap_err(),
            NetError::Protocol("reply request id mismatch")
        );
        // A connection closed mid-reply is a disconnect, as before.
        let frame = reply_frame(7, 10);
        assert_eq!(
            window_of_one(Segments::new([frame[..frame.len() - 1].to_vec()]), 7)
                .0
                .unwrap_err(),
            NetError::Disconnected
        );
    }

    #[test]
    fn a_body_that_does_not_decode_fails_only_its_own_slot() {
        let replies = [garbled_frame(1), reply_frame(2, 10)].concat();
        let mut conn = Connection::new(Segments::new([replies]));
        let mut slots = [None, None];
        let outcome = conn.run(&AtomicU64::new(1), &[fetch(1), fetch(2)], 2, &mut slots);
        assert_eq!(outcome, Ok(()), "the stream stays in step");
        let [garbled, clean] = slots.map(|slot| slot.expect("filled"));
        assert!(matches!(garbled, Err(NetError::Wire(_))), "{garbled:?}");
        assert_eq!(detail_len(clean), 10);
        assert!(conn.replies.is_drained());
        assert_eq!((conn.stream.writes, conn.stream.reads), (1, 1));
    }

    #[test]
    fn an_oversized_declared_body_is_refused_from_the_header_alone() {
        let mut header = reply_frame(1, 0);
        header.truncate(HEADER_LEN);
        header[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut replies = ReplyReader::default();
        let mut peer = Segments::new([header]);
        replies.fill(&mut peer).unwrap();
        assert!(matches!(
            replies.buffered(),
            Err(NetError::Wire(WireError::FrameTooLarge { .. }))
        ));
        // Nothing was sized from the declared length.
        assert_eq!(replies.buf.len(), READ_CHUNK);
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

    #[test]
    fn a_pipeline_whose_last_reply_has_trailing_bytes_keeps_its_results_unpooled() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut bytes = Vec::new();
            for _ in 0..2 {
                let (header, _body) = proxy_wire::frame::read_frame(&mut stream).unwrap();
                bytes.extend_from_slice(&reply_frame(header.request_id, 10));
            }
            bytes.extend_from_slice(b"junk");
            stream.write_all(&bytes).unwrap();
            let _ = stream.read(&mut [0u8; 1]);
        });
        let client = TcpClient::new(addr, ClientOptions::default());
        for reply in client.call_pipelined(&[fetch(1), fetch(2)], 2) {
            assert_eq!(detail_len(reply), 10);
        }
        assert_eq!(client.pooled_connections(), 0);
        drop(client);
        peer.join().unwrap();
    }

    /// Through both entry points, a reply whose body does not decode
    /// fails its own request only, and the connection stays pooled: the
    /// peer accepts once and answers every request on it.
    #[test]
    fn a_reply_body_that_does_not_decode_fails_only_its_request_and_keeps_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut answered = 0;
            while let Ok((header, _body)) = proxy_wire::frame::read_frame(&mut stream) {
                // Requests 0 (a lone call) and 2 (mid-pipeline) get a
                // body that does not decode.
                let bytes = if answered % 2 == 0 && answered < 4 {
                    garbled_frame(header.request_id)
                } else {
                    reply_frame(header.request_id, 10)
                };
                stream.write_all(&bytes).unwrap();
                answered += 1;
            }
            answered
        });
        let client = TcpClient::new(
            addr,
            ClientOptions {
                retry: RetryPolicy::none(),
                ..ClientOptions::default()
            },
        );
        assert!(matches!(client.call(&fetch(1)), Err(NetError::Wire(_))));
        assert_eq!(client.pooled_connections(), 1);
        let [a, b, c] =
            <[_; 3]>::try_from(client.call_pipelined(&[fetch(1), fetch(2), fetch(3)], 3)).unwrap();
        assert_eq!(detail_len(a), 10);
        assert!(matches!(b, Err(NetError::Wire(_))), "{b:?}");
        assert_eq!(detail_len(c), 10);
        assert_eq!(client.pooled_connections(), 1);
        assert_eq!(detail_len(client.call(&fetch(1))), 10);
        drop(client);
        assert_eq!(peer.join().unwrap(), 5);
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
