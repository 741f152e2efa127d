//! The [`Transport`] abstraction and the deterministic in-proc loopback.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netsim::{EndpointId, Network};
use proxy_wire::Message;
use rand::rngs::StdRng;
use rand::SeedableRng;
use restricted_proxy::prelude::KeyResolver;

use crate::error::NetError;
use crate::mux::ServiceMux;

/// A request/reply channel to a service endpoint.
///
/// Implementations: [`Loopback`] (in-process, deterministic, accounted
/// through `netsim`) and [`crate::TcpClient`] (real sockets). Code
/// written against this trait — the examples, the benchmarks, the
/// integration tests — runs unchanged over either.
pub trait Transport {
    /// Sends `request` and waits for the (typed) reply.
    ///
    /// A server-side denial arrives as [`NetError::Remote`]; transport
    /// failures as the other [`NetError`] variants. `Ok` is always a
    /// non-error protocol message.
    ///
    /// # Errors
    ///
    /// See [`NetError`].
    fn call(&self, request: &Message) -> Result<Message, NetError>;
}

/// In-process transport: requests are framed to real wire bytes, tallied
/// on a [`Network`] link, and dispatched straight into a [`ServiceMux`].
///
/// Everything that crosses this transport is *actually encoded and
/// decoded* — a message that would not survive TCP does not survive
/// loopback either — but no sockets or threads are involved, and the
/// byte/message tallies recorded on the `Network` use only its atomic
/// counters ([`Network::record`]), so single-threaded figure harnesses
/// sharing the same `Network` stay deterministic.
pub struct Loopback<R: KeyResolver> {
    mux: Arc<ServiceMux<R>>,
    net: Arc<Network>,
    client: EndpointId,
    server: EndpointId,
    seed: u64,
    next_id: AtomicU64,
}

impl<R: KeyResolver> Loopback<R> {
    /// A loopback link `client → server` over `net`, with server-side
    /// randomness derived from `seed` and each request's id.
    #[must_use]
    pub fn new(
        mux: Arc<ServiceMux<R>>,
        net: Arc<Network>,
        client: EndpointId,
        server: EndpointId,
        seed: u64,
    ) -> Self {
        Self {
            mux,
            net,
            client,
            server,
            seed,
            next_id: AtomicU64::new(1),
        }
    }
}

impl<R: KeyResolver> Transport for Loopback<R> {
    fn call(&self, request: &Message) -> Result<Message, NetError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Round-trip the request through its real frame encoding: the
        // loopback must reject exactly what TCP would reject.
        let frame = request.to_frame(id);
        self.net
            .record(&self.client, &self.server, frame.len() as u64);
        let (request_id, decoded) = Message::from_frame(&frame)?;
        // One generator per request, derived the way `EventLoopServer`
        // derives one per connection: callers share no lock.
        let seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(request_id));
        let reply = self.mux.handle(decoded, &mut rng);
        let reply_frame = reply.to_frame(request_id);
        self.net
            .record(&self.server, &self.client, reply_frame.len() as u64);
        match Message::from_frame(&reply_frame)? {
            (_, Message::Error { code, detail }) => Err(NetError::Remote { code, detail }),
            (_, message) => Ok(message),
        }
    }
}
