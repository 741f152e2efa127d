//! The [`Transport`] abstraction.

use proxy_wire::Message;

use crate::error::NetError;

/// A request/reply channel to a service endpoint.
///
/// Implemented by [`crate::TcpClient`] (real sockets); the typed helpers
/// of [`crate::api`] are written against the trait.
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
