//! # proxy-wire
//!
//! The versioned, canonical binary wire format for every protocol
//! exchange the paper describes: authorization queries and grants
//! (§3.2, Fig. 3), group-membership queries (§3.3), end-server requests
//! carrying cascaded proxy chains (Fig. 4), and the accounting flows —
//! check write, deposit, endorsement, certification (§4, Fig. 5) — plus
//! typed error replies.
//!
//! Messages are layered on the same length-prefixed codec that
//! certificates are sealed over ([`restricted_proxy::encode`]), wrapped
//! in [`frame`]s that carry a magic, protocol version, message type,
//! request id, and CRC-32 trailer.
//!
//! ## Hostile-input posture
//!
//! Everything here assumes the peer is an adversary:
//!
//! * The frame header is validated (magic, version, declared length ≤
//!   [`MAX_FRAME_BODY`]) before a single body byte is read, so declared
//!   sizes cannot drive allocation.
//! * Collection counts inside bodies are bounded both by the remaining
//!   input ([`restricted_proxy::encode::Decoder::counted`]) and by
//!   wire-level semantic limits ([`MAX_CHAIN_DEPTH`],
//!   [`MAX_RESTRICTIONS`], …).
//! * Every rejection is a typed [`WireError`]; no input may panic the
//!   decoder.
//!
//! A reply that carries a granted proxy includes its proxy *key* — that
//! is the paper's model (§2: the proxy key is returned to the grantee
//! with the certificate). On a real network such a reply must ride an
//! encrypted session; this crate defines the bytes, the channel security
//! is the transport's concern (see `proxy-net`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod error;
pub mod frame;
pub mod message;

pub use error::WireError;
pub use frame::{FrameHeader, HEADER_LEN, TRAILER_LEN};
pub use message::{ErrorCode, Message};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"PXAA";

/// Protocol version this implementation speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Largest frame body a receiver will accept (bytes). Large enough for a
/// maximal legitimate message (a full cascade chain of certificates with
/// generous restriction sets), small enough that a hostile declared
/// length cannot commit the receiver to a meaningful allocation.
pub const MAX_FRAME_BODY: u32 = 256 * 1024;

/// Longest certificate chain accepted in a proxy or presentation.
pub const MAX_CHAIN_DEPTH: usize = 32;

/// Most restrictions accepted on one certificate.
pub const MAX_RESTRICTIONS: usize = 256;

/// Most presentations accepted in one request.
pub const MAX_PRESENTATIONS: usize = 16;

/// Most group names accepted in one group query or decision.
pub const MAX_GROUPS: usize = 64;

/// Most (currency, amount) pairs accepted in one request.
pub const MAX_AMOUNTS: usize = 16;

/// Most revocation or membership artifacts accepted in one update
/// message. A delta chain longer than this rides several frames (or the
/// issuer falls back to a snapshot); a hostile count cannot commit the
/// receiver to decoding an unbounded artifact train.
pub const MAX_ARTIFACTS: usize = 64;
