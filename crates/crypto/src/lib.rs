//! # proxy-crypto
//!
//! Self-contained cryptographic substrate for the restricted-proxy
//! reproduction of Neuman's *Proxy-Based Authorization and Accounting for
//! Distributed Systems* (ICDCS 1993).
//!
//! The paper's mechanism is applied cryptography: a proxy is a certificate
//! *sealed* by its grantor plus a *proxy key* proven by the bearer. Rather
//! than pulling in external crypto crates, this crate implements everything
//! the protocols need from primary sources:
//!
//! * [`sha256`] / [`sha512`] — FIPS 180-4 hash functions.
//! * [`hmac`] — RFC 2104 keyed MAC over SHA-256; a keyed context keeps both
//!   pad midstates, so a long-lived key pays for its pads once.
//! * [`chacha20`] — RFC 8439 stream cipher, used to protect proxy keys in
//!   transit (the paper's "{K_proxy}K_session").
//! * [`seal`] — encrypt-then-MAC authenticated sealing, the moral
//!   equivalent of encrypting a certificate under a session key in
//!   Kerberos-style proxies (paper §6.2).
//! * [`ed25519`] — RFC 8032 signatures (field, scalar, and point
//!   arithmetic implemented here), the public-key backend of paper §6.1.
//! * [`keys`] — key and nonce newtypes shared by the higher layers.
//! * [`ct`] — constant-time comparison helpers.
//!
//! Conventional (shared-key) proxies sign certificates with HMAC; public-key
//! proxies sign with Ed25519. Higher layers choose via the backend
//! abstraction in the `restricted-proxy` crate.
//!
//! ## Example
//!
//! ```
//! use proxy_crypto::{ed25519::SigningKey, sha256::Sha256};
//!
//! let seed = [7u8; 32];
//! let sk = SigningKey::from_seed(&seed);
//! let sig = sk.sign(b"grant: read file f");
//! assert!(sk.verifying_key().verify(b"grant: read file f", &sig).is_ok());
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest[0], 0xba);
//! ```

pub mod chacha20;
pub mod ct;
pub mod ed25519;
pub mod hmac;
pub mod keys;
pub mod seal;
pub mod sha256;
pub mod sha512;

pub use keys::{KeyError, Nonce, SymmetricKey};
