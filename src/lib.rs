//! # proxy-aa — Proxy-Based Authorization and Accounting
//!
//! Facade crate for the workspace reproducing B. Clifford Neuman,
//! *Proxy-Based Authorization and Accounting for Distributed Systems*
//! (ICDCS 1993). Re-exports the member crates so examples and downstream
//! users can depend on a single crate:
//!
//! * [`crypto`] — self-contained cryptographic substrate.
//! * [`proxy`] — the restricted-proxy model (the paper's contribution).
//! * [`netsim`] — deterministic simulated network.
//! * [`kerberos`] — Kerberos V5-style authentication substrate.
//! * [`authz`] — ACLs, authorization server, group server, capabilities.
//! * [`accounting`] — accounts, checks, endorsements, clearing.
//! * [`baselines`] — comparators from the paper's related-work section.
//! * [`runtime`] — readiness poller (epoll/poll) under the event loop.
//! * [`wire`] — versioned, CRC-framed binary wire format for every
//!   protocol message, hardened against hostile input.
//! * [`net`] — the TCP/loopback service layer: `Transport`, the
//!   request mux, event-loop server, and retrying pooled client.
//!
//! See `README.md` for a tour and `examples/` for runnable scenarios.
//!
//! ```
//! use proxy_aa::proxy::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let session = proxy_aa::crypto::keys::SymmetricKey::generate(&mut rng);
//! let proxy = grant(
//!     &PrincipalId::new("alice"),
//!     &GrantAuthority::SharedKey(session),
//!     RestrictionSet::new(),
//!     Validity::new(Timestamp(0), Timestamp(100)),
//!     1,
//!     &mut rng,
//! );
//! assert_eq!(proxy.grantor().as_str(), "alice");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kerberos_sim as kerberos;
pub use netsim;
pub use proxy_accounting as accounting;
pub use proxy_authz as authz;
pub use proxy_baselines as baselines;
pub use proxy_crypto as crypto;
pub use proxy_net as net;
pub use proxy_runtime as runtime;
pub use proxy_storage as storage;
pub use proxy_wire as wire;
pub use restricted_proxy as proxy;
