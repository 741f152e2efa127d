//! # kerberos-sim
//!
//! A Kerberos V5-style authentication substrate (paper §6.2), built on the
//! [`proxy_crypto`] seal primitives and carrying [`restricted_proxy`]
//! restriction sets in its `authorization-data` fields.
//!
//! The protocol shapes follow Version 5 as the paper uses it:
//!
//! * **AS exchange** ([`kdc::Kdc::authentication_service`]): login; issues
//!   a ticket-granting ticket. The client may restrict its own credentials
//!   at login (§6.3: initial authentication "can itself be thought of as
//!   the granting of a proxy").
//! * **TGS exchange** ([`kdc::Kdc::ticket_granting_service`]): converts a
//!   TGT into service tickets. Authorization-data is strictly additive:
//!   restrictions from the TGT, the authenticator, and the request are
//!   unioned, never removed.
//! * **AP exchange** ([`server::ApServer::accept`]): ticket +
//!   authenticator presented to an application server, with clock-skew and
//!   replay-cache enforcement.
//! * **Proxies** ([`client::Client::derive_proxy`]): per §6.2, a proxy is a
//!   ticket plus an authenticator whose subkey field holds a fresh proxy
//!   key and whose authorization-data holds the added restrictions. A
//!   proxy on the *ticket-granting service* lets the grantee mint
//!   per-end-server tickets with identical restrictions
//!   ([`client::redeem_tgs_proxy`], §6.3).
//! * **Bridge** ([`server::SessionResolver`]): session keys established by
//!   AP exchanges become the shared-key verifiers for restricted-proxy
//!   certificates — the conventional-cryptography deployment of the proxy
//!   model.
//!
//! ```
//! use kerberos_sim::{ApServer, Client, Kdc};
//! use rand::{rngs::StdRng, SeedableRng};
//! use restricted_proxy::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut kdc = Kdc::new(&mut rng);
//! let alice_key = kdc.register(PrincipalId::new("alice"), &mut rng);
//! let fs_key = kdc.register(PrincipalId::new("fs"), &mut rng);
//!
//! let mut alice = Client::new(PrincipalId::new("alice"), alice_key);
//! let tgt = alice.login(&kdc, RestrictionSet::new(), 1_000, 0, &mut rng)?;
//! let creds =
//!     alice.get_service_ticket(&kdc, &tgt, PrincipalId::new("fs"), RestrictionSet::new(), 500, 1, &mut rng)?;
//! let mut fs = ApServer::new(PrincipalId::new("fs"), fs_key);
//! let authenticator = alice.make_authenticator(&creds, 2, &mut rng);
//! let accepted = fs.accept(&creds.ticket_blob, &authenticator, 2)?;
//! assert_eq!(accepted.client, PrincipalId::new("alice"));
//! # Ok::<(), kerberos_sim::KrbError>(())
//! ```

// L4, no ambient time: clocks are injected `Timestamp`s, so runs replay
// the same under a fixed seed (clippy.toml lists the methods).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod client;
pub mod error;
pub mod flows;
pub mod kdc;
pub mod server;
pub mod ticket;

pub use client::{redeem_tgs_proxy, Client, Credentials, KrbProxy, KrbProxyKey};
pub use error::KrbError;
pub use flows::{ap_flow, authenticate_flow, login_flow, service_ticket_flow};
pub use kdc::{tgs_principal, AsReply, AsRequest, Kdc, TgsReply, TgsRequest};
pub use server::{Accepted, ApServer, SessionResolver};
pub use ticket::{Authenticator, EncPart, Ticket};
