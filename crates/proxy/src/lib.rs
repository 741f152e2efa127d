//! # restricted-proxy
//!
//! The restricted-proxy model of B. Clifford Neuman, *Proxy-Based
//! Authorization and Accounting for Distributed Systems* (ICDCS 1993).
//!
//! A **proxy** is a token that lets one principal operate with the rights
//! of another. A **restricted proxy** (Fig. 1 of the paper) is a
//! certificate, sealed by its grantor, that carries:
//!
//! * a set of typed, *additive* [`restriction`]s (§7) — conditions that can
//!   be added but never removed, and
//! * proxy-key material — a key whose possession the grantee proves when
//!   exercising the proxy, so the certificate alone (observable on the
//!   wire) is useless to an eavesdropper.
//!
//! Two kinds of proxies exist (§2): **bearer** proxies, exercised by
//! proving possession of the proxy key, and **delegate** proxies, which
//! carry a `grantee` restriction and are exercised by authenticating as a
//! named delegate. Chains of certificates implement **cascaded
//! authorization** (Fig. 4) verified entirely offline by the end-server.
//!
//! Both cryptosystems of §6 are supported through one API: conventional
//! (HMAC under keys shared via the authentication substrate — the
//! Kerberos-style deployment of §6.2) and public-key (Ed25519 — §6.1).
//!
//! ## Quick start
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use restricted_proxy::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! // Conventional world: alice shares a session key with the file server.
//! let session = proxy_crypto::keys::SymmetricKey::generate(&mut rng);
//! let alice = PrincipalId::new("alice");
//! let fs = PrincipalId::new("fileserver");
//!
//! // Alice grants a read-only capability for one file.
//! let proxy = grant(
//!     &alice,
//!     &GrantAuthority::SharedKey(session.clone()),
//!     RestrictionSet::new().with(Restriction::authorize_op(
//!         ObjectName::new("/doc/report"),
//!         Operation::new("read"),
//!     )),
//!     Validity::new(Timestamp(0), Timestamp(1000)),
//!     1,
//!     &mut rng,
//! );
//!
//! // The file server verifies a presentation of it.
//! let resolver = MapResolver::new().with(alice.clone(), GrantorVerifier::SharedKey(session));
//! let verifier = Verifier::new(fs.clone(), resolver);
//! let presentation = proxy.present_bearer([42u8; 32], &fs);
//! let ctx = RequestContext::new(fs, Operation::new("read"), ObjectName::new("/doc/report"));
//! let mut replay = MemoryReplayGuard::new();
//! let verified = verifier.verify(&presentation, &ctx, &mut replay)?;
//! assert_eq!(verified.grantor, alice);
//! # Ok::<(), restricted_proxy::error::VerifyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cert;
pub mod context;
pub mod encode;
pub mod epoch;
pub mod error;
pub mod key;
mod keytable;
pub mod membership;
pub mod nameserver;
pub mod present;
pub mod principal;
pub mod proxy;
pub mod replay;
pub mod restriction;
pub mod revocation;
pub mod shard;
pub mod time;
pub mod transfer;
pub mod verify;

/// Convenient glob import of the commonly-used types.
pub mod prelude {
    pub use crate::cache::VerifiedCertCache;
    pub use crate::cert::{CertSeal, Certificate, SigningAuthorityKind};
    pub use crate::context::RequestContext;
    pub use crate::epoch::{ArtifactError, ArtifactKind};
    pub use crate::error::{GrantError, VerifyError};
    pub use crate::key::{GrantAuthority, GrantorVerifier, KeyMaterial, KeyResolver, MapResolver};
    pub use crate::membership::{
        member_digest, MemberDigest, MembershipAnswer, MembershipArtifact, MembershipDirectory,
    };
    pub use crate::nameserver::{CertifiedResolver, KeyBinding, NameServer};
    pub use crate::present::{Presentation, Proof};
    pub use crate::principal::{GroupName, PrincipalId};
    pub use crate::proxy::{delegate_cascade, grant, Proxy};
    pub use crate::replay::{MemoryReplayGuard, RejectAcceptOnce, ReplayCache, ReplayGuard};
    pub use crate::restriction::{
        AuthorizedEntry, Currency, Denial, ObjectName, Operation, Restriction, RestrictionSet,
    };
    pub use crate::revocation::{
        RevocationArtifact, RevocationDirectory, RevocationRegistry, SerialSet,
    };
    pub use crate::shard::ShardMap;
    pub use crate::time::{Timestamp, Validity};
    pub use crate::verify::{VerifiedProxy, Verifier};
}
