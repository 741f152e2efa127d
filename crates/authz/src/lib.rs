//! # proxy-authz
//!
//! Authorization mechanisms built on restricted proxies (paper §3):
//!
//! * [`acl`] — access-control lists whose entries carry restrictions and
//!   support compound principals (§3.5).
//! * [`capability`] — capabilities as restricted bearer proxies (§3.1).
//! * [`server`] — the authorization server of Fig. 3: clients present
//!   authenticated requests (optionally with group proxies) and receive
//!   restricted proxies asserting their rights (§3.2).
//! * [`groups`] — the group server (§3.3): delegate proxies proving group
//!   membership, named globally as `server/group`.
//! * [`endserver`] — the decision engine an application server runs,
//!   combining its local ACL with whatever proxies accompany a request
//!   (§3.5): ACL-only, capability-only, or any mixture, including
//!   `for-use-by-group` co-presentation and separation of privilege.
//!
//! ```
//! use proxy_authz::{Acl, AclRights, AclSubject, EndServer, Request};
//! use restricted_proxy::prelude::*;
//!
//! let mut server = EndServer::new(PrincipalId::new("fs"), MapResolver::new());
//! server.acls.set(
//!     ObjectName::new("wiki"),
//!     Acl::new().with(
//!         AclSubject::Principal(PrincipalId::new("alice")),
//!         AclRights::ops(vec![Operation::new("edit")]),
//!     ),
//! );
//! let req = Request::new(Operation::new("edit"), ObjectName::new("wiki"), Timestamp(1))
//!     .authenticated_as(PrincipalId::new("alice"));
//! assert!(server.authorize(&req).is_ok());
//! ```

// L1, panic-free decode (DESIGN.md §11): this crate reads bytes a peer
// or a disk chose, so outside test code a reachable panic is a remote
// crash. Index with `get`, narrow with `try_from`, return typed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::disallowed_macros,
    )
)]
// L2, fail-closed matches (paper §7.9): every arm over a local enum is
// named, so a new variant breaks each decision site instead of falling
// into a wildcard.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
// L4, no ambient time: clocks are injected `Timestamp`s, so runs replay
// the same under a fixed seed (clippy.toml lists the methods).
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod acl;
pub mod capability;
pub mod endserver;
pub mod error;
pub mod groups;
pub mod server;

pub use acl::{Acl, AclEntry, AclRights, AclStore, AclSubject, ClaimSet};
pub use capability::CapabilityIssuer;
pub use endserver::{Authorized, EndServer, Request};
pub use error::AuthzError;
pub use groups::GroupServer;
pub use server::AuthorizationServer;
