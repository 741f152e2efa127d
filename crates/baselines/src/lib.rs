//! # proxy-baselines
//!
//! The comparison systems the paper discusses in §5, implemented so the
//! benchmark harness can measure restricted proxies against them:
//!
//! * [`sollins`] — cascaded authentication with *online* chain
//!   verification (each link validated by querying the authentication
//!   server), vs. our offline chains (§3.4, experiment F4).
//! * [`dssa`] — role-based delegation: every restriction profile requires
//!   registering a fresh role principal at a CA before delegating
//!   (ablation A2).
//! * [`amoeba`] — the prepaid bank server: transfer funds to the server's
//!   pot before service, refund what is left (experiment F5).
//! * [`grapevine`] — per-request online group-membership queries
//!   (experiment F3).
//!
//! ```
//! use netsim::Network;
//! use proxy_baselines::grapevine::{query_membership, RegistrationServer};
//! use restricted_proxy::principal::PrincipalId;
//!
//! let mut reg = RegistrationServer::new();
//! reg.add_member("staff", PrincipalId::new("bob"));
//! let mut net = Network::new(0);
//! assert!(query_membership(&PrincipalId::new("fs"), &reg, "staff", &PrincipalId::new("bob"), &mut net));
//! assert_eq!(net.total_messages(), 2, "every request costs a round trip");
//! ```

pub mod amoeba;
pub mod dssa;
pub mod grapevine;
pub mod sollins;

pub use amoeba::AmoebaBank;
pub use dssa::{CertificationAuthority, DelegationCert, DssaUser, Role};
pub use grapevine::RegistrationServer;
pub use sollins::{Passport, SollinsAuthServer};

/// Errors shared by the baseline implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// An account or pot could not cover a request.
    InsufficientFunds {
        /// Amount requested.
        requested: u64,
        /// Amount available.
        available: u64,
    },
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::InsufficientFunds {
                requested,
                available,
            } => {
                write!(
                    f,
                    "insufficient funds: requested {requested}, available {available}"
                )
            }
        }
    }
}

impl std::error::Error for BaselineError {}
