//! Error type for the accounting layer.

use restricted_proxy::encode::DecodeError;
use restricted_proxy::error::VerifyError;
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::restriction::{Currency, Denial};
use restricted_proxy::revocation::ArtifactError;

/// Errors from accounts, checks, and clearing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcctError {
    /// The named account does not exist on this server.
    UnknownAccount(String),
    /// The account cannot cover the requested amount.
    InsufficientFunds {
        /// Currency requested.
        currency: Currency,
        /// Amount requested.
        requested: u64,
        /// Amount available.
        available: u64,
    },
    /// A check (or its endorsement chain) failed proxy verification —
    /// including replays of a spent check number.
    Verify(VerifyError),
    /// A check was missing one of its defining restrictions.
    MalformedCheck(&'static str),
    /// A check drawn on another server was presented for collection here.
    WrongServer {
        /// The server the check is drawn on.
        drawn_on: PrincipalId,
        /// The server that received it.
        received_by: PrincipalId,
    },
    /// The principal is not authorized to debit the account.
    NotAuthorized(PrincipalId),
    /// No clearing route toward the payor's server.
    NoRoute(PrincipalId),
    /// A certified check's hold was not found at the payor's server.
    NoHold {
        /// The check number whose hold is missing.
        check_no: u64,
    },
    /// The durable journal could not record the operation. The server
    /// is fail-stop: the in-memory mutation did not happen (or, for a
    /// crash injection, no acknowledgement may be sent), so retrying
    /// after recovery is safe.
    Storage(proxy_storage::StorageError),
    /// The journal read back at recovery did not decode as a record
    /// this server could have written.
    BadJournal(&'static str),
    /// A revocation artifact was refused (bad seal, unknown issuer,
    /// epoch regression, delta-base mismatch).
    Artifact(ArtifactError),
}

impl AcctError {
    /// The refusal of a check number a certified check already holds: a
    /// second certification of it, or a check with that number other
    /// than the one certified. The number is taken, as a replayed
    /// `accept-once` identifier is.
    #[must_use]
    pub(crate) fn held_number(check_no: u64) -> AcctError {
        AcctError::Verify(VerifyError::Denied(Denial::AlreadyAccepted {
            id: check_no,
        }))
    }
}

impl std::fmt::Display for AcctError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcctError::UnknownAccount(a) => write!(f, "unknown account {a}"),
            AcctError::InsufficientFunds {
                currency,
                requested,
                available,
            } => write!(
                f,
                "insufficient funds: requested {requested} {currency}, available {available}"
            ),
            AcctError::Verify(e) => write!(f, "check verification failed: {e}"),
            AcctError::MalformedCheck(what) => write!(f, "malformed check: missing {what}"),
            AcctError::WrongServer {
                drawn_on,
                received_by,
            } => {
                write!(f, "check drawn on {drawn_on} presented to {received_by}")
            }
            AcctError::NotAuthorized(p) => write!(f, "{p} may not debit this account"),
            AcctError::NoRoute(s) => write!(f, "no clearing route toward {s}"),
            AcctError::NoHold { check_no } => {
                write!(f, "no hold found for certified check {check_no}")
            }
            AcctError::Storage(e) => write!(f, "durable journal failure: {e}"),
            AcctError::BadJournal(what) => {
                write!(f, "journal record does not decode: {what}")
            }
            AcctError::Artifact(e) => write!(f, "revocation artifact refused: {e}"),
        }
    }
}

impl std::error::Error for AcctError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AcctError::Verify(e) => Some(e),
            AcctError::Storage(e) => Some(e),
            AcctError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VerifyError> for AcctError {
    fn from(e: VerifyError) -> Self {
        AcctError::Verify(e)
    }
}

impl From<proxy_storage::StorageError> for AcctError {
    fn from(e: proxy_storage::StorageError) -> Self {
        AcctError::Storage(e)
    }
}

impl From<ArtifactError> for AcctError {
    fn from(e: ArtifactError) -> Self {
        AcctError::Artifact(e)
    }
}

impl From<DecodeError> for AcctError {
    fn from(_: DecodeError) -> Self {
        AcctError::BadJournal("truncated or malformed field")
    }
}
