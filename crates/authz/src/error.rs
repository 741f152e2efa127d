//! Error types for the authorization layer.

use restricted_proxy::error::VerifyError;
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::restriction::{ObjectName, Operation};
use restricted_proxy::revocation::ArtifactError;

/// Errors from ACL evaluation, authorization servers, and group servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthzError {
    /// A presented proxy failed verification.
    Verify(VerifyError),
    /// No ACL entry (directly or via proxies/groups) authorizes the
    /// request.
    NotAuthorized {
        /// The requested operation.
        operation: Operation,
        /// The object the operation targets.
        object: ObjectName,
    },
    /// The authorization server has no entry for the requesting client.
    UnknownClient(PrincipalId),
    /// The group server does not maintain the named group.
    UnknownGroup(String),
    /// The requester is not a member of the requested group.
    NotAMember {
        /// The requested group.
        group: String,
        /// The requester.
        principal: PrincipalId,
    },
    /// A client asked the authorization server for rights at a server the
    /// database has no entry for.
    NoRightsAt(PrincipalId),
    /// A revocation or membership artifact was refused (bad seal,
    /// unknown issuer, epoch regression, delta-base mismatch, or a
    /// stored artifact that no longer decodes).
    Artifact(ArtifactError),
    /// The durable artifact store could not be read or written; the
    /// mirror keeps enforcing its last verified state, but new epochs
    /// are refused rather than accepted without durability.
    Storage(proxy_storage::StorageError),
}

impl std::fmt::Display for AuthzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthzError::Verify(e) => write!(f, "proxy verification failed: {e}"),
            AuthzError::NotAuthorized { operation, object } => {
                write!(f, "no authorization for {operation} on {object}")
            }
            AuthzError::UnknownClient(p) => write!(f, "no authorization entry for {p}"),
            AuthzError::UnknownGroup(g) => write!(f, "unknown group {g}"),
            AuthzError::NotAMember { group, principal } => {
                write!(f, "{principal} is not a member of {group}")
            }
            AuthzError::NoRightsAt(s) => write!(f, "no rights recorded for server {s}"),
            AuthzError::Artifact(e) => write!(f, "artifact refused: {e}"),
            AuthzError::Storage(e) => write!(f, "artifact store failure: {e}"),
        }
    }
}

impl std::error::Error for AuthzError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuthzError::Verify(e) => Some(e),
            AuthzError::Artifact(e) => Some(e),
            AuthzError::Storage(e) => Some(e),
            AuthzError::NotAuthorized { .. }
            | AuthzError::UnknownClient(_)
            | AuthzError::UnknownGroup(_)
            | AuthzError::NotAMember { .. }
            | AuthzError::NoRightsAt(_) => None,
        }
    }
}

impl From<VerifyError> for AuthzError {
    fn from(e: VerifyError) -> Self {
        AuthzError::Verify(e)
    }
}

impl From<ArtifactError> for AuthzError {
    fn from(e: ArtifactError) -> Self {
        AuthzError::Artifact(e)
    }
}

impl From<proxy_storage::StorageError> for AuthzError {
    fn from(e: proxy_storage::StorageError) -> Self {
        AuthzError::Storage(e)
    }
}
