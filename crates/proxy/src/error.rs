//! Error types for granting and verifying proxies.

use crate::encode::DecodeError;
use crate::principal::PrincipalId;
use crate::restriction::Denial;
use crate::time::Timestamp;

/// Errors while granting or deriving a proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrantError {
    /// The requested validity window does not overlap the parent chain's
    /// effective window — a derived proxy cannot outlive its parent.
    ValidityOutsideParent,
    /// The parent chain was empty.
    EmptyParent,
}

impl std::fmt::Display for GrantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrantError::ValidityOutsideParent => {
                write!(
                    f,
                    "requested validity does not overlap the parent proxy's window"
                )
            }
            GrantError::EmptyParent => write!(f, "parent certificate chain is empty"),
        }
    }
}

impl std::error::Error for GrantError {}

/// Errors while verifying a presented proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The presentation carried no certificates.
    EmptyChain,
    /// The chain head claims to be sealed by a prior proxy key, which is
    /// impossible — the head must be grantor-sealed.
    HeadNotGrantorSealed,
    /// No verification material for the named grantor.
    UnknownGrantor(PrincipalId),
    /// A certificate's seal did not verify.
    BadSeal {
        /// Index of the offending certificate in the chain.
        index: usize,
    },
    /// A sealed proxy key could not be recovered (wrong server or
    /// tampering).
    KeyUnrecoverable {
        /// Index of the offending certificate in the chain.
        index: usize,
    },
    /// Mixed cryptosystem flavors within one chain.
    FlavorMismatch {
        /// Index of the offending certificate in the chain.
        index: usize,
    },
    /// A certificate was outside its validity window at evaluation time.
    NotValidAt {
        /// Index of the offending certificate in the chain.
        index: usize,
        /// The evaluation time.
        now: Timestamp,
    },
    /// A certificate's serial appears in its grantor's mirrored
    /// revocation set (§3.1 revocation made explicit; see
    /// [`crate::revocation`]).
    Revoked {
        /// Index of the revoked certificate in the chain.
        index: usize,
        /// The revoked serial number.
        serial: u64,
    },
    /// A restriction denied the request.
    Denied(Denial),
    /// A bearer proxy was presented without a possession proof (§2: to
    /// exercise a bearer proxy the bearer must prove possession of the
    /// proxy key).
    BearerRequiresPossession,
    /// The possession proof did not verify.
    BadPossession,
    /// Wire decoding failed.
    Decode(DecodeError),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::EmptyChain => write!(f, "presentation contains no certificates"),
            VerifyError::HeadNotGrantorSealed => {
                write!(f, "chain head must be sealed by its grantor")
            }
            VerifyError::UnknownGrantor(p) => {
                write!(f, "no verification material for grantor {p}")
            }
            VerifyError::BadSeal { index } => {
                write!(f, "certificate {index} seal verification failed")
            }
            VerifyError::KeyUnrecoverable { index } => {
                write!(f, "certificate {index} proxy key could not be recovered")
            }
            VerifyError::FlavorMismatch { index } => {
                write!(
                    f,
                    "certificate {index} uses a different cryptosystem than its chain"
                )
            }
            VerifyError::NotValidAt { index, now } => {
                write!(f, "certificate {index} not valid at {now}")
            }
            VerifyError::Revoked { index, serial } => {
                write!(f, "certificate {index} (serial {serial}) has been revoked")
            }
            VerifyError::Denied(d) => write!(f, "request denied: {d}"),
            VerifyError::BearerRequiresPossession => {
                write!(f, "bearer proxy presented without proof of possession")
            }
            VerifyError::BadPossession => write!(f, "proof of possession failed"),
            VerifyError::Decode(e) => write!(f, "malformed presentation: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::Denied(d) => Some(d),
            VerifyError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Denial> for VerifyError {
    fn from(d: Denial) -> Self {
        VerifyError::Denied(d)
    }
}

impl From<DecodeError> for VerifyError {
    fn from(e: DecodeError) -> Self {
        VerifyError::Decode(e)
    }
}
