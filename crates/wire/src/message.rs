//! Protocol messages and their canonical body encodings.
//!
//! One [`Message`] variant per protocol exchange; the variant picks the
//! frame's `msg_type` byte. Bodies reuse the certificate codec
//! ([`restricted_proxy::encode`]) so there is exactly one binary
//! convention in the system.
//!
//! Requests and replies are distinct variants — the mux answers an
//! `AuthzQuery` with an `AuthzGrant` or an `Error` — and a decoded body
//! is always run to completion ([`Decoder::finish`]) so trailing garbage
//! is rejected, keeping the encoding canonical on the wire too.

use std::fmt;

use proxy_crypto::ed25519::SigningKey;
use proxy_crypto::keys::SymmetricKey;
use restricted_proxy::encode::{DecodeError, Decoder, Encoder};
use restricted_proxy::prelude::{
    Certificate, Currency, GrantAuthority, GroupName, ObjectName, Operation, Presentation,
    PrincipalId, Proxy, Timestamp, Validity,
};

use restricted_proxy::membership::MembershipArtifact;
use restricted_proxy::revocation::RevocationArtifact;

use crate::error::WireError;
use crate::frame;
use crate::{
    MAX_AMOUNTS, MAX_ARTIFACTS, MAX_CHAIN_DEPTH, MAX_GROUPS, MAX_PRESENTATIONS, MAX_RESTRICTIONS,
};

/// Typed reason carried by an [`Message::Error`] reply.
///
/// The codes cover both service-level denials (mapping the `AuthzError` /
/// `AcctError` enums of the service crates) and protocol-level rejections
/// (`BadRequest`, `Malformed`, `Unavailable`). Unassigned values decode
/// as [`ErrorCode::Other`] so new codes can be added without breaking old
/// peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was understood and denied (no rights).
    NotAuthorized,
    /// A presentation or seal failed cryptographic verification.
    VerifyFailed,
    /// The named principal is unknown to the server.
    UnknownPrincipal,
    /// The named group does not exist.
    UnknownGroup,
    /// The requester is not a member of the named group.
    NotAMember,
    /// The authorization server holds no rights database for that server.
    NoRightsAt,
    /// The named account does not exist.
    UnknownAccount,
    /// The account cannot cover the requested amount.
    InsufficientFunds,
    /// The check's restriction set does not form a valid check.
    MalformedCheck,
    /// The check is drawn on a different accounting server.
    WrongServer,
    /// No route to the accounting server the check is drawn on.
    NoRoute,
    /// No hold exists for the referenced certified check.
    NoHold,
    /// The message type cannot be served by this endpoint (e.g. a reply
    /// sent as a request).
    BadRequest,
    /// No service for this message type is mounted on the mux.
    Unavailable,
    /// The frame or body failed decoding.
    Malformed,
    /// A code minted by a newer protocol revision.
    Other(u16),
}

impl ErrorCode {
    /// Wire value of the code.
    #[must_use]
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::NotAuthorized => 1,
            ErrorCode::VerifyFailed => 2,
            ErrorCode::UnknownPrincipal => 3,
            ErrorCode::UnknownGroup => 4,
            ErrorCode::NotAMember => 5,
            ErrorCode::NoRightsAt => 6,
            ErrorCode::UnknownAccount => 7,
            ErrorCode::InsufficientFunds => 8,
            ErrorCode::MalformedCheck => 9,
            ErrorCode::WrongServer => 10,
            ErrorCode::NoRoute => 11,
            ErrorCode::NoHold => 12,
            ErrorCode::BadRequest => 13,
            ErrorCode::Unavailable => 14,
            ErrorCode::Malformed => 15,
            ErrorCode::Other(v) => v,
        }
    }

    /// Decodes a wire value (never fails; unknown values become
    /// [`ErrorCode::Other`]).
    #[must_use]
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => ErrorCode::NotAuthorized,
            2 => ErrorCode::VerifyFailed,
            3 => ErrorCode::UnknownPrincipal,
            4 => ErrorCode::UnknownGroup,
            5 => ErrorCode::NotAMember,
            6 => ErrorCode::NoRightsAt,
            7 => ErrorCode::UnknownAccount,
            8 => ErrorCode::InsufficientFunds,
            9 => ErrorCode::MalformedCheck,
            10 => ErrorCode::WrongServer,
            11 => ErrorCode::NoRoute,
            12 => ErrorCode::NoHold,
            13 => ErrorCode::BadRequest,
            14 => ErrorCode::Unavailable,
            15 => ErrorCode::Malformed,
            other => ErrorCode::Other(other),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Every message that can cross the wire, request and reply alike.
#[derive(Debug, Clone)]
pub enum Message {
    /// Fig. 3 step 1: a client asks the authorization server for a proxy
    /// asserting its rights for `operation` on `object` at `end_server`.
    AuthzQuery {
        /// The authenticated requester.
        client: PrincipalId,
        /// Group-membership proxies accompanying the query (§3.3).
        presentations: Vec<Presentation>,
        /// The server the issued proxy will be used at.
        end_server: PrincipalId,
        /// Operation the client wants authorized.
        operation: Operation,
        /// Object the client wants authorized.
        object: ObjectName,
        /// Requested validity window for the issued proxy.
        validity: Validity,
        /// The client's clock, for evaluating accompanying proxies.
        now: Timestamp,
    },
    /// Fig. 3 step 2: the issued proxy (certificate chain **and** proxy
    /// key — confidentiality is the transport's concern).
    AuthzGrant {
        /// The issued proxy.
        proxy: Proxy,
    },
    /// §3.3: a principal asks the group server to certify memberships.
    GroupQuery {
        /// The authenticated requester.
        requester: PrincipalId,
        /// Group names local to the queried server.
        groups: Vec<String>,
        /// Requested validity window.
        validity: Validity,
    },
    /// §3.3 reply: a delegate proxy proving the memberships.
    GroupGrant {
        /// The membership proxy.
        proxy: Proxy,
    },
    /// Fig. 4: a request presented to an end-server with whatever proxy
    /// chains accompany it.
    EndRequest {
        /// Operation being attempted.
        operation: Operation,
        /// Object being operated on.
        object: ObjectName,
        /// Principals the transport authenticated directly.
        authenticated: Vec<PrincipalId>,
        /// Proxy presentations accompanying the request.
        presentations: Vec<Presentation>,
        /// The server-evaluation time.
        now: Timestamp,
        /// Quota amounts the request consumes, if any (§7.4).
        amounts: Vec<(Currency, u64)>,
    },
    /// Fig. 4 reply: the claims the end-server accepted.
    EndDecision {
        /// Principals whose authority backed the request.
        principals: Vec<PrincipalId>,
        /// Groups whose membership backed the request.
        groups: Vec<GroupName>,
    },
    /// §4: purchase of a cashier's check drawn on the server's own
    /// cashier account.
    CheckWrite {
        /// Account owner buying the check.
        purchaser: PrincipalId,
        /// Account the funds leave immediately.
        from_account: String,
        /// Payee the check is made out to.
        payee: PrincipalId,
        /// Check number (serial).
        check_no: u64,
        /// Currency drawn.
        currency: Currency,
        /// Amount drawn.
        amount: u64,
        /// Validity window of the check.
        validity: Validity,
    },
    /// §4 reply: the purchased cashier's check.
    CheckWritten {
        /// The check (a restricted delegate proxy).
        check: Proxy,
    },
    /// Fig. 5: deposit of a check at the depositor's accounting server.
    CheckDeposit {
        /// The endorsed check being deposited.
        check: Proxy,
        /// The depositor (must be the current payee).
        depositor: PrincipalId,
        /// Account to credit.
        to_account: String,
        /// Where to send the check onward if it is drawn elsewhere.
        next_hop: PrincipalId,
        /// Deposit time.
        now: Timestamp,
    },
    /// Fig. 5 reply when the check was drawn on the receiving server:
    /// funds moved.
    CheckSettled {
        /// Who the check was drawn by.
        payor: PrincipalId,
        /// The check number.
        check_no: u64,
        /// Currency settled.
        currency: Currency,
        /// Amount settled.
        amount: u64,
    },
    /// Fig. 5 reply when the check must clear at another server: the
    /// deposit-only endorsed check to forward.
    CheckForwarded {
        /// The re-endorsed check.
        check: Proxy,
        /// The server it should travel to next.
        next_hop: PrincipalId,
    },
    /// Inter-server clearing: endorse a check onward toward the server
    /// it is drawn on.
    CheckEndorse {
        /// The check to endorse.
        check: Proxy,
        /// The next server on the clearing path.
        next_hop: PrincipalId,
    },
    /// Reply to [`Message::CheckEndorse`].
    CheckEndorsed {
        /// The endorsed check.
        check: Proxy,
    },
    /// §4: request certification of an already-written check (funds are
    /// placed on hold).
    CheckCertify {
        /// Account owner requesting certification.
        requester: PrincipalId,
        /// Account to hold funds on.
        account: String,
        /// The check number being certified.
        check_no: u64,
        /// Currency held.
        currency: Currency,
        /// Amount held.
        amount: u64,
        /// Payee of the certified check.
        payee: PrincipalId,
        /// Validity of the certification.
        validity: Validity,
    },
    /// Reply to [`Message::CheckCertify`]: the server's certification
    /// proxy.
    CheckCertified {
        /// The certification proxy.
        proxy: Proxy,
    },
    /// §6: a mirror asks an issuer for revocation-index updates newer
    /// than the epoch it already holds.
    RevocationFetch {
        /// Whose revocation index is wanted (the issuing authority).
        issuer: PrincipalId,
        /// Epoch of the index the requester already mirrors (0 = none).
        have_epoch: u64,
    },
    /// Reply to [`Message::RevocationFetch`]: a contiguous delta chain
    /// from the requester's epoch, or a single snapshot when the
    /// issuer's delta log no longer reaches back that far. Empty means
    /// the requester is already current.
    RevocationUpdate {
        /// Sealed artifacts, in application order.
        artifacts: Vec<RevocationArtifact>,
    },
    /// §3.3: a mirror asks a group server for membership updates newer
    /// than the epoch it already holds, enabling round-trip-free
    /// membership assertion at the end-server.
    MembershipFetch {
        /// The authenticated requester.
        requester: PrincipalId,
        /// Group name local to the queried server.
        group: String,
        /// Epoch of the roster the requester already mirrors (0 = none).
        have_epoch: u64,
    },
    /// Reply to [`Message::MembershipFetch`]: delta chain or snapshot,
    /// same contract as [`Message::RevocationUpdate`].
    MembershipUpdate {
        /// Sealed artifacts, in application order.
        artifacts: Vec<MembershipArtifact>,
    },
    /// Typed failure reply.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail (best effort, may be empty).
        detail: String,
    },
}

impl Message {
    /// The frame `msg_type` discriminant for this message.
    #[must_use]
    pub fn msg_type(&self) -> u8 {
        match self {
            Message::AuthzQuery { .. } => 0x01,
            Message::AuthzGrant { .. } => 0x02,
            Message::GroupQuery { .. } => 0x03,
            Message::GroupGrant { .. } => 0x04,
            Message::EndRequest { .. } => 0x05,
            Message::EndDecision { .. } => 0x06,
            Message::CheckWrite { .. } => 0x07,
            Message::CheckWritten { .. } => 0x08,
            Message::CheckDeposit { .. } => 0x09,
            Message::CheckSettled { .. } => 0x0A,
            Message::CheckForwarded { .. } => 0x0B,
            Message::CheckEndorse { .. } => 0x0C,
            Message::CheckEndorsed { .. } => 0x0D,
            Message::CheckCertify { .. } => 0x0E,
            Message::CheckCertified { .. } => 0x0F,
            Message::RevocationFetch { .. } => 0x10,
            Message::RevocationUpdate { .. } => 0x11,
            Message::MembershipFetch { .. } => 0x12,
            Message::MembershipUpdate { .. } => 0x13,
            Message::Error { .. } => 0x7F,
        }
    }

    /// Human-readable name of the message kind (for reports and logs).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Message::AuthzQuery { .. } => "authz-query",
            Message::AuthzGrant { .. } => "authz-grant",
            Message::GroupQuery { .. } => "group-query",
            Message::GroupGrant { .. } => "group-grant",
            Message::EndRequest { .. } => "end-request",
            Message::EndDecision { .. } => "end-decision",
            Message::CheckWrite { .. } => "check-write",
            Message::CheckWritten { .. } => "check-written",
            Message::CheckDeposit { .. } => "check-deposit",
            Message::CheckSettled { .. } => "check-settled",
            Message::CheckForwarded { .. } => "check-forwarded",
            Message::CheckEndorse { .. } => "check-endorse",
            Message::CheckEndorsed { .. } => "check-endorsed",
            Message::CheckCertify { .. } => "check-certify",
            Message::CheckCertified { .. } => "check-certified",
            Message::RevocationFetch { .. } => "revocation-fetch",
            Message::RevocationUpdate { .. } => "revocation-update",
            Message::MembershipFetch { .. } => "membership-fetch",
            Message::MembershipUpdate { .. } => "membership-update",
            Message::Error { .. } => "error",
        }
    }

    /// Canonical body encoding (what sits between header and CRC).
    #[must_use]
    pub fn encode_body(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_body_onto(&mut e);
        e.finish()
    }

    /// Appends the canonical body encoding to an existing encoder — the
    /// zero-copy path used by [`Message::encode_frame_into`] to build a
    /// frame directly inside a pooled scratch buffer.
    fn encode_body_onto(&self, e: &mut Encoder) {
        match self {
            Message::AuthzQuery {
                client,
                presentations,
                end_server,
                operation,
                object,
                validity,
                now,
            } => {
                e.str(client.as_str());
                encode_presentations(e, presentations);
                e.str(end_server.as_str())
                    .str(operation.as_str())
                    .str(object.as_str());
                encode_validity(e, validity);
                e.u64(now.0);
            }
            Message::AuthzGrant { proxy }
            | Message::GroupGrant { proxy }
            | Message::CheckCertified { proxy } => encode_proxy(e, proxy),
            Message::GroupQuery {
                requester,
                groups,
                validity,
            } => {
                e.str(requester.as_str()).count(groups.len());
                for g in groups {
                    e.str(g);
                }
                encode_validity(e, validity);
            }
            Message::EndRequest {
                operation,
                object,
                authenticated,
                presentations,
                now,
                amounts,
            } => {
                e.str(operation.as_str()).str(object.as_str());
                e.count(authenticated.len());
                for p in authenticated {
                    e.str(p.as_str());
                }
                encode_presentations(e, presentations);
                e.u64(now.0).count(amounts.len());
                for (c, v) in amounts {
                    e.str(c.as_str()).u64(*v);
                }
            }
            Message::EndDecision { principals, groups } => {
                e.count(principals.len());
                for p in principals {
                    e.str(p.as_str());
                }
                e.count(groups.len());
                for g in groups {
                    e.str(g.server.as_str()).str(&g.name);
                }
            }
            Message::CheckWrite {
                purchaser,
                from_account,
                payee,
                check_no,
                currency,
                amount,
                validity,
            } => {
                e.str(purchaser.as_str())
                    .str(from_account)
                    .str(payee.as_str())
                    .u64(*check_no)
                    .str(currency.as_str())
                    .u64(*amount);
                encode_validity(e, validity);
            }
            Message::CheckWritten { check } | Message::CheckEndorsed { check } => {
                encode_proxy(e, check);
            }
            Message::CheckDeposit {
                check,
                depositor,
                to_account,
                next_hop,
                now,
            } => {
                encode_proxy(e, check);
                e.str(depositor.as_str())
                    .str(to_account)
                    .str(next_hop.as_str())
                    .u64(now.0);
            }
            Message::CheckSettled {
                payor,
                check_no,
                currency,
                amount,
            } => {
                e.str(payor.as_str())
                    .u64(*check_no)
                    .str(currency.as_str())
                    .u64(*amount);
            }
            Message::CheckForwarded { check, next_hop }
            | Message::CheckEndorse { check, next_hop } => {
                encode_proxy(e, check);
                e.str(next_hop.as_str());
            }
            Message::CheckCertify {
                requester,
                account,
                check_no,
                currency,
                amount,
                payee,
                validity,
            } => {
                e.str(requester.as_str())
                    .str(account)
                    .u64(*check_no)
                    .str(currency.as_str())
                    .u64(*amount)
                    .str(payee.as_str());
                encode_validity(e, validity);
            }
            Message::RevocationFetch { issuer, have_epoch } => {
                e.str(issuer.as_str()).u64(*have_epoch);
            }
            Message::RevocationUpdate { artifacts } => {
                e.count(artifacts.len());
                for a in artifacts {
                    a.encode_onto(e);
                }
            }
            Message::MembershipFetch {
                requester,
                group,
                have_epoch,
            } => {
                e.str(requester.as_str()).str(group).u64(*have_epoch);
            }
            Message::MembershipUpdate { artifacts } => {
                e.count(artifacts.len());
                for a in artifacts {
                    a.encode_onto(e);
                }
            }
            Message::Error { code, detail } => {
                e.u32(u32::from(code.as_u16())).str(detail);
            }
        }
    }

    /// Decodes a body previously produced by [`Message::encode_body`]
    /// for the given frame `msg_type`, enforcing all wire-level limits
    /// and rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownMessageType`] for unassigned discriminants;
    /// [`WireError::Decode`] / [`WireError::TooManyItems`] for bodies
    /// that are malformed or exceed limits.
    pub fn decode_body(msg_type: u8, body: &[u8]) -> Result<Message, WireError> {
        let mut d = Decoder::new(body);
        let msg = match msg_type {
            0x01 => {
                let client = d.principal()?;
                let presentations = decode_presentations(&mut d)?;
                let end_server = d.principal()?;
                let operation = Operation::new(d.str()?);
                let object = ObjectName::new(d.str()?);
                let validity = decode_validity(&mut d)?;
                let now = Timestamp(d.u64()?);
                Message::AuthzQuery {
                    client,
                    presentations,
                    end_server,
                    operation,
                    object,
                    validity,
                    now,
                }
            }
            0x02 => Message::AuthzGrant {
                proxy: decode_proxy(&mut d)?,
            },
            0x03 => {
                let requester = d.principal()?;
                let n = d.counted(4)?;
                check_limit("groups", n, MAX_GROUPS)?;
                let mut groups = Vec::with_capacity(n);
                for _ in 0..n {
                    groups.push(d.str()?.to_string());
                }
                let validity = decode_validity(&mut d)?;
                Message::GroupQuery {
                    requester,
                    groups,
                    validity,
                }
            }
            0x04 => Message::GroupGrant {
                proxy: decode_proxy(&mut d)?,
            },
            0x05 => {
                let operation = Operation::new(d.str()?);
                let object = ObjectName::new(d.str()?);
                let n = d.counted(4)?;
                check_limit("authenticated principals", n, MAX_PRESENTATIONS)?;
                let mut authenticated = Vec::with_capacity(n);
                for _ in 0..n {
                    authenticated.push(d.principal()?);
                }
                let presentations = decode_presentations(&mut d)?;
                let now = Timestamp(d.u64()?);
                let n = d.counted(12)?;
                check_limit("amounts", n, MAX_AMOUNTS)?;
                let mut amounts = Vec::with_capacity(n);
                for _ in 0..n {
                    let currency = decode_currency(&mut d)?;
                    amounts.push((currency, d.u64()?));
                }
                Message::EndRequest {
                    operation,
                    object,
                    authenticated,
                    presentations,
                    now,
                    amounts,
                }
            }
            0x06 => {
                let n = d.counted(4)?;
                check_limit("principals", n, MAX_GROUPS)?;
                let mut principals = Vec::with_capacity(n);
                for _ in 0..n {
                    principals.push(d.principal()?);
                }
                let n = d.counted(8)?;
                check_limit("groups", n, MAX_GROUPS)?;
                let mut groups = Vec::with_capacity(n);
                for _ in 0..n {
                    let server = d.principal()?;
                    groups.push(GroupName::new(server, d.str()?));
                }
                Message::EndDecision { principals, groups }
            }
            0x07 => Message::CheckWrite {
                purchaser: d.principal()?,
                from_account: d.str()?.to_string(),
                payee: d.principal()?,
                check_no: d.u64()?,
                currency: decode_currency(&mut d)?,
                amount: d.u64()?,
                validity: decode_validity(&mut d)?,
            },
            0x08 => Message::CheckWritten {
                check: decode_proxy(&mut d)?,
            },
            0x09 => Message::CheckDeposit {
                check: decode_proxy(&mut d)?,
                depositor: d.principal()?,
                to_account: d.str()?.to_string(),
                next_hop: d.principal()?,
                now: Timestamp(d.u64()?),
            },
            0x0A => Message::CheckSettled {
                payor: d.principal()?,
                check_no: d.u64()?,
                currency: decode_currency(&mut d)?,
                amount: d.u64()?,
            },
            0x0B => Message::CheckForwarded {
                check: decode_proxy(&mut d)?,
                next_hop: d.principal()?,
            },
            0x0C => Message::CheckEndorse {
                check: decode_proxy(&mut d)?,
                next_hop: d.principal()?,
            },
            0x0D => Message::CheckEndorsed {
                check: decode_proxy(&mut d)?,
            },
            0x0E => Message::CheckCertify {
                requester: d.principal()?,
                account: d.str()?.to_string(),
                check_no: d.u64()?,
                currency: decode_currency(&mut d)?,
                amount: d.u64()?,
                payee: d.principal()?,
                validity: decode_validity(&mut d)?,
            },
            0x0F => Message::CheckCertified {
                proxy: decode_proxy(&mut d)?,
            },
            0x10 => Message::RevocationFetch {
                issuer: d.principal()?,
                have_epoch: d.u64()?,
            },
            0x11 => {
                let n = d.counted(40)?;
                check_limit("revocation artifacts", n, MAX_ARTIFACTS)?;
                let mut artifacts = Vec::with_capacity(n);
                for _ in 0..n {
                    artifacts.push(RevocationArtifact::decode_from(&mut d)?);
                }
                Message::RevocationUpdate { artifacts }
            }
            0x12 => Message::MembershipFetch {
                requester: d.principal()?,
                group: d.str()?.to_string(),
                have_epoch: d.u64()?,
            },
            0x13 => {
                let n = d.counted(40)?;
                check_limit("membership artifacts", n, MAX_ARTIFACTS)?;
                let mut artifacts = Vec::with_capacity(n);
                for _ in 0..n {
                    artifacts.push(MembershipArtifact::decode_from(&mut d)?);
                }
                Message::MembershipUpdate { artifacts }
            }
            0x7F => {
                let raw = d.u32()?;
                let code = u16::try_from(raw)
                    .map_err(|_| DecodeError::InvalidValue("error code over 16 bits"))?;
                Message::Error {
                    code: ErrorCode::from_u16(code),
                    detail: d.str()?.to_string(),
                }
            }
            other => return Err(WireError::UnknownMessageType(other)),
        };
        d.finish().map_err(WireError::Decode)?;
        Ok(msg)
    }

    /// Encodes this message as a complete frame.
    #[must_use]
    pub fn to_frame(&self, request_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out, request_id);
        out
    }

    /// Appends this message as a complete frame to `out`, encoding the
    /// body in place — no intermediate body allocation. Frames packed
    /// back-to-back this way are exactly what [`frame::encode_frame`]
    /// would have produced, so every sender — the lone-call and
    /// pipelined client, the server's drain loop — builds its frames in
    /// one pooled buffer and issues a single write.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>, request_id: u64) {
        let start = frame::begin_frame(out, self.msg_type(), request_id);
        let mut e = Encoder::from_vec(std::mem::take(out));
        self.encode_body_onto(&mut e);
        *out = e.finish();
        frame::finish_frame(out, start);
    }

    /// Decodes a buffer holding exactly one frame into
    /// `(request_id, message)`.
    ///
    /// # Errors
    ///
    /// Frame errors from [`frame::split_frame`]; [`WireError::Io`] with
    /// [`std::io::ErrorKind::UnexpectedEof`] when the frame is cut short;
    /// `TrailingBytes` (as a [`WireError::Decode`]) when the buffer
    /// continues past it; body errors from [`Message::decode_body`].
    pub fn from_frame(bytes: &[u8]) -> Result<(u64, Message), WireError> {
        let (header, body, used) =
            frame::split_frame(bytes)?.ok_or(WireError::Io(std::io::ErrorKind::UnexpectedEof))?;
        if used < bytes.len() {
            return Err(DecodeError::TrailingBytes(bytes.len() - used).into());
        }
        let msg = Message::decode_body(header.msg_type, body)?;
        Ok((header.request_id, msg))
    }
}

fn check_limit(what: &'static str, count: usize, max: usize) -> Result<(), WireError> {
    if count > max {
        Err(WireError::TooManyItems { what, count, max })
    } else {
        Ok(())
    }
}

fn encode_validity(e: &mut Encoder, v: &Validity) {
    e.u64(v.from.0).u64(v.until.0);
}

fn decode_validity(d: &mut Decoder<'_>) -> Result<Validity, WireError> {
    let from = Timestamp(d.u64()?);
    let until = Timestamp(d.u64()?);
    if from.0 >= until.0 {
        return Err(DecodeError::InvalidValue("empty validity window").into());
    }
    Ok(Validity { from, until })
}

fn decode_currency(d: &mut Decoder<'_>) -> Result<Currency, WireError> {
    Currency::try_new(d.str()?)
        .ok_or(DecodeError::InvalidValue("empty currency"))
        .map_err(WireError::Decode)
}

fn encode_presentations(e: &mut Encoder, presentations: &[Presentation]) {
    e.count(presentations.len());
    for p in presentations {
        e.nested(|e| p.encode_onto(e));
    }
}

fn decode_presentations(d: &mut Decoder<'_>) -> Result<Vec<Presentation>, WireError> {
    let n = d.counted(4)?;
    check_limit("presentations", n, MAX_PRESENTATIONS)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let p = Presentation::decode(d.bytes()?)?;
        check_limit("certificates in chain", p.certs.len(), MAX_CHAIN_DEPTH)?;
        for cert in &p.certs {
            check_limit(
                "restrictions per certificate",
                cert.restrictions.len(),
                MAX_RESTRICTIONS,
            )?;
        }
        out.push(p);
    }
    Ok(out)
}

/// Encodes a proxy *including its proxy key* (the §2 model: certificate
/// chain plus the key the grantee proves possession of). Symmetric keys
/// travel as their 32 raw bytes, Ed25519 keys as their RFC 8032 seed.
fn encode_proxy(e: &mut Encoder, proxy: &Proxy) {
    e.count(proxy.certs.len());
    for c in &proxy.certs {
        e.nested(|e| c.encode_onto(e));
    }
    match &proxy.key {
        GrantAuthority::SharedKey(k) => {
            e.u8(0).raw(k.as_bytes());
        }
        GrantAuthority::Keypair(sk) => {
            e.u8(1).raw(sk.seed());
        }
    }
}

fn decode_proxy(d: &mut Decoder<'_>) -> Result<Proxy, WireError> {
    let n = d.counted(4)?;
    if n == 0 {
        return Err(DecodeError::InvalidValue("empty certificate chain").into());
    }
    check_limit("certificates in chain", n, MAX_CHAIN_DEPTH)?;
    let mut certs = Vec::with_capacity(n);
    for _ in 0..n {
        let cert = Certificate::decode(d.bytes()?)?;
        check_limit(
            "restrictions per certificate",
            cert.restrictions.len(),
            MAX_RESTRICTIONS,
        )?;
        certs.push(cert);
    }
    let key = match d.u8()? {
        0 => GrantAuthority::SharedKey(
            SymmetricKey::try_from_slice(d.raw(32)?)
                .map_err(|_| DecodeError::InvalidValue("bad symmetric proxy key"))?,
        ),
        1 => {
            let seed = d.raw_array::<32>()?;
            GrantAuthority::Keypair(SigningKey::from_seed(&seed))
        }
        t => return Err(DecodeError::BadTag(t).into()),
    };
    Ok(Proxy { certs, key })
}
