//! Request dispatch: decoded frames → the service crates' hot paths.

use std::sync::Arc;

use proxy_accounting::{AccountingServer, AcctError, Check, Deposit, DepositGroup, DepositOutcome};
use proxy_authz::{AuthorizationServer, Authorized, AuthzError, EndServer, GroupServer, Request};
use proxy_wire::{ErrorCode, Message};
use rand::RngCore;
use restricted_proxy::prelude::{KeyResolver, MapResolver};
use restricted_proxy::verify::Prepared;

/// Consecutive requests of one kind — `EndRequest`s or `CheckDeposit`s —
/// that one read delivered on one connection, decided together
/// (DESIGN.md §8, "One settle step"). A worker keeps one for its life, so
/// its vectors keep their capacity from read to read.
#[derive(Default)]
pub(crate) struct Run {
    ids: Vec<u64>,
    requests: Vec<Request>,
    prepared: Vec<Prepared>,
    deposits: Vec<Deposit>,
    deposit_group: DepositGroup,
}

impl Run {
    /// Queues `message`, to be answered under `id`, if it is an
    /// `EndRequest` or a `CheckDeposit` and the run holds no request of
    /// the other kind; hands it back otherwise. An empty run takes
    /// either.
    pub(crate) fn push(&mut self, id: u64, message: Message) -> Option<Message> {
        match message {
            Message::EndRequest {
                operation,
                object,
                authenticated,
                presentations,
                now,
                amounts,
            } if self.deposits.is_empty() => self.requests.push(Request {
                operation,
                object,
                authenticated,
                presentations,
                now,
                amounts,
            }),
            Message::CheckDeposit {
                check,
                depositor,
                to_account,
                next_hop,
                now,
            } if self.requests.is_empty() => self.deposits.push(Deposit {
                check: Check { proxy: check },
                depositor,
                to_account,
                next_hop,
                now,
            }),
            other => return Some(other),
        }
        self.ids.push(id);
        None
    }
}

/// Routes each protocol request to the service that answers it.
///
/// The mux owns `Arc`s to the servers so the same instances can also be
/// driven directly (in-process) while serving remote traffic. All
/// dispatch targets are `&self` hot paths made thread-safe in the
/// concurrency PRs — the group server joined them when its roster moved
/// onto a sharded map, so no dispatch arm takes a process-wide lock.
///
/// `handle` is total: every request produces a reply, with failures
/// mapped onto typed [`Message::Error`] replies — a remote peer can
/// never distinguish "service threw an error" from any other denial
/// except through the [`ErrorCode`].
pub struct ServiceMux<R: KeyResolver = MapResolver> {
    authz: Option<Arc<AuthorizationServer<R>>>,
    end: Option<Arc<EndServer<R>>>,
    accounting: Option<Arc<AccountingServer>>,
    groups: Option<Arc<GroupServer>>,
}

impl<R: KeyResolver> Default for ServiceMux<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: KeyResolver> ServiceMux<R> {
    /// A mux with no services mounted (every request answers
    /// [`ErrorCode::Unavailable`]).
    #[must_use]
    pub fn new() -> Self {
        Self {
            authz: None,
            end: None,
            accounting: None,
            groups: None,
        }
    }

    /// Mounts an authorization server (answers `AuthzQuery`).
    #[must_use]
    pub fn with_authz(mut self, server: Arc<AuthorizationServer<R>>) -> Self {
        self.authz = Some(server);
        self
    }

    /// Mounts an end-server decision engine (answers `EndRequest`).
    #[must_use]
    pub fn with_end_server(mut self, server: Arc<EndServer<R>>) -> Self {
        self.end = Some(server);
        self
    }

    /// Mounts an accounting server (answers the check messages).
    #[must_use]
    pub fn with_accounting(mut self, server: Arc<AccountingServer>) -> Self {
        self.accounting = Some(server);
        self
    }

    /// Mounts a group server (answers `GroupQuery` and
    /// `MembershipFetch`).
    #[must_use]
    pub fn with_groups(mut self, server: Arc<GroupServer>) -> Self {
        self.groups = Some(server);
        self
    }

    /// Serves one request, always returning a reply message.
    pub fn handle<G: RngCore>(&self, request: Message, rng: &mut G) -> Message {
        match request {
            Message::AuthzQuery {
                client,
                presentations,
                end_server,
                operation,
                object,
                validity,
                now,
            } => match &self.authz {
                None => unavailable("no authorization server mounted"),
                Some(authz) => match authz.request_authorization(
                    &client,
                    &presentations,
                    &end_server,
                    &operation,
                    &object,
                    validity,
                    now,
                    rng,
                ) {
                    Ok(proxy) => Message::AuthzGrant { proxy },
                    Err(e) => authz_error(&e),
                },
            },
            Message::GroupQuery {
                requester,
                groups,
                validity,
            } => match &self.groups {
                None => unavailable("no group server mounted"),
                Some(server) => {
                    let names: Vec<&str> = groups.iter().map(String::as_str).collect();
                    match server.membership_proxy(&requester, &names, validity, rng) {
                        Ok(proxy) => Message::GroupGrant { proxy },
                        Err(e) => authz_error(&e),
                    }
                }
            },
            Message::RevocationFetch { issuer, have_epoch } => match &self.authz {
                None => unavailable("no authorization server mounted"),
                Some(authz) if *authz.name() != issuer => Message::Error {
                    code: ErrorCode::UnknownPrincipal,
                    detail: format!("this server does not issue revocations for {issuer}"),
                },
                Some(authz) => Message::RevocationUpdate {
                    artifacts: authz.revocation_updates_since(have_epoch),
                },
            },
            Message::MembershipFetch {
                requester: _,
                group,
                have_epoch,
            } => match &self.groups {
                None => unavailable("no group server mounted"),
                Some(server) => Message::MembershipUpdate {
                    artifacts: server.updates_since(&group, have_epoch),
                },
            },
            Message::EndRequest {
                operation,
                object,
                authenticated,
                presentations,
                now,
                amounts,
            } => match &self.end {
                None => unavailable(NO_END_SERVER),
                Some(end) => end_reply(end.authorize(&Request {
                    operation,
                    object,
                    authenticated,
                    presentations,
                    now,
                    amounts,
                })),
            },
            Message::CheckWrite {
                purchaser,
                from_account,
                payee,
                check_no,
                currency,
                amount,
                validity,
            } => match &self.accounting {
                None => unavailable("no accounting server mounted"),
                Some(acct) => match acct.cashiers_check(
                    &purchaser,
                    &from_account,
                    payee,
                    check_no,
                    currency,
                    amount,
                    validity,
                    rng,
                ) {
                    Ok(check) => Message::CheckWritten { check: check.proxy },
                    Err(e) => acct_error(&e),
                },
            },
            Message::CheckDeposit {
                check,
                depositor,
                to_account,
                next_hop,
                now,
            } => match &self.accounting {
                None => unavailable(NO_ACCOUNTING_SERVER),
                Some(acct) => {
                    let check = Check { proxy: check };
                    deposit_reply(acct.deposit(&check, &depositor, &to_account, next_hop, now, rng))
                }
            },
            Message::CheckEndorse { check, next_hop } => match &self.accounting {
                None => unavailable("no accounting server mounted"),
                Some(acct) => {
                    let check = Check { proxy: check };
                    match acct.forward(&check, next_hop, rng) {
                        Ok(endorsed) => Message::CheckEndorsed {
                            check: endorsed.proxy,
                        },
                        Err(e) => acct_error(&e),
                    }
                }
            },
            Message::CheckCertify {
                requester,
                account,
                check_no,
                currency,
                amount,
                payee,
                validity,
            } => match &self.accounting {
                None => unavailable("no accounting server mounted"),
                Some(acct) => match acct.certify(
                    &requester, &account, check_no, currency, amount, payee, validity, rng,
                ) {
                    Ok(proxy) => Message::CheckCertified { proxy },
                    Err(e) => acct_error(&e),
                },
            },
            // Replies arriving as requests are a peer bug, not a crash.
            Message::AuthzGrant { .. }
            | Message::GroupGrant { .. }
            | Message::EndDecision { .. }
            | Message::CheckWritten { .. }
            | Message::CheckSettled { .. }
            | Message::CheckForwarded { .. }
            | Message::CheckEndorsed { .. }
            | Message::CheckCertified { .. }
            | Message::RevocationUpdate { .. }
            | Message::MembershipUpdate { .. }
            | Message::Error { .. } => Message::Error {
                code: ErrorCode::BadRequest,
                detail: "reply message sent as a request".to_string(),
            },
        }
    }

    /// Answers every request queued in `run` as one group
    /// ([`EndServer::authorize_all`], [`AccountingServer::deposit_all`]),
    /// appending each reply frame, in order, to `out`; leaves the run
    /// empty. Each reply is the one [`Self::handle`] gives its request.
    pub(crate) fn handle_run<G: RngCore>(&self, run: &mut Run, out: &mut Vec<u8>, rng: &mut G) {
        let Run {
            ids,
            requests,
            prepared,
            deposits,
            deposit_group,
        } = run;
        let mut reply = |i: usize, message: Message| {
            message.encode_frame_into(out, ids.get(i).copied().unwrap_or(0));
        };
        if !requests.is_empty() {
            match &self.end {
                None => (0..requests.len()).for_each(|i| reply(i, unavailable(NO_END_SERVER))),
                Some(end) => end.authorize_all(requests, prepared, |i, decided| {
                    reply(i, end_reply(decided));
                }),
            }
        }
        if !deposits.is_empty() {
            match &self.accounting {
                None => {
                    (0..deposits.len()).for_each(|i| reply(i, unavailable(NO_ACCOUNTING_SERVER)))
                }
                Some(acct) => {
                    acct.deposit_all(deposits.drain(..), deposit_group, rng, |i, outcome| {
                        reply(i, deposit_reply(outcome));
                    })
                }
            }
        }
        ids.clear();
        requests.clear();
        deposits.clear();
    }
}

const NO_END_SERVER: &str = "no end-server mounted";
const NO_ACCOUNTING_SERVER: &str = "no accounting server mounted";

/// The reply to a `CheckDeposit` the accounting server decided.
fn deposit_reply(outcome: Result<DepositOutcome, AcctError>) -> Message {
    match outcome {
        Ok(DepositOutcome::Settled(payment)) => Message::CheckSettled {
            payor: payment.payor,
            check_no: payment.check_no,
            currency: payment.currency,
            amount: payment.amount,
        },
        Ok(DepositOutcome::Forwarded { check, next_hop }) => Message::CheckForwarded {
            check: check.proxy,
            next_hop,
        },
        Err(e) => acct_error(&e),
    }
}

/// The reply to an `EndRequest` the end-server `decided`.
fn end_reply(decided: Result<Authorized, AuthzError>) -> Message {
    match decided {
        Ok(authorized) => Message::EndDecision {
            principals: authorized.claims.principals,
            groups: authorized.claims.groups,
        },
        Err(e) => authz_error(&e),
    }
}

fn unavailable(detail: &str) -> Message {
    Message::Error {
        code: ErrorCode::Unavailable,
        detail: detail.to_string(),
    }
}

/// Maps a service-level authorization error onto its wire code.
#[must_use]
pub fn authz_error(e: &AuthzError) -> Message {
    let code = match e {
        AuthzError::Verify(_) => ErrorCode::VerifyFailed,
        AuthzError::NotAuthorized { .. } => ErrorCode::NotAuthorized,
        AuthzError::UnknownClient(_) => ErrorCode::UnknownPrincipal,
        AuthzError::UnknownGroup(_) => ErrorCode::UnknownGroup,
        AuthzError::NotAMember { .. } => ErrorCode::NotAMember,
        AuthzError::NoRightsAt(_) => ErrorCode::NoRightsAt,
        AuthzError::Artifact(_) => ErrorCode::VerifyFailed,
        AuthzError::Storage(_) => ErrorCode::Unavailable,
    };
    Message::Error {
        code,
        detail: e.to_string(),
    }
}

/// Maps a service-level accounting error onto its wire code.
#[must_use]
pub fn acct_error(e: &AcctError) -> Message {
    let code = match e {
        AcctError::UnknownAccount(_) => ErrorCode::UnknownAccount,
        AcctError::InsufficientFunds { .. } => ErrorCode::InsufficientFunds,
        AcctError::Verify(_) => ErrorCode::VerifyFailed,
        AcctError::MalformedCheck(_) => ErrorCode::MalformedCheck,
        AcctError::WrongServer { .. } => ErrorCode::WrongServer,
        AcctError::NotAuthorized(_) => ErrorCode::NotAuthorized,
        AcctError::NoRoute(_) => ErrorCode::NoRoute,
        AcctError::NoHold { .. } => ErrorCode::NoHold,
        // A fail-stop journal failure means the server can no longer
        // accept durable work; the client should retry elsewhere/later.
        AcctError::Storage(_) | AcctError::BadJournal(_) => ErrorCode::Unavailable,
        AcctError::Artifact(_) => ErrorCode::VerifyFailed,
    };
    Message::Error {
        code,
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxy_authz::GroupServer;
    use proxy_crypto::keys::SymmetricKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use restricted_proxy::key::GrantAuthority;
    use restricted_proxy::prelude::*;

    fn shared_group_server(rng: &mut StdRng) -> Arc<GroupServer> {
        let authority = GrantAuthority::SharedKey(SymmetricKey::generate(rng));
        let server = GroupServer::new(PrincipalId::new("groups"), authority);
        server.create_group("staff");
        server.add_member("staff", PrincipalId::new("alice"));
        Arc::new(server)
    }

    #[test]
    fn group_query_served_without_a_process_wide_lock() {
        let mut rng = StdRng::seed_from_u64(1);
        let server = shared_group_server(&mut rng);

        // The shared instance stays directly usable while mounted: the
        // mux holds a plain Arc, not a Mutex, so a membership grant on
        // one thread cannot serialize against roster updates on another.
        let mux: ServiceMux = ServiceMux::new().with_groups(Arc::clone(&server));
        let reply = mux.handle(
            Message::GroupQuery {
                requester: PrincipalId::new("alice"),
                groups: vec!["staff".to_string()],
                validity: Validity::new(Timestamp(0), Timestamp(10)),
            },
            &mut rng,
        );
        match reply {
            Message::GroupGrant { .. } => {}
            other => panic!("expected GroupGrant, got {other:?}"),
        }
        assert!(server.is_member("staff", &PrincipalId::new("alice")));
    }

    #[test]
    fn membership_fetch_returns_sealed_artifacts() {
        let mut rng = StdRng::seed_from_u64(2);
        let server = shared_group_server(&mut rng);
        let mux: ServiceMux = ServiceMux::new().with_groups(Arc::clone(&server));

        let reply = mux.handle(
            Message::MembershipFetch {
                requester: PrincipalId::new("mirror"),
                group: "staff".to_string(),
                have_epoch: 0,
            },
            &mut rng,
        );
        match reply {
            Message::MembershipUpdate { artifacts } => {
                assert!(!artifacts.is_empty(), "pending add must publish");
                assert_eq!(
                    artifacts.last().map(|a| a.epoch),
                    Some(server.epoch_of("staff"))
                );
            }
            other => panic!("expected MembershipUpdate, got {other:?}"),
        }

        // Already-current mirrors get an empty (cheap) reply.
        let reply = mux.handle(
            Message::MembershipFetch {
                requester: PrincipalId::new("mirror"),
                group: "staff".to_string(),
                have_epoch: server.epoch_of("staff"),
            },
            &mut rng,
        );
        match reply {
            Message::MembershipUpdate { artifacts } => assert!(artifacts.is_empty()),
            other => panic!("expected empty MembershipUpdate, got {other:?}"),
        }
    }

    #[test]
    fn revocation_fetch_for_foreign_issuer_is_refused() {
        let mut rng = StdRng::seed_from_u64(3);
        let authority = GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng));
        let authz = Arc::new(AuthorizationServer::new(
            PrincipalId::new("authz"),
            authority,
            MapResolver::new(),
        ));
        let mux: ServiceMux = ServiceMux::new().with_authz(Arc::clone(&authz));

        let reply = mux.handle(
            Message::RevocationFetch {
                issuer: PrincipalId::new("someone-else"),
                have_epoch: 0,
            },
            &mut rng,
        );
        match reply {
            Message::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownPrincipal),
            other => panic!("expected UnknownPrincipal error, got {other:?}"),
        }

        authz.revoke_serial(7);
        let reply = mux.handle(
            Message::RevocationFetch {
                issuer: PrincipalId::new("authz"),
                have_epoch: 0,
            },
            &mut rng,
        );
        match reply {
            Message::RevocationUpdate { artifacts } => {
                assert!(!artifacts.is_empty());
            }
            other => panic!("expected RevocationUpdate, got {other:?}"),
        }
    }
}
