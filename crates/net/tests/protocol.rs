//! The typed client API over a real socket: grants, check writing and
//! the rest of the protocol round-trip `EventLoopServer` and
//! `TcpClient`, and every denial arrives as a typed remote error.

use std::sync::Arc;

use proxy_net::{
    api, ClientOptions, EventLoopOptions, EventLoopServer, NetError, ServiceMux, TcpClient,
};
use proxy_wire::ErrorCode;
use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_accounting::server::CASHIER_ACCOUNT;
use proxy_accounting::{AccountingServer, Check};
use proxy_authz::{Acl, AclRights, AclSubject, AuthorizationServer, EndServer, GroupServer};
use proxy_crypto::keys::SymmetricKey;
use restricted_proxy::prelude::*;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1000))
}

/// The Fig. 3 world behind one mux: an authorization server "R" whose
/// database lets C read X at S, and the end-server S that trusts R.
fn fig3_mux() -> ServiceMux<MapResolver> {
    let mut rng = StdRng::seed_from_u64(1);
    let r_key = SymmetricKey::generate(&mut rng);
    let mut authz = AuthorizationServer::new(
        p("R"),
        GrantAuthority::SharedKey(r_key.clone()),
        MapResolver::new(),
    );
    authz.database_mut(p("S")).set(
        ObjectName::new("X"),
        Acl::new().with(
            AclSubject::Principal(p("C")),
            AclRights::ops(vec![Operation::new("read")]),
        ),
    );
    let mut end = EndServer::new(
        p("S"),
        MapResolver::new().with(p("R"), GrantorVerifier::SharedKey(r_key)),
    );
    end.acls.set(
        ObjectName::new("X"),
        Acl::new().with(AclSubject::Principal(p("R")), AclRights::all()),
    );
    let groups = GroupServer::new(
        p("G"),
        GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
    );
    groups.create_group("staff");
    groups.add_member("staff", p("C"));
    ServiceMux::new()
        .with_authz(Arc::new(authz))
        .with_end_server(Arc::new(end))
        .with_groups(Arc::new(groups))
}

/// `mux` behind a fresh one-worker event-loop server, and a client of
/// it. The server stops when its handle drops.
fn serve(mux: Arc<ServiceMux<MapResolver>>, seed: u64) -> (EventLoopServer, TcpClient) {
    let server =
        EventLoopServer::spawn_with(mux, EventLoopOptions::default(), seed).expect("spawn server");
    let client = TcpClient::new(server.addr(), ClientOptions::default());
    (server, client)
}

#[test]
fn group_grant_over_tcp() {
    let (_server, t) = serve(Arc::new(fig3_mux()), 7);
    let proxy = api::membership_proxy(&t, &p("C"), &["staff"], window()).expect("member");
    assert!(!proxy.certs.is_empty());
}

#[test]
fn denial_is_a_typed_remote_error() {
    let (_server, t) = serve(Arc::new(fig3_mux()), 9);
    // "Z" has no rights on X: the denial must come back typed, not as a
    // transport failure.
    let err = api::request_authorization(
        &t,
        &p("Z"),
        vec![],
        &p("S"),
        &Operation::new("read"),
        &ObjectName::new("X"),
        window(),
        Timestamp(1),
    )
    .unwrap_err();
    assert!(matches!(err, NetError::Remote { .. }), "got {err:?}");
}

#[test]
fn unmounted_service_answers_unavailable() {
    let (_server, t) = serve(Arc::new(ServiceMux::new()), 3);
    let err = api::membership_proxy(&t, &p("C"), &["staff"], window()).unwrap_err();
    assert_eq!(
        err,
        NetError::Remote {
            code: ErrorCode::Unavailable,
            detail: "no group server mounted".to_string()
        }
    );
}

/// The code a denial came back with.
fn remote_code(err: NetError) -> ErrorCode {
    match err {
        NetError::Remote { code, .. } => code,
        other => panic!("expected a remote denial, got {other:?}"),
    }
}

/// §4's check-writing arms — cashier's check, endorsement, certification
/// — through the typed helpers, over a socket: each reply variant
/// narrows, balances and holds move as the server says, and each denial
/// arrives as its remote code.
#[test]
fn check_write_endorse_and_certify_over_tcp() {
    let usd = Currency::new("USD");
    let mut rng = StdRng::seed_from_u64(5);
    let mut bank = AccountingServer::new(
        p("bank"),
        GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
    );
    bank.open_account("carol-acct", vec![p("carol")]);
    bank.account_mut("carol-acct")
        .unwrap()
        .credit(usd.clone(), 500);
    let bank = Arc::new(bank);
    let (_server, t) = serve(
        Arc::new(ServiceMux::new().with_accounting(Arc::clone(&bank))),
        5,
    );
    // (balance, held) of an account.
    let funds = |account: &str| {
        let account = bank.account(account).unwrap();
        (account.balance(&usd), account.held(&usd))
    };

    let check = api::write_cashiers_check(
        &t,
        &p("carol"),
        "carol-acct",
        &p("shop"),
        77,
        usd.clone(),
        200,
        window(),
    )
    .expect("cashier's check written");
    let info = Check {
        proxy: check.clone(),
    }
    .info()
    .unwrap();
    assert_eq!((info.check_no, info.amount), (77, 200));
    assert_eq!(funds("carol-acct"), (300, 0));
    assert_eq!(funds(CASHIER_ACCOUNT), (200, 0));
    let not_owner = api::write_cashiers_check(
        &t,
        &p("mallory"),
        "carol-acct",
        &p("shop"),
        78,
        usd.clone(),
        10,
        window(),
    );
    assert_eq!(
        remote_code(not_owner.unwrap_err()),
        ErrorCode::NotAuthorized
    );

    let endorsed = api::endorse_check(&t, check, &p("bank2")).expect("check endorsed");
    assert_eq!(Check { proxy: endorsed }.endorsement_count(), 1);
    assert_eq!(funds("carol-acct"), (300, 0));

    let certified = api::certify_check(
        &t,
        &p("carol"),
        "carol-acct",
        9,
        usd.clone(),
        100,
        &p("shop"),
        window(),
    )
    .expect("check certified");
    assert!(!certified.certs.is_empty());
    assert_eq!(funds("carol-acct"), (200, 100));
    let not_covered = api::certify_check(
        &t,
        &p("carol"),
        "carol-acct",
        10,
        usd.clone(),
        10_000,
        &p("shop"),
        window(),
    );
    assert_eq!(
        remote_code(not_covered.unwrap_err()),
        ErrorCode::InsufficientFunds
    );
    assert_eq!(funds("carol-acct"), (200, 100));
}

/// Fig. 3 (grant, then present) through the typed helpers, which take
/// any [`proxy_net::Transport`].
#[test]
fn fig3_flow_works_over_tcp() {
    let server = EventLoopServer::spawn_with(
        Arc::new(fig3_mux()),
        EventLoopOptions {
            workers: 2,
            ..EventLoopOptions::default()
        },
        11,
    )
    .expect("spawn server");
    let client = TcpClient::new(server.addr(), ClientOptions::default());
    let proxy = api::request_authorization(
        &client,
        &p("C"),
        vec![],
        &p("S"),
        &Operation::new("read"),
        &ObjectName::new("X"),
        window(),
        Timestamp(1),
    )
    .expect("authorization granted over TCP");
    let (principals, _groups) = api::end_request(
        &client,
        &Operation::new("read"),
        &ObjectName::new("X"),
        vec![p("C")],
        vec![proxy.present_bearer([7u8; 32], &p("S"))],
        Timestamp(2),
        vec![],
    )
    .expect("end-server accepts over TCP");
    assert!(principals.contains(&p("R")));
    // Both calls completed on one kept-alive pooled connection.
    assert_eq!(client.pooled_connections(), 1);
}
