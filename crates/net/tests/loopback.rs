//! Loopback transport: every call round-trips real wire frames, denials
//! arrive as typed remote errors, and the `netsim` tallies recorded for
//! a fixed seed are bit-for-bit reproducible.

use std::sync::Arc;

use netsim::{EndpointId, Network};
use proxy_net::{
    api, EventLoopOptions, EventLoopServer, Loopback, NetError, ServiceMux, TcpClient,
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

/// Runs the Fig. 3 flow (grant, then present) over a loopback transport
/// and returns the network's tallies.
fn run_fig3_over_loopback(seed: u64) -> (u64, u64) {
    let net = Arc::new(Network::new(seed));
    let mux = Arc::new(fig3_mux());
    let t = Loopback::new(
        Arc::clone(&mux),
        Arc::clone(&net),
        EndpointId::new("C"),
        EndpointId::new("R"),
        seed,
    );
    let proxy = api::request_authorization(
        &t,
        &p("C"),
        vec![],
        &p("S"),
        &Operation::new("read"),
        &ObjectName::new("X"),
        window(),
        Timestamp(1),
    )
    .expect("authorization granted");

    let (principals, _groups) = api::end_request(
        &t,
        &Operation::new("read"),
        &ObjectName::new("X"),
        vec![p("C")],
        vec![proxy.present_bearer([7u8; 32], &p("S"))],
        Timestamp(2),
        vec![],
    )
    .expect("end-server accepts");
    assert!(principals.contains(&p("R")));

    (net.total_messages(), net.total_bytes())
}

#[test]
fn fig3_flow_works_over_loopback() {
    let (messages, bytes) = run_fig3_over_loopback(42);
    // Two calls, each one request + one reply.
    assert_eq!(messages, 4);
    assert!(bytes > 0);
}

#[test]
fn loopback_tallies_are_deterministic() {
    let a = run_fig3_over_loopback(42);
    let b = run_fig3_over_loopback(42);
    assert_eq!(a, b, "same seed must reproduce identical netsim tallies");
}

#[test]
fn group_grant_over_loopback() {
    let net = Arc::new(Network::new(7));
    let mux = Arc::new(fig3_mux());
    let t = Loopback::new(
        Arc::clone(&mux),
        net,
        EndpointId::new("C"),
        EndpointId::new("G"),
        7,
    );
    let proxy = api::membership_proxy(&t, &p("C"), &["staff"], window()).expect("member");
    assert!(!proxy.certs.is_empty());
}

#[test]
fn denial_is_a_typed_remote_error() {
    let net = Arc::new(Network::new(9));
    let mux = Arc::new(fig3_mux());
    let t = Loopback::new(
        Arc::clone(&mux),
        net,
        EndpointId::new("Z"),
        EndpointId::new("R"),
        9,
    );
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
    let net = Arc::new(Network::new(3));
    let mux: Arc<ServiceMux<MapResolver>> = Arc::new(ServiceMux::new());
    let t = Loopback::new(
        Arc::clone(&mux),
        net,
        EndpointId::new("C"),
        EndpointId::new("R"),
        3,
    );
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
/// — through the typed helpers, over real frames: each reply variant
/// narrows, balances and holds move as the server says, and each denial
/// arrives as its remote code.
#[test]
fn check_write_endorse_and_certify_over_loopback() {
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
    let mux: Arc<ServiceMux<MapResolver>> =
        Arc::new(ServiceMux::new().with_accounting(Arc::clone(&bank)));
    let t = Loopback::new(
        mux,
        Arc::new(Network::new(5)),
        EndpointId::new("carol"),
        EndpointId::new("bank"),
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

/// The same flow the loopback tests run, over a real socket: proof that
/// code written against [`Transport`] runs unchanged on TCP.
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
    let client = TcpClient::new(server.addr(), proxy_net::ClientOptions::default());
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
