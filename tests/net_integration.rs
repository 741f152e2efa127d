//! End-to-end networked protocol flows: the paper's three servers on
//! real TCP loopback sockets, driven through the typed client API.

use std::sync::Arc;

use proxy_aa::accounting::{write_check, AccountingServer};
use proxy_aa::authz::{Acl, AclRights, AclSubject, AuthorizationServer, EndServer};
use proxy_aa::crypto::ed25519::SigningKey;
use proxy_aa::crypto::keys::SymmetricKey;
use proxy_aa::net::{
    api, ClientOptions, Deposit, EventLoopOptions, EventLoopServer, ServiceMux, TcpClient,
};
use proxy_aa::proxy::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1000))
}

/// The full deployment: authorization server "R", end-server "S" that
/// trusts R, and an accounting server "bank" holding carol's and the
/// shop's accounts.
struct World {
    authz: ServiceMux<MapResolver>,
    end: ServiceMux<MapResolver>,
    bank: ServiceMux<MapResolver>,
    carol_authority: GrantAuthority,
}

fn world(seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
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

    let carol_key = SigningKey::generate(&mut rng);
    let carol_authority = GrantAuthority::Keypair(carol_key.clone());
    let bank_key = SigningKey::generate(&mut rng);
    let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key));
    bank.register_grantor(
        p("carol"),
        GrantorVerifier::PublicKey(carol_key.verifying_key()),
    );
    bank.open_account("carol", vec![p("carol")]);
    bank.account_mut("carol")
        .unwrap()
        .credit(Currency::new("USD"), 1_000);
    bank.open_account("shop", vec![p("shop")]);

    World {
        authz: ServiceMux::new().with_authz(Arc::new(authz)),
        end: ServiceMux::new().with_end_server(Arc::new(end)),
        bank: ServiceMux::new().with_accounting(Arc::new(bank)),
        carol_authority,
    }
}

fn spawn(mux: ServiceMux<MapResolver>, workers: usize, seed: u64) -> EventLoopServer {
    EventLoopServer::spawn_with(
        Arc::new(mux),
        EventLoopOptions {
            workers,
            ..EventLoopOptions::default()
        },
        seed,
    )
    .expect("spawn server")
}

fn client(server: &EventLoopServer) -> TcpClient {
    TcpClient::new(server.addr(), ClientOptions::default())
}

#[test]
fn grant_present_deposit_over_three_tcp_servers() {
    let w = world(1);
    let authz_srv = spawn(w.authz, 2, 1);
    let end_srv = spawn(w.end, 2, 2);
    let bank_srv = spawn(w.bank, 2, 3);

    // Step 1 (Fig. 3): C obtains an authorization proxy from R.
    let authz_client = client(&authz_srv);
    let proxy = api::request_authorization(
        &authz_client,
        &p("C"),
        vec![],
        &p("S"),
        &Operation::new("read"),
        &ObjectName::new("X"),
        window(),
        Timestamp(1),
    )
    .expect("authorization granted over TCP");

    // Step 2 (Fig. 4): C presents the proxy to S; S accepts R's claim.
    let end_client = client(&end_srv);
    let (principals, _groups) = api::end_request(
        &end_client,
        &Operation::new("read"),
        &ObjectName::new("X"),
        vec![p("C")],
        vec![proxy.present_bearer([7u8; 32], &p("S"))],
        Timestamp(2),
        vec![],
    )
    .expect("end-server accepts over TCP");
    assert!(principals.contains(&p("R")));

    // The proxy is for reads only: a networked write is denied remotely.
    let denied = api::end_request(
        &end_client,
        &Operation::new("write"),
        &ObjectName::new("X"),
        vec![p("C")],
        vec![proxy.present_bearer([8u8; 32], &p("S"))],
        Timestamp(2),
        vec![],
    );
    assert!(
        matches!(denied, Err(proxy_aa::net::NetError::Remote { .. })),
        "write must be denied: {denied:?}"
    );

    // Step 3 (Fig. 5): carol's check, written locally, deposited over TCP.
    let mut rng = StdRng::seed_from_u64(9);
    let check = write_check(
        &p("carol"),
        &w.carol_authority,
        &p("bank"),
        "carol",
        p("shop"),
        1,
        Currency::new("USD"),
        25,
        window(),
        &mut rng,
    );
    let bank_client = client(&bank_srv);
    let outcome = api::deposit_check(
        &bank_client,
        check.proxy,
        &p("shop"),
        "shop",
        &p("bank"),
        Timestamp(3),
    )
    .expect("deposit settles over TCP");
    match outcome {
        Deposit::Settled {
            payor,
            check_no,
            amount,
            ..
        } => {
            assert_eq!(payor, p("carol"));
            assert_eq!(check_no, 1);
            assert_eq!(amount, 25);
        }
        Deposit::Forwarded { .. } => panic!("same-bank deposit must settle"),
    }

    // Re-depositing the same check must fail (the bank's replay state).
    let replay = write_check(
        &p("carol"),
        &w.carol_authority,
        &p("bank"),
        "carol",
        p("shop"),
        1,
        Currency::new("USD"),
        25,
        window(),
        &mut rng,
    );
    let again = api::deposit_check(
        &bank_client,
        replay.proxy,
        &p("shop"),
        "shop",
        &p("bank"),
        Timestamp(4),
    );
    assert!(
        matches!(again, Err(proxy_aa::net::NetError::Remote { .. })),
        "double deposit must be rejected: {again:?}"
    );
}

#[test]
fn concurrent_clients_share_one_tcp_server() {
    let w = world(2);
    let authz_srv = spawn(w.authz, 4, 5);
    let c = client(&authz_srv);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..25 {
                    let proxy = api::request_authorization(
                        &c,
                        &p("C"),
                        vec![],
                        &p("S"),
                        &Operation::new("read"),
                        &ObjectName::new("X"),
                        window(),
                        Timestamp(1),
                    )
                    .expect("authorized under concurrency");
                    assert!(!proxy.certs.is_empty());
                }
            });
        }
    });
    // All four workers settled on kept-alive pooled connections.
    assert!(c.pooled_connections() <= 4);
}
