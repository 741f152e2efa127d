//! Integration: the full conventional-cryptography stack.
//!
//! Kerberos authentication (AS → TGS → AP) establishes session keys;
//! restricted proxies are granted under those keys; the end-server's
//! authorization engine consumes them. This is the paper's §6.2 deployment
//! exercised end to end across four crates.

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_aa::authz::{Acl, AclRights, AclSubject, EndServer, Request};
use proxy_aa::kerberos::{redeem_tgs_proxy, ApServer, Client, Kdc, SessionResolver};
use proxy_aa::proxy::prelude::*;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

struct World {
    rng: StdRng,
    kdc: Kdc,
    alice: Client,
    fs: ApServer,
}

fn world(seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kdc = Kdc::new(&mut rng);
    kdc.max_lifetime = 1_000_000;
    let alice_key = kdc.register(p("alice"), &mut rng);
    let fs_key = kdc.register(p("fs"), &mut rng);
    World {
        rng,
        kdc,
        alice: Client::new(p("alice"), alice_key),
        fs: ApServer::new(p("fs"), fs_key),
    }
}

/// Login, service ticket, and AP exchange: alice has a session at fs.
fn authenticate(w: &mut World, now: u64) -> kerberos_sim::Credentials {
    let tgt = w
        .alice
        .login(&w.kdc, RestrictionSet::new(), 10_000, now, &mut w.rng)
        .expect("login");
    let creds = w
        .alice
        .get_service_ticket(
            &w.kdc,
            &tgt,
            p("fs"),
            RestrictionSet::new(),
            10_000,
            now,
            &mut w.rng,
        )
        .expect("tgs");
    let auth = w.alice.make_authenticator(&creds, now, &mut w.rng);
    w.fs.accept(&creds.ticket_blob, &auth, now).expect("ap");
    creds
}

#[test]
fn kerberos_session_key_verifies_proxies() {
    let mut w = world(1);
    let creds = authenticate(&mut w, 0);

    // Alice grants a capability under her kerberos session key.
    let cap = grant(
        &p("alice"),
        &GrantAuthority::SharedKey(creds.session_key.clone()),
        RestrictionSet::new().with(Restriction::authorize_op(
            ObjectName::new("report"),
            Operation::new("read"),
        )),
        Validity::new(Timestamp(0), Timestamp(5_000)),
        1,
        &mut w.rng,
    );

    // The file server verifies it through its kerberos session registry.
    let verifier = Verifier::new(p("fs"), SessionResolver(&w.fs));
    let ctx = RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("report"))
        .at(Timestamp(5));
    let mut guard = ReplayCache::new();
    let pres = cap.present_bearer([7u8; 32], &p("fs"));
    let verified = verifier.verify(&pres, &ctx, &mut guard).expect("verifies");
    assert_eq!(verified.grantor, p("alice"));

    // Without the AP exchange (unknown grantor), verification fails.
    let fresh_fs = ApServer::new(
        p("fs"),
        proxy_crypto::keys::SymmetricKey::generate(&mut w.rng),
    );
    let blind = Verifier::new(p("fs"), SessionResolver(&fresh_fs));
    assert_eq!(
        blind.verify(&pres, &ctx, &mut guard),
        Err(VerifyError::UnknownGrantor(p("alice")))
    );
}

#[test]
fn restricted_login_restricts_everything_downstream() {
    // §6.3: the initial authentication is itself the granting of a proxy —
    // restrictions placed at login propagate into every service ticket.
    let mut w = world(2);
    let only_read = Restriction::Authorized {
        entries: vec![restricted_proxy::restriction::AuthorizedEntry::ops(
            ObjectName::new("report"),
            vec![Operation::new("read")],
        )],
    };
    let tgt = w
        .alice
        .login(
            &w.kdc,
            RestrictionSet::new().with(only_read.clone()),
            10_000,
            0,
            &mut w.rng,
        )
        .expect("login");
    let creds = w
        .alice
        .get_service_ticket(
            &w.kdc,
            &tgt,
            p("fs"),
            RestrictionSet::new(),
            10_000,
            0,
            &mut w.rng,
        )
        .expect("tgs");
    // The TGS carried the login restriction into the service ticket.
    assert!(creds.authdata.iter().any(|r| *r == only_read));
    let auth = w.alice.make_authenticator(&creds, 0, &mut w.rng);
    let accepted = w.fs.accept(&creds.ticket_blob, &auth, 0).expect("ap");
    assert!(accepted.restrictions.iter().any(|r| *r == only_read));
}

#[test]
fn tgs_proxy_lets_grantee_reach_new_servers() {
    // §6.3: a proxy for the ticket-granting service lets the grantee mint
    // per-end-server tickets with identical restrictions.
    let mut w = world(3);
    let mut rng2 = StdRng::seed_from_u64(99);
    let mail_key = w.kdc.register(p("mail"), &mut w.rng);
    let mut mail = ApServer::new(p("mail"), mail_key);

    let tgt = w
        .alice
        .login(&w.kdc, RestrictionSet::new(), 100_000, 0, &mut w.rng)
        .expect("login");
    let restriction = Restriction::authorize_op(ObjectName::new("inbox"), Operation::new("read"));
    let (proxy, proxy_key) = w
        .alice
        .derive_proxy(
            &tgt,
            RestrictionSet::new().with(restriction.clone()),
            Validity::new(Timestamp(0), Timestamp(50_000)),
            0,
            &mut w.rng,
        )
        .expect("proxy");

    // The grantee (a batch job, not alice) redeems it for a mail ticket.
    let creds = redeem_tgs_proxy(
        &w.kdc,
        &proxy,
        &proxy_key,
        p("mail"),
        RestrictionSet::new(),
        10_000,
        10,
        &mut rng2,
    )
    .expect("redeem");
    assert_eq!(creds.service, p("mail"));
    assert!(creds.authdata.iter().any(|r| *r == restriction));

    // The minted ticket works at the mail server — presented by the
    // grantee, who knows the new session key from the TGS reply.
    let auth = Client::new(
        p("alice"),
        proxy_crypto::keys::SymmetricKey::generate(&mut rng2),
    );
    let _ = auth; // the grantee does NOT need alice's long-term key
    let authenticator = kerberos_sim::Authenticator {
        client: p("alice"),
        timestamp: 11,
        subkey: None,
        authdata: RestrictionSet::new(),
        proxy_validity: None,
    }
    .seal(&creds.session_key, &mut rng2);
    let accepted = mail
        .accept(&creds.ticket_blob, &authenticator, 11)
        .expect("ap at mail");
    assert_eq!(accepted.client, p("alice"));
    assert!(accepted.restrictions.iter().any(|r| *r == restriction));
}

#[test]
fn end_server_combines_kerberos_identity_and_proxies() {
    let mut w = world(4);
    let creds = authenticate(&mut w, 0);

    // Build an authz EndServer whose resolver is a snapshot of the
    // kerberos session registry.
    let resolver = MapResolver::new().with(
        p("alice"),
        GrantorVerifier::SharedKey(creds.session_key.clone()),
    );
    let mut end = EndServer::new(p("fs"), resolver);
    end.acls.set(
        ObjectName::new("report"),
        Acl::new().with(AclSubject::Principal(p("alice")), AclRights::all()),
    );

    // Bob presents alice's capability; his own identity comes from his own
    // (hypothetical) kerberos exchange.
    let cap = grant(
        &p("alice"),
        &GrantAuthority::SharedKey(creds.session_key),
        RestrictionSet::new().with(Restriction::authorize_op(
            ObjectName::new("report"),
            Operation::new("read"),
        )),
        Validity::new(Timestamp(0), Timestamp(5_000)),
        1,
        &mut w.rng,
    );
    let req = Request::new(
        Operation::new("read"),
        ObjectName::new("report"),
        Timestamp(4),
    )
    .authenticated_as(p("bob"))
    .with_presentation(cap.present_bearer([1u8; 32], &p("fs")));
    let authorized = end.authorize(&req).expect("capability honored");
    assert!(authorized.claims.principals.contains(&p("alice")));
    assert!(authorized.claims.principals.contains(&p("bob")));
}
