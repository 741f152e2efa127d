//! The paper's protocol over real sockets: three servers on loopback TCP
//! ports — an authorization server (Fig. 3), an end-server (Fig. 4), and
//! an accounting server (Fig. 5) — driven by a pooled retrying client.
//!
//! Each step prints the bytes that actually crossed the wire (request
//! and reply frames, including the 18-byte header and 4-byte CRC) and
//! the client-observed round-trip time.
//!
//! Run with: `cargo run --example tcp_demo`

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_aa::accounting::{write_check, AccountingServer};
use proxy_aa::authz::{Acl, AclRights, AclSubject, AuthorizationServer, EndServer};
use proxy_aa::crypto::ed25519::SigningKey;
use proxy_aa::crypto::keys::SymmetricKey;
use proxy_aa::net::{api, ClientOptions, Deposit, EventLoopServer, ServiceMux, TcpClient};
use proxy_aa::proxy::prelude::*;
use proxy_aa::wire::Message;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(10_000))
}

/// Frame sizes for one request/reply pair, as they crossed the socket.
fn wire_line(step: &str, request: &Message, reply_frame_len: usize, rtt_us: u128) {
    println!(
        "  {step}: request {} B on the wire, reply {} B, rtt {} µs",
        request.to_frame(0).len(),
        reply_frame_len,
        rtt_us
    );
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // --- Deployment: three servers, each on its own loopback port. ------
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
        .credit(Currency::new("USD"), 100);
    bank.open_account("shop", vec![p("shop")]);

    // One event-loop worker each, on an ephemeral port; the last argument
    // seeds server-side randomness.
    let authz_mux = ServiceMux::new().with_authz(Arc::new(authz));
    let authz_srv = EventLoopServer::spawn(Arc::new(authz_mux), 1).expect("spawn authz server");
    let end_mux = ServiceMux::new().with_end_server(Arc::new(end));
    let end_srv = EventLoopServer::spawn(Arc::new(end_mux), 2).expect("spawn end server");
    let bank_mux = ServiceMux::<MapResolver>::new().with_accounting(Arc::new(bank));
    let bank_srv = EventLoopServer::spawn(Arc::new(bank_mux), 3).expect("spawn bank server");
    println!("three event-loop servers listening on loopback:");
    println!("  authorization server R at {}", authz_srv.addr());
    println!("  end-server            S at {}", end_srv.addr());
    println!("  accounting server  bank at {}\n", bank_srv.addr());

    // --- Step 1 (Fig. 3): C asks R for an authorization proxy. ----------
    let authz_client = TcpClient::new(authz_srv.addr(), ClientOptions::default());
    let query = Message::AuthzQuery {
        client: p("C"),
        presentations: vec![],
        end_server: p("S"),
        operation: Operation::new("read"),
        object: ObjectName::new("X"),
        validity: window(),
        now: Timestamp(1),
    };
    let start = Instant::now();
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
    .expect("authorization granted");
    let reply_len = Message::AuthzGrant {
        proxy: proxy.clone(),
    }
    .to_frame(0)
    .len();
    println!("step 1 — authorization query to R over TCP:");
    wire_line(
        "authz-query",
        &query,
        reply_len,
        start.elapsed().as_micros(),
    );
    println!(
        "  R granted a {}-certificate proxy asserting C may read X at S\n",
        proxy.certs.len()
    );

    // --- Step 2 (Fig. 4): C presents the proxy to S. --------------------
    let end_client = TcpClient::new(end_srv.addr(), ClientOptions::default());
    let presentation = proxy.present_bearer([7u8; 32], &p("S"));
    let request = Message::EndRequest {
        operation: Operation::new("read"),
        object: ObjectName::new("X"),
        authenticated: vec![p("C")],
        presentations: vec![presentation.clone()],
        now: Timestamp(2),
        amounts: vec![],
    };
    let start = Instant::now();
    let (principals, groups) = api::end_request(
        &end_client,
        &Operation::new("read"),
        &ObjectName::new("X"),
        vec![p("C")],
        vec![presentation],
        Timestamp(2),
        vec![],
    )
    .expect("end-server accepts");
    let reply_len = Message::EndDecision {
        principals: principals.clone(),
        groups,
    }
    .to_frame(0)
    .len();
    println!("step 2 — proxy presented to S over TCP:");
    wire_line(
        "end-request",
        &request,
        reply_len,
        start.elapsed().as_micros(),
    );
    println!(
        "  S authorized the read on the authority of {}\n",
        principals
            .iter()
            .map(|pr| pr.as_str().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // --- Step 3 (Fig. 5): carol's check deposited at the bank. ----------
    let bank_client = TcpClient::new(bank_srv.addr(), ClientOptions::default());
    let check = write_check(
        &p("carol"),
        &carol_authority,
        &p("bank"),
        "carol",
        p("shop"),
        1,
        Currency::new("USD"),
        25,
        window(),
        &mut rng,
    );
    let deposit = Message::CheckDeposit {
        check: check.proxy.clone(),
        depositor: p("shop"),
        to_account: "shop".to_string(),
        next_hop: p("bank"),
        now: Timestamp(3),
    };
    let start = Instant::now();
    let outcome = api::deposit_check(
        &bank_client,
        check.proxy,
        &p("shop"),
        "shop",
        &p("bank"),
        Timestamp(3),
    )
    .expect("deposit settles");
    let rtt = start.elapsed().as_micros();
    match outcome {
        Deposit::Settled {
            payor,
            check_no,
            currency,
            amount,
        } => {
            let reply_len = Message::CheckSettled {
                payor: payor.clone(),
                check_no,
                currency,
                amount,
            }
            .to_frame(0)
            .len();
            println!("step 3 — check deposited at the bank over TCP:");
            wire_line("check-deposit", &deposit, reply_len, rtt);
            println!("  settled: {payor} paid {amount} USD on check #{check_no}");
        }
        Deposit::Forwarded { .. } => unreachable!("same-bank deposit settles"),
    }
    println!("\nall three protocol figures completed over real sockets.");
}
