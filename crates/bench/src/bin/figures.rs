//! Regenerates every series of the experiment suite (DESIGN.md §4,
//! EXPERIMENTS.md) in a few seconds.
//!
//! Run with: `cargo run -p proxy-bench --bin figures --release`
//!
//! The default mode rebuilds the protocol of each figure (F1–F6) and
//! ablation (A1–A5) and prints two kinds of row. Protocol-shape rows —
//! messages, bytes, simulated ticks — are exact: the worlds are seeded.
//! Timed rows carry the flow as their series (`f4_verify_chain`, …) and
//! its parameter as x, in µs per call or, for flows too short for the
//! clock to resolve alone, ns per operation.
//!
//! With `--ablate-crypto`, instead emits the signature-engine ablation:
//! the windowed/batched engine's kernels beside the double-and-add
//! reference, each eight-lane stage beside the scalar composition it
//! replaced (`-portable` rows), and the conventional half's keyed-hash
//! costs.
//!
//! Every timed row of the default mode and of `--ablate-crypto` comes
//! from one stopwatch, [`time_all`]: interleaved min-of-rounds, robust to
//! the load spikes a mean folds in.

use std::hint::black_box;
use std::time::{Duration, Instant};

use kerberos_sim::{redeem_tgs_proxy, ApServer, Client, Kdc};
use netsim::{EndpointId, Network};
use proxy_accounting::{write_check, AccountingServer, Check, ClearingHouse, ClearingReport};
use proxy_authz::{
    Acl, AclRights, AclSubject, AuthorizationServer, EndServer, GroupServer, Request,
};
use proxy_baselines::amoeba::AmoebaBank;
use proxy_baselines::dssa::{CertificationAuthority, DssaUser};
use proxy_baselines::grapevine::{query_membership, RegistrationServer};
use proxy_baselines::sollins::{verify_online, Passport, SollinsAuthServer};
use proxy_bench::{
    c10k, cascade, journal, matching_ctx, public_key_world, report_row, restrictions, revocation,
    symmetric_world, wal, window, write_json, Row,
};
use proxy_crypto::ed25519::SigningKey;
use proxy_crypto::keys::SymmetricKey;
use rand::rngs::StdRng;
use restricted_proxy::prelude::*;
use restricted_proxy::replay::ReplayGuard;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn ep(name: &str) -> EndpointId {
    EndpointId::new(name)
}

fn usd() -> Currency {
    Currency::new("USD")
}

/// A named timing variant: label plus a closure that runs the measured
/// flow `n` times and returns how long that took.
type Variant<'a> = (String, Box<dyn FnMut(u32) -> Duration + 'a>);

/// Operations per call of a `-x1000` variant.
const X1000: usize = 1000;

/// A variant timing `f` alone, its result kept alive.
fn kernel<'a, T>(name: impl Into<String>, mut f: impl FnMut() -> T + 'a) -> Variant<'a> {
    (
        name.into(),
        Box::new(move |n| {
            let t = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            t.elapsed()
        }),
    )
}

/// A `-x1000` variant: `f` a thousand times per call, so a flow well
/// under a microsecond still spans many clock ticks.
fn kernel_x1000<'a, T>(name: &str, mut f: impl FnMut() -> T + 'a) -> Variant<'a> {
    kernel(format!("{name}-x1000"), move || {
        for _ in 0..X1000 {
            black_box(f());
        }
    })
}

/// A variant whose flow consumes what it runs on: `setup` builds one
/// input per call outside the timed span, `flow` consumes it inside.
fn batched<'a, I, T>(
    name: impl Into<String>,
    mut setup: impl FnMut() -> I + 'a,
    mut flow: impl FnMut(I) -> T + 'a,
) -> Variant<'a> {
    (
        name.into(),
        Box::new(move |n| {
            let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
            let t = Instant::now();
            for input in inputs {
                black_box(flow(input));
            }
            t.elapsed()
        }),
    )
}

/// Times every variant by round-robin interleaving and keeps each
/// variant's fastest round, in µs per call. Minima from interleaved
/// rounds see the same machine conditions, so the *ratios* between
/// variants are stable even when a shared host is noisy.
fn time_all(variants: &mut [Variant]) -> Vec<(String, f64)> {
    const ROUNDS: usize = 15;
    const ITERS: u32 = 8;
    let mut best = vec![f64::INFINITY; variants.len()];
    for _ in 0..ROUNDS {
        for (i, (_, f)) in variants.iter_mut().enumerate() {
            best[i] = best[i].min(f(ITERS).as_secs_f64() * 1e6 / f64::from(ITERS));
        }
    }
    variants
        .iter()
        .zip(best)
        .map(|((n, _), b)| (n.clone(), b))
        .collect()
}

/// Times `variants` and prints one row each under `experiment`: a
/// variant named `series/x` (x = 1 without a `/`) in µs, or — named
/// `…-x1000` — in ns per operation. Returns the timings, µs per call.
fn report_timed(experiment: &str, variants: &mut [Variant]) -> Vec<(String, f64)> {
    let timed = time_all(variants);
    for (name, us) in &timed {
        let (name, value, unit) = match name.strip_suffix("-x1000") {
            // µs per thousand operations is ns per operation.
            Some(per_op) => (per_op, format!("{us:.0}"), "ns"),
            None => (name.as_str(), format!("{us:.1}"), "µs"),
        };
        let (series, x) = name.split_once('/').unwrap_or((name, "1"));
        report_row(experiment, series, x, value, unit);
    }
    timed
}

/// Checks `pres` under a fresh replay cache, so accept-once never trips
/// on a presentation checked again. One stripe: the timed rows measure
/// the verify, not the building of sixteen stripes.
fn verify_fresh(
    verifier: &Verifier<MapResolver>,
    pres: &Presentation,
    ctx: &RequestContext,
) -> VerifiedProxy {
    let mut replay = ReplayCache::with_capacity(ReplayCache::DEFAULT_CAPACITY, 1);
    verifier.verify(pres, ctx, &mut replay).expect("verifies")
}

/// F1 — Fig. 1, "a restricted proxy": the artifact's wire size, and the
/// cost of granting and verifying it, as the restriction count grows.
fn f1_restricted_proxy() {
    const COUNTS: [usize; 7] = [0, 1, 2, 4, 8, 16, 32];
    let world = &symmetric_world(1);
    let mut rng = proxy_bench::rng(2);
    for n in COUNTS {
        let proxy = grant(
            &world.grantor,
            &world.authority,
            restrictions(n),
            window(),
            1,
            &mut rng,
        );
        report_row(
            "F1",
            "certificate-bytes",
            n,
            proxy.certs[0].encoded_len(),
            "bytes",
        );
        let pres = proxy.present_bearer([1u8; 32], &world.server);
        report_row("F1", "presentation-bytes", n, pres.encoded_len(), "bytes");
    }

    let ctx = &matching_ctx(&world.server);
    let mut verify_rng = proxy_bench::rng(4);
    let mut variants = Vec::new();
    for n in COUNTS {
        let set = restrictions(n);
        let mut rng = proxy_bench::rng(3);
        variants.push(kernel(format!("f1_grant/{n}"), move || {
            grant(
                &world.grantor,
                &world.authority,
                set.clone(),
                window(),
                1,
                &mut rng,
            )
        }));
    }
    for n in COUNTS {
        let pres = grant(
            &world.grantor,
            &world.authority,
            restrictions(n),
            window(),
            1,
            &mut verify_rng,
        )
        .present_bearer([1u8; 32], &world.server);
        variants.push(kernel(format!("f1_verify/{n}"), move || {
            verify_fresh(&world.verifier, &pres, ctx)
        }));
    }
    report_timed("F1", &mut variants);
}

/// Fig. 2's stack: Kerberos under an authorization server, a group
/// server and one bank holding both accounts (same-server clearing).
struct Stack {
    rng: StdRng,
    kdc: Kdc,
    alice: Client,
    fs: ApServer,
    r_ap: ApServer,
    gs_ap: ApServer,
    authz: AuthorizationServer<MapResolver>,
    groups: GroupServer,
    /// R's signing key as verifiable by S (R's session at S, established
    /// out-of-band at setup — a long-lived server-to-server session).
    r_to_s: SymmetricKey,
    house: ClearingHouse,
    carol_auth: GrantAuthority,
}

fn build(seed: u64) -> Stack {
    let mut rng = proxy_bench::rng(seed);
    let mut kdc = Kdc::new(&mut rng);
    let alice_key = kdc.register(p("C"), &mut rng);
    let fs_key = kdc.register(p("S"), &mut rng);
    let r_key = kdc.register(p("R"), &mut rng);
    let gs_key = kdc.register(p("GS"), &mut rng);

    let r_to_s = SymmetricKey::generate(&mut rng);
    let gs_to_s = SymmetricKey::generate(&mut rng);

    let mut authz = AuthorizationServer::new(
        p("R"),
        GrantAuthority::SharedKey(r_to_s.clone()),
        MapResolver::new().with(p("GS"), GrantorVerifier::SharedKey(gs_to_s.clone())),
    );
    let staff = GroupName::new(p("GS"), "staff");
    authz.database_mut(p("S")).set(
        ObjectName::new("X"),
        Acl::new()
            .with(
                AclSubject::Principal(p("C")),
                AclRights::ops(vec![Operation::new("read")]),
            )
            .with(
                AclSubject::Group(staff),
                AclRights::ops(vec![Operation::new("read")]),
            ),
    );

    let groups = GroupServer::new(p("GS"), GrantAuthority::SharedKey(gs_to_s.clone()));
    groups.add_member("staff", p("C"));

    let carol_key = SigningKey::generate(&mut rng);
    let mut bank = AccountingServer::new(
        p("$"),
        GrantAuthority::Keypair(SigningKey::generate(&mut rng)),
    );
    bank.open_account("carol", vec![p("C")]);
    bank.open_account("shop", vec![p("S")]);
    bank.account_mut("carol")
        .expect("just opened")
        .credit(usd(), u64::MAX / 2);
    bank.register_grantor(
        p("C"),
        GrantorVerifier::PublicKey(carol_key.verifying_key()),
    );
    let mut house = ClearingHouse::new();
    house.add_server(bank);

    Stack {
        rng,
        kdc,
        alice: Client::new(p("C"), alice_key),
        fs: ApServer::new(p("S"), fs_key),
        r_ap: ApServer::new(p("R"), r_key),
        gs_ap: ApServer::new(p("GS"), gs_key),
        authz,
        groups,
        r_to_s,
        house,
        carol_auth: GrantAuthority::Keypair(carol_key),
    }
}

/// Kerberos login + service ticket + AP for `service` via the shared
/// protocol drivers (5 messages on `net`).
fn kerberos_to(stack: &mut Stack, service: &str, net: &mut Network) {
    let ap = match service {
        "S" => &mut stack.fs,
        "R" => &mut stack.r_ap,
        "GS" => &mut stack.gs_ap,
        _ => unreachable!(),
    };
    kerberos_sim::authenticate_flow(&mut stack.alice, &stack.kdc, ap, net, &mut stack.rng)
        .expect("kerberos authentication");
}

/// Configuration `authn`: authenticate and perform the operation.
fn flow_authn(stack: &mut Stack, net: &mut Network) {
    kerberos_to(stack, "S", net);
    net.transmit(&ep("C"), &ep("S"), b"op: read X");
}

/// Configuration `authz`: Fig. 3 on top of authentication.
fn flow_authz(stack: &mut Stack, net: &mut Network, group_proxy: Option<Presentation>) {
    kerberos_to(stack, "R", net);
    net.transmit(&ep("C"), &ep("R"), b"authz request: read X at S");
    let presentations: Vec<Presentation> = group_proxy.into_iter().collect();
    let proxy = stack
        .authz
        .request_authorization(
            &p("C"),
            &presentations,
            &p("S"),
            &Operation::new("read"),
            &ObjectName::new("X"),
            Validity::new(Timestamp(0), Timestamp(100_000)),
            Timestamp(1),
            &mut stack.rng,
        )
        .expect("authorized");
    let pres = proxy.present_bearer([1u8; 32], &p("S"));
    net.transmit(&ep("R"), &ep("C"), &pres.encode());
    net.transmit(&ep("C"), &ep("S"), &pres.encode());
    // S verifies offline against R's key.
    let verifier = Verifier::new(
        p("S"),
        MapResolver::new().with(p("R"), GrantorVerifier::SharedKey(stack.r_to_s.clone())),
    );
    let ctx =
        RequestContext::new(p("S"), Operation::new("read"), ObjectName::new("X")).at(Timestamp(2));
    let mut guard = ReplayCache::new();
    verifier.verify(&pres, &ctx, &mut guard).expect("S accepts");
}

/// Configuration `group`: obtain a membership proxy first, then `authz`.
fn flow_group(stack: &mut Stack, net: &mut Network) {
    kerberos_to(stack, "GS", net);
    net.transmit(&ep("C"), &ep("GS"), b"membership request: staff");
    let membership = stack
        .groups
        .membership_proxy(
            &p("C"),
            &["staff"],
            Validity::new(Timestamp(0), Timestamp(100_000)),
            &mut stack.rng,
        )
        .expect("member");
    let pres = membership.present_delegate();
    net.transmit(&ep("GS"), &ep("C"), &pres.encode());
    flow_authz(stack, net, Some(pres));
}

/// Configuration `accounting`: `authz` plus payment by check.
fn flow_accounting(stack: &mut Stack, net: &mut Network) {
    flow_authz(stack, net, None);
    let check = write_check(
        &p("C"),
        &stack.carol_auth,
        &p("$"),
        "carol",
        p("S"),
        1,
        usd(),
        10,
        Validity::new(Timestamp(0), Timestamp(u64::MAX - 1)),
        &mut stack.rng,
    );
    net.transmit(&ep("C"), &ep("S"), &check.proxy.present_delegate().encode());
    let shop_auth = GrantAuthority::SharedKey(SymmetricKey::generate(&mut stack.rng));
    stack
        .house
        .deposit_and_clear(
            &check,
            &p("S"),
            &shop_auth,
            &p("$"),
            "shop",
            Timestamp(1),
            &mut stack.rng,
            Some(net),
        )
        .expect("clears");
}

/// F2 — Fig. 2, "relationship of security services": one client
/// operation under four configurations of the stack, and what each
/// layer adds in messages, simulated latency and bytes. Every flow
/// spends its stack (tickets, check numbers), so each call gets a fresh
/// one, built outside the timed span.
fn f2_service_stack() {
    type Flow = fn(&mut Stack, &mut Network);
    let configs: [(&str, Flow); 4] = [
        ("authn", flow_authn),
        ("authz", |s, n| flow_authz(s, n, None)),
        ("group", flow_group),
        ("accounting", flow_accounting),
    ];
    for (name, flow) in configs {
        let mut stack = build(1);
        let mut net = Network::new(0);
        flow(&mut stack, &mut net);
        report_row("F2", "messages", name, net.total_messages(), "messages");
        report_row("F2", "latency", name, net.now(), "ticks");
        report_row("F2", "bytes", name, net.total_bytes(), "bytes");
    }
    let mut variants: Vec<Variant> = configs
        .into_iter()
        .zip(2..)
        .map(|((name, flow), seed)| {
            batched(
                format!("f2_stack/{name}"),
                move || (build(seed), Network::new(0)),
                move |(mut stack, mut net)| flow(&mut stack, &mut net),
            )
        })
        .collect();
    report_timed("F2", &mut variants);
}

/// Fig. 3's servers: R holds an ACL for object X at S with the client C
/// as its last of `acl_size` entries, and S trusts R's key.
struct Fig3World {
    authz: AuthorizationServer<MapResolver>,
    end: EndServer<MapResolver>,
}

fn fig3_world(acl_size: usize, seed: u64) -> Fig3World {
    let mut rng = proxy_bench::rng(seed);
    let r_key = SymmetricKey::generate(&mut rng);
    let mut authz = AuthorizationServer::new(
        p("R"),
        GrantAuthority::SharedKey(r_key.clone()),
        MapResolver::new(),
    );
    authz
        .database_mut(p("S"))
        .set(ObjectName::new("X"), client_last_acl(acl_size - 1));
    let mut end = EndServer::new(
        p("S"),
        MapResolver::new().with(p("R"), GrantorVerifier::SharedKey(r_key)),
    );
    end.acls.set(
        ObjectName::new("X"),
        Acl::new().with(AclSubject::Principal(p("R")), AclRights::all()),
    );
    Fig3World { authz, end }
}

/// `read` for `others` principals, then for the client C: the worst
/// case for a scan.
fn client_last_acl(others: usize) -> Acl {
    let mut acl = Acl::new();
    for i in 0..others {
        acl.push(
            AclSubject::Principal(PrincipalId::new(format!("user-{i}"))),
            AclRights::ops(vec![Operation::new("read")]),
        );
    }
    acl.push(
        AclSubject::Principal(p("C")),
        AclRights::ops(vec![Operation::new("read")]),
    );
    acl
}

/// Runs the full Fig. 3 flow once, transmitting on `net`.
fn fig3_flow(world: &mut Fig3World, net: &mut Network, rng: &mut StdRng) {
    // Message 1: authenticated authorization request.
    net.transmit(&ep("C"), &ep("R"), b"authz request: read X at S");
    let proxy = world
        .authz
        .request_authorization(
            &p("C"),
            &[],
            &p("S"),
            &Operation::new("read"),
            &ObjectName::new("X"),
            window(),
            Timestamp(1),
            rng,
        )
        .expect("authorized");
    // Message 2: certificate + sealed proxy key back to the client.
    let pres = proxy.present_bearer([9u8; 32], &p("S"));
    net.transmit(&ep("R"), &ep("C"), &pres.encode());
    // Message 3: presentation to the end-server.
    net.transmit(&ep("C"), &ep("S"), &pres.encode());
    let req = Request::new(Operation::new("read"), ObjectName::new("X"), Timestamp(2))
        .authenticated_as(p("C"))
        .with_presentation(pres);
    world.end.authorize(&req).expect("end-server accepts");
}

/// F3 — Fig. 3, "the authorization protocol": three messages for a
/// fresh authorization, then one per request while the proxy lasts,
/// against a Grapevine-style online query per request; and the flow's
/// cost as the authorization database grows, against a purely local
/// ACL decision (the degenerate case the paper's model subsumes).
fn f3_authorization() {
    const ACL_SIZES: [usize; 4] = [1, 10, 100, 1000];
    let mut world = fig3_world(10, 1);
    let mut net = Network::new(0);
    fig3_flow(&mut world, &mut net, &mut proxy_bench::rng(2));
    report_row(
        "F3",
        "proxy-messages-first-request",
        10,
        net.total_messages(),
        "messages",
    );
    report_row("F3", "proxy-latency", 10, net.now(), "ticks");
    for k in [1u64, 2, 5, 10, 100] {
        let ours = 3 + (k - 1);
        let mut reg = RegistrationServer::new();
        reg.add_member("staff", p("C"));
        let mut net = Network::new(0);
        for _ in 0..k {
            // The request plus an online membership query round trip.
            net.transmit(&ep("C"), &ep("S"), b"op");
            query_membership(&p("S"), &reg, "staff", &p("C"), &mut net);
        }
        report_row("F3", "proxy-messages-per-k", k, ours, "messages");
        report_row(
            "F3",
            "grapevine-messages-per-k",
            k,
            net.total_messages(),
            "messages",
        );
    }

    let mut variants = Vec::new();
    for size in ACL_SIZES {
        let mut world = fig3_world(size, 3);
        let mut net = Network::new(0);
        let mut rng = proxy_bench::rng(4);
        variants.push(kernel(format!("f3_full_protocol/{size}"), move || {
            fig3_flow(&mut world, &mut net, &mut rng);
        }));
    }
    for size in ACL_SIZES {
        let mut end = EndServer::new(p("S"), MapResolver::new());
        end.acls.set(ObjectName::new("X"), client_last_acl(size));
        let req = Request::new(Operation::new("read"), ObjectName::new("X"), Timestamp(1))
            .authenticated_as(p("C"));
        variants.push(kernel_x1000(&format!("f3_local_acl/{size}"), move || {
            end.authorize(&req).expect("allowed")
        }));
    }
    report_timed("F3", &mut variants);
}

/// F4 — Fig. 4, "cascaded proxies": our end-server verifies a chain
/// offline (one presentation message at any depth) where Sollins-style
/// cascaded authentication asks the authentication server once per
/// link (§3.4); verify cost and chain bytes grow linearly.
fn f4_cascade() {
    const DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];
    let mut rng = proxy_bench::rng(1);
    let auth = SollinsAuthServer::new(p("auth"), SymmetricKey::generate(&mut rng));
    let world = &symmetric_world(2);
    for d in DEPTHS {
        report_row("F4", "proxy-messages", d, 1, "messages");
        let mut passport = Passport::default();
        for i in 0..d {
            passport = auth.extend(&passport, p(&format!("hop{i}")), RestrictionSet::new());
        }
        let mut net = Network::new(0);
        assert!(verify_online(&p("end"), &passport, &auth, &mut net).valid);
        // Plus the presentation itself.
        report_row(
            "F4",
            "sollins-messages",
            d,
            1 + net.total_messages(),
            "messages",
        );
        report_row("F4", "sollins-latency", d, net.now(), "ticks");
        let proxy = cascade(world, d, 3);
        report_row("F4", "proxy-chain-bytes", d, proxy.encoded_len(), "bytes");
    }

    let ctx = &matching_ctx(&world.server);
    let mut variants = Vec::new();
    for d in DEPTHS {
        let pres = cascade(world, d, 3).present_bearer([1u8; 32], &world.server);
        variants.push(kernel(format!("f4_verify_chain/{d}"), move || {
            verify_fresh(&world.verifier, &pres, ctx)
        }));
    }
    // What an intermediate server pays to add one link.
    for d in [1usize, 8, 32] {
        let proxy = cascade(world, d, 4);
        let mut rng = proxy_bench::rng(5);
        variants.push(kernel(format!("f4_derive_link/{d}"), move || {
            proxy
                .derive(
                    RestrictionSet::new().with(Restriction::AcceptOnce { id: 999 }),
                    window(),
                    999,
                    &mut rng,
                )
                .expect("derives")
        }));
    }
    report_timed("F4", &mut variants);
}

/// A clearing chain: carol's account at the drawee, the shop's at the
/// server the check is deposited at, `hops` endorsement hops between.
struct ChainWorld {
    house: ClearingHouse,
    carol_auth: GrantAuthority,
    shop_auth: GrantAuthority,
    drawee: PrincipalId,
    deposit_at: PrincipalId,
}

/// Builds a [`ChainWorld`]; `hops` = 1 is exactly Fig. 5.
fn chain_world(hops: usize, seed: u64) -> ChainWorld {
    let mut rng = proxy_bench::rng(seed);
    let carol_key = SigningKey::generate(&mut rng);
    let shop_key = SigningKey::generate(&mut rng);
    let n_servers = hops + 1;
    let keys: Vec<SigningKey> = (0..n_servers)
        .map(|_| SigningKey::generate(&mut rng))
        .collect();
    let names: Vec<PrincipalId> = (0..n_servers).map(|i| p(&format!("$bank{i}"))).collect();
    let drawee = names[n_servers - 1].clone();
    let mut house = ClearingHouse::new();
    for (i, name) in names.iter().enumerate() {
        let mut s = AccountingServer::new(name.clone(), GrantAuthority::Keypair(keys[i].clone()));
        if i == 0 {
            s.open_account("shop-acct", vec![p("S")]);
        }
        if i == n_servers - 1 {
            s.open_account("carol-acct", vec![p("C")]);
            s.account_mut("carol-acct")
                .expect("just opened")
                .credit(usd(), u64::MAX / 2);
            s.register_grantor(
                p("C"),
                GrantorVerifier::PublicKey(carol_key.verifying_key()),
            );
            s.register_grantor(p("S"), GrantorVerifier::PublicKey(shop_key.verifying_key()));
            for (j, k) in keys.iter().enumerate().take(n_servers - 1) {
                s.register_grantor(
                    names[j].clone(),
                    GrantorVerifier::PublicKey(k.verifying_key()),
                );
            }
        }
        house.add_server(s);
    }
    for i in 0..n_servers.saturating_sub(2) {
        house.set_route(names[i].clone(), drawee.clone(), names[i + 1].clone());
    }
    ChainWorld {
        house,
        carol_auth: GrantAuthority::Keypair(carol_key),
        shop_auth: GrantAuthority::Keypair(shop_key),
        drawee,
        deposit_at: names[0].clone(),
    }
}

impl ChainWorld {
    /// Carol's checks on the drawee, 10 USD each, numbered from 1: one
    /// per call, with its number.
    fn checks(&self, seed: u64) -> impl FnMut() -> (u64, Check) {
        let (carol_auth, drawee) = (self.carol_auth.clone(), self.drawee.clone());
        let mut rng = proxy_bench::rng(seed);
        let mut check_no = 0;
        move || {
            check_no += 1;
            let check = write_check(
                &p("C"),
                &carol_auth,
                &drawee,
                "carol-acct",
                p("S"),
                check_no,
                usd(),
                10,
                Validity::new(Timestamp(0), Timestamp(u64::MAX - 1)),
                &mut rng,
            );
            (check_no, check)
        }
    }

    /// The shop deposits `check` and it clears to the drawee.
    fn clear(
        &mut self,
        check: &Check,
        rng: &mut StdRng,
        net: Option<&mut Network>,
    ) -> ClearingReport {
        self.house
            .deposit_and_clear(
                check,
                &p("S"),
                &self.shop_auth,
                &self.deposit_at,
                "shop-acct",
                Timestamp(1),
                rng,
                net,
            )
            .expect("clears")
    }
}

/// F5 — Fig. 5, "processing a check": messages and simulated latency
/// linear in endorsement hops, against the Amoeba prepaid baseline for
/// one purchase; and the cost of clearing, of a certified check, and of
/// writing a check. A check number clears once, so the timed rows write
/// each call's check outside the timed span.
fn f5_check_clearing() {
    const HOPS: [usize; 4] = [1, 2, 4, 8];
    for hops in HOPS {
        let mut world = chain_world(hops, 42);
        let (_, check) = world.checks(43)();
        let mut net = Network::new(0);
        let report = world.clear(&check, &mut proxy_bench::rng(44), Some(&mut net));
        report_row("F5", "clearing-messages", hops, report.messages, "messages");
        report_row("F5", "clearing-latency", hops, net.now(), "ticks");
        report_row("F5", "endorsements", hops, report.hops, "endorsements");
    }
    // Amoeba: prepay (2 messages) + the operation (1) + refund of the
    // remainder (2). A one-hop check is 3 messages and never refunds.
    let mut bank = AmoebaBank::new();
    let mut net = Network::new(0);
    bank.credit(p("C"), usd(), 1_000);
    bank.prepay(&p("C"), &p("S"), usd(), 100, &mut net)
        .expect("funded");
    net.transmit(&ep("C"), &ep("S"), b"op");
    bank.consume(&p("C"), &p("S"), &usd(), 10).expect("prepaid");
    bank.refund(&p("C"), &p("S"), &usd(), &mut net);
    report_row(
        "F5",
        "amoeba-messages-single-purchase",
        1,
        net.total_messages(),
        "messages",
    );

    let mut variants = Vec::new();
    for hops in HOPS {
        let mut world = chain_world(hops, 7);
        let mut rng = proxy_bench::rng(8);
        variants.push(batched(
            format!("f5_clearing/{hops}"),
            world.checks(9),
            move |(_, check)| world.clear(&check, &mut rng, None),
        ));
    }
    // Certification (hold + proxy), then clearing from the hold.
    let mut world = chain_world(1, 9);
    let drawee = world.drawee.clone();
    let mut rng = proxy_bench::rng(10);
    variants.push(batched(
        "f5_certified/certify_and_clear",
        world.checks(11),
        move |(check_no, check)| {
            world
                .house
                .server_mut(&drawee)
                .expect("drawee")
                .certify(
                    &p("C"),
                    "carol-acct",
                    check_no,
                    usd(),
                    10,
                    p("S"),
                    Validity::new(Timestamp(0), Timestamp(u64::MAX - 1)),
                    &mut rng,
                )
                .expect("certifies");
            world.clear(&check, &mut rng, None)
        },
    ));
    variants.push(kernel("f5_write_check", chain_world(1, 11).checks(12)));
    report_timed("F5", &mut variants);
}

/// F6 — Fig. 6, "a public-key restricted proxy": the same proxy under
/// each cryptosystem of §6 at four restrictions — conventional (HMAC
/// under a shared session key, Fig. 1 as deployed in Kerberos) and
/// public-key (Ed25519).
fn f6_public_key_proxy() {
    const N_RESTRICTIONS: usize = 4;
    let (sym, pk) = (symmetric_world(2), public_key_world(3));
    // (flavour, grantor, its authority, end-server, its verifier)
    let flavours = [
        (
            "hmac",
            &sym.grantor,
            &sym.authority,
            &sym.server,
            &sym.verifier,
        ),
        (
            "ed25519",
            &pk.grantor,
            &pk.authority,
            &pk.server,
            &pk.verifier,
        ),
    ];
    let mut size_rng = proxy_bench::rng(1);
    let mut proxy_rng = proxy_bench::rng(4);
    let mut variants = Vec::new();
    for ((flavour, grantor, authority, server, verifier), seed) in flavours.into_iter().zip([5, 6])
    {
        let grant_with = |rng: &mut StdRng| {
            grant(
                grantor,
                authority,
                restrictions(N_RESTRICTIONS),
                window(),
                1,
                rng,
            )
        };
        let sized = grant_with(&mut size_rng);
        report_row(
            "F6",
            "certificate-bytes",
            flavour,
            sized.certs[0].encoded_len(),
            "bytes",
        );
        let proxy = grant_with(&mut proxy_rng);
        let pres = proxy.present_bearer([1u8; 32], server);
        let ctx = matching_ctx(server);
        let mut rng = proxy_bench::rng(seed);
        variants.push(kernel(format!("f6_grant/{flavour}"), move || {
            grant_with(&mut rng)
        }));
        variants.push(kernel(format!("f6_present/{flavour}"), move || {
            proxy.present_bearer([1u8; 32], server)
        }));
        variants.push(kernel(format!("f6_verify/{flavour}"), move || {
            verify_fresh(verifier, &pres, &ctx)
        }));
    }
    report_timed("F6", &mut variants);
}

/// A1 — bearer presentation (proof of possession) against delegate
/// presentation (an identity check).
fn a1_presentation() {
    let world = &symmetric_world(1);
    let mut rng = proxy_bench::rng(2);
    let bearer = grant(
        &world.grantor,
        &world.authority,
        RestrictionSet::new(),
        window(),
        1,
        &mut rng,
    )
    .present_bearer([1u8; 32], &world.server);
    let delegate = grant(
        &world.grantor,
        &world.authority,
        RestrictionSet::new().with(Restriction::grantee_one(p("bob"))),
        window(),
        2,
        &mut rng,
    )
    .present_delegate();
    let ctx = matching_ctx(&world.server);
    let delegate_ctx = ctx.clone().authenticated_as(p("bob"));
    let mut variants = vec![
        kernel("a1_presentation/bearer_pop", move || {
            verify_fresh(&world.verifier, &bearer, &ctx)
        }),
        kernel("a1_presentation/delegate_identity", move || {
            verify_fresh(&world.verifier, &delegate, &delegate_ctx)
        }),
    ];
    report_timed("A1", &mut variants);
}

/// A2 — revoking every capability a grantor issued is one ACL edit
/// (§3.1); changing a DSSA role's rights re-registers the role at the
/// CA (a network round trip) and re-issues the delegation certificates.
/// Both edits consume their state, built outside the timed span.
fn a2_revocation() {
    let mut net = Network::new(0);
    let mut ca = CertificationAuthority::new();
    let mut rng = proxy_bench::rng(3);
    let mut alice = DssaUser::new(p("alice"));
    let role = alice.create_role(RestrictionSet::new(), &mut ca, &mut net, &mut rng);
    let _cert = alice.delegate(&role, p("bob"));
    // Revoke by replacing the role: a fresh role + new delegation.
    let role = alice.create_role(RestrictionSet::new(), &mut ca, &mut net, &mut rng);
    let _cert = alice.delegate(&role, p("bob"));
    report_row(
        "A2",
        "dssa-revocation-messages",
        1,
        net.total_messages() - 2,
        "messages",
    );
    report_row("A2", "proxy-revocation-messages", 1, 0, "messages");

    let mut variants = vec![
        batched(
            "a2_revocation/acl_edit",
            || {
                let mut acl = Acl::new();
                for i in 0..100 {
                    acl.push(
                        AclSubject::Principal(PrincipalId::new(format!("u{i}"))),
                        AclRights::all(),
                    );
                }
                acl
            },
            |mut acl| acl.remove_principal(&p("u50")),
        ),
        batched(
            "a2_revocation/dssa_role_reissue",
            || {
                (
                    Network::new(0),
                    CertificationAuthority::new(),
                    DssaUser::new(p("alice")),
                    proxy_bench::rng(4),
                )
            },
            |(mut net, mut ca, mut alice, mut rng)| {
                let role = alice.create_role(RestrictionSet::new(), &mut ca, &mut net, &mut rng);
                alice.delegate(&role, p("bob"))
            },
        ),
    ];
    report_timed("A2", &mut variants);
}

/// A3 — §7.9 propagation filtering as `limit-restriction`s pile up:
/// half are scoped to the target (kept), half elsewhere (dropped).
fn a3_propagation() {
    let targets = &[p("target-server")];
    let mut variants = Vec::new();
    for n in [1usize, 10, 100] {
        let mut set = RestrictionSet::new();
        for i in 0..n {
            let server = if i % 2 == 0 {
                "target-server"
            } else {
                "other-server"
            };
            set.push(Restriction::LimitRestriction {
                servers: vec![p(server)],
                restrictions: vec![Restriction::AcceptOnce { id: i as u64 }],
            });
        }
        let kept = set.propagate(Some(targets)).len();
        report_row("A3", "kept-after-propagation", n, kept, "restrictions");
        variants.push(kernel_x1000(&format!("a3_propagate/{n}"), move || {
            set.propagate(Some(targets))
        }));
    }
    report_timed("A3", &mut variants);
}

/// A4 — the replay cache (accept-once) under a flood of ids, then
/// expiry; and the cost of admitting a fresh id and refusing a repeat.
fn a4_replay_cache() {
    let grantor = &p("g");
    for n in [100u64, 10_000, 100_000] {
        // One stripe with room for exactly the flood: striped, a bound
        // with headroom only on average would refuse an id now and then.
        let mut guard = ReplayCache::with_capacity(n as usize, 1);
        for id in 0..n {
            assert!(guard.accept_once(grantor, id, Timestamp(0), Timestamp(id + 1)));
        }
        report_row("A4", "cache-entries-after-flood", n, guard.len(), "entries");
        guard.expire(Timestamp(n / 2));
        report_row(
            "A4",
            "cache-entries-after-expiry",
            n,
            guard.len(),
            "entries",
        );
    }

    let mut fresh = ReplayCache::new();
    let mut id = 0u64;
    let mut repeat = ReplayCache::new();
    repeat.accept_once(grantor, 1, Timestamp(0), Timestamp::MAX);
    let mut variants = vec![
        // The clock follows the ids, so each id lapses a tick later and
        // is swept, as on a long-lived server; a frozen clock would fill
        // the cache and time refusals.
        kernel_x1000("a4_replay/accept_once_fresh", move || {
            id += 1;
            fresh.accept_once(grantor, id, Timestamp(id), Timestamp(id + 1))
        }),
        kernel_x1000("a4_replay/accept_once_duplicate", move || {
            repeat.accept_once(grantor, 1, Timestamp(0), Timestamp::MAX)
        }),
    ];
    report_timed("A4", &mut variants);
}

/// A5 — one restricted TGS proxy mints tickets for k end-servers
/// (§6.3), where granting directly costs k round trips to a grantor who
/// must stay online.
fn a5_tgs_proxy() {
    for k in [1u64, 5, 20] {
        report_row("A5", "tgs-proxy-grantor-messages", k, 1, "messages");
        report_row("A5", "direct-grant-grantor-messages", k, k, "messages");
    }

    let mut rng = proxy_bench::rng(6);
    let mut kdc = Kdc::new(&mut rng);
    kdc.max_lifetime = 1_000_000;
    let alice_key = kdc.register(p("alice"), &mut rng);
    kdc.register(p("fs"), &mut rng);
    let mut alice = Client::new(p("alice"), alice_key);
    let tgt = alice
        .login(&kdc, RestrictionSet::new(), 1_000_000, 0, &mut rng)
        .expect("login");
    let (proxy, key) = alice
        .derive_proxy(
            &tgt,
            RestrictionSet::new(),
            Validity::new(Timestamp(0), Timestamp(1_000_000)),
            0,
            &mut rng,
        )
        .expect("proxy");
    let mut variants = vec![kernel(
        "a5_tgs_proxy/mint_service_ticket_via_proxy",
        move || {
            redeem_tgs_proxy(
                &kdc,
                &proxy,
                &key,
                p("fs"),
                RestrictionSet::new(),
                1_000,
                5,
                &mut rng,
            )
            .expect("redeems")
        },
    )];
    report_timed("A5", &mut variants);
}

fn ablate_crypto() {
    use proxy_crypto::ed25519::edwards::{sha512_eight, Point, PreparedPoint, StrausTerm};
    use proxy_crypto::ed25519::field::Fe;
    use proxy_crypto::ed25519::scalar::Scalar;
    use proxy_crypto::ed25519::{verify_batch, PreparedKey, Signature};
    use rand::RngCore;

    fn scalar(rng: &mut impl RngCore) -> Scalar {
        let mut b = [0u8; 32];
        rng.fill_bytes(&mut b);
        Scalar::from_bytes_mod_order(&b)
    }

    let mut rng = proxy_bench::rng(7);
    let (s, k, ka) = (scalar(&mut rng), scalar(&mut rng), scalar(&mut rng));
    let b = Point::basepoint();
    let a = b.mul_scalar(&ka).neg();
    let sk = SigningKey::generate(&mut rng);
    let vk = sk.verifying_key();
    let msg: &[u8] = b"ablation message";
    let sig = sk.sign(msg);

    // The largest batch timed (a `fig4_cold` read's equation); every
    // smaller one is a prefix of it.
    const MAX_BATCH: usize = 80;
    let keys: Vec<SigningKey> = (0..MAX_BATCH)
        .map(|_| SigningKey::generate(&mut rng))
        .collect();
    let messages: Vec<Vec<u8>> = (0..MAX_BATCH)
        .map(|i| format!("message {i}").into_bytes())
        .collect();
    let sigs: Vec<Signature> = keys
        .iter()
        .zip(&messages)
        .map(|(key, m)| key.sign(m))
        .collect();
    let vks: Vec<_> = keys.iter().map(SigningKey::verifying_key).collect();
    let items: Vec<_> = messages
        .iter()
        .zip(&sigs)
        .zip(&vks)
        .map(|((m, sg), key)| (m.as_slice(), sg, key))
        .collect();
    let items = items.as_slice();

    // Mod-ℓ arithmetic is tens of nanoseconds: a thousand dependent
    // operations per call, reported per operation.
    let wide: [u8; 64] = std::array::from_fn(|i| 0xa5 ^ (i as u8).wrapping_mul(29));
    let (a_bytes, r_bytes) = (*vk.as_bytes(), {
        let mut r = [0u8; 32];
        r.copy_from_slice(&sig.as_bytes()[..32]);
        r
    });

    // What a lone check inverts instead of taking R's square root.
    let r_y = Fe::from_bytes(&r_bytes);

    // The stages a public key is held in (DESIGN.md §8, "Prepared keys").
    let decompressed = vk.decompress().expect("a point");
    let decompressed_point = Point::decompress(vk.as_bytes()).expect("a point");
    let prepared = PreparedKey::new(&decompressed);

    // C3: n signatures one at a time and as one equation. Every batch
    // size some row below reads is timed once, as `batch-n`.
    const BATCHES: [usize; 9] = [2, 3, 4, 5, 8, 9, 16, 32, 80];
    // The batch sizes and one-key counts the eight-lane engine runs at in
    // the benchmark's workloads, beside today's scalar composition of the
    // same equation (DESIGN.md §8, "Eight lanes"); and the shared chain
    // alone at term counts either side of `MIN_LANE_CHAIN_TERMS`.
    const PORTABLE_BATCHES: [usize; 3] = [16, 32, 80];
    const PORTABLE_ONE_KEY: [usize; 1] = [16];
    const CHAINS: [usize; 9] = [2, 4, 8, 10, 12, 14, 16, 32, 160];
    let batch_portable_name = |n: usize| format!("batch-{n}-portable");
    let one_key_portable_name = |n: usize| format!("one-key-portable/{n}");
    let chain_name = |n: usize| format!("chain/{n}");
    let chain_portable_name = |n: usize| format!("chain-portable/{n}");
    const SEQUENTIAL: [usize; 5] = [2, 4, 8, 16, 32];
    // What the chain verifier chooses between when a possession proof
    // arrives with n seals pending: batch(n) then a lone cold check, or
    // batch(n + 1).
    const PLUS_LONE: [usize; 4] = [1, 2, 4, 8];
    // And what it could choose when the check that arrives is under a
    // key it holds prepared: batch(n) then that check alone through the
    // prepared key, or batch(n + 1).
    const PLUS_PREPARED: [usize; 4] = [1, 2, 3, 4];
    let batch_name = |n: usize| format!("batch-{n}");
    let sequential_name = |n: usize| format!("sequential-verify-{n}");
    let plus_lone_name = |n: usize| format!("batch-{n}-plus-lone");
    let plus_prepared_name = |n: usize| format!("batch-{n}-plus-prepared-lone");
    let prepared_keys: Vec<PreparedKey> = vks
        .iter()
        .map(|key| PreparedKey::new(&key.decompress().expect("a point")))
        .collect();
    let prepared_keys = prepared_keys.as_slice();
    let eight_encodings: [&[u8; 32]; 8] = std::array::from_fn(|i| vks[i].as_bytes());
    let eight_points: Vec<Point> = eight_encodings
        .iter()
        .map(|bytes| Point::decompress(bytes).expect("a point"))
        .collect();
    let eight_points = eight_points.as_slice();
    let chain_terms: Vec<StrausTerm> = (0..CHAINS[CHAINS.len() - 1])
        .map(|i| StrausTerm::new(&scalar(&mut rng), &eight_points[i % 8]))
        .collect();
    let chain_terms = chain_terms.as_slice();

    // C4: an 8-link public-key cascade through `Verifier::verify`, cold
    // (no cache: eight seals and the possession proof in one equation)
    // and re-presented to a warm seal cache (the proof alone).
    const DEPTH: usize = 8;
    let world = proxy_bench::public_key_world(4);
    let mut chain_rng = proxy_bench::rng(5);
    let mut proxy = grant(
        &world.grantor,
        &world.authority,
        RestrictionSet::new(),
        window(),
        0,
        &mut chain_rng,
    );
    for serial in 1..DEPTH as u64 {
        proxy = proxy
            .derive(RestrictionSet::new(), window(), serial, &mut chain_rng)
            .expect("window fixed");
    }
    let pres = proxy.present_bearer([1u8; 32], &world.server);
    let ctx = proxy_bench::matching_ctx(&world.server);
    let cached = world.verifier.clone().with_seal_cache(64);
    verify_fresh(&cached, &pres, &ctx);

    // C3 across requests: n cold depth-4 cascades of distinct chains as
    // one group — `prepare` each, one `settle`, `finish` each — and as
    // n calls of `verify`.
    const GROUPS: [usize; 5] = [1, 2, 4, 8, 16];
    let cascades: Vec<Presentation> = (0..16u64)
        .map(|i| {
            let head = grant(
                &world.grantor,
                &world.authority,
                RestrictionSet::new(),
                window(),
                100 + 4 * i,
                &mut chain_rng,
            );
            (1..4)
                .fold(head, |proxy, link| {
                    proxy
                        .derive(
                            RestrictionSet::new(),
                            window(),
                            100 + 4 * i + link,
                            &mut chain_rng,
                        )
                        .expect("window fixed")
                })
                .present_bearer([3u8; 32], &world.server)
        })
        .collect();
    let cascades = cascades.as_slice();
    let group_name = |n: usize| format!("group/{n}");
    let verify_each_name = |n: usize| format!("verify-each/{n}");

    // C3 under one key: n signatures by one signer, as one equation under
    // its prepared key and as n lone checks through it — a bank's run of
    // deposits under one payor (DESIGN.md §8, "One settle step").
    const ONE_KEY: [usize; 11] = [2, 3, 4, 5, 6, 8, 12, 16, 20, 24, 32];
    // And as lone checks eight to a run of lanes
    // (`PreparedKey::verify_eight`): one run from one to eight, padded,
    // and runs beside runs. `prepared-lone×n` is timed at these counts,
    // which include every `ONE_KEY` count.
    const LANES: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24, 32];
    let one_key_sigs: Vec<Signature> = messages.iter().map(|m| sk.sign(m)).collect();
    let one_key_items: Vec<(&[u8], &Signature)> = messages
        .iter()
        .map(Vec::as_slice)
        .zip(&one_key_sigs)
        .collect();
    let one_key_items = one_key_items.as_slice();
    let one_key_name = |n: usize| format!("one-key/{n}");
    let prepared_lone_name = |n: usize| format!("prepared-lone×n/{n}");
    let lanes_name = |n: usize| format!("prepared-lone-lanes/{n}");
    // C3 a read's possession proofs: eight lone checks, each under its
    // own prepared key, one by one and as one run of lanes (`fig4_hot`).
    let eight_keys: Vec<(&[u8], &Signature, &PreparedKey)> = items[..8]
        .iter()
        .zip(prepared_keys)
        .map(|((m, sg, _), key)| (*m, *sg, key))
        .collect();
    let eight_keys = eight_keys.as_slice();
    // C3 merged key terms: an 80-check equation shaped like a `fig4_cold`
    // read, sixteen depth-4 chains whose head seals share the root key
    // (`sk`), beside `batch-80`, whose eighty keys are distinct.
    let shared_head_sigs: Vec<Signature> = messages
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if i % 5 == 0 {
                sk.sign(m)
            } else {
                keys[i].sign(m)
            }
        })
        .collect();
    let shared_head_items: Vec<_> = messages
        .iter()
        .zip(&shared_head_sigs)
        .zip(&vks)
        .enumerate()
        .map(|(i, ((m, sg), key))| (m.as_slice(), sg, if i % 5 == 0 { &vk } else { key }))
        .collect();
    let shared_head_items = shared_head_items.as_slice();
    // And the same equation as `fig4_cold` signs it: an 88-byte
    // certificate body per check, where `batch-80-shared-head` signs ten
    // bytes, so each check's challenge and share of the batch seed hash
    // two blocks rather than one.
    let cert_messages: Vec<Vec<u8>> = (0..MAX_BATCH)
        .map(|i| {
            let mut body = format!("certificate body {i}:").into_bytes();
            body.resize(88, 0xc5);
            body
        })
        .collect();
    let cert_sigs: Vec<Signature> = cert_messages
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if i % 5 == 0 {
                sk.sign(m)
            } else {
                keys[i].sign(m)
            }
        })
        .collect();
    let cert_items: Vec<_> = cert_messages
        .iter()
        .zip(&cert_sigs)
        .zip(shared_head_items)
        .map(|((m, sg), (_, _, key))| (m.as_slice(), sg, *key))
        .collect();
    let cert_items = cert_items.as_slice();
    // C3 under one key as `fig5_mem` signs: sixteen checks' certificate
    // bodies (`write_check`'s, as the benchmark writes them), as one
    // equation and as two runs of lanes.
    const CHECKS: usize = 16;
    let mut check_rng = proxy_bench::rng(14);
    let check_bodies: Vec<Vec<u8>> = (0..CHECKS as u64)
        .map(|no| {
            write_check(
                &p("payor"),
                &GrantAuthority::Keypair(sk.clone()),
                &p("bank"),
                "acct",
                p("shop"),
                no,
                usd(),
                1,
                window(),
                &mut check_rng,
            )
            .proxy
            .certs[0]
                .body_bytes()
        })
        .collect();
    let check_sigs: Vec<Signature> = check_bodies.iter().map(|m| sk.sign(m)).collect();
    let check_items: Vec<(&[u8], &Signature)> = check_bodies
        .iter()
        .map(Vec::as_slice)
        .zip(&check_sigs)
        .collect();
    let check_items = check_items.as_slice();
    // SHA-512 of eight 152-byte streams, a challenge's `R ‖ A ‖ M` for an
    // 88-byte body: two blocks each, in lanes and one after another.
    let sha_inputs: [[u8; 152]; 8] =
        std::array::from_fn(|l| std::array::from_fn(|i| (l * 152 + i) as u8));

    // The conventional half (DESIGN.md §8, "Conventional keys"): what a
    // key costs per message under its raw bytes, on its first use, and
    // once it holds its schedule. A thousand operations per call, in ns.
    let block = [0x5au8; proxy_crypto::sha256::BLOCK_LEN];
    let body = [0xc3u8; 87];
    let hmac_world = symmetric_world(11);
    let shared_bytes = *hmac_world.shared.as_bytes();
    let warm_key = SymmetricKey::from_bytes(shared_bytes);
    warm_key.prepare();
    let nonce = proxy_crypto::keys::Nonce::from_bytes([9; 12]);
    let hmac_pres = grant(
        &hmac_world.grantor,
        &hmac_world.authority,
        RestrictionSet::new(),
        window(),
        1,
        &mut proxy_bench::rng(12),
    )
    .present_bearer([2u8; 32], &hmac_world.server);
    let hmac_ctx = proxy_bench::matching_ctx(&hmac_world.server);
    let grant_under = |authority: &GrantAuthority, rng: &mut StdRng| {
        grant(
            &hmac_world.grantor,
            authority,
            RestrictionSet::new(),
            window(),
            1,
            rng,
        )
    };
    let (mut warm_rng, mut cold_rng) = (proxy_bench::rng(13), proxy_bench::rng(13));

    let mut variants: Vec<Variant> = vec![
        kernel("naive-double-and-add", || b.mul_scalar(&k)),
        kernel("fixed-base-table", || Point::mul_basepoint(&k)),
        kernel("two-naive-ladders", || {
            b.mul_scalar(&s).add(&a.mul_scalar(&k))
        }),
        kernel("straus-two-dynamic-tables", || {
            Point::double_scalar_mul(&s, &b, &k, &a)
        }),
        kernel("straus-basepoint-table", || {
            Point::multiscalar_mul_basepoint(&s, &[StrausTerm::new(&k, &a)])
        }),
        kernel("verify", || vk.verify(msg, &sig).expect("valid")),
        kernel("verify-decompressed", || {
            decompressed.verify(msg, &sig).expect("valid")
        }),
        kernel("verify-prepared", || {
            prepared.verify(msg, &sig).expect("valid")
        }),
        kernel("prepare-key", || PreparedKey::new(black_box(&decompressed))),
        kernel("sign", || sk.sign(black_box(msg))),
        kernel("scalar-mul-x1000", || {
            let mut acc = s;
            for _ in 0..X1000 {
                acc = acc.mul(k);
            }
            acc
        }),
        kernel("scalar-wide-reduce-x1000", || {
            let mut bytes = wide;
            for _ in 0..X1000 {
                let reduced = Scalar::from_bytes_mod_order_wide(&bytes);
                bytes[..32].copy_from_slice(&reduced.to_bytes());
            }
            bytes
        }),
        kernel("decompress-one", || {
            Point::decompress(black_box(&a_bytes)).expect("a point")
        }),
        kernel("decompress-pair", || {
            let [a, r] = Point::decompress_pair(black_box(&a_bytes), black_box(&r_bytes));
            (a.expect("a point"), r.expect("a point"))
        }),
        kernel("invert", || black_box(r_y).invert()),
        kernel("decompress-8", || {
            Point::decompress_eight(black_box(eight_encodings))
        }),
        kernel("decompress-8-portable", || {
            black_box(eight_encodings)
                .chunks_exact(2)
                .map(|pair| Point::decompress_pair(pair[0], pair[1]))
                .fold(0, |ok, pair| ok + pair.iter().filter(|p| p.is_ok()).count())
        }),
    ];
    // The portable row is eight `StrausTerm::new`s, so it also times the
    // eight wNAF recodings, which the lane engine does apart from its
    // tables (in `StrausTerm::unfilled`).
    let mut lane_terms: Vec<StrausTerm> = (0..8).map(|_| StrausTerm::new(&k, &b)).collect();
    let mut portable_terms: Vec<StrausTerm> = (0..8).map(|_| StrausTerm::new(&k, &b)).collect();
    variants.push(kernel("tables-8", move || {
        StrausTerm::set_points(&mut lane_terms, black_box(eight_points));
    }));
    variants.push(kernel("tables-8-portable", move || {
        for (term, point) in portable_terms.iter_mut().zip(black_box(eight_points)) {
            *term = StrausTerm::new(&k, point);
        }
    }));
    for n in CHAINS {
        variants.push(kernel(chain_name(n), move || {
            Point::multiscalar_mul_basepoint_lanes(&s, &chain_terms[..n])
        }));
        variants.push(kernel(chain_portable_name(n), move || {
            Point::multiscalar_mul_basepoint(&s, &chain_terms[..n])
        }));
    }
    for n in PORTABLE_BATCHES {
        variants.push(kernel(batch_portable_name(n), move || {
            assert!(portable::batch_holds(&items[..n]));
        }));
    }
    for n in PORTABLE_ONE_KEY {
        let neg_a = PreparedPoint::new(&decompressed_point.neg());
        variants.push(kernel(one_key_portable_name(n), move || {
            assert!(portable::holds_all(&neg_a, &vk, &one_key_items[..n]));
        }));
    }
    for n in BATCHES {
        variants.push(kernel(batch_name(n), move || {
            verify_batch(&items[..n]).expect("valid")
        }));
    }
    for n in SEQUENTIAL {
        variants.push(kernel(sequential_name(n), move || {
            for (m, sg, key) in &items[..n] {
                key.verify(m, sg).expect("valid");
            }
        }));
    }
    for n in PLUS_LONE {
        variants.push(kernel(plus_lone_name(n), move || {
            verify_batch(&items[..n]).expect("valid");
            let (m, sg, key) = &items[n];
            key.verify(m, sg).expect("valid");
        }));
    }
    for n in GROUPS {
        let (verifier, ctx) = (&world.verifier, &ctx);
        let mut prepared = Vec::with_capacity(n);
        variants.push(kernel(group_name(n), move || {
            let mut replay = ReplayCache::with_capacity(ReplayCache::DEFAULT_CAPACITY, 1);
            prepared.clear();
            prepared.extend(cascades[..n].iter().map(|p| verifier.prepare(p, ctx.now)));
            verifier.settle(&mut prepared);
            for (p, pres) in prepared.iter().zip(cascades) {
                verifier
                    .finish(p, pres, ctx, &mut replay)
                    .expect("verifies");
            }
        }));
        variants.push(kernel(verify_each_name(n), move || {
            let mut replay = ReplayCache::with_capacity(ReplayCache::DEFAULT_CAPACITY, 1);
            for pres in &cascades[..n] {
                verifier.verify(pres, ctx, &mut replay).expect("verifies");
            }
        }));
    }
    for n in ONE_KEY {
        let prepared = &prepared;
        variants.push(kernel(one_key_name(n), move || {
            assert!(prepared.holds_all(&one_key_items[..n]));
        }));
    }
    for n in LANES {
        let prepared = &prepared;
        variants.push(kernel(prepared_lone_name(n), move || {
            for (m, sg) in &one_key_items[..n] {
                prepared.verify(m, sg).expect("valid");
            }
        }));
        let under_one_key: Vec<(&[u8], &Signature, &PreparedKey)> = one_key_items[..n]
            .iter()
            .map(|(m, sg)| (*m, *sg, prepared))
            .collect();
        variants.push(kernel(lanes_name(n), move || {
            for run in under_one_key.chunks(8) {
                let verdicts = PreparedKey::verify_eight(run);
                assert!(verdicts[..run.len()].iter().all(|v| *v));
            }
        }));
    }
    variants.push(kernel("prepared-lone-eight-keys", move || {
        for (m, sg, key) in eight_keys {
            key.verify(m, sg).expect("valid");
        }
    }));
    variants.push(kernel("prepared-lone-lanes-eight-keys", move || {
        assert_eq!(PreparedKey::verify_eight(eight_keys), [true; 8]);
    }));
    variants.push(kernel("batch-80-shared-head", move || {
        verify_batch(shared_head_items).expect("valid")
    }));
    variants.push(kernel("batch-80-cert-shaped", move || {
        verify_batch(cert_items).expect("valid")
    }));
    {
        let prepared = &prepared;
        variants.push(kernel(
            format!("one-key-check-shaped/{CHECKS}"),
            move || {
                assert!(prepared.holds_all(check_items));
            },
        ));
        let under_one_key: Vec<(&[u8], &Signature, &PreparedKey)> = check_items
            .iter()
            .map(|(m, sg)| (*m, *sg, prepared))
            .collect();
        variants.push(kernel(
            format!("prepared-lone-lanes-check-shaped/{CHECKS}"),
            move || {
                for run in under_one_key.chunks(8) {
                    let verdicts = PreparedKey::verify_eight(run);
                    assert!(verdicts[..run.len()].iter().all(|v| *v));
                }
            },
        ));
    }
    variants.push(kernel_x1000("sha512-eight", move || {
        sha512_eight(std::array::from_fn(|l| {
            Some([&sha_inputs[l][..]].into_iter())
        }))
    }));
    variants.push(kernel_x1000("sha512-eight-portable", move || {
        black_box(&sha_inputs).map(|input| proxy_crypto::sha512::Sha512::digest(&input))
    }));
    for n in PLUS_PREPARED {
        variants.push(kernel(plus_prepared_name(n), move || {
            verify_batch(&items[..n]).expect("valid");
            let (m, sg, _) = &items[n];
            prepared_keys[n].verify(m, sg).expect("valid");
        }));
    }

    variants.extend([
        kernel("sha256-block-x1000", || {
            let mut h = proxy_crypto::sha256::Sha256::new();
            for _ in 0..X1000 {
                h.update(black_box(&block));
            }
            h.finalize()
        }),
        // The compression a build without the SHA extensions runs, on
        // the same block: beside `sha256-block` it prices the kernel.
        kernel("sha256-block-portable-x1000", || {
            let mut state = [0u32; 8];
            for _ in 0..X1000 {
                proxy_crypto::sha256::compress_portable(&mut state, black_box(&block));
            }
            state
        }),
        kernel_x1000("hmac-87B-raw-key", || {
            proxy_crypto::hmac::HmacSha256::mac(black_box(&shared_bytes), black_box(&body))
        }),
        kernel_x1000("hmac-87B-keyed-context", || {
            black_box(&warm_key).mac(black_box(&body))
        }),
        kernel_x1000("seal-key32-first-use", || {
            let key = SymmetricKey::from_bytes(black_box(shared_bytes));
            proxy_crypto::seal::seal_key32_with_nonce(&key, &nonce, b"aad", &[7; 32])
        }),
        kernel_x1000("seal-key32-warm", || {
            proxy_crypto::seal::seal_key32_with_nonce(
                black_box(&warm_key),
                &nonce,
                b"aad",
                &[7; 32],
            )
        }),
        kernel_x1000("grant-shared-key-first-use", || {
            let key = SymmetricKey::from_bytes(black_box(shared_bytes));
            grant_under(&GrantAuthority::SharedKey(key), &mut cold_rng)
        }),
        kernel_x1000("grant-shared-key-warm", || {
            grant_under(&hmac_world.authority, &mut warm_rng)
        }),
        kernel_x1000("verify-hmac-link-warm", || {
            verify_fresh(&hmac_world.verifier, &hmac_pres, &hmac_ctx)
        }),
        kernel("cascade8-cold", || {
            verify_fresh(&world.verifier, &pres, &ctx)
        }),
        kernel("cascade8-warm-seal-cache", || {
            verify_fresh(&cached, &pres, &ctx)
        }),
    ]);

    let timed = report_timed("C", &mut variants);
    let us = |name: &str| {
        timed
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .expect("variant timed")
    };
    let ratio = |num: &str, den: &str| format!("{:.2}", us(num) / us(den));
    report_row(
        "C",
        "decompress-pair-vs-two-alone",
        1,
        format!(
            "{:.2}",
            us("decompress-pair") / (2.0 * us("decompress-one"))
        ),
        "x",
    );
    report_row(
        "C",
        "grant-warm-vs-first-use",
        1,
        ratio(
            "grant-shared-key-warm-x1000",
            "grant-shared-key-first-use-x1000",
        ),
        "x",
    );
    for (lanes, portable) in [
        ("decompress-8", "decompress-8-portable"),
        ("tables-8", "tables-8-portable"),
    ] {
        report_row(
            "C",
            &format!("{lanes}-vs-portable"),
            1,
            ratio(lanes, portable),
            "x",
        );
    }
    for n in CHAINS {
        report_row(
            "C3",
            "chain-lanes-vs-portable",
            n,
            ratio(&chain_name(n), &chain_portable_name(n)),
            "x",
        );
    }
    for n in PORTABLE_BATCHES {
        report_row(
            "C3",
            "batch-vs-portable",
            n,
            ratio(&batch_name(n), &batch_portable_name(n)),
            "x",
        );
    }
    for n in PORTABLE_ONE_KEY {
        report_row(
            "C3",
            "one-key-vs-portable",
            n,
            ratio(&one_key_name(n), &one_key_portable_name(n)),
            "x",
        );
    }
    for n in SEQUENTIAL {
        report_row(
            "C3",
            "batch-speedup-vs-sequential",
            n,
            ratio(&sequential_name(n), &batch_name(n)),
            "x",
        );
    }
    for n in PLUS_LONE {
        report_row(
            "C3",
            "proof-joins-the-batch-vs-stands-alone",
            n,
            ratio(&batch_name(n + 1), &plus_lone_name(n)),
            "x",
        );
    }
    for n in PLUS_PREPARED {
        report_row(
            "C3",
            "prepared-check-joins-the-batch-vs-stands-alone",
            n,
            ratio(&batch_name(n + 1), &plus_prepared_name(n)),
            "x",
        );
    }
    for n in ONE_KEY {
        report_row(
            "C3",
            "one-key-vs-prepared-lone",
            n,
            ratio(&one_key_name(n), &prepared_lone_name(n)),
            "x",
        );
        report_row(
            "C3",
            "one-key-vs-lanes",
            n,
            ratio(&one_key_name(n), &lanes_name(n)),
            "x",
        );
    }
    for n in LANES {
        report_row(
            "C3",
            "lanes-vs-prepared-lone",
            n,
            ratio(&lanes_name(n), &prepared_lone_name(n)),
            "x",
        );
    }
    report_row(
        "C3",
        "lanes-vs-prepared-lone-eight-keys",
        8,
        ratio("prepared-lone-lanes-eight-keys", "prepared-lone-eight-keys"),
        "x",
    );
    report_row(
        "C3",
        "shared-head-vs-distinct-keys",
        80,
        ratio("batch-80-shared-head", "batch-80"),
        "x",
    );
    report_row(
        "C3",
        "cert-shaped-vs-shared-head",
        80,
        ratio("batch-80-cert-shaped", "batch-80-shared-head"),
        "x",
    );
    report_row(
        "C3",
        "one-key-vs-lanes-check-shaped",
        CHECKS,
        ratio(
            &format!("one-key-check-shaped/{CHECKS}"),
            &format!("prepared-lone-lanes-check-shaped/{CHECKS}"),
        ),
        "x",
    );
    report_row(
        "C",
        "sha512-eight-vs-portable",
        1,
        ratio("sha512-eight-x1000", "sha512-eight-portable-x1000"),
        "x",
    );
    for n in GROUPS {
        let per_request = |name: String| format!("{:.1}", us(&name) / n as f64);
        report_row(
            "C3",
            "group-per-request",
            n,
            per_request(group_name(n)),
            "µs",
        );
        report_row(
            "C3",
            "verify-each-per-request",
            n,
            per_request(verify_each_name(n)),
            "µs",
        );
        report_row(
            "C3",
            "group-vs-verify-each",
            n,
            ratio(&group_name(n), &verify_each_name(n)),
            "x",
        );
    }
    report_row(
        "C3",
        "batch-marginal-signature",
        32,
        format!("{:.1}", (us("batch-32") - us("batch-16")) / 16.0),
        "µs",
    );
    let (hits, misses) = cached.seal_cache().expect("attached").stats();
    assert_eq!(misses as usize, DEPTH, "exactly one cold chain walk");
    assert_eq!(hits as usize % DEPTH, 0, "re-presentations hit every link");
}

/// The batch equations as a build without the eight-lane engine
/// composes them, from public parts only: `Point::decompress_pair`,
/// `StrausTerm::new` and `Point::multiscalar_mul_basepoint`, with the
/// hashing of `ed25519::batch_holds` and `PreparedKey::holds_all` (a local
/// counter stands in for the process-wide nonce). The `-portable` rows
/// time them beside the rows that run the lanes.
mod portable {
    use proxy_crypto::ed25519::edwards::{DecompressError, Point, PreparedPoint, StrausTerm};
    use proxy_crypto::ed25519::scalar::Scalar;
    use proxy_crypto::ed25519::{Signature, VerifyingKey};
    use proxy_crypto::sha512::Sha512;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NONCE: AtomicU64 = AtomicU64::new(0);

    /// The seed tree: one digest per lane of the items `i ≡ l (mod 8)`,
    /// here one after another, then the digest of the eight.
    fn seed<'a>(
        items: impl Iterator<Item = (&'a [u8], &'a Signature, &'a VerifyingKey)> + Clone,
    ) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(b"proxy-aa.ed25519.batch.v2");
        h.update(&NONCE.fetch_add(1, Ordering::Relaxed).to_le_bytes());
        for lane in 0..8 {
            let mut part = Sha512::new();
            for (message, signature, key) in items.clone().skip(lane).step_by(8) {
                part.update(signature.as_bytes());
                part.update(key.as_bytes());
                part.update(&(message.len() as u64).to_le_bytes());
                part.update(message);
            }
            h.update(&part.finalize());
        }
        h.finalize()
    }

    fn coefficients(seed: &[u8; 64]) -> impl Iterator<Item = Scalar> + '_ {
        (0u64..).flat_map(move |block| {
            let mut h = Sha512::new();
            h.update(seed);
            h.update(&block.to_le_bytes());
            let digest = h.finalize();
            (0..4).map(move |lane| {
                let mut z = [0u8; 16];
                z.copy_from_slice(&digest[16 * lane..16 * lane + 16]);
                Scalar::from_u128(u128::from_le_bytes(z) | 1)
            })
        })
    }

    fn challenge(r: &[u8; 32], a: &[u8; 32], message: &[u8]) -> Scalar {
        let mut h = Sha512::new();
        h.update(r);
        h.update(a);
        h.update(message);
        Scalar::from_bytes_mod_order_wide(&h.finalize())
    }

    fn halves(signature: &Signature) -> ([u8; 32], [u8; 32]) {
        let (mut r, mut s) = ([0u8; 32], [0u8; 32]);
        r.copy_from_slice(&signature.as_bytes()[..32]);
        s.copy_from_slice(&signature.as_bytes()[32..]);
        (r, s)
    }

    fn is_small_order(p: &Point) -> bool {
        p.double().double().double().is_identity()
    }

    /// `ed25519::batch_holds` on the scalar path.
    pub fn batch_holds(items: &[(&[u8], &Signature, &VerifyingKey)]) -> bool {
        let seed = seed(items.iter().copied());
        let mut terms = Vec::with_capacity(2 * items.len());
        let mut b_coeff = Scalar::ZERO;
        for ((message, signature, key), z) in items.iter().zip(coefficients(&seed)) {
            let (r_bytes, s_bytes) = halves(signature);
            let [Ok(a), Ok(r)] = Point::decompress_pair(key.as_bytes(), &r_bytes) else {
                return false;
            };
            let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
                return false;
            };
            let k = challenge(&r_bytes, key.as_bytes(), message);
            b_coeff = b_coeff.add(z.mul(s));
            terms.push(StrausTerm::new(&z, &r));
            terms.push(StrausTerm::new(&z.mul(k), &a));
        }
        is_small_order(&Point::multiscalar_mul_basepoint(&b_coeff.neg(), &terms))
    }

    /// `PreparedKey::holds_all` on the scalar path, for the key whose
    /// negated point `neg_a` prepares.
    pub fn holds_all(
        neg_a: &PreparedPoint,
        key: &VerifyingKey,
        items: &[(&[u8], &Signature)],
    ) -> bool {
        let seed = seed(items.iter().map(|(m, s)| (*m, *s, key)));
        let mut zs = coefficients(&seed);
        let (mut s_sum, mut k_sum) = (Scalar::ZERO, Scalar::ZERO);
        let mut terms = Vec::with_capacity(items.len());
        for pair in items.chunks(2) {
            let rs = match pair {
                [a, b] => Point::decompress_pair(&halves(a.1).0, &halves(b.1).0),
                [a, ..] => [Point::decompress(&halves(a.1).0), Err(DecompressError)],
                [] => continue,
            };
            for ((message, signature), r) in pair.iter().zip(rs) {
                let (r_bytes, s_bytes) = halves(signature);
                let (Ok(r), Some(s), Some(z)) =
                    (r, Scalar::from_canonical_bytes(&s_bytes), zs.next())
                else {
                    return false;
                };
                let k = challenge(&r_bytes, key.as_bytes(), message);
                s_sum = s_sum.add(z.mul(s));
                k_sum = k_sum.add(z.mul(k));
                terms.push(StrausTerm::new(&z, &r));
            }
        }
        let keyed = neg_a.double_scalar_mul_basepoint(&s_sum, &k_sum);
        let nonces = Point::multiscalar_mul_basepoint(&Scalar::ZERO, &terms);
        is_small_order(&keyed.add(&nonces.neg()))
    }
}

/// Persists a full run's rows to `path`. Each harness prints its rows
/// and asserts its gates before it returns them, so a run that fails
/// one never overwrites the recorded results with its own.
fn persist(rows: &[Row], path: &str) {
    write_json(path, rows).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

const USAGE: &str = "usage: figures [--ablate-crypto | --c10k | --c10k-smoke | \
--revocation | --revocation-smoke | --wal | --journal]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        [] => {
            f1_restricted_proxy();
            f2_service_stack();
            f3_authorization();
            f4_cascade();
            f5_check_clearing();
            f6_public_key_proxy();
            a1_presentation();
            a2_revocation();
            a3_propagation();
            a4_replay_cache();
            a5_tgs_proxy();
        }
        ["--ablate-crypto"] => ablate_crypto(),
        ["--c10k"] => persist(&c10k::run(false), "BENCH_c10k.json"),
        ["--c10k-smoke"] => {
            c10k::run(true);
        }
        ["--revocation"] => persist(&revocation::run(false), "BENCH_revocation.json"),
        ["--revocation-smoke"] => {
            revocation::run(true);
        }
        ["--wal"] => {
            wal::run();
        }
        ["--journal"] => {
            journal::run();
        }
        _ => {
            eprintln!("figures: unrecognized arguments {args:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
