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
//! With `--ablate-crypto`, instead emits the signature-engine ablation
//! (frozen seed kernels vs. the windowed/batched engine).
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
    cascade, matching_ctx, public_key_world, report_row, restrictions, symmetric_world, window,
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

/// Checks `pres` under a fresh replay guard, so accept-once never trips
/// on a presentation checked again.
fn verify_fresh(
    verifier: &Verifier<MapResolver>,
    pres: &Presentation,
    ctx: &RequestContext,
) -> VerifiedProxy {
    verifier
        .verify(pres, ctx, &mut MemoryReplayGuard::new())
        .expect("verifies")
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
    let mut guard = MemoryReplayGuard::new();
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
        let mut guard = MemoryReplayGuard::new();
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

    let mut fresh = MemoryReplayGuard::new();
    let mut id = 0u64;
    let mut repeat = MemoryReplayGuard::new();
    repeat.accept_once(grantor, 1, Timestamp(0), Timestamp::MAX);
    let mut variants = vec![
        kernel_x1000("a4_replay/accept_once_fresh", move || {
            id += 1;
            fresh.accept_once(grantor, id, Timestamp(0), Timestamp(id + 1))
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
    use proxy_bench::seed_ed25519::{seed_verify, SeedPoint};
    use proxy_crypto::ed25519::edwards::Point;
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
    let seed_b = SeedPoint::basepoint();
    let seed_a = seed_b.mul_scalar(&ka).neg();
    let sk = SigningKey::generate(&mut rng);
    let vk = sk.verifying_key();
    let msg: &[u8] = b"ablation message";
    let sig = sk.sign(msg);

    // The largest batch timed; every smaller one is a prefix of it.
    const MAX_BATCH: usize = 33;
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
    let prepared = PreparedKey::new(&decompressed);

    // C3: n signatures one at a time and as one equation. Every batch
    // size some row below reads is timed once, as `batch-n`.
    const BATCHES: [usize; 8] = [2, 3, 4, 5, 8, 9, 16, 32];
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
        kernel("seed-double-and-add", || seed_b.mul_scalar(&k)),
        kernel("naive-double-and-add", || b.mul_scalar(&k)),
        kernel("wnaf5", || b.mul_wnaf(&k)),
        kernel("fixed-base-table", || Point::mul_basepoint(&k)),
        kernel("seed-straus", || {
            SeedPoint::double_scalar_mul(&s, &seed_b, &k, &seed_a)
        }),
        kernel("two-naive-ladders", || {
            b.mul_scalar(&s).add(&a.mul_scalar(&k))
        }),
        kernel("straus-two-dynamic-tables", || {
            Point::double_scalar_mul(&s, &b, &k, &a)
        }),
        kernel("straus-basepoint-table", || {
            Point::double_scalar_mul_basepoint(&s, &k, &a)
        }),
        kernel("seed-verify", || {
            assert!(seed_verify(vk.as_bytes(), msg, sig.as_bytes()));
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
    ];
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
        "fixed-base-speedup-vs-seed",
        1,
        ratio("seed-double-and-add", "fixed-base-table"),
        "x",
    );
    report_row(
        "C",
        "straus-speedup-vs-seed",
        1,
        ratio("seed-straus", "straus-basepoint-table"),
        "x",
    );
    report_row(
        "C",
        "verify-speedup-vs-seed",
        1,
        ratio("seed-verify", "verify"),
        "x",
    );
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

/// Runs the C10k sweep (see `proxy_bench::c10k`): thousands of
/// concurrent pipelined loopback connections on the fig3 authz-query
/// path, served by the readiness-driven event-loop server.
///
/// In full mode (`--c10k`) the gated sweep is persisted to
/// `BENCH_c10k.json`. In smoke mode (`--c10k-smoke`, used by ci.sh) only
/// the reduced sweep runs and the recorded results are left untouched.
fn c10k(smoke: bool) {
    use proxy_bench::c10k::{run, C10kOptions};

    let opts = if smoke {
        C10kOptions::smoke()
    } else {
        C10kOptions::default()
    };
    let report = run(&opts);
    for pt in &report.event_loop {
        report_row(
            "C10K",
            "event-loop",
            pt.connections,
            format!(
                "{:.0} ops/s, burst p50 {} µs, p99 {} µs, connect {:.2}s",
                pt.ops_per_sec, pt.p50_us, pt.p99_us, pt.connect_secs
            ),
            "",
        );
    }

    // Flat-p99 gate: the most-loaded point within 2x of the least.
    let ratio = report.p99_ratio();
    let top = report.event_loop.last().expect("sweep not empty");
    println!(
        "c10k p99 ratio ({} conns vs {} conns): {ratio:.2}x (target <= 2x)",
        top.connections,
        report
            .event_loop
            .first()
            .expect("sweep not empty")
            .connections,
    );
    assert!(
        ratio <= 2.0,
        "p99 degraded more than 2x across the connection sweep"
    );
    if !smoke {
        assert!(
            top.connections >= 5000,
            "full c10k sweep must reach at least 5000 concurrent connections"
        );
        std::fs::write("BENCH_c10k.json", report.to_json()).expect("write BENCH_c10k.json");
        println!("wrote BENCH_c10k.json");
    }
}

/// Runs the revocation-index and membership-mirror harness (see
/// `proxy_bench::revocation`). In full mode (`--revocation`, 1M serials
/// and 1M members) the report is gated and persisted to
/// `BENCH_revocation.json`; in smoke mode (`--revocation-smoke`, used by
/// ci.sh, ~100k serials) the same gates run but the recorded results are
/// left untouched.
fn revocation(smoke: bool) {
    use proxy_bench::revocation::{run, Options};

    let opts = if smoke {
        Options::smoke()
    } else {
        Options::default()
    };
    let report = run(&opts);
    report_row(
        "R",
        "contains-small",
        report.small_serials,
        format!("{:.1} ns/probe", report.contains_small_ns),
        "",
    );
    report_row(
        "R",
        "contains-large",
        report.large_serials,
        format!(
            "{:.1} ns/probe ({:.2}x of small, gate <= 2x)",
            report.contains_large_ns, report.contains_ratio
        ),
        "",
    );
    report_row(
        "R",
        "revoke-one",
        report.large_serials,
        format!(
            "{:.1} ns ({:.2}x of {:.1} ns at {} serials, gate <= 8x)",
            report.revoke_large_ns,
            report.revoke_ratio,
            report.revoke_small_ns,
            report.small_serials
        ),
        "",
    );
    report_row(
        "R",
        "snapshot-artifact",
        report.large_serials,
        format!(
            "{} bytes, encode {:.0} MB/s, decode {:.0} MB/s",
            report.snapshot_bytes, report.encode_mb_per_s, report.decode_mb_per_s
        ),
        "",
    );
    report_row(
        "R",
        "delta-apply",
        opts.delta_size,
        format!(
            "{:.1} µs/delta onto a {}-serial mirror",
            report.delta_apply_us, report.large_serials
        ),
        "",
    );
    report_row(
        "R",
        "cascade-verify-off",
        opts.cascade_depth,
        format!(
            "p50 {:.2} µs, p99 {:.2} µs",
            report.verify_off_p50_us, report.verify_off_p99_us
        ),
        "",
    );
    report_row(
        "R",
        "cascade-verify-on",
        opts.cascade_depth,
        format!(
            "p50 {:.2} µs ({:+.2}%), p99 {:.2} µs ({:+.2}%), gate <= 5%",
            report.verify_on_p50_us,
            report.overhead_p50_pct,
            report.verify_on_p99_us,
            report.overhead_p99_pct
        ),
        "",
    );
    report_row(
        "R",
        "verify-under-churn",
        opts.cascade_depth,
        format!(
            "p50 {:.2} µs with deltas streaming in",
            report.verify_under_churn_p50_us
        ),
        "",
    );
    report_row(
        "R",
        "membership-mirror",
        report.members,
        format!(
            "{} roster bytes in, then {} asserts at {:.1} ns with {} network messages",
            report.roster_bytes, report.asserts, report.assert_ns, report.messages_during_asserts
        ),
        "",
    );
    report_row("R", "host-parallelism", 1, report.host_parallelism, "cpus");
    // Gate before persisting: a run that fails the acceptance checks
    // must not overwrite the recorded results with its own.
    report.check_gates();
    if !smoke {
        std::fs::write("BENCH_revocation.json", report.to_json())
            .expect("write BENCH_revocation.json");
        println!("wrote BENCH_revocation.json");
    }
}

/// Runs the durable-journal harness (see `proxy_bench::wal`): the four
/// append rows and the group-commit amortization gate. Used by ci.sh;
/// nothing is persisted.
fn wal() {
    use proxy_bench::wal::{run, REQUIRED_SPEEDUP};

    let report = run();
    for row in &report.rows {
        let value = format!("{:.0} ops/s", row.ops_per_sec);
        report_row("W", row.series, row.writers, value, "");
    }
    let speedup = format!(
        "{:.2}x of the lone writer, who pays one fsync per record (gate >= {REQUIRED_SPEEDUP:.0}x)",
        report.speedup()
    );
    report_row(
        "W",
        "group-commit-speedup",
        report.rows[3].writers,
        speedup,
        "",
    );
    report_row("W", "host-parallelism", 1, report.host_parallelism, "cpus");
    report.check_gates();
}

const USAGE: &str = "usage: figures [--ablate-crypto | --c10k | --c10k-smoke | \
--revocation | --revocation-smoke | --wal]";

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
        ["--c10k"] => c10k(false),
        ["--c10k-smoke"] => c10k(true),
        ["--revocation"] => revocation(false),
        ["--revocation-smoke"] => revocation(true),
        ["--wal"] => wal(),
        _ => {
            eprintln!("figures: unrecognized arguments {args:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
