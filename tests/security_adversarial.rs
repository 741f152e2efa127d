//! Adversarial integration tests: the security claims of §2/§3.1.
//!
//! An eavesdropper records whole presentations off the simulated network
//! and tries to reuse what it saw; forgers strip restrictions, splice
//! chains, and replay checks. Every attack must fail, and the specific
//! failure mode is asserted.

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_aa::netsim::{EndpointId, Network};
use proxy_aa::proxy::prelude::*;
use proxy_crypto::keys::SymmetricKey;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000))
}

struct World {
    rng: StdRng,
    shared: SymmetricKey,
    verifier: Verifier<MapResolver>,
}

fn world(seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let shared = SymmetricKey::generate(&mut rng);
    let resolver = MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(shared.clone()));
    World {
        rng,
        shared,
        verifier: Verifier::new(p("fs"), resolver),
    }
}

fn ctx() -> RequestContext {
    RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("f")).at(Timestamp(5))
}

/// §3.1: "an attacker can not obtain such a capability by tapping the
/// network to observe the presentation of capabilities by legitimate
/// users."
#[test]
fn eavesdropped_presentation_is_useless() {
    let mut w = world(1);
    let cap = grant(
        &p("alice"),
        &GrantAuthority::SharedKey(w.shared.clone()),
        RestrictionSet::new(),
        window(),
        1,
        &mut w.rng,
    );

    // The legitimate bearer presents over a tapped network.
    let mut net = Network::new(0);
    net.enable_tap();
    let pres = cap.present_bearer([10u8; 32], &p("fs"));
    net.transmit(
        &EndpointId::new("bob"),
        &EndpointId::new("fs"),
        &pres.encode(),
    );
    let mut guard = ReplayCache::new();
    assert!(w.verifier.verify(&pres, &ctx(), &mut guard).is_ok());

    // The attacker reconstructs the presentation from the tap.
    let captured = Presentation::decode(&net.tapped()[0].payload).expect("tap decodes");
    assert_eq!(captured, pres, "attacker has a perfect copy");

    // 1. The captured bytes contain no usable proxy key: the sealed key is
    //    inside the certificate, and only alice's session key opens it.
    let GrantAuthority::SharedKey(real_key) = &cap.key else {
        unreachable!()
    };
    let wire = captured.encode();
    assert!(
        !wire.windows(32).any(|w| w == real_key.as_bytes()),
        "raw proxy key must never appear on the wire"
    );

    // 2. A fresh server challenge defeats replay of the captured response.
    let Proof::Possession { response, .. } = &captured.proof else {
        unreachable!()
    };
    let replay = Presentation {
        certs: captured.certs.clone(),
        proof: Proof::Possession {
            challenge: [11u8; 32],
            response: response.clone(),
        },
    };
    assert_eq!(
        w.verifier.verify(&replay, &ctx(), &mut guard),
        Err(VerifyError::BadPossession)
    );
}

#[test]
fn stripping_a_restriction_breaks_the_seal() {
    let mut w = world(2);
    let cap = grant(
        &p("alice"),
        &GrantAuthority::SharedKey(w.shared.clone()),
        RestrictionSet::new().with(Restriction::authorize_op(
            ObjectName::new("only-this"),
            Operation::new("read"),
        )),
        window(),
        1,
        &mut w.rng,
    );
    let mut pres = cap.present_bearer([1u8; 32], &p("fs"));
    pres.certs[0].restrictions = RestrictionSet::new();
    let mut guard = ReplayCache::new();
    assert_eq!(
        w.verifier.verify(&pres, &ctx(), &mut guard),
        Err(VerifyError::BadSeal { index: 0 })
    );
}

#[test]
fn splicing_certificates_across_chains_fails() {
    let mut w = world(3);
    let authority = GrantAuthority::SharedKey(w.shared.clone());
    // Two independent cascades from alice.
    let a = grant(
        &p("alice"),
        &authority,
        RestrictionSet::new(),
        window(),
        1,
        &mut w.rng,
    )
    .derive(RestrictionSet::new(), window(), 2, &mut w.rng)
    .unwrap();
    let b = grant(
        &p("alice"),
        &authority,
        RestrictionSet::new(),
        window(),
        3,
        &mut w.rng,
    )
    .derive(RestrictionSet::new(), window(), 4, &mut w.rng)
    .unwrap();
    // Attacker splices b's tail onto a's head (the tail is sealed with
    // b's first proxy key, not a's).
    let mut spliced = a.present_bearer([1u8; 32], &p("fs"));
    spliced.certs[1] = b.certs[1].clone();
    let mut guard = ReplayCache::new();
    let result = w.verifier.verify(&spliced, &ctx(), &mut guard);
    assert!(
        matches!(
            result,
            Err(VerifyError::BadSeal { index: 1 })
                | Err(VerifyError::KeyUnrecoverable { index: 1 })
        ),
        "splice must be detected: {result:?}"
    );
}

#[test]
fn extending_someone_elses_bearer_chain_requires_the_proxy_key() {
    let mut w = world(4);
    let authority = GrantAuthority::SharedKey(w.shared.clone());
    let original = grant(
        &p("alice"),
        &authority,
        RestrictionSet::new(),
        window(),
        1,
        &mut w.rng,
    );
    // The attacker has the *certificates* (public) but not the proxy key;
    // it forges an extension sealed with a key it invents.
    let fake_key = SymmetricKey::generate(&mut w.rng);
    let fake_holder = Proxy {
        certs: original.certs.clone(),
        key: GrantAuthority::SharedKey(fake_key),
    };
    let forged = fake_holder
        .derive(RestrictionSet::new(), window(), 2, &mut w.rng)
        .expect("construction succeeds locally");
    let pres = forged.present_bearer([1u8; 32], &p("fs"));
    let mut guard = ReplayCache::new();
    let result = w.verifier.verify(&pres, &ctx(), &mut guard);
    assert!(
        matches!(result, Err(VerifyError::BadSeal { index: 1 })),
        "forged link must fail: {result:?}"
    );
}

#[test]
fn delegate_proxy_cannot_be_used_by_non_delegates_even_with_possession() {
    // A delegate proxy's key might leak; possession alone must not grant
    // access without the named delegate's identity.
    let mut w = world(5);
    let proxy = grant(
        &p("alice"),
        &GrantAuthority::SharedKey(w.shared.clone()),
        RestrictionSet::new().with(Restriction::grantee_one(p("bob"))),
        window(),
        1,
        &mut w.rng,
    );
    // Mallory stole the proxy (certs + key) and proves possession.
    let pres = proxy.present_bearer([1u8; 32], &p("fs"));
    let mallory_ctx = ctx().authenticated_as(p("mallory"));
    let mut guard = ReplayCache::new();
    assert!(matches!(
        w.verifier.verify(&pres, &mallory_ctx, &mut guard),
        Err(VerifyError::Denied(Denial::GranteeNotPresent { .. }))
    ));
}

#[test]
fn dropped_traffic_fails_closed() {
    // Fault injection: if the presentation never arrives, nothing is
    // granted — and the tap shows nothing leaked either.
    let mut w = world(6);
    let cap = grant(
        &p("alice"),
        &GrantAuthority::SharedKey(w.shared.clone()),
        RestrictionSet::new(),
        window(),
        1,
        &mut w.rng,
    );
    let mut net = Network::new(0);
    net.enable_tap();
    net.drop_next(1);
    let pres = cap.present_bearer([1u8; 32], &p("fs"));
    let delivery = net.transmit(
        &EndpointId::new("bob"),
        &EndpointId::new("fs"),
        &pres.encode(),
    );
    assert!(!delivery.delivered);
    assert!(net.tapped().is_empty());
}

#[test]
fn expired_chain_rejected_even_with_valid_tail() {
    let mut w = world(7);
    let authority = GrantAuthority::SharedKey(w.shared.clone());
    // Head expires at t10; tail claims validity to t1000 — the derive API
    // clips it, so build the attack manually by decoding and re-deriving.
    let head = grant(
        &p("alice"),
        &authority,
        RestrictionSet::new(),
        Validity::new(Timestamp(0), Timestamp(10)),
        1,
        &mut w.rng,
    );
    let child = head
        .derive(RestrictionSet::new(), window(), 2, &mut w.rng)
        .unwrap();
    assert_eq!(
        child.effective_validity().unwrap().until,
        Timestamp(10),
        "derive clips to parent"
    );
    let pres = child.present_bearer([1u8; 32], &p("fs"));
    let late_ctx = ctx().at(Timestamp(50));
    let mut guard = ReplayCache::new();
    assert_eq!(
        w.verifier.verify(&pres, &late_ctx, &mut guard),
        Err(VerifyError::NotValidAt {
            index: 0,
            now: Timestamp(50)
        })
    );
}

#[test]
fn wire_corruption_of_any_presentation_byte_never_authorizes_more() {
    let mut w = world(8);
    let cap = grant(
        &p("alice"),
        &GrantAuthority::SharedKey(w.shared.clone()),
        RestrictionSet::new().with(Restriction::authorize_op(
            ObjectName::new("f"),
            Operation::new("read"),
        )),
        window(),
        1,
        &mut w.rng,
    );
    let wire = cap.present_bearer([1u8; 32], &p("fs")).encode();
    let mut guard = ReplayCache::new();
    for i in 0..wire.len() {
        let mut bad = wire.clone();
        bad[i] ^= 0x01;
        let Ok(pres) = Presentation::decode(&bad) else {
            continue; // malformed on arrival: rejected before crypto
        };
        // Whatever decoded must not verify as something *different* that
        // still passes.
        if let Ok(v) = w.verifier.verify(&pres, &ctx(), &mut guard) {
            // Only acceptable if the flip was a no-op (identical bytes).
            assert_eq!(
                pres.encode(),
                wire,
                "byte {i}: altered presentation verified: {v:?}"
            );
        }
    }
}

/// Builds a public-key world with a seal cache attached, so the tests
/// below can prove the cache never stands in for request-dependent
/// checks.
fn cached_world(seed: u64) -> (StdRng, GrantAuthority, Verifier<MapResolver>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = proxy_aa::crypto::ed25519::SigningKey::generate(&mut rng);
    let resolver =
        MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
    let verifier = Verifier::new(p("fs"), resolver).with_seal_cache(128);
    (rng, GrantAuthority::Keypair(sk), verifier)
}

/// The seal cache memoizes signature checks only. An accept-once proxy
/// whose seal is already cached must still be refused on second use: the
/// replay guard runs on every presentation, cache hit or not.
#[test]
fn seal_cache_never_bypasses_accept_once() {
    let (mut rng, auth, verifier) = cached_world(100);
    let cap = grant(
        &p("alice"),
        &auth,
        RestrictionSet::new().with(Restriction::AcceptOnce { id: 7 }),
        window(),
        1,
        &mut rng,
    );
    let mut guard = ReplayCache::new();
    let first = cap.present_bearer([1u8; 32], &p("fs"));
    assert!(verifier.verify(&first, &ctx(), &mut guard).is_ok());
    // Second presentation: the seal check is a cache hit, yet acceptance
    // is still refused by the replay guard.
    let second = cap.present_bearer([2u8; 32], &p("fs"));
    assert!(matches!(
        verifier.verify(&second, &ctx(), &mut guard),
        Err(VerifyError::Denied(Denial::AlreadyAccepted { id: 7 }))
    ));
    let (hits, _) = verifier.seal_cache().unwrap().stats();
    assert!(hits >= 1, "the rejection happened despite a warm cache");
}

/// A cached seal must not resurrect an expired certificate: validity is
/// checked against the request clock before the cache is ever consulted.
#[test]
fn seal_cache_never_bypasses_expiry() {
    let (mut rng, auth, verifier) = cached_world(101);
    let cap = grant(
        &p("alice"),
        &auth,
        RestrictionSet::new(),
        Validity::new(Timestamp(0), Timestamp(100)),
        1,
        &mut rng,
    );
    let mut guard = ReplayCache::new();
    let pres = cap.present_bearer([1u8; 32], &p("fs"));
    assert!(verifier.verify(&pres, &ctx(), &mut guard).is_ok());
    assert_eq!(verifier.seal_cache().unwrap().len(), 1, "seal was cached");
    // Same presentation after expiry: rejected on the validity window.
    let late = RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("f"))
        .at(Timestamp(200));
    let pres2 = cap.present_bearer([2u8; 32], &p("fs"));
    assert_eq!(
        verifier.verify(&pres2, &late, &mut guard),
        Err(VerifyError::NotValidAt {
            index: 0,
            now: Timestamp(200)
        })
    );
}

/// Warm cache or not, every presentation must prove possession against
/// its own fresh challenge: an eavesdropper replaying a recorded response
/// fails even when the seal check itself is skipped via the cache.
#[test]
fn seal_cache_never_bypasses_possession_proof() {
    let (mut rng, auth, verifier) = cached_world(102);
    let cap = grant(
        &p("alice"),
        &auth,
        RestrictionSet::new(),
        window(),
        1,
        &mut rng,
    );
    let mut guard = ReplayCache::new();
    let recorded = cap.present_bearer([1u8; 32], &p("fs"));
    assert!(verifier.verify(&recorded, &ctx(), &mut guard).is_ok());
    let Proof::Possession { response, .. } = &recorded.proof else {
        unreachable!()
    };
    // Replay the recorded response against a fresh challenge.
    let replayed = Presentation {
        certs: recorded.certs.clone(),
        proof: Proof::Possession {
            challenge: [9u8; 32],
            response: response.clone(),
        },
    };
    let (hits_before, _) = verifier.seal_cache().unwrap().stats();
    assert_eq!(
        verifier.verify(&replayed, &ctx(), &mut guard),
        Err(VerifyError::BadPossession)
    );
    let (hits_after, _) = verifier.seal_cache().unwrap().stats();
    assert!(
        hits_after > hits_before,
        "the seal was served from cache, and possession still failed"
    );
}

/// `cap`'s certificates presented by someone holding a proxy key of their
/// own making: a well-formed possession proof under the wrong key.
fn stolen_presentation(cap: &Proxy, challenge: [u8; 32], rng: &mut StdRng) -> Presentation {
    Proxy {
        certs: cap.certs.clone(),
        key: GrantAuthority::Keypair(proxy_aa::crypto::ed25519::SigningKey::generate(rng)),
    }
    .present_bearer(challenge, &p("fs"))
}

/// A chain's uncached seals and its possession proof are settled as one
/// batched equation, and an attacker controls which of them fail. A
/// thief who presents someone's good chain under a proof of their own
/// learns nothing and spoils nothing: the seals are good and are cached
/// as such, so the owner's next presentation costs one check. A forged
/// seal anywhere in the chain caches nothing at all — not even the good
/// seals beside it.
#[test]
fn a_failed_proof_caches_the_good_seals_and_a_forged_seal_caches_nothing() {
    let (mut rng, auth, verifier) = cached_world(105);
    let forger = proxy_aa::crypto::ed25519::SigningKey::generate(&mut rng);
    let mut cap = grant(
        &p("alice"),
        &auth,
        RestrictionSet::new(),
        window(),
        1,
        &mut rng,
    );
    for serial in 2..=4 {
        cap = cap
            .derive(RestrictionSet::new(), window(), serial, &mut rng)
            .unwrap();
    }
    let cache = verifier.seal_cache().unwrap();
    let mut guard = ReplayCache::new();

    let mut forged = cap.present_bearer([1u8; 32], &p("fs"));
    let body = forged.certs[2].body_bytes();
    forged.certs[2].seal = CertSeal::Ed25519(forger.sign(&body));
    assert_eq!(
        verifier.verify(&forged, &ctx(), &mut guard),
        Err(VerifyError::BadSeal { index: 2 })
    );
    assert_eq!((cache.len(), cache.stats()), (0, (0, 4)));

    let stolen = stolen_presentation(&cap, [2u8; 32], &mut rng);
    assert_eq!(
        verifier.verify(&stolen, &ctx(), &mut guard),
        Err(VerifyError::BadPossession)
    );
    assert_eq!((cache.len(), cache.stats()), (4, (0, 8)));

    let honest = cap.present_bearer([3u8; 32], &p("fs"));
    assert!(verifier.verify(&honest, &ctx(), &mut guard).is_ok());
    assert_eq!((cache.len(), cache.stats()), (4, (4, 8)));
    // Warm, the forgery is still a forgery, and evicts nothing.
    assert_eq!(
        verifier.verify(&forged, &ctx(), &mut guard),
        Err(VerifyError::BadSeal { index: 2 })
    );
    assert_eq!((cache.len(), cache.stats()), (4, (7, 9)));
}

/// The verifier keeps what it computed about a public key it has seen
/// (the point, then the point's tables) and checks later signatures
/// under that key by a shorter route — whenever a presentation needs
/// exactly one Ed25519 check. The route must not matter: with both the
/// grantor's key and the proxy key long promoted, every forged
/// possession proof and every forged lone seal is still refused.
#[test]
fn promoted_keys_refuse_every_forged_possession_proof_and_lone_seal() {
    let (mut rng, auth, verifier) = cached_world(103);
    let forger = GrantAuthority::Keypair(proxy_aa::crypto::ed25519::SigningKey::generate(&mut rng));
    let mut guard = ReplayCache::new();
    // A one-link delegate proxy needs its seal checked and nothing else:
    // three fresh ones are three lone seals under alice's key.
    let bob = ctx().authenticated_as(p("bob"));
    fn delegate(authority: &GrantAuthority, serial: u64, rng: &mut StdRng) -> Presentation {
        grant(
            &p("alice"),
            authority,
            RestrictionSet::new().with(Restriction::grantee_one(p("bob"))),
            window(),
            serial,
            rng,
        )
        .present_delegate()
    }
    for serial in 1..=3 {
        let honest = delegate(&auth, serial, &mut rng);
        assert!(verifier.verify(&honest, &bob, &mut guard).is_ok());
    }
    // A bearer proxy presented four times: its seal is cached from the
    // first, so the other three are lone possession proofs under its
    // proxy key.
    let cap = &grant(
        &p("alice"),
        &auth,
        RestrictionSet::new(),
        window(),
        4,
        &mut rng,
    );
    for challenge in [1u8, 2, 3, 4] {
        let honest = cap.present_bearer([challenge; 32], &p("fs"));
        assert!(verifier.verify(&honest, &ctx(), &mut guard).is_ok());
    }

    for i in 0..100u64 {
        let challenge = [i as u8; 32];
        // A proof by the wrong key, and an honest proof with one bit off.
        let stolen = stolen_presentation(cap, challenge, &mut rng);
        assert_eq!(
            verifier.verify(&stolen, &ctx(), &mut guard),
            Err(VerifyError::BadPossession),
            "try {i}"
        );
        let mut bent = cap.present_bearer(challenge, &p("fs"));
        if let Proof::Possession { response, .. } = &mut bent.proof {
            response[(i as usize * 7) % 64] ^= 1 << (i % 8);
        }
        assert_eq!(
            verifier.verify(&bent, &ctx(), &mut guard),
            Err(VerifyError::BadPossession),
            "try {i}"
        );
        // A certificate naming alice, sealed by someone else; and one
        // alice did seal, with one bit of the seal off. Both are new to
        // the seal cache, so each is a lone check under alice's key.
        let forged = delegate(&forger, 1_000 + i, &mut rng);
        assert_eq!(
            verifier.verify(&forged, &bob, &mut guard),
            Err(VerifyError::BadSeal { index: 0 }),
            "try {i}"
        );
        let mut bent = delegate(&auth, 2_000 + i, &mut rng);
        if let CertSeal::Ed25519(sig) = &mut bent.certs[0].seal {
            sig.0[(i as usize * 11) % 64] ^= 1 << (i % 8);
        }
        assert_eq!(
            verifier.verify(&bent, &bob, &mut guard),
            Err(VerifyError::BadSeal { index: 0 }),
            "try {i}"
        );
    }
    // And the honest holder is still served.
    let honest = cap.present_bearer([0xaa; 32], &p("fs"));
    assert!(verifier.verify(&honest, &ctx(), &mut guard).is_ok());
}

/// Nothing negative is remembered about a key: if the first signature a
/// verifier ever sees under it is a forgery, the genuine ones that
/// follow are accepted all the same — through the first sighting, the
/// promotion and the prepared path.
#[test]
fn a_key_first_seen_under_a_forgery_still_accepts_the_real_thing() {
    let (mut rng, auth, verifier) = cached_world(104);
    let forger = GrantAuthority::Keypair(proxy_aa::crypto::ed25519::SigningKey::generate(&mut rng));
    let mut guard = ReplayCache::new();
    // Alice's key, first seen under a forged seal.
    let forged = grant(
        &p("alice"),
        &forger,
        RestrictionSet::new(),
        window(),
        1,
        &mut rng,
    );
    assert_eq!(
        verifier.verify(
            &forged.present_bearer([1u8; 32], &p("fs")),
            &ctx(),
            &mut guard
        ),
        Err(VerifyError::BadSeal { index: 0 })
    );
    // A proxy key, first seen under a forged possession proof.
    let cap = grant(
        &p("alice"),
        &auth,
        RestrictionSet::new(),
        window(),
        2,
        &mut rng,
    );
    let stolen = stolen_presentation(&cap, [2u8; 32], &mut rng);
    assert_eq!(
        verifier.verify(&stolen, &ctx(), &mut guard),
        Err(VerifyError::BadPossession)
    );
    for challenge in 3u8..8 {
        let honest = cap.present_bearer([challenge; 32], &p("fs"));
        assert!(verifier.verify(&honest, &ctx(), &mut guard).is_ok());
        // More lone seals under alice's key, all genuine.
        let fresh = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            u64::from(challenge) + 10,
            &mut rng,
        );
        assert!(verifier
            .verify(
                &fresh.present_bearer([challenge; 32], &p("fs")),
                &ctx(),
                &mut guard
            )
            .is_ok());
    }
}

/// The §2 hostile-network posture, over real sockets: ten thousand
/// corrupted, truncated, oversized, and garbage frames thrown at a live
/// TCP server must never panic it, never blow up its memory (oversized
/// declared bodies are rejected from the 18-byte header alone), and
/// never stop it answering legitimate requests interleaved throughout.
#[test]
fn frame_mutation_adversary_cannot_kill_the_tcp_server() {
    use proxy_aa::authz::{Acl, AclRights, AclSubject, AuthorizationServer};
    use proxy_aa::net::{
        api, ClientOptions, EventLoopOptions, EventLoopServer, ServiceMux, TcpClient,
    };
    use proxy_aa::wire::{Message, MAX_FRAME_BODY};
    use rand::RngCore;
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::Arc;

    // The Fig. 3 world the legitimate probe client keeps querying.
    let mut setup = StdRng::seed_from_u64(77);
    let r_key = SymmetricKey::generate(&mut setup);
    let mut authz =
        AuthorizationServer::new(p("R"), GrantAuthority::SharedKey(r_key), MapResolver::new());
    authz.database_mut(p("S")).set(
        ObjectName::new("X"),
        Acl::new().with(
            AclSubject::Principal(p("C")),
            AclRights::ops(vec![Operation::new("read")]),
        ),
    );
    let mux = Arc::new(ServiceMux::new().with_authz(Arc::new(authz)));
    let server = EventLoopServer::spawn_with(
        mux,
        EventLoopOptions {
            workers: 4,
            ..EventLoopOptions::default()
        },
        77,
    )
    .expect("spawn server");

    let probe = TcpClient::new(server.addr(), ClientOptions::default());
    let assert_serving = |probe: &TcpClient| {
        api::request_authorization(
            probe,
            &p("C"),
            vec![],
            &p("S"),
            &Operation::new("read"),
            &ObjectName::new("X"),
            window(),
            Timestamp(1),
        )
        .expect("server must keep serving legitimate requests");
    };
    assert_serving(&probe);

    // A well-formed frame to mutate.
    let valid = Message::AuthzQuery {
        client: p("C"),
        presentations: vec![],
        end_server: p("S"),
        operation: Operation::new("read"),
        object: ObjectName::new("X"),
        validity: window(),
        now: Timestamp(1),
    }
    .to_frame(1);

    const TARGET: u32 = 10_000;
    let mut rng = StdRng::seed_from_u64(0x0BAD_F00D);
    let mut conn: Option<TcpStream> = None;
    let mut frames_on_conn = 0u32;
    let mut delivered = 0u32;
    let mut attempts = 0u32;
    let mut classes = [0u32; 4];
    while delivered < TARGET {
        attempts += 1;
        assert!(
            attempts < 20 * TARGET,
            "server stopped accepting adversarial connections"
        );
        if conn.is_none() || frames_on_conn >= 64 {
            conn = TcpStream::connect(server.addr()).ok();
            frames_on_conn = 0;
        }
        let Some(stream) = conn.as_mut() else {
            continue;
        };
        let class = rng.next_u32() % 4;
        let bytes: Vec<u8> = match class {
            // Random bit flips: the CRC (or a stricter check before it)
            // must reject every one.
            0 => {
                let mut b = valid.clone();
                for _ in 0..=(rng.next_u32() % 8) {
                    let i = rng.next_u32() as usize % b.len();
                    b[i] ^= 1 << (rng.next_u32() % 8);
                }
                b
            }
            // Truncation at an arbitrary boundary: the server just keeps
            // waiting for the rest (and misparses whatever comes next).
            1 => {
                let cut = rng.next_u32() as usize % valid.len();
                valid[..cut].to_vec()
            }
            // Oversized declared body: must be rejected from the header
            // alone — the claimed megabytes are never allocated or read.
            2 => {
                let mut b = valid.clone();
                let huge = MAX_FRAME_BODY + 1 + (rng.next_u32() % 1_000_000);
                b[14..18].copy_from_slice(&huge.to_le_bytes());
                b
            }
            // Raw garbage of arbitrary length: bad magic, closed stream.
            _ => {
                let len = 1 + rng.next_u32() as usize % 256;
                let mut b = vec![0u8; len];
                rng.fill_bytes(&mut b);
                b
            }
        };
        match stream.write_all(&bytes) {
            Ok(()) => {
                delivered += 1;
                classes[class as usize] += 1;
                frames_on_conn += 1;
                // Frame-level rejections close the connection server-side;
                // dial fresh so the next mutation actually arrives.
                if class != 1 {
                    conn = None;
                }
                // Interleave legitimate traffic: the server must answer
                // correctly *while* under mutation load.
                if delivered.is_multiple_of(1_000) {
                    assert_serving(&probe);
                }
            }
            Err(_) => conn = None,
        }
    }
    assert_eq!(delivered, TARGET);
    assert!(
        classes.iter().all(|&c| c > 0),
        "every mutation class exercised: {classes:?}"
    );
    // And after the storm: still serving, same answers.
    assert_serving(&probe);
}

/// A forged seal among racing deposits fails only its own request:
/// seven honest depositors and one attacker race through one bank
/// served by four event-loop workers, and exactly the forged check
/// bounces.
#[test]
fn forged_seal_among_racing_deposits_fails_only_that_request() {
    use proxy_aa::accounting::{write_check, AccountingServer};
    use proxy_aa::net::{
        api, ClientOptions, EventLoopOptions, EventLoopServer, ServiceMux, TcpClient,
    };
    use proxy_crypto::ed25519::SigningKey;
    use std::sync::{Arc, Barrier};

    const DEPOSITORS: usize = 8;
    const FORGER: usize = 3;
    let usd = || Currency::new("USD");

    let mut rng = StdRng::seed_from_u64(91);
    let bank_key = SigningKey::generate(&mut rng);
    let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key));
    let mut authorities = Vec::new();
    for t in 0..DEPOSITORS {
        let key = SigningKey::generate(&mut rng);
        bank.register_grantor(
            p(&format!("payor{t}")),
            GrantorVerifier::PublicKey(key.verifying_key()),
        );
        bank.open_account(format!("acct{t}"), vec![p(&format!("payor{t}"))]);
        bank.account_mut(&format!("acct{t}"))
            .expect("account just opened")
            .credit(usd(), 100);
        authorities.push(GrantAuthority::Keypair(key));
    }
    bank.open_account("shop", vec![p("shop")]);
    let bank = Arc::new(bank);
    let mux: ServiceMux = ServiceMux::new().with_accounting(Arc::clone(&bank));
    let srv = EventLoopServer::spawn_with(
        Arc::new(mux),
        EventLoopOptions {
            workers: 4,
            ..EventLoopOptions::default()
        },
        91,
    )
    .expect("bank server");

    // The attacker holds payor3's principal name but not payor3's key:
    // its check is sealed with a key the bank has never seen.
    let attacker = GrantAuthority::Keypair(SigningKey::generate(&mut rng));
    let checks: Vec<Proxy> = (0..DEPOSITORS)
        .map(|t| {
            let authority = if t == FORGER {
                &attacker
            } else {
                &authorities[t]
            };
            write_check(
                &p(&format!("payor{t}")),
                authority,
                &p("bank"),
                &format!("acct{t}"),
                p("shop"),
                1,
                usd(),
                5,
                window(),
                &mut rng,
            )
            .proxy
        })
        .collect();

    let barrier = Barrier::new(DEPOSITORS);
    let outcomes: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = checks
            .into_iter()
            .map(|check| {
                let (srv, barrier) = (&srv, &barrier);
                s.spawn(move || {
                    let client = TcpClient::new(srv.addr(), ClientOptions::default());
                    barrier.wait();
                    api::deposit_check(&client, check, &p("shop"), "shop", &p("bank"), Timestamp(3))
                        .is_ok()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("depositor thread"))
            .collect()
    });

    assert!(!outcomes[FORGER], "the forged seal must bounce");
    assert_eq!(
        outcomes.iter().filter(|ok| **ok).count(),
        DEPOSITORS - 1,
        "honest checks are untouched by the forgery: {outcomes:?}"
    );
    assert_eq!(
        bank.account("shop").expect("shop account").balance(&usd()),
        (DEPOSITORS as u64 - 1) * 5,
        "exactly the honest deposits settled"
    );
}

#[test]
fn forged_and_rolled_back_revocation_artifacts_cannot_resurrect_a_capability() {
    use proxy_aa::authz::{Acl, AclRights, AclSubject, AuthzError, EndServer, Request};
    use proxy_aa::proxy::revocation::{ArtifactError, ArtifactKind, RevocationArtifact, SerialSet};

    let mut rng = StdRng::seed_from_u64(41);
    let issuer_key = SymmetricKey::generate(&mut rng);
    let resolver =
        MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(issuer_key.clone()));
    let mut server = EndServer::new(p("fs"), resolver);
    server.acls.set(
        ObjectName::new("file1"),
        Acl::new().with(AclSubject::Principal(p("alice")), AclRights::all()),
    );
    let authority = GrantAuthority::SharedKey(issuer_key);
    let cap = grant(
        &p("alice"),
        &authority,
        RestrictionSet::new().with(Restriction::authorize_op(
            ObjectName::new("file1"),
            Operation::new("read"),
        )),
        window(),
        7,
        &mut rng,
    );

    // Epoch 1 lands legitimately: serial 7 is dead mid-validity.
    let kill = RevocationArtifact::seal(
        p("alice"),
        1,
        ArtifactKind::Snapshot,
        [7u64].into_iter().collect(),
        &authority,
    );
    server
        .apply_revocation(&kill)
        .expect("legitimate artifact applies");
    let present = |server: &EndServer<MapResolver>, nonce: u8| {
        let req = Request::new(
            Operation::new("read"),
            ObjectName::new("file1"),
            Timestamp(1),
        )
        .with_presentation(cap.present_bearer([nonce; 32], &p("fs")));
        server.authorize(&req).map(|_| ())
    };
    assert!(matches!(
        present(&server, 1),
        Err(AuthzError::Verify(VerifyError::Revoked { serial: 7, .. }))
    ));

    // Forgery: an attacker who cannot sign as alice publishes an empty
    // snapshot at a higher epoch to "un-revoke" the serial. The seal
    // fails, nothing is applied, and the revocation stands.
    let attacker = GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng));
    let forged = RevocationArtifact::seal(
        p("alice"),
        9,
        ArtifactKind::Snapshot,
        SerialSet::new(),
        &attacker,
    );
    assert!(matches!(
        server.apply_revocation(&forged),
        Err(AuthzError::Artifact(ArtifactError::BadSeal))
    ));
    assert_eq!(server.revocation_directory().epoch_of(&p("alice")), 1);

    // Rollback: replaying the genuinely-sealed pre-revocation state (an
    // empty snapshot alice once published at epoch 0 semantics — here a
    // same-epoch re-seal) must be refused as an epoch regression.
    let rollback = RevocationArtifact::seal(
        p("alice"),
        1,
        ArtifactKind::Snapshot,
        SerialSet::new(),
        &authority,
    );
    assert!(matches!(
        server.apply_revocation(&rollback),
        Err(AuthzError::Artifact(ArtifactError::EpochRegression {
            current: 1,
            offered: 1
        }))
    ));
    assert_eq!(server.revocation_directory().epoch_of(&p("alice")), 1);

    // A delta claiming a base the mirror never held is also refused.
    let wild_delta = RevocationArtifact::seal(
        p("alice"),
        6,
        ArtifactKind::Delta { base_epoch: 5 },
        SerialSet::new(),
        &authority,
    );
    assert!(matches!(
        server.apply_revocation(&wild_delta),
        Err(AuthzError::Artifact(ArtifactError::BaseMismatch {
            current: 1,
            base: 5
        }))
    ));

    // After every attack the capability is still dead.
    assert!(matches!(
        present(&server, 2),
        Err(AuthzError::Verify(VerifyError::Revoked { serial: 7, .. }))
    ));
}

#[test]
fn forged_membership_artifacts_cannot_plant_or_evict_members() {
    use proxy_aa::authz::{Acl, AclRights, AclSubject, AuthzError, EndServer, Request};
    use proxy_aa::proxy::membership::{member_digest, MembershipArtifact};
    use proxy_aa::proxy::revocation::{ArtifactError, ArtifactKind};

    let mut rng = StdRng::seed_from_u64(42);
    let gs_key = SymmetricKey::generate(&mut rng);
    let resolver = MapResolver::new().with(p("gs"), GrantorVerifier::SharedKey(gs_key.clone()));
    let mut server = EndServer::new(p("fs"), resolver);
    let staff = GroupName::new(p("gs"), "staff");
    server.acls.set(
        ObjectName::new("wiki"),
        Acl::new().with(AclSubject::Group(staff.clone()), AclRights::all()),
    );
    let authority = GrantAuthority::SharedKey(gs_key);

    // Legitimate roster: bob is staff as of epoch 1.
    let roster = MembershipArtifact::seal(
        staff.clone(),
        1,
        ArtifactKind::Snapshot,
        RosterChange::new(vec![member_digest(&p("bob"))], vec![]),
        &authority,
    );
    server.apply_membership(&roster).expect("roster applies");
    let edit = |server: &EndServer<MapResolver>, who: &str| {
        let req = Request::new(
            Operation::new("edit"),
            ObjectName::new("wiki"),
            Timestamp(1),
        )
        .authenticated_as(p(who));
        server.authorize(&req).map(|_| ())
    };
    assert!(edit(&server, "bob").is_ok());
    assert!(edit(&server, "mallory").is_err());

    // Mallory seals herself into the roster with her own key: rejected,
    // roster unchanged in both directions.
    let attacker = GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng));
    let planted = MembershipArtifact::seal(
        staff.clone(),
        2,
        ArtifactKind::Snapshot,
        RosterChange::new(vec![member_digest(&p("mallory"))], vec![]),
        &attacker,
    );
    assert!(matches!(
        server.apply_membership(&planted),
        Err(AuthzError::Artifact(ArtifactError::BadSeal))
    ));
    assert!(edit(&server, "mallory").is_err(), "mallory stays out");
    assert!(edit(&server, "bob").is_ok(), "bob stays in");

    // Replaying the genuine epoch-1 roster after the mirror moved on is
    // an epoch regression, not a quiet reset.
    let evict = MembershipArtifact::seal(
        staff.clone(),
        2,
        ArtifactKind::Snapshot,
        RosterChange::new(vec![member_digest(&p("carol"))], vec![]),
        &authority,
    );
    server.apply_membership(&evict).expect("epoch 2 applies");
    assert!(matches!(
        server.apply_membership(&roster),
        Err(AuthzError::Artifact(ArtifactError::EpochRegression {
            current: 2,
            offered: 1
        }))
    ));
    assert!(edit(&server, "carol").is_ok());
    assert!(
        edit(&server, "bob").is_err(),
        "epoch 2 evicted bob for real"
    );
}

#[test]
fn captured_check_cannot_be_replayed_across_a_server_restart() {
    // The classic attack on a RAM-only replay guard: capture a check
    // presentation, wait for (or force) the server to restart, then
    // re-present it hoping the accept-once state died with the process.
    // With the journaled replay bound (DESIGN.md §15), the marks a
    // settlement consumed ride in its journal record, so the rebuilt
    // server still refuses the capture.
    use proxy_aa::accounting::{write_check, AccountingServer, AcctError};
    use proxy_aa::crypto::ed25519::SigningKey;
    use proxy_aa::storage::{MemStorage, Storage};
    use std::sync::Arc;

    let usd = || Currency::new("USD");
    let store: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let boot = |store: Arc<dyn Storage>| {
        let mut rng = StdRng::seed_from_u64(17);
        let bank_key = SigningKey::generate(&mut rng);
        let carol_key = SigningKey::generate(&mut rng);
        let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key))
            .with_storage(store)
            .expect("recovery");
        bank.register_grantor(
            p("carol"),
            GrantorVerifier::PublicKey(carol_key.verifying_key()),
        );
        if bank.account("carol").is_none() {
            bank.open_account("carol", vec![p("carol")]);
            bank.open_account("shop", vec![p("shop")]);
            bank.account_mut("carol").unwrap().credit(usd(), 300);
        }
        (bank, GrantAuthority::Keypair(carol_key), rng)
    };

    let (bank, carol, mut rng) = boot(Arc::clone(&store));
    let check = write_check(
        &p("carol"),
        &carol,
        &p("bank"),
        "carol",
        p("shop"),
        1,
        usd(),
        100,
        window(),
        &mut rng,
    );
    // The legitimate deposit settles; the adversary has a byte-perfect
    // copy of everything that crossed the wire.
    bank.deposit(
        &check,
        &p("shop"),
        "shop",
        p("bank"),
        Timestamp(1),
        &mut rng,
    )
    .expect("legitimate deposit settles");
    assert_eq!(bank.account("shop").unwrap().balance(&usd()), 100);
    drop(bank);

    // Server restarts; the adversary presents the capture.
    let (bank, _carol, mut rng) = boot(store);
    let err = bank
        .deposit(
            &check,
            &p("shop"),
            "shop",
            p("bank"),
            Timestamp(2),
            &mut rng,
        )
        .unwrap_err();
    assert!(
        matches!(err, AcctError::Verify(_)),
        "replay across restart must fail verification, got {err:?}"
    );
    assert_eq!(
        bank.account("shop").unwrap().balance(&usd()),
        100,
        "no second credit"
    );
    assert_eq!(bank.account("carol").unwrap().balance(&usd()), 200);
}
