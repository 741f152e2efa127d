//! Concurrency: the service cores stay correct under parallel load.
//!
//! Since the concurrent-runtime rework the servers are internally
//! synchronized: `AuthorizationServer::request_authorization`,
//! `AccountingServer::deposit`, and `Verifier::verify` all take `&self`,
//! backed by lock-striped shards and a sharded replay cache (DESIGN.md
//! §9). These tests hammer the shared-`&self` pattern directly — no
//! external `Mutex` around any server — and demand the same invariants
//! as the single-threaded property tests: at-most-once acceptance and
//! money conservation, now under contention.
//!
//! Run with `RUST_TEST_THREADS=8 cargo test --release --test concurrency`
//! for the full-contention configuration used by `ci.sh`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_aa::accounting::{write_check, AccountingServer, DepositOutcome};
use proxy_aa::authz::{Acl, AclRights, AclSubject, AuthorizationServer};
use proxy_aa::crypto::ed25519::SigningKey;
use proxy_aa::crypto::keys::SymmetricKey;
use proxy_aa::proxy::prelude::*;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn usd() -> Currency {
    Currency::new("USD")
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000_000))
}

#[test]
fn public_api_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Proxy>();
    assert_send_sync::<Presentation>();
    assert_send_sync::<RestrictionSet>();
    assert_send_sync::<Verifier<MapResolver>>();
    assert_send_sync::<MemoryReplayGuard>();
    assert_send_sync::<ReplayCache>();
    assert_send_sync::<ShardMap<String, u64>>();
    assert_send_sync::<VerifiedCertCache>();
    assert_send_sync::<AccountingServer>();
    assert_send_sync::<AuthorizationServer<MapResolver>>();
    assert_send_sync::<proxy_aa::kerberos::Kdc>();
    assert_send_sync::<proxy_aa::authz::EndServer<MapResolver>>();
    assert_send_sync::<proxy_aa::authz::GroupServer>();
    assert_send_sync::<MembershipDirectory>();
    assert_send_sync::<RevocationDirectory>();
    assert_send_sync::<proxy_aa::netsim::Network>();
}

#[test]
fn parallel_verification_shares_one_verifier() {
    // Verifier::verify takes &self: many threads can verify concurrently
    // with per-thread replay guards.
    let mut rng = StdRng::seed_from_u64(1);
    let shared = SymmetricKey::generate(&mut rng);
    let proxy = grant(
        &p("alice"),
        &GrantAuthority::SharedKey(shared.clone()),
        RestrictionSet::new(),
        window(),
        1,
        &mut rng,
    );
    let verifier = Verifier::new(
        p("fs"),
        MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(shared)),
    );
    let ctx =
        RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("x")).at(Timestamp(1));
    std::thread::scope(|scope| {
        for t in 0..8 {
            let verifier = &verifier;
            let proxy = &proxy;
            let ctx = &ctx;
            scope.spawn(move || {
                let mut guard = MemoryReplayGuard::new();
                for i in 0..50 {
                    let challenge = [t as u8 + 1; 32];
                    let pres = proxy.present_bearer(challenge, &p("fs"));
                    verifier
                        .verify(&pres, ctx, &mut guard)
                        .unwrap_or_else(|e| panic!("thread {t} iter {i}: {e}"));
                }
            });
        }
    });
}

#[test]
fn racing_verifications_share_key_table_slots_and_get_only_correct_verdicts() {
    // The verifier's table of seen Ed25519 keys has 256 slots of two
    // ways, the slot picked by a hash keyed inside the table, a key new
    // to a full slot evicting a tenant. Which keys collide cannot be
    // chosen from out here, so collisions are forced by count: four proxy
    // keys per slot on average, every thread visiting all of them in its
    // own order, so tenants are read, promoted and evicted under one
    // another's feet. (Four keys pinned to a single slot under eight
    // threads is the table's own unit test.) The table serves a
    // presentation that needs exactly one check, so the verifier has a
    // seal cache: whichever thread meets a capability first settles seal
    // and proof as one batch, and the seven after it check the proof
    // alone, through the table. Whatever the table holds when a check
    // arrives, the verdict must be the one the signature deserves.
    const KEYS: usize = 4 * 256;
    let mut rng = StdRng::seed_from_u64(11);
    let alice = SigningKey::generate(&mut rng);
    let verifier = Verifier::new(
        p("fs"),
        MapResolver::new().with(
            p("alice"),
            GrantorVerifier::PublicKey(alice.verifying_key()),
        ),
    )
    .with_seal_cache(2 * KEYS);
    let authority = GrantAuthority::Keypair(alice);
    let caps: Vec<Proxy> = (0..KEYS as u64)
        .map(|serial| {
            grant(
                &p("alice"),
                &authority,
                RestrictionSet::new(),
                window(),
                serial,
                &mut rng,
            )
        })
        .collect();
    let ctx =
        RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("x")).at(Timestamp(1));
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let (verifier, caps, ctx, barrier) = (&verifier, &caps, &ctx, &barrier);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t as u64);
                let mut guard = MemoryReplayGuard::new();
                // Odd strides are coprime to KEYS: each thread's own
                // permutation of all the keys.
                let stride = 2 * t + 1;
                barrier.wait();
                for i in 0..KEYS {
                    let cap = &caps[(i * stride + t * 131) % KEYS];
                    let challenge = [t as u8 + 1; 32];
                    let honest = cap.present_bearer(challenge, &p("fs"));
                    verifier
                        .verify(&honest, ctx, &mut guard)
                        .unwrap_or_else(|e| panic!("thread {t} iter {i}: {e}"));
                    if i % 4 == t % 4 {
                        let thief = Proxy {
                            certs: cap.certs.clone(),
                            key: GrantAuthority::Keypair(SigningKey::generate(&mut rng)),
                        };
                        assert_eq!(
                            verifier.verify(
                                &thief.present_bearer(challenge, &p("fs")),
                                ctx,
                                &mut guard
                            ),
                            Err(VerifyError::BadPossession),
                            "thread {t} iter {i}"
                        );
                        let mut bent = honest.clone();
                        bent.certs[0].serial ^= 1;
                        assert_eq!(
                            verifier.verify(&bent, ctx, &mut guard),
                            Err(VerifyError::BadSeal { index: 0 }),
                            "thread {t} iter {i}"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn accept_once_proxy_is_accepted_exactly_once_across_racing_presenters() {
    // §7.7: an accept-once proxy raced by 8 presenters against ONE shared
    // replay cache must be honored exactly once — the sharded cache's
    // check-and-mark is the single linearization point.
    let mut rng = StdRng::seed_from_u64(2);
    let shared = SymmetricKey::generate(&mut rng);
    let proxy = grant(
        &p("alice"),
        &GrantAuthority::SharedKey(shared.clone()),
        RestrictionSet::new().with(Restriction::AcceptOnce { id: 7 }),
        window(),
        1,
        &mut rng,
    );
    let verifier = Verifier::new(
        p("fs"),
        MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(shared)),
    );
    let replay = ReplayCache::new();
    let ctx =
        RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("x")).at(Timestamp(1));
    let accepted = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (verifier, proxy, ctx, replay, accepted) =
                (&verifier, &proxy, &ctx, &replay, &accepted);
            scope.spawn(move || {
                let pres = proxy.present_bearer([t as u8 + 1; 32], &p("fs"));
                let mut guard = replay;
                if verifier.verify(&pres, ctx, &mut guard).is_ok() {
                    accepted.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(
        accepted.load(Ordering::Relaxed),
        1,
        "accept-once honored exactly once under a race"
    );
}

#[test]
fn concurrent_deposits_settle_each_check_exactly_once_without_a_server_lock() {
    let mut rng = StdRng::seed_from_u64(3);
    let carol_key = SigningKey::generate(&mut rng);
    let mut bank = AccountingServer::new(
        p("bank"),
        GrantAuthority::Keypair(SigningKey::generate(&mut rng)),
    );
    bank.register_grantor(
        p("carol"),
        GrantorVerifier::PublicKey(carol_key.verifying_key()),
    );
    bank.open_account("carol", vec![p("carol")]);
    bank.open_account("shop", vec![p("shop")]);
    bank.account_mut("carol").unwrap().credit(usd(), 10_000);
    let carol_auth = GrantAuthority::Keypair(carol_key);

    // 16 distinct checks, each deposited by 4 racing threads sharing the
    // bank as plain &self — double-spend prevention is the replay
    // cache's check-and-mark under the payor account's shard.
    let checks: Vec<_> = (1..=16u64)
        .map(|no| {
            write_check(
                &p("carol"),
                &carol_auth,
                &p("bank"),
                "carol",
                p("shop"),
                no,
                usd(),
                10,
                window(),
                &mut rng,
            )
        })
        .collect();
    let bank = bank; // freeze admin state; shared by reference below
    let settled = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..4 {
            let (bank, settled, checks) = (&bank, &settled, &checks);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                for check in checks {
                    let result =
                        bank.deposit(check, &p("shop"), "shop", p("bank"), Timestamp(1), &mut rng);
                    if let Ok(DepositOutcome::Settled(payment)) = result {
                        settled.lock().expect("settled lock").push(payment.check_no);
                    }
                }
            });
        }
    });

    let mut settled = settled.into_inner().expect("settled poisoned");
    settled.sort_unstable();
    assert_eq!(
        settled,
        (1..=16u64).collect::<Vec<_>>(),
        "each check exactly once"
    );
    assert_eq!(bank.account("carol").unwrap().balance(&usd()), 10_000 - 160);
    assert_eq!(bank.account("shop").unwrap().balance(&usd()), 160);
}

#[test]
fn concurrent_check_writing_and_deposits_conserve_currency() {
    // N payor threads each write and deposit their own stream of checks
    // against one shared bank; every unit debited must surface in the
    // shop's account and nowhere else.
    const THREADS: u64 = 8;
    const CHECKS_PER_THREAD: u64 = 50;
    const AMOUNT: u64 = 3;
    let mut rng = StdRng::seed_from_u64(4);
    let mut bank = AccountingServer::new(
        p("bank"),
        GrantAuthority::Keypair(SigningKey::generate(&mut rng)),
    );
    bank.open_account("shop", vec![p("shop")]);
    let mut authorities = Vec::new();
    for t in 0..THREADS {
        let key = SigningKey::generate(&mut rng);
        let payor = p(&format!("payor{t}"));
        bank.register_grantor(
            payor.clone(),
            GrantorVerifier::PublicKey(key.verifying_key()),
        );
        bank.open_account(format!("acct{t}"), vec![payor]);
        bank.account_mut(&format!("acct{t}"))
            .unwrap()
            .credit(usd(), CHECKS_PER_THREAD * AMOUNT);
        authorities.push(GrantAuthority::Keypair(key));
    }
    let bank = bank;
    let settled = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for (t, authority) in authorities.iter().enumerate() {
            let (bank, settled) = (&bank, &settled);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(200 + t as u64);
                let payor = p(&format!("payor{t}"));
                for no in 1..=CHECKS_PER_THREAD {
                    let check = write_check(
                        &payor,
                        authority,
                        &p("bank"),
                        &format!("acct{t}"),
                        p("shop"),
                        no,
                        usd(),
                        AMOUNT,
                        window(),
                        &mut rng,
                    );
                    let outcome = bank
                        .deposit(
                            &check,
                            &p("shop"),
                            "shop",
                            p("bank"),
                            Timestamp(1),
                            &mut rng,
                        )
                        .unwrap_or_else(|e| panic!("payor {t} check {no}: {e}"));
                    assert!(matches!(outcome, DepositOutcome::Settled(_)));
                    settled.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(settled.load(Ordering::Relaxed), THREADS * CHECKS_PER_THREAD);
    let total = THREADS * CHECKS_PER_THREAD * AMOUNT;
    assert_eq!(
        bank.account("shop").unwrap().balance(&usd()),
        total,
        "every debited unit landed in the shop account"
    );
    for t in 0..THREADS {
        assert_eq!(
            bank.account(&format!("acct{t}")).unwrap().balance(&usd()),
            0,
            "payor {t} fully debited"
        );
    }
    assert_eq!(
        bank.uncollected_total("shop", &usd()),
        0,
        "no funds in flight"
    );
}

#[test]
fn concurrent_authorization_queries_share_one_server() {
    // Fig. 3's query path under contention: one authorization server,
    // 8 clients requesting proxies with no external lock. Every grant
    // must verify, and the serial counter must never repeat.
    let mut rng = StdRng::seed_from_u64(5);
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
    let authz = authz;
    let serials = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let (authz, serials) = (&authz, &serials);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(300 + t);
                for _ in 0..25 {
                    let proxy = authz
                        .request_authorization(
                            &p("C"),
                            &[],
                            &p("S"),
                            &Operation::new("read"),
                            &ObjectName::new("X"),
                            window(),
                            Timestamp(1),
                            &mut rng,
                        )
                        .expect("authorized");
                    serials.lock().expect("serials").push(proxy.certs[0].serial);
                }
            });
        }
    });
    let mut serials = serials.into_inner().expect("serials poisoned");
    serials.sort_unstable();
    serials.dedup();
    assert_eq!(serials.len(), 200, "serials unique under contention");
}

#[test]
fn contended_group_roster_updates_and_asserts_stay_coherent() {
    // The group server's roster lives on a sharded map: adds, removes,
    // membership grants, and mirror syncs all race on one shared &self
    // instance. The mirror applies only seal-verified artifacts, and at
    // quiescence it must agree exactly with the issuer's roster.
    let mut rng = StdRng::seed_from_u64(6);
    let key = SymmetricKey::generate(&mut rng);
    let gs = proxy_aa::authz::GroupServer::new(p("GS"), GrantAuthority::SharedKey(key.clone()));
    let verifier = GrantorVerifier::SharedKey(key);
    gs.create_group("staff");
    // Stable members that no writer ever removes: queries against them
    // must succeed at every interleaving.
    for i in 0..8u64 {
        gs.add_member("staff", p(&format!("stable-{i}")));
    }
    let staff = GroupName::new(p("GS"), "staff");
    let mirror = MembershipDirectory::new();

    std::thread::scope(|scope| {
        // Writers: each owns a disjoint slice of members and churns it.
        for t in 0..4u64 {
            let gs = &gs;
            scope.spawn(move || {
                for i in 0..50u64 {
                    let member = p(&format!("member-{t}-{i}"));
                    gs.add_member("staff", member.clone());
                    if i % 3 == 0 {
                        gs.remove_member("staff", &member);
                    }
                }
            });
        }
        // Readers: membership grants and point queries under churn. The
        // stable members are never removed, so their grants must always
        // succeed; churned members are merely probed (their membership
        // races with the writers by design).
        for t in 0..2u64 {
            let gs = &gs;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(600 + t);
                for i in 0..50u64 {
                    gs.membership_proxy(
                        &p(&format!("stable-{}", i % 8)),
                        &["staff"],
                        window(),
                        &mut rng,
                    )
                    .expect("stable member always gets a grant");
                    let _ = gs.is_member("staff", &p(&format!("member-{t}-{i}")));
                }
            });
        }
        // Mirror: pulls delta chains mid-churn and applies the verified
        // ones; every intermediate state it holds is some epoch the
        // issuer actually published.
        {
            let (gs, mirror, verifier, staff) = (&gs, &mirror, &verifier, &staff);
            scope.spawn(move || {
                for _ in 0..20 {
                    let have = mirror.epoch_of(staff);
                    for artifact in gs.updates_since("staff", have) {
                        assert!(artifact.verify_seal(verifier), "issuer seals verify");
                        // A racing pull may already have applied this
                        // epoch; only ordering errors are fatal.
                        let _ = mirror.apply_verified(&artifact);
                    }
                }
            });
        }
    });

    // Drain the final pending changes, then the mirror must agree with
    // the issuer member-for-member.
    for artifact in gs.updates_since("staff", mirror.epoch_of(&staff)) {
        assert!(artifact.verify_seal(&verifier));
        mirror
            .apply_verified(&artifact)
            .expect("final sync applies");
    }
    assert_eq!(mirror.epoch_of(&staff), gs.epoch_of("staff"));
    assert_eq!(mirror.member_count(&staff), gs.member_count("staff"));
    for t in 0..4u64 {
        for i in 0..50u64 {
            let member = p(&format!("member-{t}-{i}"));
            assert_eq!(
                mirror.assert(&staff, &member) == MembershipAnswer::Member,
                gs.is_member("staff", &member),
                "mirror and issuer agree on {member}"
            );
        }
    }
}
