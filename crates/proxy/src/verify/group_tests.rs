//! A group settled together decides exactly what its presentations
//! decide one by one: [`Verifier::prepare`] on each, one
//! [`Verifier::settle`], then [`Verifier::finish`] in order, against
//! [`Verifier::verify`] in order on an identically configured verifier.

use super::*;
use crate::cert::CertSeal;
use crate::key::{GrantAuthority, MapResolver};
use crate::proxy::{delegate_cascade, grant, Proxy};
use crate::replay::ReplayCache;
use crate::restriction::{ObjectName, Operation, Restriction};
use crate::revocation::{ArtifactKind, RevocationArtifact};
use crate::time::{Timestamp, Validity};
use proxy_crypto::ed25519::SigningKey;
use proxy_crypto::keys::SymmetricKey;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1000))
}

/// A read at time 10 by "fsworker", the subordinate of every delegate
/// cascade below.
fn ctx() -> RequestContext {
    RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("file"))
        .at(Timestamp(10))
        .authenticated_as(p("fsworker"))
}

fn challenge(rng: &mut StdRng) -> [u8; 32] {
    let mut challenge = [0; 32];
    rng.fill_bytes(&mut challenge);
    challenge
}

/// The serial every grantor has revoked.
const REVOKED: u64 = 666;

/// Grantors of both seal flavours, a delegate intermediate, and one
/// shared revocation mirror.
struct World {
    alice: GrantAuthority,
    carol: GrantAuthority,
    print: GrantAuthority,
    forger: SigningKey,
    resolver: MapResolver,
    revocations: Arc<RevocationDirectory>,
}

impl World {
    fn seeded(rng: &mut StdRng) -> World {
        let alice = GrantAuthority::Keypair(SigningKey::generate(rng));
        let carol = GrantAuthority::SharedKey(SymmetricKey::generate(rng));
        let print = GrantAuthority::Keypair(SigningKey::generate(rng));
        let resolver = MapResolver::new()
            .with(p("alice"), alice.verifier())
            .with(p("carol"), carol.verifier())
            .with(p("print"), print.verifier());
        let revocations = Arc::new(RevocationDirectory::new());
        for (name, authority) in [("alice", &alice), ("carol", &carol), ("print", &print)] {
            let artifact = RevocationArtifact::seal(
                p(name),
                1,
                ArtifactKind::Snapshot,
                [REVOKED].into_iter().collect(),
                authority,
            );
            revocations.apply_verified(&artifact).unwrap();
        }
        World {
            alice,
            carol,
            print,
            forger: SigningKey::generate(rng),
            resolver,
            revocations,
        }
    }

    /// Alice's public key.
    fn alice_key(&self) -> VerifyingKey {
        match &self.alice {
            GrantAuthority::Keypair(sk) => sk.verifying_key(),
            GrantAuthority::SharedKey(_) => unreachable!("alice seals with Ed25519"),
        }
    }

    /// A fresh verifier of this world, with its own seal cache of
    /// `capacity` and its own key table.
    fn verifier(&self, capacity: usize) -> Verifier<MapResolver> {
        Verifier::new(p("fs"), self.resolver.clone())
            .with_seal_cache(capacity)
            .with_revocation(Arc::clone(&self.revocations))
    }

    /// A bearer cascade of `depth` links under alice (Ed25519) or carol
    /// (HMAC), or a delegate cascade through print followed by bearer
    /// links; the head may carry an accept-once id.
    fn proxy(&self, rng: &mut StdRng, depth: usize, ed25519: bool, delegate: bool) -> Proxy {
        let (name, authority) = if ed25519 {
            ("alice", &self.alice)
        } else {
            ("carol", &self.carol)
        };
        let mut head = RestrictionSet::new();
        if rng.gen_range(0..4) == 0 {
            head = head.with(Restriction::AcceptOnce {
                id: rng.gen::<u64>(),
            });
        }
        let mut proxy = if delegate {
            let to_print = grant(
                &p(name),
                authority,
                head.with(Restriction::grantee_one(p("print"))),
                window(),
                1,
                rng,
            );
            delegate_cascade(
                &to_print.certs,
                &p("print"),
                &self.print,
                p("fsworker"),
                RestrictionSet::new(),
                window(),
                2,
                rng,
            )
            .unwrap()
        } else {
            grant(&p(name), authority, head, window(), 1, rng)
        };
        while proxy.certs.len() < depth {
            let serial = proxy.certs.len() as u64 + 1;
            proxy = proxy
                .derive(RestrictionSet::new(), window(), serial, rng)
                .unwrap();
        }
        proxy
    }

    /// A presentation of `proxy`: with a fresh possession proof, or by
    /// identity when it is a delegate cascade and the coin says so.
    fn present(&self, rng: &mut StdRng, proxy: &Proxy) -> Presentation {
        if proxy.is_delegate() && rng.gen() {
            proxy.present_delegate()
        } else {
            proxy.present_bearer(challenge(rng), &p("fs"))
        }
    }

    /// One of the faults a presentation can carry, at a random link.
    fn inject(&self, rng: &mut StdRng, pres: &mut Presentation) {
        let j = rng.gen_range(0..pres.certs.len());
        match rng.gen_range(0..6) {
            0 => {
                let body = pres.certs[j].body_bytes();
                pres.certs[j].seal = match pres.certs[j].seal {
                    CertSeal::Ed25519(_) => CertSeal::Ed25519(self.forger.sign(&body)),
                    CertSeal::Hmac(mut tag) => {
                        tag[0] ^= 1;
                        CertSeal::Hmac(tag)
                    }
                };
            }
            1 => match &mut pres.proof {
                Proof::Possession { response, .. } => response[0] ^= 1,
                Proof::Identity => {
                    pres.proof = Proof::Possession {
                        challenge: [0; 32],
                        response: vec![0; 64],
                    }
                }
            },
            2 => pres.certs[j].validity = Validity::new(Timestamp(0), Timestamp(5)),
            3 => pres.certs[j].serial = REVOKED,
            4 => {
                // A grantor-sealed link (the head, or a delegate link)
                // claims a grantor the verifier has never heard of.
                let k = (0..=j)
                    .rev()
                    .find(|&k| pres.certs[k].authority == SigningAuthorityKind::Grantor)
                    .unwrap_or(0);
                pres.certs[k].grantor = p("mallory");
            }
            _ => {
                pres.certs[j].seal = match pres.certs[j].seal {
                    CertSeal::Ed25519(_) => CertSeal::Hmac([0; 32]),
                    CertSeal::Hmac(_) => CertSeal::Ed25519(self.forger.sign(b"x")),
                }
            }
        }
    }
}

/// `presentations` through `verifier` as one group.
fn verify_group(
    verifier: &Verifier<MapResolver>,
    presentations: &[Presentation],
    replay: &mut ReplayCache,
) -> Vec<Result<VerifiedProxy, VerifyError>> {
    let ctx = ctx();
    let mut group: Vec<Prepared> = presentations
        .iter()
        .map(|pres| verifier.prepare(pres, ctx.now))
        .collect();
    verifier.settle(&mut group);
    presentations
        .iter()
        .zip(&group)
        .map(|(pres, prepared)| verifier.finish(prepared, pres, &ctx, replay))
        .collect()
}

/// Every accept-once mark `replay` holds, sorted.
fn marks(replay: &ReplayCache) -> Vec<(PrincipalId, u64, Timestamp)> {
    let mut marks = Vec::new();
    replay.for_each_entry(|grantor, id, expires| marks.push((grantor.clone(), id, expires)));
    marks.sort();
    marks
}

/// Groups of 1–16 presentations — chains of depth 1–8, both seal
/// flavours, bearer and delegate cascades, accept-once ids, repeated
/// chains, a duplicate accept-once presentation in one group, and every
/// fault `World::inject` knows at random places — settle as one group in
/// one verifier and one by one in another, both with seal caches of
/// `capacity`. Each verdict (error and blamed index included) and the
/// accept-once marks must agree after every group, and so must the set
/// of cached seals when `same_cache` says so. The caches' hit and miss
/// counts may not: a chain repeated inside a group misses twice where
/// the one-by-one verifier hits its second time.
fn group_against_sequential(seed: u64, capacity: usize, same_cache: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let world = World::seeded(&mut rng);
    let (grouped, sequential) = (world.verifier(capacity), world.verifier(capacity));
    let (mut grouped_replay, mut sequential_replay) = (ReplayCache::new(), ReplayCache::new());
    let ctx = ctx();
    let mut pool: Vec<Proxy> = Vec::new();
    let (mut accepted, mut duplicates) = (0, 0);
    let mut errors = std::collections::BTreeSet::new();
    for round in 0..60 {
        let size = rng.gen_range(1..17);
        let mut presentations = Vec::with_capacity(size);
        while presentations.len() < size {
            let proxy = if !pool.is_empty() && rng.gen_range(0..3) == 0 {
                pool[rng.gen_range(0..pool.len())].clone()
            } else {
                let (depth, ed25519, delegate) =
                    (rng.gen_range(1..9), rng.gen_range(0..4) > 0, rng.gen());
                let proxy = world.proxy(
                    &mut rng,
                    depth.max(1 + usize::from(delegate)),
                    ed25519,
                    delegate,
                );
                pool.push(proxy.clone());
                proxy
            };
            let mut pres = world.present(&mut rng, &proxy);
            if rng.gen_range(0..4) == 0 {
                world.inject(&mut rng, &mut pres);
            }
            let accept_once = proxy
                .combined_restrictions()
                .iter()
                .any(|r| matches!(r, Restriction::AcceptOnce { .. }));
            presentations.push(pres);
            if accept_once && presentations.len() < size && rng.gen() {
                presentations.push(world.present(&mut rng, &proxy));
                duplicates += 1;
            }
        }
        let expect: Vec<_> = presentations
            .iter()
            .map(|pres| sequential.verify(pres, &ctx, &mut sequential_replay))
            .collect();
        let got = verify_group(&grouped, &presentations, &mut grouped_replay);
        assert_eq!(got, expect, "round {round}");
        assert_eq!(
            marks(&grouped_replay),
            marks(&sequential_replay),
            "round {round}"
        );
        if same_cache {
            assert_eq!(
                grouped.seal_cache().unwrap().entries(),
                sequential.seal_cache().unwrap().entries(),
                "round {round}"
            );
        }
        for verdict in got {
            match verdict {
                Ok(_) => accepted += 1,
                Err(e) => {
                    let name = format!("{e:?}");
                    errors.insert(name[..name.find([' ', '(']).unwrap_or(name.len())].to_string());
                }
            }
        }
    }
    // The rounds exercised every fault and both sides of accept-once.
    assert!(
        accepted > 200 && duplicates > 5,
        "{accepted} accepted, {duplicates} duplicates"
    );
    for error in [
        "BadSeal",
        "BadPossession",
        "NotValidAt",
        "Revoked",
        "UnknownGrantor",
        "FlavorMismatch",
        "Denied",
    ] {
        assert!(errors.contains(error), "no {error} among {errors:?}");
    }
}

/// No entry is evicted: the grouped and the sequential verifier end
/// every group with the same cached seals.
#[test]
fn group_verdicts_equal_sequential_verify() {
    group_against_sequential(31, 1 << 14, true);
}

/// A 64-entry cache evicts within a group. Verdicts and marks still
/// agree, but the cached sets may not: a seal that was a hit when its
/// presentation was prepared is not looked up again after earlier
/// members' inserts have evicted it, where the sequential verifier
/// misses, re-verifies and re-inserts it. The cache only ever vouches
/// for a valid seal, so what it holds changes the cost of a later
/// check, never a verdict.
#[test]
fn group_verdicts_equal_sequential_verify_under_eviction() {
    group_against_sequential(34, 64, false);
}

/// The matrix of `tests::forged_seal_and_bad_proof_matrix_on_a_depth4_cascade`
/// — {forged seal at 0–3, none} × {good, thief's, 63-byte, `Identity`
/// on a bearer chain} × {cold, warm} — at every position of a group of
/// eight cold depth-4 cascades: the case gets its own verdict, the seven
/// honest cascades verify, and what is cached is what the case caches
/// alone plus four seals for each honest cascade.
#[test]
fn group_matrix_at_every_position_of_eight() {
    let mut rng = StdRng::seed_from_u64(32);
    let world = World::seeded(&mut rng);
    let depth4 = |rng: &mut StdRng| {
        let mut proxy = grant(
            &p("alice"),
            &world.alice,
            RestrictionSet::new(),
            window(),
            1,
            rng,
        );
        for serial in 2..=4 {
            proxy = proxy
                .derive(RestrictionSet::new(), window(), serial, rng)
                .unwrap();
        }
        proxy
    };
    let proxy = depth4(&mut rng);
    let honest_neighbours: Vec<Presentation> = (0..7)
        .map(|i| depth4(&mut rng).present_bearer([i; 32], &p("fs")))
        .collect();
    let honest = proxy.present_bearer([4u8; 32], &p("fs"));
    let thief = Proxy {
        certs: proxy.certs.clone(),
        key: GrantAuthority::Keypair(SigningKey::generate(&mut rng)),
    };
    let Proof::Possession {
        challenge,
        response,
    } = honest.proof.clone()
    else {
        unreachable!()
    };
    let proofs = [
        (honest.proof.clone(), Ok(())),
        (
            thief.present_bearer(challenge, &p("fs")).proof,
            Err(VerifyError::BadPossession),
        ),
        (
            Proof::Possession {
                challenge,
                response: response[..63].to_vec(),
            },
            Err(VerifyError::BadPossession),
        ),
        (Proof::Identity, Err(VerifyError::BearerRequiresPossession)),
    ];
    for warm in [false, true] {
        for (proof, proof_verdict) in &proofs {
            for forged_at in [None, Some(0), Some(1), Some(2), Some(3)] {
                let mut case = honest.clone();
                case.proof = proof.clone();
                if let Some(k) = forged_at {
                    let body = case.certs[k].body_bytes();
                    case.certs[k].seal = CertSeal::Ed25519(world.forger.sign(&body));
                }
                let expect = match forged_at {
                    Some(index) => Err(VerifyError::BadSeal { index }),
                    None => proof_verdict.clone(),
                };
                let cached = if forged_at.is_none() || warm { 32 } else { 28 };
                for position in 0..8 {
                    let verifier = world.verifier(64);
                    let mut replay = ReplayCache::new();
                    if warm {
                        assert!(verifier.verify(&honest, &ctx(), &mut replay).is_ok());
                    }
                    let mut group = honest_neighbours.clone();
                    group.insert(position, case.clone());
                    let got = verify_group(&verifier, &group, &mut replay);
                    let label = format!(
                        "warm={warm} proof={proof:?} forged_at={forged_at:?} at {position}"
                    );
                    for (i, verdict) in got.into_iter().enumerate() {
                        if i == position {
                            assert_eq!(verdict.map(|_| ()), expect, "{label}");
                        } else {
                            assert!(verdict.is_ok(), "neighbour {i}: {label}");
                        }
                    }
                    assert_eq!(verifier.seal_cache().unwrap().len(), cached, "{label}");
                }
            }
        }
    }
}

/// A group with more checks than one equation takes — forty depth-8
/// cascades, 360 checks — settles in equations of at most
/// [`MAX_EQUATION_CHECKS`], all of them verify, and a forgery in the last
/// equation blames only its own presentation.
#[test]
fn group_larger_than_one_equation_settles_in_bounded_equations() {
    let mut rng = StdRng::seed_from_u64(33);
    let world = World::seeded(&mut rng);
    let mut presentations: Vec<Presentation> = (0..40)
        .map(|_| {
            let proxy = grant(
                &p("alice"),
                &world.alice,
                RestrictionSet::new(),
                window(),
                1,
                &mut rng,
            );
            let proxy = (2..=8).fold(proxy, |proxy, serial| {
                proxy
                    .derive(RestrictionSet::new(), window(), serial, &mut rng)
                    .unwrap()
            });
            proxy.present_bearer(challenge(&mut rng), &p("fs"))
        })
        .collect();

    // The equations: 9 checks a presentation, eight presentations each.
    let verifier = world.verifier(1024);
    let prepared: Vec<Prepared> = presentations
        .iter()
        .map(|pres| verifier.prepare(pres, Timestamp(10)))
        .collect();
    let mut rest = prepared.as_slice();
    let mut equations = Vec::new();
    while !rest.is_empty() {
        let (len, members) = next_equation(rest);
        let checks: usize = rest[..len].iter().map(|p| p.pending.len()).sum();
        assert!(
            checks <= MAX_EQUATION_CHECKS,
            "{checks} checks in one equation"
        );
        equations.push(members);
        rest = &rest[len..];
    }
    assert_eq!(equations, [8, 8, 8, 8, 8]);

    let honest = verify_group(&verifier, &presentations, &mut ReplayCache::new());
    assert!(honest.iter().all(Result::is_ok));

    let body = presentations[37].certs[5].body_bytes();
    presentations[37].certs[5].seal = CertSeal::Ed25519(world.forger.sign(&body));
    let verifier = world.verifier(1024);
    let got = verify_group(&verifier, &presentations, &mut ReplayCache::new());
    for (i, verdict) in got.iter().enumerate() {
        if i == 37 {
            assert_eq!(verdict, &Err(VerifyError::BadSeal { index: 5 }));
        } else {
            assert!(verdict.is_ok(), "presentation {i}: {verdict:?}");
        }
    }
    assert_eq!(verifier.seal_cache().unwrap().len(), 39 * 8);
}

/// A check-like presentation: a one-link delegate proxy alice grants to
/// fsworker under accept-once id `id`, presented by identity — one
/// pending check, alice's seal, under alice's key.
fn lone_check(world: &World, rng: &mut StdRng, id: u64) -> Presentation {
    grant(
        &p("alice"),
        &world.alice,
        RestrictionSet::new()
            .with(Restriction::grantee_one(p("fsworker")))
            .with(Restriction::AcceptOnce { id }),
        window(),
        id,
        rng,
    )
    .present_delegate()
}

/// Groups of 1–16 lone checks under one key — the shape of a bank's
/// deposits under one payor — with forged seals, expired links, revoked
/// serials and replayed accept-once ids at random places, settle as one
/// group exactly as one by one: verdicts, marks, and cached seals. Five
/// or more settle in one equation under the prepared key, and in runs of
/// eight lanes when it fails; three or four in one run of lanes.
#[test]
fn lone_checks_under_one_key_equal_sequential_verify() {
    let mut rng = StdRng::seed_from_u64(35);
    let world = World::seeded(&mut rng);
    let (grouped, sequential) = (world.verifier(1 << 14), world.verifier(1 << 14));
    let (mut grouped_replay, mut sequential_replay) = (ReplayCache::new(), ReplayCache::new());
    let ctx = ctx();
    let mut errors = std::collections::BTreeSet::new();
    let mut next_id = 1000;
    for round in 0..40 {
        let size = rng.gen_range(1..17);
        let mut presentations: Vec<Presentation> = Vec::with_capacity(size);
        while presentations.len() < size {
            next_id += 1;
            let mut pres = lone_check(&world, &mut rng, next_id);
            match rng.gen_range(0..12) {
                0 => {
                    let body = pres.certs[0].body_bytes();
                    pres.certs[0].seal = CertSeal::Ed25519(world.forger.sign(&body));
                }
                1 => pres.certs[0].validity = Validity::new(Timestamp(0), Timestamp(5)),
                2 => pres.certs[0].serial = REVOKED,
                3 if !presentations.is_empty() => {
                    // The same check twice in one group.
                    pres = presentations[rng.gen_range(0..presentations.len())].clone();
                }
                _ => {}
            }
            presentations.push(pres);
        }
        let expect: Vec<_> = presentations
            .iter()
            .map(|pres| sequential.verify(pres, &ctx, &mut sequential_replay))
            .collect();
        let got = verify_group(&grouped, &presentations, &mut grouped_replay);
        assert_eq!(got, expect, "round {round}");
        assert_eq!(
            marks(&grouped_replay),
            marks(&sequential_replay),
            "round {round}"
        );
        assert_eq!(
            grouped.seal_cache().unwrap().entries(),
            sequential.seal_cache().unwrap().entries(),
            "round {round}"
        );
        for verdict in got {
            if let Err(e) = verdict {
                let name = format!("{e:?}");
                errors.insert(name[..name.find([' ', '(']).unwrap_or(name.len())].to_string());
            }
        }
    }
    for error in ["BadSeal", "NotValidAt", "Revoked", "Denied"] {
        assert!(errors.contains(error), "no {error} among {errors:?}");
    }
}

/// Sixteen lone checks under alice's prepared key with one forged seal:
/// the one-key equation fails, every check then gets its own verdict in
/// two runs of eight lanes, and only the forgery is refused — at every
/// position — while the fifteen honest seals are cached.
#[test]
fn a_failed_one_key_equation_blames_only_the_forgery() {
    let mut rng = StdRng::seed_from_u64(36);
    let world = World::seeded(&mut rng);
    let honest: Vec<Presentation> = (0..16)
        .map(|i| lone_check(&world, &mut rng, 2000 + i))
        .collect();
    for forged_at in 0..16 {
        let verifier = world.verifier(1024);
        // Alice's key seen twice: prepared.
        for i in 100..102 {
            let warm = lone_check(&world, &mut rng, i);
            assert!(verifier
                .verify(&warm, &ctx(), &mut ReplayCache::new())
                .is_ok());
        }
        assert!(verifier.keys.prepared(&world.alice_key()).is_some());
        let mut group = honest.clone();
        let body = group[forged_at].certs[0].body_bytes();
        group[forged_at].certs[0].seal = CertSeal::Ed25519(world.forger.sign(&body));
        let got = verify_group(&verifier, &group, &mut ReplayCache::new());
        for (i, verdict) in got.iter().enumerate() {
            if i == forged_at {
                assert_eq!(verdict, &Err(VerifyError::BadSeal { index: 0 }));
            } else {
                assert!(
                    verdict.is_ok(),
                    "check {i}, forged at {forged_at}: {verdict:?}"
                );
            }
        }
        assert_eq!(verifier.seal_cache().unwrap().len(), 2 + 15);
    }
}

/// `MIN_ONE_KEY_CHECKS` honest lone checks under alice's prepared key —
/// and sixteen, a `fig5_mem` read — settle in the one-key equation, which
/// gives each of them the verdict `true` before any lane or lone check
/// runs; one check fewer is left undecided. Settled whole, the group
/// decides what `verify` decides one by one.
#[test]
fn a_one_key_equation_that_holds_decides_every_lone_check() {
    let mut rng = StdRng::seed_from_u64(39);
    let world = World::seeded(&mut rng);
    let mut id = 6000;
    let mut checks = |n: usize| -> Vec<Presentation> {
        (0..n)
            .map(|_| {
                id += 1;
                lone_check(&world, &mut rng, id)
            })
            .collect()
    };
    for n in [MIN_ONE_KEY_CHECKS - 1, MIN_ONE_KEY_CHECKS, 16] {
        let (grouped, sequential) = (world.verifier(1024), world.verifier(1024));
        // Alice's key seen twice: prepared.
        for warm in checks(2) {
            for verifier in [&grouped, &sequential] {
                assert!(verifier
                    .verify(&warm, &ctx(), &mut ReplayCache::new())
                    .is_ok());
            }
        }
        let presentations = checks(n);
        let mut group: Vec<Prepared> = presentations
            .iter()
            .map(|pres| grouped.prepare(pres, ctx().now))
            .collect();
        grouped.settle_shared_keys(&mut group);
        let expect_verdict = (n >= MIN_ONE_KEY_CHECKS).then_some(true);
        assert!(
            group.iter().all(|p| p.lone_verdict == expect_verdict),
            "n = {n}"
        );
        grouped.settle(&mut group);
        let (mut grouped_replay, mut sequential_replay) = (ReplayCache::new(), ReplayCache::new());
        for (pres, prepared) in presentations.iter().zip(&group) {
            assert_eq!(
                grouped.finish(prepared, pres, &ctx(), &mut grouped_replay),
                sequential.verify(pres, &ctx(), &mut sequential_replay),
                "n = {n}"
            );
        }
        assert_eq!(
            grouped.seal_cache().unwrap().entries(),
            sequential.seal_cache().unwrap().entries(),
            "n = {n}"
        );
    }
}

/// The group path only uses a key the table already holds prepared: a
/// group of lone checks under a key seen once, or never, leaves the key
/// table in the stage that verifying the same checks one by one leaves
/// it in — a group of one under a new key prepares nothing.
#[test]
fn the_group_path_never_prepares_a_key() {
    let mut rng = StdRng::seed_from_u64(37);
    let world = World::seeded(&mut rng);
    for seen_before in 0..2 {
        for size in 1..=8 {
            let (grouped, sequential) = (world.verifier(1024), world.verifier(1024));
            let mut id = 3000;
            for _ in 0..seen_before {
                id += 1;
                let warm = lone_check(&world, &mut rng, id);
                for verifier in [&grouped, &sequential] {
                    assert!(verifier
                        .verify(&warm, &ctx(), &mut ReplayCache::new())
                        .is_ok());
                }
            }
            let group: Vec<Presentation> = (0..size)
                .map(|i| lone_check(&world, &mut rng, 4000 + i))
                .collect();
            let got = verify_group(&grouped, &group, &mut ReplayCache::new());
            assert!(got.iter().all(Result::is_ok));
            for pres in &group {
                assert!(sequential
                    .verify(pres, &ctx(), &mut ReplayCache::new())
                    .is_ok());
            }
            let stage =
                |verifier: &Verifier<MapResolver>| verifier.keys.stage_of(&world.alice_key());
            assert_eq!(
                stage(&grouped),
                stage(&sequential),
                "{seen_before} + {size}"
            );
            let expect = if seen_before + size >= 2 {
                "prepared"
            } else {
                "once"
            };
            assert_eq!(stage(&grouped), Some(expect), "{seen_before} + {size}");
        }
    }
}

/// A one-link delegate proxy `grantor` grants to fsworker under
/// accept-once id `id`, presented by identity: one pending check, its
/// seal, under `grantor`'s key.
fn delegate_check(
    grantor: &(PrincipalId, GrantAuthority),
    rng: &mut StdRng,
    id: u64,
) -> Presentation {
    grant(
        &grantor.0,
        &grantor.1,
        RestrictionSet::new()
            .with(Restriction::grantee_one(p("fsworker")))
            .with(Restriction::AcceptOnce { id }),
        window(),
        id,
        rng,
    )
    .present_delegate()
}

/// Groups of 1–24 lone checks under twelve grantors' keys — six often
/// seen, so soon prepared, and six seldom, so seen once or never when a
/// group arrives — with forged seals, expired links and a check
/// presented twice at random places, settle as one group exactly as one
/// by one: verdicts and blamed indices, accept-once marks and cached
/// seals. The lone checks under prepared keys settle early — five or more
/// under one key in a one-key equation, the rest in lanes, a forged seal
/// among them included; the others settle through the key table.
#[test]
fn lone_checks_under_mixed_keys_settle_early_as_one_by_one() {
    let mut rng = StdRng::seed_from_u64(38);
    let grantors: Vec<(PrincipalId, GrantAuthority)> = (0..12)
        .map(|i| {
            let authority = GrantAuthority::Keypair(SigningKey::generate(&mut rng));
            (p(&format!("grantor-{i}")), authority)
        })
        .collect();
    let forger = SigningKey::generate(&mut rng);
    let mut resolver = MapResolver::new();
    for (name, authority) in &grantors {
        resolver.insert(name.clone(), authority.verifier());
    }
    let verifier = || Verifier::new(p("fs"), resolver.clone()).with_seal_cache(1 << 14);
    let (grouped, sequential) = (verifier(), verifier());
    let (mut grouped_replay, mut sequential_replay) = (ReplayCache::new(), ReplayCache::new());
    let ctx = ctx();
    let (mut early, mut refused_early, mut alone) = (0, 0, 0);
    let mut next_id = 5000;
    for round in 0..40 {
        let size = rng.gen_range(1..25);
        let mut presentations: Vec<Presentation> = Vec::with_capacity(size);
        while presentations.len() < size {
            next_id += 1;
            let grantor = if rng.gen_range(0..5) == 0 {
                rng.gen_range(6..12)
            } else {
                rng.gen_range(0..6)
            };
            let mut pres = delegate_check(&grantors[grantor], &mut rng, next_id);
            match rng.gen_range(0..10) {
                0 => {
                    let body = pres.certs[0].body_bytes();
                    pres.certs[0].seal = CertSeal::Ed25519(forger.sign(&body));
                }
                1 => pres.certs[0].validity = Validity::new(Timestamp(0), Timestamp(5)),
                2 if !presentations.is_empty() => {
                    pres = presentations[rng.gen_range(0..presentations.len())].clone();
                }
                _ => {}
            }
            presentations.push(pres);
        }
        let expect: Vec<_> = presentations
            .iter()
            .map(|pres| sequential.verify(pres, &ctx, &mut sequential_replay))
            .collect();
        let mut group: Vec<Prepared> = presentations
            .iter()
            .map(|pres| grouped.prepare(pres, ctx.now))
            .collect();
        grouped.settle(&mut group);
        for prepared in &group {
            match (prepared.lone_verdict, prepared.lone_key()) {
                (Some(verified), _) => {
                    early += 1;
                    refused_early += usize::from(!verified);
                }
                (None, Some(_)) => alone += 1,
                (None, None) => {}
            }
        }
        let got: Vec<_> = presentations
            .iter()
            .zip(&group)
            .map(|(pres, prepared)| grouped.finish(prepared, pres, &ctx, &mut grouped_replay))
            .collect();
        assert_eq!(got, expect, "round {round}");
        assert_eq!(
            marks(&grouped_replay),
            marks(&sequential_replay),
            "round {round}"
        );
        assert_eq!(
            grouped.seal_cache().unwrap().entries(),
            sequential.seal_cache().unwrap().entries(),
            "round {round}"
        );
    }
    assert!(
        early > 200 && refused_early > 20 && alone > 30,
        "{early} settled early ({refused_early} refused), {alone} alone"
    );
}
