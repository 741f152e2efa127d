//! Property-based tests for the restricted-proxy core.
//!
//! The central invariant is the paper's §2: a derived proxy is *never* more
//! powerful than its parent — restrictions accumulate monotonically.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_crypto::keys::SymmetricKey;
use restricted_proxy::encode::{Decoder, Encoder};
use restricted_proxy::prelude::*;

fn principal_strategy() -> impl Strategy<Value = PrincipalId> {
    prop_oneof![
        Just(PrincipalId::new("alice")),
        Just(PrincipalId::new("bob")),
        Just(PrincipalId::new("fs")),
        Just(PrincipalId::new("mail")),
        Just(PrincipalId::new("gs")),
    ]
}

fn group_strategy() -> impl Strategy<Value = GroupName> {
    (
        principal_strategy(),
        prop_oneof![Just("staff"), Just("admins")],
    )
        .prop_map(|(server, name)| GroupName::new(server, name))
}

fn currency_strategy() -> impl Strategy<Value = Currency> {
    prop_oneof![Just(Currency::new("USD")), Just(Currency::new("pages"))]
}

fn leaf_restriction_strategy() -> impl Strategy<Value = Restriction> {
    prop_oneof![
        (
            proptest::collection::vec(principal_strategy(), 1..4),
            1u32..3
        )
            .prop_map(|(delegates, required)| {
                let required = required.min(delegates.len() as u32);
                Restriction::Grantee {
                    delegates,
                    required,
                }
            }),
        (proptest::collection::vec(group_strategy(), 1..3), 1u32..2)
            .prop_map(|(groups, required)| Restriction::ForUseByGroup { groups, required }),
        proptest::collection::vec(principal_strategy(), 1..3)
            .prop_map(|servers| Restriction::IssuedFor { servers }),
        (currency_strategy(), 0u64..1000)
            .prop_map(|(currency, limit)| Restriction::Quota { currency, limit }),
        prop_oneof![Just("fileA"), Just("fileB")].prop_map(|o| {
            Restriction::Authorized {
                entries: vec![AuthorizedEntry::ops(
                    ObjectName::new(o),
                    vec![Operation::new("read"), Operation::new("write")],
                )],
            }
        }),
        proptest::collection::vec(group_strategy(), 0..3)
            .prop_map(|groups| Restriction::GroupMembership { groups }),
        (0u64..100).prop_map(|id| Restriction::AcceptOnce { id }),
    ]
}

fn restriction_strategy() -> impl Strategy<Value = Restriction> {
    prop_oneof![
        4 => leaf_restriction_strategy(),
        1 => (
            proptest::collection::vec(principal_strategy(), 1..3),
            proptest::collection::vec(leaf_restriction_strategy(), 0..3),
        )
            .prop_map(|(servers, restrictions)| Restriction::LimitRestriction {
                servers,
                restrictions,
            }),
    ]
}

fn restriction_set_strategy(max: usize) -> impl Strategy<Value = RestrictionSet> {
    proptest::collection::vec(restriction_strategy(), 0..max).prop_map(RestrictionSet::from_vec)
}

fn ctx_strategy() -> impl Strategy<Value = RequestContext> {
    (
        principal_strategy(),
        prop_oneof![Just("read"), Just("write")],
        prop_oneof![Just("fileA"), Just("fileB")],
        proptest::collection::vec(principal_strategy(), 0..3),
        proptest::collection::vec(group_strategy(), 0..3),
        proptest::collection::vec((currency_strategy(), 0u64..2000), 0..2),
    )
        .prop_map(|(server, op, obj, authenticated, groups, amounts)| {
            let mut ctx = RequestContext::new(server, Operation::new(op), ObjectName::new(obj))
                .at(Timestamp(10));
            ctx.authenticated = authenticated;
            ctx.asserted_groups = groups;
            ctx.amounts = amounts;
            ctx
        })
}

proptest! {
    /// Monotonicity: any request a derived (more-restricted) proxy allows,
    /// the parent proxy also allows. Equivalently: deriving can only shrink
    /// authority.
    #[test]
    fn derived_proxy_never_exceeds_parent(
        parent_set in restriction_set_strategy(4),
        child_set in restriction_set_strategy(3),
        ctx in ctx_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = SymmetricKey::generate(&mut rng);
        let grantor = PrincipalId::new("alice");
        let auth = GrantAuthority::SharedKey(shared.clone());
        let validity = Validity::new(Timestamp(0), Timestamp(1000));
        let parent = grant(&grantor, &auth, parent_set, validity, 1, &mut rng);
        let child = parent.derive(child_set, validity, 2, &mut rng).unwrap();

        let resolver = MapResolver::new()
            .with(grantor.clone(), GrantorVerifier::SharedKey(shared));
        let verifier = Verifier::new(ctx.server.clone(), resolver);

        let child_pres = child.present_bearer([1u8; 32], &ctx.server);
        let parent_pres = parent.present_bearer([2u8; 32], &ctx.server);
        // Fresh replay guards so accept-once state doesn't couple the runs.
        let child_ok = verifier
            .verify(&child_pres, &ctx, &mut ReplayCache::new())
            .is_ok();
        let parent_ok = verifier
            .verify(&parent_pres, &ctx, &mut ReplayCache::new())
            .is_ok();
        prop_assert!(!child_ok || parent_ok,
            "child allowed a request the parent denies");
    }

    /// The additive union itself is monotone: adding restrictions can turn
    /// an allow into a deny but never a deny into an allow.
    #[test]
    fn union_is_monotone(
        a in restriction_set_strategy(4),
        b in restriction_set_strategy(4),
        ctx in ctx_strategy(),
    ) {
        let grantor = PrincipalId::new("alice");
        let u = a.union(&b);
        let a_ok = a
            .evaluate(&ctx, &grantor, Timestamp(1000), &mut ReplayCache::new())
            .is_ok();
        let u_ok = u
            .evaluate(&ctx, &grantor, Timestamp(1000), &mut ReplayCache::new())
            .is_ok();
        prop_assert!(!u_ok || a_ok, "union allowed what a component denies");
    }

    /// Union is commutative with respect to evaluation outcomes.
    #[test]
    fn union_evaluation_commutes(
        a in restriction_set_strategy(3),
        b in restriction_set_strategy(3),
        ctx in ctx_strategy(),
    ) {
        let grantor = PrincipalId::new("alice");
        let ab = a.union(&b);
        let ba = b.union(&a);
        let r1 = ab.evaluate(&ctx, &grantor, Timestamp(1000), &mut ReplayCache::new());
        let r2 = ba.evaluate(&ctx, &grantor, Timestamp(1000), &mut ReplayCache::new());
        prop_assert_eq!(r1.is_ok(), r2.is_ok());
    }

    /// Restriction sets survive the wire.
    #[test]
    fn restriction_set_round_trips(set in restriction_set_strategy(6)) {
        let mut e = Encoder::new();
        set.encode_into(&mut e);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let decoded = RestrictionSet::decode_from(&mut d).unwrap();
        d.finish().unwrap();
        prop_assert_eq!(decoded, set);
    }

    /// Certificates and presentations survive the wire, and a decoded
    /// presentation still verifies.
    #[test]
    fn presentation_round_trips_and_verifies(
        set in restriction_set_strategy(3),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = SymmetricKey::generate(&mut rng);
        let grantor = PrincipalId::new("alice");
        let fs = PrincipalId::new("fs");
        let auth = GrantAuthority::SharedKey(shared.clone());
        let proxy = grant(
            &grantor,
            &auth,
            set,
            Validity::new(Timestamp(0), Timestamp(1000)),
            1,
            &mut rng,
        );
        let pres = proxy.present_bearer([9u8; 32], &fs);
        let decoded = Presentation::decode(&pres.encode()).unwrap();
        prop_assert_eq!(&decoded, &pres);
        // Whatever the restrictions, seal + possession checks must pass
        // (restriction evaluation may legitimately deny).
        let resolver = MapResolver::new()
            .with(grantor, GrantorVerifier::SharedKey(shared));
        let verifier = Verifier::new(fs.clone(), resolver);
        let ctx = RequestContext::new(fs, Operation::new("read"), ObjectName::new("fileA"))
            .at(Timestamp(10));
        match verifier.verify(&decoded, &ctx, &mut ReplayCache::new()) {
            Ok(_) | Err(VerifyError::Denied(_)) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
        }
    }

    /// Tampering with any byte of a certificate on the wire breaks either
    /// decoding or seal verification — never yields a different valid proxy.
    #[test]
    fn certificate_tampering_never_verifies(
        set in restriction_set_strategy(3),
        seed in any::<u64>(),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = SymmetricKey::generate(&mut rng);
        let grantor = PrincipalId::new("alice");
        let fs = PrincipalId::new("fs");
        let auth = GrantAuthority::SharedKey(shared.clone());
        let proxy = grant(
            &grantor,
            &auth,
            set,
            Validity::new(Timestamp(0), Timestamp(1000)),
            1,
            &mut rng,
        );
        let pres = proxy.present_bearer([3u8; 32], &fs);
        let mut wire = pres.certs[0].encode();
        let idx = flip_byte % wire.len();
        wire[idx] ^= 1 << flip_bit;
        let Ok(tampered) = restricted_proxy::cert::Certificate::decode(&wire) else {
            return Ok(()); // decoding rejected the tampering — fine
        };
        if tampered == pres.certs[0] {
            return Ok(()); // flip landed in encoding slack? (should not happen)
        }
        let mut tampered_pres = pres.clone();
        tampered_pres.certs[0] = tampered;
        let resolver = MapResolver::new()
            .with(grantor, GrantorVerifier::SharedKey(shared));
        let verifier = Verifier::new(fs.clone(), resolver);
        let ctx = RequestContext::new(fs, Operation::new("read"), ObjectName::new("fileA"))
            .at(Timestamp(10));
        let result = verifier.verify(&tampered_pres, &ctx, &mut ReplayCache::new());
        prop_assert!(
            result.is_err(),
            "tampered certificate verified: {result:?}"
        );
    }
}
