//! Round-trip property tests for every wire message type.
//!
//! The invariant is canonicality: `decode(encode(m))` succeeds and
//! re-encodes to the *identical* bytes, for every variant, over real
//! cryptographic payloads (granted proxies, live presentations), both
//! cryptosystems, and varying collection shapes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_wire::{ErrorCode, Message};
use restricted_proxy::prelude::*;
use restricted_proxy::revocation;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000_000))
}

/// A granted proxy: symmetric or public-key authority, `depth`
/// derivation steps beyond the head certificate, `extra` restrictions.
fn proxy(seed: u64, public_key: bool, depth: usize, extra: u64) -> Proxy {
    let mut rng = rng(seed);
    let authority = if public_key {
        GrantAuthority::Keypair(proxy_crypto::ed25519::SigningKey::generate(&mut rng))
    } else {
        GrantAuthority::SharedKey(proxy_crypto::keys::SymmetricKey::generate(&mut rng))
    };
    let mut restrictions = RestrictionSet::new().with(Restriction::authorize_op(
        ObjectName::new("obj"),
        Operation::new("read"),
    ));
    for i in 0..extra {
        restrictions.push(Restriction::AcceptOnce { id: i });
    }
    let mut p = grant(
        &PrincipalId::new("alice"),
        &authority,
        restrictions,
        window(),
        seed,
        &mut rng,
    );
    for step in 0..depth {
        p = p
            .derive(
                RestrictionSet::new().with(Restriction::AcceptOnce {
                    id: 10_000 + step as u64,
                }),
                window(),
                seed + step as u64,
                &mut rng,
            )
            .expect("derive");
    }
    p
}

fn presentation(seed: u64, depth: usize) -> Presentation {
    proxy(seed, false, depth, 0).present_bearer([seed as u8; 32], &PrincipalId::new("fs"))
}

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn proxy_strategy() -> impl Strategy<Value = Proxy> {
    (0u64..50, any::<bool>(), 0usize..3, 0u64..4)
        .prop_map(|(seed, pk, depth, extra)| proxy(seed, pk, depth, extra))
}

fn presentations_strategy() -> impl Strategy<Value = Vec<Presentation>> {
    proptest::collection::vec(
        (0u64..50, 0usize..2).prop_map(|(seed, depth)| presentation(seed, depth)),
        0..3,
    )
}

fn validity_strategy() -> impl Strategy<Value = Validity> {
    (0u64..100, 101u64..10_000)
        .prop_map(|(from, until)| Validity::new(Timestamp(from), Timestamp(until)))
}

fn principal_strategy() -> impl Strategy<Value = PrincipalId> {
    prop_oneof![
        Just(p("alice")),
        Just(p("bob")),
        Just(p("bank")),
        Just(p("fs"))
    ]
}

fn authority(seed: u64, public_key: bool) -> GrantAuthority {
    let mut rng = rng(seed);
    if public_key {
        GrantAuthority::Keypair(proxy_crypto::ed25519::SigningKey::generate(&mut rng))
    } else {
        GrantAuthority::SharedKey(proxy_crypto::keys::SymmetricKey::generate(&mut rng))
    }
}

fn revocation_artifact(
    seed: u64,
    public_key: bool,
    serials: Vec<u64>,
    delta: bool,
) -> RevocationArtifact {
    let kind = if delta {
        revocation::ArtifactKind::Delta { base_epoch: seed }
    } else {
        revocation::ArtifactKind::Snapshot
    };
    RevocationArtifact::seal(
        p("authz"),
        seed + 1,
        kind,
        serials.into_iter().collect(),
        &authority(seed, public_key),
    )
}

fn membership_artifact(
    seed: u64,
    public_key: bool,
    adds: Vec<u64>,
    removes: Vec<u64>,
    delta: bool,
) -> MembershipArtifact {
    let digest = |n: u64| member_digest(&p(&format!("member-{n}")));
    let kind = if delta {
        revocation::ArtifactKind::Delta { base_epoch: seed }
    } else {
        revocation::ArtifactKind::Snapshot
    };
    let removes = if delta {
        removes.into_iter().map(digest).collect()
    } else {
        Vec::new()
    };
    MembershipArtifact::seal(
        GroupName::new(p("gs"), "staff"),
        seed + 1,
        kind,
        adds.into_iter().map(digest).collect(),
        removes,
        &authority(seed, public_key),
    )
}

fn revocation_update_strategy() -> impl Strategy<Value = Message> {
    proptest::collection::vec(
        (
            0u64..50,
            any::<bool>(),
            proptest::collection::vec(any::<u64>(), 0..40),
            any::<bool>(),
        ),
        0..3,
    )
    .prop_map(|specs| Message::RevocationUpdate {
        artifacts: specs
            .into_iter()
            .map(|(seed, pk, serials, delta)| revocation_artifact(seed, pk, serials, delta))
            .collect(),
    })
}

fn membership_update_strategy() -> impl Strategy<Value = Message> {
    proptest::collection::vec(
        (
            0u64..50,
            any::<bool>(),
            proptest::collection::vec(0u64..1000, 0..20),
            proptest::collection::vec(0u64..1000, 0..20),
            any::<bool>(),
        ),
        0..3,
    )
    .prop_map(|specs| Message::MembershipUpdate {
        artifacts: specs
            .into_iter()
            .map(|(seed, pk, adds, removes, delta)| {
                membership_artifact(seed, pk, adds, removes, delta)
            })
            .collect(),
    })
}

fn message_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        // 0x01 authz-query
        (
            principal_strategy(),
            presentations_strategy(),
            principal_strategy(),
            validity_strategy(),
            0u64..100,
        )
            .prop_map(|(client, presentations, end_server, validity, now)| {
                Message::AuthzQuery {
                    client,
                    presentations,
                    end_server,
                    operation: Operation::new("read"),
                    object: ObjectName::new("obj"),
                    validity,
                    now: Timestamp(now),
                }
            }),
        // 0x02 authz-grant
        proxy_strategy().prop_map(|proxy| Message::AuthzGrant { proxy }),
        // 0x03 group-query
        (
            principal_strategy(),
            proptest::collection::vec(prop_oneof![Just("staff"), Just("admins")], 0..4),
            validity_strategy(),
        )
            .prop_map(|(requester, groups, validity)| Message::GroupQuery {
                requester,
                groups: groups.into_iter().map(str::to_string).collect(),
                validity,
            }),
        // 0x04 group-grant
        proxy_strategy().prop_map(|proxy| Message::GroupGrant { proxy }),
        // 0x05 end-request
        (
            proptest::collection::vec(principal_strategy(), 0..3),
            presentations_strategy(),
            0u64..100,
            proptest::collection::vec((prop_oneof![Just("USD"), Just("pages")], 0u64..500), 0..3),
        )
            .prop_map(|(authenticated, presentations, now, amounts)| {
                Message::EndRequest {
                    operation: Operation::new("write"),
                    object: ObjectName::new("doc"),
                    authenticated,
                    presentations,
                    now: Timestamp(now),
                    amounts: amounts
                        .into_iter()
                        .map(|(c, v)| (Currency::new(c), v))
                        .collect(),
                }
            }),
        // 0x06 end-decision
        (
            proptest::collection::vec(principal_strategy(), 0..3),
            proptest::collection::vec(
                (
                    principal_strategy(),
                    prop_oneof![Just("staff"), Just("ops")]
                ),
                0..3
            ),
        )
            .prop_map(|(principals, groups)| Message::EndDecision {
                principals,
                groups: groups
                    .into_iter()
                    .map(|(s, n)| GroupName::new(s, n))
                    .collect(),
            }),
        // 0x07 check-write
        (
            principal_strategy(),
            principal_strategy(),
            1u64..1000,
            1u64..5000,
            validity_strategy()
        )
            .prop_map(|(purchaser, payee, check_no, amount, validity)| {
                Message::CheckWrite {
                    purchaser,
                    from_account: "acct".to_string(),
                    payee,
                    check_no,
                    currency: Currency::new("USD"),
                    amount,
                    validity,
                }
            }),
        // 0x08 check-written
        proxy_strategy().prop_map(|check| Message::CheckWritten { check }),
        // 0x09 check-deposit
        (
            proxy_strategy(),
            principal_strategy(),
            principal_strategy(),
            0u64..100
        )
            .prop_map(|(check, depositor, next_hop, now)| Message::CheckDeposit {
                check,
                depositor,
                to_account: "savings".to_string(),
                next_hop,
                now: Timestamp(now),
            }),
        // 0x0A check-settled
        (principal_strategy(), 1u64..1000, 1u64..5000).prop_map(|(payor, check_no, amount)| {
            Message::CheckSettled {
                payor,
                check_no,
                currency: Currency::new("USD"),
                amount,
            }
        }),
        // 0x0B check-forwarded
        (proxy_strategy(), principal_strategy())
            .prop_map(|(check, next_hop)| Message::CheckForwarded { check, next_hop }),
        // 0x0C check-endorse
        (proxy_strategy(), principal_strategy())
            .prop_map(|(check, next_hop)| Message::CheckEndorse { check, next_hop }),
        // 0x0D check-endorsed
        proxy_strategy().prop_map(|check| Message::CheckEndorsed { check }),
        // 0x0E check-certify
        (
            principal_strategy(),
            principal_strategy(),
            1u64..1000,
            1u64..5000,
            validity_strategy()
        )
            .prop_map(|(requester, payee, check_no, amount, validity)| {
                Message::CheckCertify {
                    requester,
                    account: "acct".to_string(),
                    check_no,
                    currency: Currency::new("USD"),
                    amount,
                    payee,
                    validity,
                }
            }),
        // 0x0F check-certified
        proxy_strategy().prop_map(|proxy| Message::CheckCertified { proxy }),
        // 0x10 revocation-fetch
        (principal_strategy(), any::<u64>())
            .prop_map(|(issuer, have_epoch)| { Message::RevocationFetch { issuer, have_epoch } }),
        // 0x11 revocation-update
        revocation_update_strategy(),
        // 0x12 membership-fetch
        (
            principal_strategy(),
            prop_oneof![Just("staff"), Just("ops")],
            any::<u64>()
        )
            .prop_map(|(requester, group, have_epoch)| Message::MembershipFetch {
                requester,
                group: group.to_string(),
                have_epoch,
            }),
        // 0x13 membership-update
        membership_update_strategy(),
        // 0x7F error
        (
            0u16..20,
            prop_oneof![Just(""), Just("denied"), Just("no such account")]
        )
            .prop_map(|(code, detail)| Message::Error {
                code: ErrorCode::from_u16(code),
                detail: detail.to_string(),
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode → encode is the identity on bytes, and the frame
    /// layer preserves the request id, for every message variant.
    #[test]
    fn round_trip_is_identity(msg in message_strategy(), request_id in any::<u64>()) {
        let body = msg.encode_body();
        let decoded = Message::decode_body(msg.msg_type(), &body).expect("decode own encoding");
        prop_assert_eq!(decoded.msg_type(), msg.msg_type());
        prop_assert_eq!(decoded.encode_body(), body.clone());

        let frame = msg.to_frame(request_id);
        let (id, from_frame) = Message::from_frame(&frame).expect("frame round trip");
        prop_assert_eq!(id, request_id);
        prop_assert_eq!(from_frame.encode_body(), body);
    }

    /// Arbitrary bytes never panic the body decoder, for any type byte.
    #[test]
    fn decode_body_never_panics(
        msg_type in any::<u8>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let _ = Message::decode_body(msg_type, &bytes);
    }

    /// Arbitrary bytes never panic the frame decoder.
    #[test]
    fn frame_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let _ = Message::from_frame(&bytes);
    }

    /// Any single bit flip anywhere in a frame is rejected with a typed
    /// error — the CRC (or a stricter check upstream of it) catches it.
    #[test]
    fn single_bit_flip_always_rejected(msg in message_strategy(), pos in any::<u32>(), bit in 0u8..8) {
        let mut frame = msg.to_frame(9);
        let idx = pos as usize % frame.len();
        frame[idx] ^= 1 << bit;
        prop_assert!(Message::from_frame(&frame).is_err());
    }
}

/// An Ed25519 proxy key crosses the wire as its 32-byte seed, and the
/// decoder keeps just that: `SigningKey` expands (hash, fixed-base
/// multiplication, inversion) on first use, which a server that only
/// verifies and forwards the check never reaches. Nothing here asks the
/// decoded key for its public half, and it must not need to: the bytes
/// re-encode identically from the seed alone, and the first thing that
/// does use the key — a possession proof — comes out right.
#[test]
fn ed25519_proxy_key_round_trips_unexpanded_and_still_proves_possession() {
    let mut rng = rng(17);
    let alice = proxy_crypto::ed25519::SigningKey::generate(&mut rng);
    let verifier = Verifier::new(
        p("fs"),
        MapResolver::new().with(
            p("alice"),
            GrantorVerifier::PublicKey(alice.verifying_key()),
        ),
    );
    let check = grant(
        &p("alice"),
        &GrantAuthority::Keypair(alice),
        RestrictionSet::new(),
        window(),
        1,
        &mut rng,
    )
    .derive(RestrictionSet::new(), window(), 2, &mut rng)
    .expect("derive");
    assert!(matches!(check.key, GrantAuthority::Keypair(_)));

    let messages = [
        Message::CheckWritten {
            check: check.clone(),
        },
        Message::CheckDeposit {
            check,
            depositor: p("shop"),
            to_account: "shop".to_owned(),
            next_hop: p("bank"),
            now: Timestamp(3),
        },
    ];
    for msg in messages {
        let body = msg.encode_body();
        let decoded = Message::decode_body(msg.msg_type(), &body).expect("decode own encoding");
        assert_eq!(decoded.encode_body(), body, "{}", msg.kind());
        // So does a clone taken while the key is still unexpanded.
        assert_eq!(decoded.clone().encode_body(), body, "{}", msg.kind());
        let (Message::CheckWritten { check } | Message::CheckDeposit { check, .. }) = decoded
        else {
            unreachable!("decoded as another variant");
        };
        let ctx = RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("obj"))
            .at(Timestamp(3));
        let presentation = check.present_bearer([9u8; 32], &p("fs"));
        let mut replay = ReplayCache::new();
        let verified = verifier
            .verify(&presentation, &ctx, &mut replay)
            .expect("a decoded proxy key still proves possession");
        assert_eq!(verified.chain_len, 2);
    }
}

/// CRC-32/ISO-HDLC one bit at a time, with no table: the reference the
/// slicing-by-8 `crc32` is held to, so a bad table build shows here.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

proptest! {
    /// Slicing-by-8 CRC agrees with the table-free bitwise reference on
    /// arbitrary inputs, one-shot.
    #[test]
    fn crc_sliced_matches_bytewise(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(proxy_wire::crc::crc32(&data), crc32_bitwise(&data));
    }
}
