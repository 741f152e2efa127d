//! Deterministic corpus tests: the exact hostile inputs the wire layer
//! must reject with *typed* errors — truncations at every boundary,
//! oversized declared lengths, limit overflows — and proof that limits
//! fire before any body-proportional allocation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_wire::frame::encode_frame;
use proxy_wire::{
    ErrorCode, Message, WireError, MAX_ARTIFACTS, MAX_CHAIN_DEPTH, MAX_FRAME_BODY,
    MAX_PRESENTATIONS, MAX_RESTRICTIONS,
};
use restricted_proxy::encode::{DecodeError, Encoder};
use restricted_proxy::prelude::*;
use restricted_proxy::revocation::ArtifactKind;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000_000))
}

fn sample_proxy(extra_restrictions: u64, depth: usize) -> Proxy {
    let mut rng = StdRng::seed_from_u64(7);
    let shared = proxy_crypto::keys::SymmetricKey::generate(&mut rng);
    let mut restrictions = RestrictionSet::new();
    for i in 0..extra_restrictions {
        restrictions.push(Restriction::AcceptOnce { id: i });
    }
    let mut proxy = grant(
        &p("alice"),
        &GrantAuthority::SharedKey(shared),
        restrictions,
        window(),
        1,
        &mut rng,
    );
    for step in 0..depth {
        proxy = proxy
            .derive(RestrictionSet::new(), window(), 100 + step as u64, &mut rng)
            .expect("derive");
    }
    proxy
}

/// One representative of every assigned message type. Adding a variant
/// without extending this list fails the exhaustiveness assertion below.
fn sample_messages() -> Vec<Message> {
    let proxy = sample_proxy(1, 0);
    let presentation = proxy.present_bearer([9u8; 32], &p("fs"));
    vec![
        Message::AuthzQuery {
            client: p("alice"),
            presentations: vec![presentation.clone()],
            end_server: p("fs"),
            operation: Operation::new("read"),
            object: ObjectName::new("obj"),
            validity: window(),
            now: Timestamp(5),
        },
        Message::AuthzGrant {
            proxy: proxy.clone(),
        },
        Message::GroupQuery {
            requester: p("alice"),
            groups: vec!["staff".to_string()],
            validity: window(),
        },
        Message::GroupGrant {
            proxy: proxy.clone(),
        },
        Message::EndRequest {
            operation: Operation::new("read"),
            object: ObjectName::new("obj"),
            authenticated: vec![p("alice")],
            presentations: vec![presentation],
            now: Timestamp(5),
            amounts: vec![(Currency::new("USD"), 3)],
        },
        Message::EndDecision {
            principals: vec![p("alice")],
            groups: vec![GroupName::new(p("gs"), "staff")],
        },
        Message::CheckWrite {
            purchaser: p("alice"),
            from_account: "acct".to_string(),
            payee: p("bob"),
            check_no: 1,
            currency: Currency::new("USD"),
            amount: 10,
            validity: window(),
        },
        Message::CheckWritten {
            check: proxy.clone(),
        },
        Message::CheckDeposit {
            check: proxy.clone(),
            depositor: p("bob"),
            to_account: "savings".to_string(),
            next_hop: p("bank"),
            now: Timestamp(5),
        },
        Message::CheckSettled {
            payor: p("alice"),
            check_no: 1,
            currency: Currency::new("USD"),
            amount: 10,
        },
        Message::CheckForwarded {
            check: proxy.clone(),
            next_hop: p("bank"),
        },
        Message::CheckEndorse {
            check: proxy.clone(),
            next_hop: p("bank"),
        },
        Message::CheckEndorsed {
            check: proxy.clone(),
        },
        Message::CheckCertify {
            requester: p("alice"),
            account: "acct".to_string(),
            check_no: 1,
            currency: Currency::new("USD"),
            amount: 10,
            payee: p("bob"),
            validity: window(),
        },
        Message::CheckCertified { proxy },
        Message::RevocationFetch {
            issuer: p("authz"),
            have_epoch: 3,
        },
        Message::RevocationUpdate {
            artifacts: vec![sample_revocation_artifact()],
        },
        Message::MembershipFetch {
            requester: p("mirror"),
            group: "staff".to_string(),
            have_epoch: 1,
        },
        Message::MembershipUpdate {
            artifacts: vec![sample_membership_artifact()],
        },
        Message::Error {
            code: ErrorCode::NotAuthorized,
            detail: "no".to_string(),
        },
    ]
}

fn sample_authority() -> GrantAuthority {
    let mut rng = StdRng::seed_from_u64(11);
    GrantAuthority::SharedKey(proxy_crypto::keys::SymmetricKey::generate(&mut rng))
}

fn sample_revocation_artifact() -> RevocationArtifact {
    RevocationArtifact::seal(
        p("authz"),
        2,
        ArtifactKind::Delta { base_epoch: 1 },
        [1u64, 7, 1 << 20].into_iter().collect(),
        &sample_authority(),
    )
}

fn sample_membership_artifact() -> MembershipArtifact {
    MembershipArtifact::seal(
        GroupName::new(p("gs"), "staff"),
        1,
        ArtifactKind::Snapshot,
        vec![member_digest(&p("alice")), member_digest(&p("bob"))],
        vec![],
        &sample_authority(),
    )
}

/// Encodes a `RevocationUpdate` holding one hand-built artifact whose
/// serial-set bytes are supplied by `serials` — the hook every hostile
/// container entry below uses. The seal is garbage: decode must reject
/// the *structure* before anyone gets as far as seal verification.
fn hostile_revocation_frame(
    epoch: u64,
    base_epoch: u64,
    serials: impl FnOnce(&mut Encoder),
) -> Vec<u8> {
    let mut body = Encoder::new();
    body.bytes(b"proxy-aa revocation artifact v1")
        .str("authz")
        .u64(epoch)
        .u8(1) // delta
        .u64(base_epoch);
    serials(&mut body);
    let mut e = Encoder::new();
    e.count(1).bytes(&body.finish()).u8(0).raw(&[0u8; 32]);
    encode_frame(0x11, 1, &e.finish())
}

#[test]
fn every_assigned_type_round_trips() {
    let samples = sample_messages();
    let mut types: Vec<u8> = samples.iter().map(Message::msg_type).collect();
    types.sort_unstable();
    types.dedup();
    assert_eq!(types.len(), 20, "one sample per assigned message type");
    for msg in samples {
        let frame = msg.to_frame(77);
        let (id, decoded) =
            Message::from_frame(&frame).unwrap_or_else(|e| panic!("{}: {e:?}", msg.kind()));
        assert_eq!(id, 77);
        assert_eq!(decoded.encode_body(), msg.encode_body(), "{}", msg.kind());
    }
}

#[test]
fn truncation_at_every_boundary_is_typed() {
    for msg in sample_messages() {
        let frame = msg.to_frame(1);
        for cut in 0..frame.len() {
            // Every prefix fails with a typed error; none may panic.
            assert!(
                Message::from_frame(&frame[..cut]).is_err(),
                "{} truncated at {cut} must not decode",
                msg.kind()
            );
        }
    }
}

#[test]
fn oversized_declared_body_rejected_from_header() {
    let msg = &sample_messages()[0];
    let mut frame = msg.to_frame(1);
    frame[14..18].copy_from_slice(&(MAX_FRAME_BODY + 1).to_le_bytes());
    assert_eq!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::FrameTooLarge {
            len: MAX_FRAME_BODY + 1,
            max: MAX_FRAME_BODY
        }
    );
}

#[test]
fn unknown_message_type_rejected() {
    let frame = encode_frame(0x60, 1, b"");
    assert_eq!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::UnknownMessageType(0x60)
    );
}

#[test]
fn crc_mismatch_rejected() {
    let msg = &sample_messages()[0];
    let mut frame = msg.to_frame(1);
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    assert!(matches!(
        Message::from_frame(&frame),
        Err(WireError::BadCrc { .. })
    ));
}

#[test]
fn chain_depth_limit_enforced() {
    // MAX_CHAIN_DEPTH certs is fine; one more is a typed rejection.
    let deep = sample_proxy(0, MAX_CHAIN_DEPTH - 1);
    assert_eq!(deep.certs.len(), MAX_CHAIN_DEPTH);
    let frame = Message::AuthzGrant { proxy: deep }.to_frame(1);
    assert!(Message::from_frame(&frame).is_ok());

    let over = sample_proxy(0, MAX_CHAIN_DEPTH);
    let frame = Message::AuthzGrant { proxy: over }.to_frame(1);
    assert_eq!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::TooManyItems {
            what: "certificates in chain",
            count: MAX_CHAIN_DEPTH + 1,
            max: MAX_CHAIN_DEPTH
        }
    );
}

#[test]
fn restriction_count_limit_enforced() {
    let over = sample_proxy(MAX_RESTRICTIONS as u64 + 1, 0);
    let frame = Message::AuthzGrant { proxy: over }.to_frame(1);
    match Message::from_frame(&frame).unwrap_err() {
        WireError::TooManyItems { what, count, max } => {
            assert_eq!(what, "restrictions per certificate");
            assert_eq!(count, MAX_RESTRICTIONS + 1);
            assert_eq!(max, MAX_RESTRICTIONS);
        }
        other => panic!("expected TooManyItems, got {other:?}"),
    }
}

#[test]
fn presentation_count_limit_enforced() {
    let proxy = sample_proxy(0, 0);
    let presentation = proxy.present_bearer([1u8; 32], &p("fs"));
    let msg = Message::AuthzQuery {
        client: p("alice"),
        presentations: vec![presentation; MAX_PRESENTATIONS + 1],
        end_server: p("fs"),
        operation: Operation::new("read"),
        object: ObjectName::new("obj"),
        validity: window(),
        now: Timestamp(5),
    };
    let frame = msg.to_frame(1);
    assert_eq!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::TooManyItems {
            what: "presentations",
            count: MAX_PRESENTATIONS + 1,
            max: MAX_PRESENTATIONS
        }
    );
}

#[test]
fn empty_proxy_chain_rejected() {
    // Hand-build an authz-grant body with zero certificates.
    let mut e = restricted_proxy::encode::Encoder::new();
    e.count(0).u8(0).raw(&[0u8; 32]);
    let frame = encode_frame(0x02, 1, &e.finish());
    assert_eq!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::Decode(DecodeError::InvalidValue("empty certificate chain"))
    );
}

#[test]
fn trailing_bytes_after_body_rejected() {
    let msg = Message::Error {
        code: ErrorCode::BadRequest,
        detail: String::new(),
    };
    let mut body = msg.encode_body();
    body.push(0);
    let frame = encode_frame(msg.msg_type(), 1, &body);
    assert_eq!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::Decode(DecodeError::TrailingBytes(1))
    );
}

#[test]
fn truncated_bitmap_container_rejected() {
    // A bitmap container must carry all 1024 words; declaring one and
    // supplying a single word is a truncation, not a short bitmap.
    let frame = hostile_revocation_frame(2, 1, |e| {
        e.count(1).u64(0).u8(2).u64(0xFFFF);
    });
    assert!(matches!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::Decode(_)
    ));
}

#[test]
fn overlapping_run_containers_rejected() {
    // Runs [0..=5] and [3..=5] overlap; canonical runs are sorted,
    // disjoint, and non-adjacent, so this must fail closed.
    let frame = hostile_revocation_frame(2, 1, |e| {
        e.count(1).u64(0).u8(1).count(2).u16(0).u16(5).u16(3).u16(2);
    });
    assert_eq!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::Decode(DecodeError::InvalidValue(
            "run containers overlap or are unsorted"
        ))
    );
}

#[test]
fn epoch_regression_delta_rejected() {
    // epoch 1 on a delta claiming base epoch 5: the artifact runs time
    // backwards and is rejected before any state is touched.
    let frame = hostile_revocation_frame(1, 5, |e| {
        e.count(0);
    });
    assert_eq!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::Decode(DecodeError::InvalidValue("delta epoch not after its base"))
    );
}

#[test]
fn artifact_count_limit_enforced() {
    let artifacts = vec![sample_revocation_artifact(); MAX_ARTIFACTS + 1];
    let frame = Message::RevocationUpdate { artifacts }.to_frame(1);
    assert_eq!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::TooManyItems {
            what: "revocation artifacts",
            count: MAX_ARTIFACTS + 1,
            max: MAX_ARTIFACTS
        }
    );
}

#[test]
fn unsorted_membership_digests_rejected() {
    // The canonical digest list is strictly increasing; an attacker
    // reordering (or duplicating) digests must be rejected even though
    // the seal is never checked at the wire layer.
    let ok = sample_membership_artifact();
    let mut e = Encoder::new();
    e.count(1);
    // Re-encode the artifact body with the two digests swapped.
    let mut digests = ok.adds.clone();
    digests.reverse();
    let mut body = Encoder::new();
    body.bytes(b"proxy-aa membership artifact v1")
        .str("gs")
        .str("staff")
        .u64(1)
        .u8(0)
        .count(digests.len());
    for d in &digests {
        body.raw(d);
    }
    body.count(0);
    e.bytes(&body.finish()).u8(0).raw(&[0u8; 32]);
    let frame = encode_frame(0x13, 1, &e.finish());
    assert!(matches!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::Decode(DecodeError::InvalidValue(_))
    ));
}

#[test]
fn empty_validity_window_rejected() {
    let msg = Message::GroupQuery {
        requester: p("alice"),
        groups: vec![],
        validity: window(),
    };
    let mut body = msg.encode_body();
    // The validity window is the trailing 16 bytes; make from == until.
    let n = body.len();
    body.copy_within(n - 16..n - 8, n - 8);
    let frame = encode_frame(msg.msg_type(), 1, &body);
    assert_eq!(
        Message::from_frame(&frame).unwrap_err(),
        WireError::Decode(DecodeError::InvalidValue("empty validity window"))
    );
}
