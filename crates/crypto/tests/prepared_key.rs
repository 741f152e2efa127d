//! The prepared verification path against its reference.
//!
//! `PreparedKey::verify` (split scalars, kept tables) and
//! `DecompressedKey::verify` must return the verdict of
//! `VerifyingKey::verify` on every input, including the ones a hostile
//! peer picks: keys of small order, non-canonical encodings, mangled `R`,
//! `R` or `A` off by a point of small order, `s ≥ ℓ`. That verdict in
//! turn must be the one of the references no change to a lone check can
//! move: decompressing `R` and testing the cofactored equation
//! `[8]([s]B + [k](−A) − R) = O` (RFC 8032 §5.1.7), the batch equation,
//! and a prepared key's one-key equation.

use std::sync::OnceLock;

use proptest::prelude::*;

use proxy_crypto::ed25519::edwards::{Point, PreparedPoint};
use proxy_crypto::ed25519::scalar::{Scalar, L};
use proxy_crypto::ed25519::{verify_batch, PreparedKey, Signature, SigningKey, VerifyingKey};
use proxy_crypto::sha512::Sha512;

fn from_hex<const N: usize>(hex: &str) -> [u8; N] {
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    bytes.try_into().unwrap()
}

/// The lone check spelled out the long way: decompress `A` and `R`,
/// refuse `s ≥ ℓ`, and test that `[s]B + [k](−A)` and `R` differ by a
/// point of order dividing 8.
fn decompress_and_compare(key: &VerifyingKey, message: &[u8], signature: &Signature) -> bool {
    let r_bytes: [u8; 32] = signature.0[..32].try_into().unwrap();
    let s_bytes: [u8; 32] = signature.0[32..].try_into().unwrap();
    let (Ok(a), Ok(r), Some(s)) = (
        Point::decompress(key.as_bytes()),
        Point::decompress(&r_bytes),
        Scalar::from_canonical_bytes(&s_bytes),
    ) else {
        return false;
    };
    let mut h = Sha512::new();
    h.update(&r_bytes);
    h.update(key.as_bytes());
    h.update(message);
    let k = Scalar::from_bytes_mod_order_wide(&h.finalize());
    // Tables built per call: no path under test reads them.
    Point::double_scalar_mul(&s, &Point::basepoint(), &k, &a.neg())
        .add(&r.neg())
        .mul_scalar(&Scalar::from_u64(8))
        .is_identity()
}

/// The message of the honest item each verdict is batched beside.
const HONEST_MESSAGE: &[u8] = b"an honest neighbour";

fn honest() -> &'static (VerifyingKey, Signature) {
    static HONEST: OnceLock<(VerifyingKey, Signature)> = OnceLock::new();
    HONEST.get_or_init(|| {
        let sk = SigningKey::from_seed(&[0x5a; 32]);
        (sk.verifying_key(), sk.sign(HONEST_MESSAGE))
    })
}

/// The verdict every path agrees on; panics when they do not.
/// `None` when the key has no curve point, which no path accepts.
fn verdict(key: &VerifyingKey, message: &[u8], signature: &Signature) -> Option<bool> {
    let reference = key.verify(message, signature).is_ok();
    assert_eq!(
        decompress_and_compare(key, message, signature),
        reference,
        "decompressing and comparing disagrees"
    );
    // The batch multiplies A by z·k mod ℓ; the factor 8 makes that the
    // same equation under a key with a part of small order too.
    let (honest_key, honest_sig) = honest();
    assert_eq!(
        verify_batch(&[
            (HONEST_MESSAGE, honest_sig, honest_key),
            (message, signature, key)
        ])
        .is_ok(),
        reference,
        "the batch disagrees"
    );
    let Ok(decompressed) = key.decompress() else {
        assert!(!reference, "accepted under a key that is no point");
        return None;
    };
    assert_eq!(
        decompressed.verify(message, signature).is_ok(),
        reference,
        "decompressed path disagrees"
    );
    let prepared = PreparedKey::new(&decompressed);
    assert_eq!(
        prepared.verify(message, signature).is_ok(),
        reference,
        "prepared path disagrees"
    );
    assert_eq!(
        prepared.holds_all(&[(message, signature)]),
        reference,
        "the one-key equation disagrees"
    );
    Some(reference)
}

/// `s + ℓ` as 32 little-endian bytes: the same residue, non-canonical.
/// Fits, because `s < ℓ < 2²⁵³`.
fn plus_l(s: &[u8; 32]) -> [u8; 32] {
    let mut out = [0u8; 32];
    let mut carry = 0u128;
    for i in 0..4 {
        let limb = u64::from_le_bytes(s[8 * i..8 * i + 8].try_into().unwrap());
        let sum = u128::from(limb) + u128::from(L[i]) + carry;
        out[8 * i..8 * i + 8].copy_from_slice(&(sum as u64).to_le_bytes());
        carry = sum >> 64;
    }
    assert_eq!(carry, 0);
    out
}

/// `(R, s)` with `R = [s]B`: accepted under a key `A` exactly when
/// `[8][k]A` is the identity — under every key of small order.
fn keyless_signature(s: u64) -> Signature {
    let s = Scalar::from_u64(s);
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(&Point::mul_basepoint(&s).compress());
    sig[32..].copy_from_slice(&s.to_bytes());
    Signature(sig)
}

proptest! {
    #[test]
    fn prepared_verdicts_match_the_reference(seed in any::<[u8; 32]>(),
                                             msg in proptest::collection::vec(any::<u8>(), 0..96),
                                             mutation in 0u8..6,
                                             at in any::<usize>(),
                                             bit in 0u8..8) {
        let sk = SigningKey::from_seed(&seed);
        let mut key = sk.verifying_key();
        let mut msg = msg;
        let mut sig = sk.sign(&msg);
        match mutation {
            // Untouched: must be accepted.
            0 => {}
            // One bit of R.
            1 => sig.0[at % 32] ^= 1 << bit,
            // One bit of s; and s + ℓ, the same residue made non-canonical.
            2 => sig.0[32 + at % 32] ^= 1 << bit,
            3 => {
                let s: [u8; 32] = sig.0[32..].try_into().unwrap();
                sig.0[32..].copy_from_slice(&plus_l(&s));
            }
            // One bit of the message (or one more byte, when empty).
            4 => {
                if msg.is_empty() {
                    msg.push(bit);
                } else {
                    let i = at % msg.len();
                    msg[i] ^= 1 << bit;
                }
            }
            // One bit of the key.
            _ => {
                let mut bytes = *key.as_bytes();
                bytes[at % 32] ^= 1 << bit;
                key = VerifyingKey::from_bytes(bytes);
            }
        }
        let accepted = verdict(&key, &msg, &sig);
        prop_assert_eq!(accepted == Some(true), mutation == 0);
    }

    #[test]
    fn torsion_in_r_or_a_gets_the_reference_verdict(a in any::<[u8; 32]>(),
                                                    r in any::<[u8; 32]>(),
                                                    msg in proptest::collection::vec(any::<u8>(), 0..64),
                                                    r_torsion in 0usize..8,
                                                    a_torsion in 0usize..8,
                                                    tweak in 0u8..4) {
        // Signed by hand under the secret scalar a, with the public key
        // A = [a]B + T_A and R = [r]B + T_R: the lone equation is off by
        // T_R + [k]T_A, a point of small order, which the factor 8 takes
        // out. Then s made non-canonical, s + 1, or R made undecodable.
        let torsion = |i: usize| Point::decompress(&from_hex(SMALL_ORDER[i])).unwrap();
        let a = Scalar::from_bytes_mod_order(&a);
        let r = Scalar::from_bytes_mod_order(&r);
        let key = VerifyingKey::from_bytes(
            Point::mul_basepoint(&a).add(&torsion(a_torsion)).compress(),
        );
        let mut r_bytes = Point::mul_basepoint(&r).add(&torsion(r_torsion)).compress();
        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(key.as_bytes());
        h.update(&msg);
        let k = Scalar::from_bytes_mod_order_wide(&h.finalize());
        let mut s = k.mul_add(a, r).to_bytes();
        match tweak {
            0 => {}
            1 => s = plus_l(&s),
            2 => s = Scalar::from_canonical_bytes(&s).unwrap().add(Scalar::ONE).to_bytes(),
            _ => r_bytes = [2u8; 32],
        }
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(&s);
        prop_assert_eq!(verdict(&key, &msg, &Signature(sig)), Some(tweak == 0));
    }

    #[test]
    fn random_bytes_get_one_verdict(key in any::<[u8; 32]>(),
                                    r in any::<[u8; 32]>(),
                                    s in any::<[u8; 32]>(),
                                    msg in proptest::collection::vec(any::<u8>(), 0..32)) {
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r);
        sig[32..].copy_from_slice(&s);
        prop_assert_ne!(verdict(&VerifyingKey::from_bytes(key), &msg, &Signature(sig)), Some(true));
    }

    #[test]
    fn split_chain_matches_double_and_add(ka in any::<[u8; 32]>(),
                                          kb in any::<[u8; 32]>(),
                                          point_seed in 1u64..1_000_000) {
        let sa = Scalar::from_bytes_mod_order(&ka);
        let sb = Scalar::from_bytes_mod_order(&kb);
        let b = Point::basepoint();
        let q = b.mul_scalar(&Scalar::from_u64(point_seed));
        let separate = b.mul_scalar(&sa).add(&q.mul_scalar(&sb));
        prop_assert!(PreparedPoint::new(&q).double_scalar_mul_basepoint(&sa, &sb).eq_point(&separate));
    }
}

/// The eight points of order dividing 8, canonically encoded; the first
/// is the identity.
const SMALL_ORDER: [&str; 8] = [
    "0100000000000000000000000000000000000000000000000000000000000000",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000080",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
];

/// Messages tried per hostile key.
const TRIES: u64 = 64;

fn accepted_of(key: &VerifyingKey) -> u64 {
    (0..TRIES)
        .filter(|i| {
            let message = i.to_le_bytes();
            verdict(key, &message, &keyless_signature(i + 1)) == Some(true)
        })
        .count() as u64
}

#[test]
fn small_order_keys_get_the_reference_verdict() {
    for (i, hex) in SMALL_ORDER.iter().enumerate() {
        let key = VerifyingKey::from_bytes(from_hex(hex));
        let point = Point::decompress(key.as_bytes()).expect("a curve point");
        assert!(
            point.mul_scalar(&Scalar::from_u64(8)).is_identity(),
            "vector {i} has small order"
        );
        // [8][k]A vanishes for every k: the cofactored equation is
        // blind to a key of small order, so every path accepts.
        assert_eq!(accepted_of(&key), TRIES, "vector {i}");
    }
}

#[test]
fn non_canonical_key_encodings_get_the_reference_verdict() {
    // y = p + 1 ≡ 1: the identity, encoded with y ≥ p. It decompresses
    // (`Fe::from_bytes` reduces y rather than refusing it), and the
    // challenge hashes the bytes as sent; every path must agree on both.
    let y_is_p_plus_1 = VerifyingKey::from_bytes(from_hex(
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    ));
    assert_eq!(accepted_of(&y_is_p_plus_1), TRIES);
    // y = p ≡ 0: a point of order 4.
    let y_is_p = VerifyingKey::from_bytes(from_hex(
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    ));
    assert_eq!(accepted_of(&y_is_p), TRIES);
    // −0: x = 0 with the sign bit set is no encoding at all.
    for hex in [
        "0100000000000000000000000000000000000000000000000000000000000080",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    ] {
        let minus_zero = VerifyingKey::from_bytes(from_hex(hex));
        assert!(minus_zero.decompress().is_err());
        assert_eq!(accepted_of(&minus_zero), 0);
    }
}

/// `R` encodings that a lone check must refuse or accept exactly as
/// decompression would: every small-order point, y = p and y = p + 1
/// (the second, like `A` above, the identity with y ≥ p), both "−0"s,
/// and each honest RFC 8032 `R` with its sign bit flipped.
fn hostile_rs() -> Vec<[u8; 32]> {
    let mut rs: Vec<[u8; 32]> = SMALL_ORDER.iter().map(|hex| from_hex(hex)).collect();
    for hex in [
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0100000000000000000000000000000000000000000000000000000000000080",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    ] {
        rs.push(from_hex(hex));
    }
    for (_, _, _, signature) in RFC8032 {
        let mut r: [u8; 32] = from_hex::<64>(signature)[..32].try_into().unwrap();
        r[31] ^= 0x80;
        rs.push(r);
    }
    rs
}

#[test]
fn hostile_r_encodings_get_the_reference_verdict() {
    // With s = 0 the equation is [8]([k](−A) − R) = O: under a
    // small-order key it holds for every R of small order and no other.
    // Under the RFC keys, of order ℓ, every one is refused, the batch
    // agreeing.
    let rfc_keys = RFC8032.map(|(_, public, _, _)| public);
    let mut accepted = [0u32; 2];
    for key in SMALL_ORDER.iter().chain(&rfc_keys) {
        let key = VerifyingKey::from_bytes(from_hex(key));
        for r in hostile_rs() {
            let mut sig = [0u8; 64];
            sig[..32].copy_from_slice(&r);
            for i in 0..8u64 {
                let verdict = verdict(&key, &i.to_le_bytes(), &Signature(sig));
                accepted[usize::from(verdict == Some(true))] += 1;
            }
        }
    }
    assert!(accepted[0] > 0 && accepted[1] > 0, "{accepted:?}");
    // An honest signature whose R names the mirror point is refused.
    for (_, public, message, signature) in RFC8032 {
        let key = VerifyingKey::from_bytes(from_hex(public));
        let mut sig: [u8; 64] = from_hex(signature);
        sig[31] ^= 0x80;
        assert_eq!(
            verdict(&key, &message_of(message), &Signature(sig)),
            Some(false)
        );
    }
}

/// RFC 8032 §7.1 TEST 1–3: (seed, public key, message, signature).
const RFC8032: [(&str, &str, &str, &str); 3] = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
         5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
         085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
         18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
];

fn message_of(hex: &str) -> Vec<u8> {
    match hex.len() {
        0 => Vec::new(),
        2 => from_hex::<1>(hex).to_vec(),
        _ => from_hex::<2>(hex).to_vec(),
    }
}

#[test]
fn rfc8032_vectors_verify_through_the_prepared_key() {
    for (_, public, message, signature) in RFC8032 {
        let key = VerifyingKey::from_bytes(from_hex(public));
        let message = message_of(message);
        let signature = Signature(from_hex(signature));
        assert_eq!(verdict(&key, &message, &signature), Some(true));
        let mut other = message.clone();
        other.push(0);
        assert_eq!(verdict(&key, &other, &signature), Some(false));
    }
}

#[test]
fn clones_taken_before_and_after_first_use_sign_alike() {
    for (seed, public, message, signature) in RFC8032 {
        let fresh = SigningKey::from_seed(&from_hex(seed));
        let before = fresh.clone();
        let message = message_of(message);
        let expect: [u8; 64] = from_hex(signature);
        assert_eq!(fresh.sign(&message).as_bytes(), &expect);
        let after = fresh.clone();
        for key in [&before, &after] {
            assert_eq!(key.sign(&message).as_bytes(), &expect);
            assert_eq!(key.verifying_key().as_bytes(), &from_hex::<32>(public));
            assert_eq!(key.seed(), fresh.seed());
        }
    }
}
