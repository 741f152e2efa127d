//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;

use proxy_crypto::ct::ct_eq;
use proxy_crypto::ed25519::edwards::{Point, StrausTerm};
use proxy_crypto::ed25519::field::Fe;
use proxy_crypto::ed25519::scalar::Scalar;
use proxy_crypto::ed25519::SigningKey;
use proxy_crypto::hmac::HmacSha256;
use proxy_crypto::keys::{Nonce, SymmetricKey};
use proxy_crypto::seal;
use proxy_crypto::sha256::Sha256;
use proxy_crypto::{chacha20, sha512::Sha512};

proptest! {
    #[test]
    fn ct_eq_matches_slice_eq(a in proptest::collection::vec(any::<u8>(), 0..64),
                              b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                         split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha512_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                         split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha512::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha512::digest(&data));
    }

    #[test]
    fn hmac_distinguishes_keys(key1 in proptest::collection::vec(any::<u8>(), 1..64),
                               key2 in proptest::collection::vec(any::<u8>(), 1..64),
                               data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let t1 = HmacSha256::mac(&key1, &data);
        let t2 = HmacSha256::mac(&key2, &data);
        if key1 == key2 {
            prop_assert_eq!(t1, t2);
        } else {
            // Collisions are cryptographically negligible.
            prop_assert_ne!(t1, t2);
        }
    }

    #[test]
    fn chacha20_round_trips(key in any::<[u8; 32]>(),
                            nonce in any::<[u8; 12]>(),
                            data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let ct = chacha20::encrypt(&key, &nonce, &data);
        prop_assert_eq!(chacha20::decrypt(&key, &nonce, &ct), data);
    }

    #[test]
    fn seal_round_trips_and_rejects_tampering(key in any::<[u8; 32]>(),
                                              nonce in any::<[u8; 12]>(),
                                              aad in proptest::collection::vec(any::<u8>(), 0..32),
                                              data in proptest::collection::vec(any::<u8>(), 0..128),
                                              flip in any::<(usize, u8)>()) {
        let k = SymmetricKey::from_bytes(key);
        let sealed = seal::seal_with_nonce(&k, &Nonce::from_bytes(nonce), &aad, &data);
        prop_assert_eq!(seal::open(&k, &aad, &sealed).unwrap(), data);
        let (pos, bit) = flip;
        let mut bad = sealed.clone();
        let idx = pos % bad.len();
        let mask = 1u8 << (bit % 8);
        bad[idx] ^= mask;
        prop_assert!(seal::open(&k, &aad, &bad).is_err());
    }

    #[test]
    fn field_add_mul_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (fa, fb, fc) = (Fe::from_u64(a), Fe::from_u64(b), Fe::from_u64(c));
        prop_assert!(fa.add(fb).ct_eq(fb.add(fa)));
        prop_assert!(fa.mul(fb).ct_eq(fb.mul(fa)));
        prop_assert!(fa.mul(fb.add(fc)).ct_eq(fa.mul(fb).add(fa.mul(fc))));
        prop_assert!(fa.sub(fa).ct_eq(Fe::ZERO));
    }

    #[test]
    fn field_bytes_round_trip(bytes in any::<[u8; 32]>()) {
        // Canonicalize once, then the encoding must be a fixed point.
        let x = Fe::from_bytes(&bytes);
        let canon = x.to_bytes();
        prop_assert_eq!(Fe::from_bytes(&canon).to_bytes(), canon);
    }

    #[test]
    fn scalar_ring_laws(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let sa = Scalar::from_bytes_mod_order(&a);
        let sb = Scalar::from_bytes_mod_order(&b);
        prop_assert_eq!(sa.add(sb), sb.add(sa));
        prop_assert_eq!(sa.mul(sb), sb.mul(sa));
        prop_assert_eq!(sa.mul(Scalar::ONE), sa);
        prop_assert_eq!(sa.mul(Scalar::ZERO), Scalar::ZERO);
    }

    #[test]
    fn scalar_mul_distributes_over_point_add(a in 1u64..10_000, b in 1u64..10_000) {
        let base = Point::basepoint();
        let lhs = base.mul_scalar(&Scalar::from_u64(a).add(Scalar::from_u64(b)));
        let rhs = base.mul_scalar(&Scalar::from_u64(a)).add(&base.mul_scalar(&Scalar::from_u64(b)));
        prop_assert!(lhs.eq_point(&rhs));
    }

    #[test]
    fn signatures_verify_and_bind_message(seed in any::<[u8; 32]>(),
                                          msg in proptest::collection::vec(any::<u8>(), 0..64),
                                          other in proptest::collection::vec(any::<u8>(), 0..64)) {
        let sk = SigningKey::from_seed(&seed);
        let sig = sk.sign(&msg);
        prop_assert!(sk.verifying_key().verify(&msg, &sig).is_ok());
        if msg != other {
            prop_assert!(sk.verifying_key().verify(&other, &sig).is_err());
        }
    }

    /// The windowed paths are exactly the double-and-add reference: wNAF
    /// single-scalar, the fixed-base table, and both Straus variants all
    /// agree with `mul_scalar` on arbitrary scalars.
    #[test]
    fn windowed_scalar_mul_matches_double_and_add(ka in any::<[u8; 32]>(),
                                                  kb in any::<[u8; 32]>(),
                                                  point_seed in 1u64..1_000_000) {
        let sa = Scalar::from_bytes_mod_order(&ka);
        let sb = Scalar::from_bytes_mod_order(&kb);
        let b = Point::basepoint();
        let p = b.mul_scalar(&Scalar::from_u64(point_seed));

        prop_assert!(p.mul_wnaf(&sa).eq_point(&p.mul_scalar(&sa)));
        prop_assert!(Point::mul_basepoint(&sa).eq_point(&b.mul_scalar(&sa)));

        let separate = b.mul_scalar(&sa).add(&p.mul_scalar(&sb));
        prop_assert!(Point::double_scalar_mul(&sa, &b, &sb, &p).eq_point(&separate));
        prop_assert!(Point::double_scalar_mul_basepoint(&sa, &sb, &p).eq_point(&separate));
    }

    /// The batch equation's multiscalar sum — static table for the
    /// basepoint term, a table per other point — is the sum of ladders.
    #[test]
    fn multiscalar_mul_matches_sum_of_ladders(kb in any::<[u8; 32]>(),
                                              terms in proptest::collection::vec(
                                                  (any::<[u8; 32]>(), 1u64..1_000_000), 0..5)) {
        let b = Point::basepoint();
        let sb = Scalar::from_bytes_mod_order(&kb);
        let scalars: Vec<Scalar> = terms.iter().map(|(k, _)| Scalar::from_bytes_mod_order(k)).collect();
        let points: Vec<Point> = terms.iter().map(|(_, p)| b.mul_scalar(&Scalar::from_u64(*p))).collect();
        let mut expect = b.mul_scalar(&sb);
        for (s, p) in scalars.iter().zip(&points) {
            expect = expect.add(&p.mul_scalar(s));
        }
        let prepared: Vec<StrausTerm> =
            scalars.iter().zip(&points).map(|(s, p)| StrausTerm::new(s, p)).collect();
        prop_assert!(Point::multiscalar_mul_basepoint(&sb, &prepared).eq_point(&expect));
    }

    /// wNAF and radix-16 digit decompositions reconstruct the scalar.
    #[test]
    fn scalar_decompositions_reconstruct(bytes in any::<[u8; 32]>(), w in 2usize..9) {
        let s = Scalar::from_bytes_mod_order(&bytes);
        let naf = s.non_adjacent_form(w);
        let mut acc = Scalar::ZERO;
        for &d in naf.iter().rev() {
            acc = acc.add(acc);
            let mag = Scalar::from_u64(u64::from(d.unsigned_abs()));
            acc = if d >= 0 { acc.add(mag) } else { acc.sub(mag) };
        }
        prop_assert_eq!(acc, s);

        let digits = s.to_radix16();
        let mut acc = Scalar::ZERO;
        for &d in digits.iter().rev() {
            for _ in 0..4 { acc = acc.add(acc); }
            let mag = Scalar::from_u64(u64::from(d.unsigned_abs()));
            acc = if d >= 0 { acc.add(mag) } else { acc.sub(mag) };
        }
        prop_assert_eq!(acc, s);
    }

    /// Batch verification agrees with sequential verification: a batch of
    /// valid signatures passes, and corrupting any single signature,
    /// message, or key in the batch makes it fail.
    #[test]
    fn batch_agrees_with_sequential(seeds in proptest::collection::vec(any::<[u8; 32]>(), 2..6),
                                    corrupt in any::<(bool, usize, u8)>()) {
        let keys: Vec<SigningKey> = seeds.iter().map(SigningKey::from_seed).collect();
        let messages: Vec<Vec<u8>> = seeds.iter().map(|s| s[..8].to_vec()).collect();
        let mut sigs: Vec<proxy_crypto::ed25519::Signature> =
            keys.iter().zip(&messages).map(|(k, m)| k.sign(m)).collect();
        let vks: Vec<proxy_crypto::ed25519::VerifyingKey> =
            keys.iter().map(SigningKey::verifying_key).collect();

        let (do_corrupt, idx, byte) = corrupt;
        let idx = idx % sigs.len();
        if do_corrupt {
            // Flip one bit somewhere in one signature.
            sigs[idx].0[usize::from(byte) % 64] ^= 1 << (byte % 8);
        }

        let items: Vec<(&[u8], &proxy_crypto::ed25519::Signature, &proxy_crypto::ed25519::VerifyingKey)> =
            messages.iter().zip(&sigs).zip(&vks)
                .map(|((m, s), k)| (m.as_slice(), s, k))
                .collect();
        let sequential_ok = items.iter().all(|(m, s, k)| k.verify(m, s).is_ok());
        prop_assert_eq!(proxy_crypto::ed25519::verify_batch(&items).is_ok(), sequential_ok);
    }
}
