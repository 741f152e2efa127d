//! Ed25519 signatures (RFC 8032), implemented from the ground up.
//!
//! This is the *public-key cryptography* backend of the paper's §6.1: a
//! grantor signs a proxy certificate with its private key, and any
//! end-server that can obtain the grantor's public key (from a name or
//! authentication server) verifies the proxy offline.
//!
//! Submodules: [`field`] (GF(2^255−19)), [`scalar`] (mod-ℓ arithmetic),
//! [`edwards`] (curve points). The signing interface lives here.
//!
//! Scalar multiplication is variable-time and windowed: signing uses a
//! precomputed radix-16 basepoint table, verification a width-8/width-5
//! wNAF Straus double-scalar multiplication, and [`verify_batch`] folds
//! many signatures into one random-coefficient multiscalar equation. The
//! plain double-and-add ladder survives as the tested-against reference
//! ([`edwards::Point::mul_scalar`]). None of this is hardened against
//! local side-channel observers — appropriate for a research simulation,
//! not production TLS (see DESIGN.md, "Crypto performance").
//!
//! A public key is paid for in stages, each kept by whoever expects the
//! key again: [`VerifyingKey`] is the 32 wire bytes, [`DecompressedKey`]
//! adds the curve point (one square root), [`PreparedKey`] adds the
//! point's tables and cuts the doubling chain of every later check to an
//! eighth.
//! All three evaluate the same equation and give the same verdicts;
//! [`VerifyingKey::verify`] is the reference the other two are tested
//! against.

pub mod edwards;
pub mod field;
pub mod scalar;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rand::RngCore;

use crate::sha512::Sha512;
use edwards::{DecompressError, Point, PreparedPoint, StrausTerm};
use scalar::Scalar;

/// Length of an Ed25519 signature in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Length of a public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a secret seed in bytes.
pub const SEED_LEN: usize = 32;

/// Error returned when a signature fails to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureError;

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ed25519 signature verification failed")
    }
}

impl std::error::Error for SignatureError {}

/// A detached Ed25519 signature (R ‖ s).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; SIGNATURE_LEN]);

impl Signature {
    /// Parses a signature from a slice.
    ///
    /// # Errors
    ///
    /// Fails when `bytes` is not exactly 64 bytes (content validation
    /// happens at verification time).
    pub fn try_from_slice(bytes: &[u8]) -> Result<Self, SignatureError> {
        let arr: [u8; SIGNATURE_LEN] = bytes.try_into().map_err(|_| SignatureError)?;
        Ok(Self(arr))
    }

    /// The raw signature bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; SIGNATURE_LEN] {
        &self.0
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature(")?;
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// An Ed25519 verifying (public) key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey([u8; PUBLIC_KEY_LEN]);

impl VerifyingKey {
    /// Wraps raw public-key bytes (validated lazily at verification).
    #[must_use]
    pub fn from_bytes(bytes: [u8; PUBLIC_KEY_LEN]) -> Self {
        Self(bytes)
    }

    /// The raw encoded point.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; PUBLIC_KEY_LEN] {
        &self.0
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError`] when the public key or `R` fail to
    /// decompress, `s` is non-canonical (≥ ℓ), or the verification equation
    /// `[s]B = R + [k]A` does not hold.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        self.decompress()?.verify(message, signature)
    }

    /// Decompresses the key's curve point, the first thing every
    /// verification under it needs.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError`] when the bytes encode no curve point;
    /// no signature verifies under such a key.
    pub fn decompress(&self) -> Result<DecompressedKey, SignatureError> {
        let a = Point::decompress(&self.0).map_err(|DecompressError| SignatureError)?;
        Ok(DecompressedKey {
            key: *self,
            neg_a: a.neg(),
        })
    }
}

/// The parts of a signature a lone check starts from: `R` as sent, `s`
/// checked canonical, and the challenge `k = H(R ‖ A ‖ M) mod ℓ`.
struct Challenge {
    r: [u8; 32],
    s: Scalar,
    k: Scalar,
}

impl Challenge {
    fn new(
        key: &VerifyingKey,
        message: &[u8],
        signature: &Signature,
    ) -> Result<Challenge, SignatureError> {
        let r: [u8; 32] = signature.0[..32].try_into().expect("split");
        let s_bytes: [u8; 32] = signature.0[32..].try_into().expect("split");
        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(SignatureError)?;
        let k = challenge_scalar(&r, &key.0, message);
        Ok(Challenge { r, s, k })
    }

    /// The verdict, given `[s]B + [k](−A)`: whether `R` encodes it.
    /// `R` is compared, not decompressed ([`Point::matches_encoding`]):
    /// the verdict is the one decompressing and comparing gives, an `R`
    /// that is no point's encoding included, for an inversion instead
    /// of a square root.
    fn check(&self, lhs: &Point) -> Result<(), SignatureError> {
        if lhs.matches_encoding(&self.r) {
            Ok(())
        } else {
            Err(SignatureError)
        }
    }
}

/// A [`VerifyingKey`] with its curve point decompressed (and negated, as
/// the verification equation uses it): what a verifier keeps of a key it
/// has seen once.
#[derive(Clone, Copy)]
pub struct DecompressedKey {
    key: VerifyingKey,
    neg_a: Point,
}

impl DecompressedKey {
    /// The key as it travels.
    #[must_use]
    pub fn key(&self) -> &VerifyingKey {
        &self.key
    }

    /// Verifies `signature` over `message`; [`VerifyingKey::verify`]
    /// without the decompression of `A`.
    ///
    /// # Errors
    ///
    /// As [`VerifyingKey::verify`].
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        let c = Challenge::new(&self.key, message, signature)?;
        // [s]B == R + [k]A, rearranged to one double-scalar multiplication
        // (Straus–Shamir): [s]B + [k](−A) == R. B rides the static wNAF
        // table; only A pays for a table build.
        c.check(&Point::double_scalar_mul_basepoint(&c.s, &c.k, &self.neg_a))
    }
}

impl std::fmt::Debug for DecompressedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DecompressedKey({:?})", self.key)
    }
}

/// A [`VerifyingKey`] prepared for many verifications: the eight tables
/// of `[2³²ⁱ](−A)` (see [`PreparedPoint`]), about 10 KiB.
///
/// [`PreparedKey::verify`] evaluates the equation of
/// [`VerifyingKey::verify`] and returns the same verdict on every input,
/// in under half the time; building one costs about three quarters of a
/// verification, so it pays for a key that will be seen at least twice
/// more.
pub struct PreparedKey {
    key: VerifyingKey,
    neg_a: PreparedPoint,
}

impl PreparedKey {
    /// Builds the tables for `key`.
    #[must_use]
    pub fn new(key: &DecompressedKey) -> PreparedKey {
        PreparedKey {
            key: key.key,
            neg_a: PreparedPoint::new(&key.neg_a),
        }
    }

    /// The key as it travels.
    #[must_use]
    pub fn key(&self) -> &VerifyingKey {
        &self.key
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// As [`VerifyingKey::verify`].
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        let c = Challenge::new(&self.key, message, signature)?;
        c.check(&self.neg_a.double_scalar_mul_basepoint(&c.s, &c.k))
    }
}

impl std::fmt::Debug for PreparedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PreparedKey({:?})", self.key)
    }
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey(")?;
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// An Ed25519 signing (private) key.
///
/// Holds the 32-byte seed, which is what is serialized (e.g. proxy-key
/// material crossing the wire inside a protected channel), and derives
/// the RFC 8032 expanded secret from it on first use: a key that is only
/// decoded, stored or forwarded never pays for the expansion.
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; SEED_LEN],
    expanded: OnceLock<ExpandedKey>,
}

/// RFC 8032 §5.1.5: the clamped scalar `a`, the 32-byte `prefix` used to
/// derive deterministic nonces, and the public key `[a]B`.
#[derive(Clone)]
struct ExpandedKey {
    scalar: Scalar,
    prefix: [u8; 32],
    public: VerifyingKey,
}

impl ExpandedKey {
    fn from_seed(seed: &[u8; SEED_LEN]) -> ExpandedKey {
        let h = Sha512::digest(seed);
        let mut scalar_bytes: [u8; 32] = h[..32].try_into().expect("split");
        // Clamp.
        scalar_bytes[0] &= 0b1111_1000;
        scalar_bytes[31] &= 0b0111_1111;
        scalar_bytes[31] |= 0b0100_0000;
        let scalar = Scalar::from_bytes_mod_order(&scalar_bytes);
        let prefix: [u8; 32] = h[32..].try_into().expect("split");
        let public_point = Point::mul_basepoint(&scalar);
        let public = VerifyingKey::from_bytes(public_point.compress());
        ExpandedKey {
            scalar,
            prefix,
            public,
        }
    }
}

impl SigningKey {
    /// The signing key for a 32-byte seed (RFC 8032 §5.1.5). Costs a copy:
    /// the hash, the fixed-base multiplication and the inversion behind
    /// the public key run on the first [`Self::sign`] or
    /// [`Self::verifying_key`].
    #[must_use]
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> Self {
        Self {
            seed: *seed,
            expanded: OnceLock::new(),
        }
    }

    fn expanded(&self) -> &ExpandedKey {
        self.expanded
            .get_or_init(|| ExpandedKey::from_seed(&self.seed))
    }

    /// The 32-byte seed this key expands from (RFC 8032 private key).
    ///
    /// This **is** the secret: expose it only to serialize the key into a
    /// confidentiality-protected channel.
    #[must_use]
    pub fn seed(&self) -> &[u8; SEED_LEN] {
        &self.seed
    }

    /// Generates a signing key from `rng`.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut seed = [0u8; SEED_LEN];
        rng.fill_bytes(&mut seed);
        Self::from_seed(&seed)
    }

    /// The corresponding public key.
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.expanded().public
    }

    /// Signs `message` (deterministic per RFC 8032).
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        let key = self.expanded();
        // r = H(prefix ‖ M) mod ℓ
        let mut h = Sha512::new();
        h.update(&key.prefix);
        h.update(message);
        let r = Scalar::from_bytes_mod_order_wide(&h.finalize());
        let r_point = Point::mul_basepoint(&r);
        let r_bytes = r_point.compress();
        // k = H(R ‖ A ‖ M) mod ℓ
        let k = challenge_scalar(&r_bytes, &key.public.0, message);
        // s = r + k·a mod ℓ
        let s = k.mul_add(key.scalar, r);
        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SigningKey(<redacted>, public: {:?})",
            self.verifying_key()
        )
    }
}

/// Counter mixed into batch coefficients so no two batches in a process
/// share them, even for identical contents.
static BATCH_NONCE: AtomicU64 = AtomicU64::new(0);

/// Verifies many `(message, signature, key)` triples at once.
///
/// Folds all verification equations into a single multiscalar
/// multiplication with random 128-bit coefficients `z_i`:
///
/// ```text
/// [−∑ z_i·s_i] B  +  ∑ [z_i] R_i  +  ∑ [z_i·k_i] A_i  ==  identity
/// ```
///
/// which holds for independently random `z_i` exactly when every
/// individual equation `[s_i]B = R_i + [k_i]A_i` holds, except with
/// probability ~2⁻¹²⁸. Because the doubling chain is shared across all
/// 2n+1 terms, the marginal cost per signature is roughly a third of a
/// standalone verification.
///
/// The coefficients are derived by hashing the whole batch together with
/// a process-local nonce (Fiat–Shamir style), so they are unpredictable
/// before the batch is fixed (`batch_coefficients` expands that seed,
/// four to a digest); each is forced odd so a single
/// small-torsion-mangled `R` or `A` can never cancel out of the combined
/// equation. If the combined equation fails, the batch falls back to
/// sequential verification, so the result is always exactly "every
/// signature verifies individually" — a batch rejection costs time, never
/// correctness. [`first_failure`] says which one does not.
///
/// # Errors
///
/// Returns [`SignatureError`] when any key or `R` fails to decompress,
/// any `s` is non-canonical, or any signature fails its individual
/// verification equation.
pub fn verify_batch(items: &[(&[u8], &Signature, &VerifyingKey)]) -> Result<(), SignatureError> {
    match first_failure(items) {
        None => Ok(()),
        Some(_) => Err(SignatureError),
    }
}

/// The index of the first of `items` that fails [`VerifyingKey::verify`],
/// or `None` when every one verifies.
///
/// The combined equation of [`verify_batch`] is the fast path for `None`.
/// When it fails, or as soon as a key or `R` does not decompress or an
/// `s` is not canonical, the items are verified one by one from index 0,
/// so the answer is always the first failure in order — a chain's first
/// bad link, whatever made the equation fail — and each item is checked
/// alone at most once.
#[must_use]
pub fn first_failure(items: &[(&[u8], &Signature, &VerifyingKey)]) -> Option<usize> {
    let one_by_one = || {
        items
            .iter()
            .position(|(message, signature, key)| key.verify(message, signature).is_err())
    };
    if items.len() < 2 {
        return one_by_one();
    }
    // Seed = H(domain ‖ nonce ‖ every signature, key, and message).
    let mut h = Sha512::new();
    h.update(b"proxy-aa.ed25519.batch.v1");
    h.update(&BATCH_NONCE.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    for (message, signature, key) in items {
        h.update(signature.as_bytes());
        h.update(key.as_bytes());
        h.update(&(message.len() as u64).to_le_bytes());
        h.update(message);
    }
    let seed = h.finalize();

    // One pass, one vector: each signature contributes [z]R and [z·k]A,
    // its two points decompressed in lockstep.
    let mut terms = Vec::with_capacity(2 * items.len());
    let mut b_coeff = Scalar::ZERO;
    for ((message, signature, key), z) in items.iter().zip(batch_coefficients(&seed)) {
        let r_bytes: [u8; 32] = signature.0[..32].try_into().expect("split");
        let s_bytes: [u8; 32] = signature.0[32..].try_into().expect("split");
        let [Ok(a), Ok(r)] = Point::decompress_pair(key.as_bytes(), &r_bytes) else {
            return one_by_one();
        };
        let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
            return one_by_one();
        };
        let k = challenge_scalar(&r_bytes, key.as_bytes(), message);
        b_coeff = b_coeff.add(z.mul(s));
        terms.push(StrausTerm::new(&z, &r));
        terms.push(StrausTerm::new(&z.mul(k), &a));
    }

    if Point::multiscalar_mul_basepoint(&b_coeff.neg(), &terms).is_identity() {
        return None;
    }
    // Combined equation failed: at least one signature is (almost surely)
    // bad. Re-verify sequentially for an exact answer.
    one_by_one()
}

/// The coefficients `z_0, z_1, …` of a batch with this `seed`: `z_i` is
/// lane `i % 4` of the four 128-bit lanes of `SHA-512(seed ‖ i / 4)`,
/// forced odd.
fn batch_coefficients(seed: &[u8; 64]) -> impl Iterator<Item = Scalar> + '_ {
    (0u64..).flat_map(move |block| {
        let mut h = Sha512::new();
        h.update(seed);
        h.update(&block.to_le_bytes());
        let digest = h.finalize();
        (0..4).map(move |lane| {
            let z_bytes: [u8; 16] = digest[16 * lane..16 * lane + 16].try_into().expect("split");
            Scalar::from_u128(u128::from_le_bytes(z_bytes) | 1)
        })
    })
}

fn challenge_scalar(r: &[u8; 32], a: &[u8; 32], message: &[u8]) -> Scalar {
    let mut h = Sha512::new();
    h.update(r);
    h.update(a);
    h.update(message);
    Scalar::from_bytes_mod_order_wide(&h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(hex: &str) -> Vec<u8> {
        let hex: String = hex.chars().filter(|c| !c.is_whitespace()).collect();
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    fn seed32(hex: &str) -> [u8; 32] {
        from_hex(hex).try_into().unwrap()
    }

    /// RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test_1() {
        let sk = SigningKey::from_seed(&seed32(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            sk.verifying_key().as_bytes().to_vec(),
            from_hex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        );
        let sig = sk.sign(b"");
        assert_eq!(
            sig.as_bytes().to_vec(),
            from_hex(
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
            )
        );
        assert!(sk.verifying_key().verify(b"", &sig).is_ok());
    }

    /// RFC 8032 §7.1 TEST 2 (one-byte message).
    #[test]
    fn rfc8032_test_2() {
        let sk = SigningKey::from_seed(&seed32(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            sk.verifying_key().as_bytes().to_vec(),
            from_hex("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
        );
        let msg = [0x72u8];
        let sig = sk.sign(&msg);
        assert_eq!(
            sig.as_bytes().to_vec(),
            from_hex(
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
            )
        );
        assert!(sk.verifying_key().verify(&msg, &sig).is_ok());
    }

    /// RFC 8032 §7.1 TEST 3 (two-byte message).
    #[test]
    fn rfc8032_test_3() {
        let sk = SigningKey::from_seed(&seed32(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        assert_eq!(
            sk.verifying_key().as_bytes().to_vec(),
            from_hex("fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025")
        );
        let msg = [0xafu8, 0x82];
        let sig = sk.sign(&msg);
        assert_eq!(
            sig.as_bytes().to_vec(),
            from_hex(
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
            )
        );
        assert!(sk.verifying_key().verify(&msg, &sig).is_ok());
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = SigningKey::from_seed(&[1u8; 32]);
        let sig = sk.sign(b"authentic message");
        assert!(sk
            .verifying_key()
            .verify(b"authentic message", &sig)
            .is_ok());
        assert_eq!(
            sk.verifying_key().verify(b"authentic messagE", &sig),
            Err(SignatureError)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SigningKey::from_seed(&[2u8; 32]);
        let msg = b"msg";
        let sig = sk.sign(msg);
        for i in 0..SIGNATURE_LEN {
            let mut bad = *sig.as_bytes();
            bad[i] ^= 0x40;
            let bad_sig = Signature(bad);
            assert!(
                sk.verifying_key().verify(msg, &bad_sig).is_err(),
                "flipping byte {i} must invalidate"
            );
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_seed(&[3u8; 32]);
        let sk2 = SigningKey::from_seed(&[4u8; 32]);
        let sig = sk1.sign(b"hello");
        assert!(sk2.verifying_key().verify(b"hello", &sig).is_err());
    }

    #[test]
    fn noncanonical_s_rejected() {
        // Take a valid signature and add ℓ to s, producing an equivalent
        // but non-canonical scalar; verification must reject it.
        let sk = SigningKey::from_seed(&[5u8; 32]);
        let sig = sk.sign(b"m");
        let s_bytes: [u8; 32] = sig.as_bytes()[32..].try_into().unwrap();
        let mut s_limbs = [0u64; 4];
        for (i, chunk) in s_bytes.chunks_exact(8).enumerate() {
            s_limbs[i] = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        // s + ℓ (may carry into bit 255+ — only usable when it fits; the
        // high limb of ℓ is 2^60 so the sum fits u64 unless s is huge).
        let mut carry = 0u128;
        let mut sum = [0u64; 4];
        for i in 0..4 {
            let acc = s_limbs[i] as u128 + super::scalar::L[i] as u128 + carry;
            sum[i] = acc as u64;
            carry = acc >> 64;
        }
        assert_eq!(carry, 0, "s + L fits in 256 bits for this fixture");
        let mut bad = *sig.as_bytes();
        for (i, limb) in sum.iter().enumerate() {
            bad[32 + 8 * i..32 + 8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert!(sk.verifying_key().verify(b"m", &Signature(bad)).is_err());
    }

    #[test]
    fn signature_is_deterministic() {
        let sk = SigningKey::from_seed(&[6u8; 32]);
        assert_eq!(sk.sign(b"x").as_bytes(), sk.sign(b"x").as_bytes());
        assert_ne!(sk.sign(b"x").as_bytes(), sk.sign(b"y").as_bytes());
    }

    #[test]
    fn generate_roundtrip_with_rng() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        let sk = SigningKey::generate(&mut rng);
        let sig = sk.sign(b"generated");
        assert!(sk.verifying_key().verify(b"generated", &sig).is_ok());
    }

    #[test]
    fn batch_accepts_valid_signatures() {
        let keys: Vec<SigningKey> = (0u8..8)
            .map(|i| SigningKey::from_seed(&[i + 10; 32]))
            .collect();
        let messages: Vec<Vec<u8>> = (0..8)
            .map(|i| format!("message {i}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = keys.iter().zip(&messages).map(|(k, m)| k.sign(m)).collect();
        let vks: Vec<VerifyingKey> = keys.iter().map(SigningKey::verifying_key).collect();
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> = messages
            .iter()
            .zip(&sigs)
            .zip(&vks)
            .map(|((m, s), k)| (m.as_slice(), s, k))
            .collect();
        assert!(verify_batch(&items).is_ok());
        // Empty and singleton batches degrade gracefully.
        assert!(verify_batch(&[]).is_ok());
        assert!(verify_batch(&items[..1]).is_ok());
    }

    #[test]
    fn batch_rejects_any_corruption() {
        let keys: Vec<SigningKey> = (0u8..4)
            .map(|i| SigningKey::from_seed(&[i + 30; 32]))
            .collect();
        let messages: Vec<Vec<u8>> = (0..4)
            .map(|i| format!("payload {i}").into_bytes())
            .collect();
        let mut sigs: Vec<Signature> = keys.iter().zip(&messages).map(|(k, m)| k.sign(m)).collect();
        let vks: Vec<VerifyingKey> = keys.iter().map(SigningKey::verifying_key).collect();
        // Corrupt one signature's s-half; the combined equation must fail
        // and the sequential fallback must pinpoint the error.
        sigs[2].0[40] ^= 0x01;
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> = messages
            .iter()
            .zip(&sigs)
            .zip(&vks)
            .map(|((m, s), k)| (m.as_slice(), s, k))
            .collect();
        assert_eq!(verify_batch(&items), Err(SignatureError));

        // A wrong message in an otherwise valid batch also fails.
        let good_sigs: Vec<Signature> =
            keys.iter().zip(&messages).map(|(k, m)| k.sign(m)).collect();
        let mut bad_messages = messages.clone();
        bad_messages[1][0] ^= 0xff;
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> = bad_messages
            .iter()
            .zip(&good_sigs)
            .zip(&vks)
            .map(|((m, s), k)| (m.as_slice(), s, k))
            .collect();
        assert_eq!(verify_batch(&items), Err(SignatureError));
    }

    #[test]
    fn batch_rejects_malformed_points_and_noncanonical_s() {
        let sk = SigningKey::from_seed(&[50u8; 32]);
        let msg: &[u8] = b"ok";
        let sig = sk.sign(msg);
        let vk = sk.verifying_key();
        let other = SigningKey::from_seed(&[51u8; 32]);
        let other_sig = other.sign(msg);
        let other_vk = other.verifying_key();

        // A key that is not a curve point.
        let bad_key = VerifyingKey::from_bytes([0x02; 32]);
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> =
            vec![(msg, &sig, &bad_key), (msg, &other_sig, &other_vk)];
        assert_eq!(verify_batch(&items), Err(SignatureError));

        // s ≥ ℓ must be rejected before any curve math.
        let mut bad_sig = sig;
        bad_sig.0[32..].copy_from_slice(&[0xff; 32]);
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> =
            vec![(msg, &bad_sig, &vk), (msg, &other_sig, &other_vk)];
        assert_eq!(verify_batch(&items), Err(SignatureError));
    }

    #[test]
    fn first_failure_blames_in_order_whatever_stops_the_equation() {
        let signers: Vec<SigningKey> = (0u8..4)
            .map(|i| SigningKey::from_seed(&[i + 60; 32]))
            .collect();
        let vks: Vec<VerifyingKey> = signers.iter().map(SigningKey::verifying_key).collect();
        let msg: &[u8] = b"link";
        let good: Vec<Signature> = signers.iter().map(|sk| sk.sign(msg)).collect();
        let mut forged = good[1];
        forged.0[40] ^= 1;
        let mut s_too_big = good[2];
        s_too_big.0[32..].copy_from_slice(&[0xff; 32]);
        let no_point = VerifyingKey::from_bytes([0x02; 32]);
        let cases = [
            (vec![(good[0], vks[0]), (good[1], vks[1])], None),
            // The equation fails: the one bad signature is named.
            (
                vec![(good[0], vks[0]), (forged, vks[1]), (good[2], vks[2])],
                Some(1),
            ),
            // Building the equation stops at index 2 (s ≥ ℓ, a key that is
            // no point); the forgery before it is still the first.
            (
                vec![(good[0], vks[0]), (forged, vks[1]), (s_too_big, vks[2])],
                Some(1),
            ),
            (
                vec![(good[0], vks[0]), (forged, vks[1]), (good[2], no_point)],
                Some(1),
            ),
            (vec![(good[0], no_point), (forged, vks[1])], Some(0)),
            (vec![(good[0], vks[0]), (s_too_big, vks[2])], Some(1)),
        ];
        for (i, (case, expect)) in cases.iter().enumerate() {
            let items: Vec<(&[u8], &Signature, &VerifyingKey)> =
                case.iter().map(|(s, k)| (msg, s, k)).collect();
            assert_eq!(first_failure(&items), *expect, "case {i}");
            assert_eq!(verify_batch(&items).is_ok(), expect.is_none(), "case {i}");
        }
    }

    #[test]
    fn batch_coefficients_are_odd_distinct_and_seeded() {
        let coefficients =
            |seed: u8| -> Vec<Scalar> { batch_coefficients(&[seed; 64]).take(9).collect() };
        // Nine: two whole digests and the first lane of a third.
        let zs = coefficients(1);
        for (i, z) in zs.iter().enumerate() {
            assert_eq!(z.bit(0), 1, "z_{i} is odd");
            assert_eq!(z.to_bytes()[16..], [0u8; 16], "z_{i} is below 2^128");
            assert!(!zs[..i].contains(z), "z_{i} repeats an earlier one");
        }
        assert_eq!(zs, coefficients(1));
        let other = coefficients(2);
        assert!(zs.iter().zip(&other).all(|(a, b)| a != b));
    }

    #[test]
    fn prepared_key_stays_inside_its_documented_size() {
        // Eight 1.25 KiB tables and the key bytes; `KeyTable`'s memory
        // bound (DESIGN.md §8) is stated in terms of this.
        assert!(std::mem::size_of::<PreparedKey>() <= 10_752);
    }

    #[test]
    fn signature_parsing_validates_length() {
        assert!(Signature::try_from_slice(&[0u8; 64]).is_ok());
        assert!(Signature::try_from_slice(&[0u8; 63]).is_err());
        assert!(Signature::try_from_slice(&[]).is_err());
    }
}
