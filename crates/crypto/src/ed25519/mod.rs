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
//! Scalar multiplication is variable-time and windowed, and every path
//! reads B's multiples from one static set of eight width-8 tables of
//! `[2³²ⁱ]B` (80 KiB): signing walks a chain of 32 doublings over all
//! eight, a check under a key not seen before is a one-term Straus sum
//! over the first (width 8 for B, width 5 for `A`), and [`verify_batch`]
//! folds many signatures into one random-coefficient multiscalar
//! equation over the same table. The plain double-and-add ladder
//! survives as the tested-against reference
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
//!
//! Every path — a lone check, [`batch_holds`], a prepared key's
//! [`PreparedKey::holds_all`] — decides the *cofactored* equation
//! `[8]([s]B − R − [k]A) = O` that RFC 8032 §5.1.7 permits. It is the
//! one form a random-coefficient sum of equations can decide for each of
//! its members: without the factor 8, a part of small order in `R` or `A`
//! makes a lone check fail yet cancels from a sum whose coefficients add
//! up to a multiple of its order. So a verdict never depends on whether
//! a signature was checked alone or in company.

pub mod edwards;
pub mod field;
pub mod scalar;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rand::RngCore;

use crate::ct::Secret;
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

/// Every encoding [`Point::decompress`] accepts for one of the eight
/// points of order dividing 8: both signs of x where x ≠ 0, and the
/// non-canonical y + p where it fits below 2^255 (y = 0 and y = 1).
#[rustfmt::skip]
pub const SMALL_ORDER_ENCODINGS: [[u8; PUBLIC_KEY_LEN]; 11] = [
    // identity (0, 1)
    [0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
    [0xee, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
     0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
    // order 2, (0, −1)
    [0xec, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
     0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
    // order 4, (±√−1, 0)
    [0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
    [0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80],
    [0xed, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
     0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
    [0xed, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
     0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
    // order 8
    [0x26, 0xe8, 0x95, 0x8f, 0xc2, 0xb2, 0x27, 0xb0, 0x45, 0xc3, 0xf4, 0x89, 0xf2, 0xef, 0x98, 0xf0,
     0xd5, 0xdf, 0xac, 0x05, 0xd3, 0xc6, 0x33, 0x39, 0xb1, 0x38, 0x02, 0x88, 0x6d, 0x53, 0xfc, 0x05],
    [0x26, 0xe8, 0x95, 0x8f, 0xc2, 0xb2, 0x27, 0xb0, 0x45, 0xc3, 0xf4, 0x89, 0xf2, 0xef, 0x98, 0xf0,
     0xd5, 0xdf, 0xac, 0x05, 0xd3, 0xc6, 0x33, 0x39, 0xb1, 0x38, 0x02, 0x88, 0x6d, 0x53, 0xfc, 0x85],
    [0xc7, 0x17, 0x6a, 0x70, 0x3d, 0x4d, 0xd8, 0x4f, 0xba, 0x3c, 0x0b, 0x76, 0x0d, 0x10, 0x67, 0x0f,
     0x2a, 0x20, 0x53, 0xfa, 0x2c, 0x39, 0xcc, 0xc6, 0x4e, 0xc7, 0xfd, 0x77, 0x92, 0xac, 0x03, 0x7a],
    [0xc7, 0x17, 0x6a, 0x70, 0x3d, 0x4d, 0xd8, 0x4f, 0xba, 0x3c, 0x0b, 0x76, 0x0d, 0x10, 0x67, 0x0f,
     0x2a, 0x20, 0x53, 0xfa, 0x2c, 0x39, 0xcc, 0xc6, 0x4e, 0xc7, 0xfd, 0x77, 0x92, 0xac, 0x03, 0xfa],
];

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

    /// Whether the key encodes a point of small order. Under the
    /// cofactored equation such a key accepts every keyless
    /// `(R = [s]B, s)` (DESIGN.md §8), so a proxy naming it would be a
    /// bearer proxy to anyone who sees it. A compare against
    /// [`SMALL_ORDER_ENCODINGS`], no square root.
    #[must_use]
    pub fn is_small_order(&self) -> bool {
        SMALL_ORDER_ENCODINGS.contains(&self.0)
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError`] when the public key or `R` fail to
    /// decompress, `s` is non-canonical (≥ ℓ), or the cofactored
    /// verification equation `[8][s]B = [8]R + [8][k]A` does not hold.
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

    /// The verdict, given `[s]B + [k](−A)`: whether `R` encodes it up to
    /// a point of order dividing 8. `R` is compared, not decompressed
    /// ([`Point::matches_encoding_up_to_torsion`]): the verdict is the one
    /// decompressing and testing `[8]([s]B + [k](−A) − R) = O` gives, an
    /// `R` that is no point's encoding included, for an inversion instead
    /// of a square root; an honest `R` matches the first translate tried.
    fn check(&self, lhs: &Point) -> Result<(), SignatureError> {
        if lhs.matches_encoding_up_to_torsion(&self.r) {
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
        let term = StrausTerm::new(&c.k, &self.neg_a);
        c.check(&Point::multiscalar_mul_basepoint(&c.s, &[term]))
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

    /// [`Self::verify`] of up to eight `(message, signature, key)`, each
    /// under its own prepared key: lane `i` is whether `items[i]`
    /// verifies, exactly as its own `verify` says; lanes past
    /// `items.len()` read `false`. Each verdict is its item's alone — a
    /// forgery in one lane moves no other — so a `false` needs no
    /// fallback to find its culprit.
    ///
    /// The eight `[s]B + [k](−A)` are stride chains of the same 32
    /// doublings, so a build with the eight-lane engine runs them as one
    /// vector chain, each lane adding its own digits from its own key's
    /// tables (elsewhere one after another); the eight `R`s are then
    /// compared under one shared inversion, and only an `R` that does not
    /// match tries the torsion translates, alone. From three items on it
    /// costs less than a [`Self::verify`] each (EXPERIMENTS.md C3).
    ///
    /// # Panics
    ///
    /// When given more than eight items.
    #[must_use]
    pub fn verify_eight(items: &[(&[u8], &Signature, &PreparedKey)]) -> [bool; 8] {
        assert!(items.len() <= 8, "at most eight items");
        let ks = challenges_eight(std::array::from_fn(|i| {
            let (message, signature, key) = items.get(i)?;
            Some((r_of(signature), key.key.as_bytes(), *message))
        }));
        let checks: [Option<(&[u8; 32], Scalar, &PreparedPoint)>; 8] = std::array::from_fn(|i| {
            let (_, signature, key) = items.get(i)?;
            let s = Scalar::from_canonical_bytes(s_of(signature))?;
            Some((r_of(signature), s, &key.neg_a))
        });
        let chains = std::array::from_fn(|i| {
            let (_, s, neg_a) = checks[i].as_ref()?;
            Some((s, &ks[i], *neg_a))
        });
        let sums = PreparedPoint::double_scalar_mul_basepoint_eight(chains);
        let nonces = checks.map(|check| check.map(|(r, _, _)| r));
        Point::match_encodings_up_to_torsion(&sums, nonces)
    }

    /// Whether every `(message, signature)` of `items` verifies under this
    /// key: `true` exactly when each one's [`Self::verify`] succeeds (but
    /// for the ~2⁻¹²⁸ chance of [`batch_holds`]), `false` as soon as an
    /// `R` does not decompress or an `s` is not canonical. Like
    /// `batch_holds`, a `false` names no culprit.
    ///
    /// One key makes the equation of [`verify_batch`] shorter: with the
    /// coefficients `zᵢ` derived as there,
    ///
    /// ```text
    /// [8]([Σ zᵢsᵢ]B + [Σ zᵢkᵢ](−A) − Σ [zᵢ]Rᵢ) == identity
    /// ```
    ///
    /// where the key's term is one stride chain over the tables this key
    /// already holds (32 doublings), and the `Rᵢ`, decompressed together
    /// (eight to a vector chain on a build with the eight-lane engine,
    /// else in lockstep pairs), share one Straus chain as long as the
    /// 128-bit coefficients: at most 128 doublings. From about four
    /// signatures on (five without the lanes) it costs less than a
    /// [`Self::verify`] each (EXPERIMENTS.md C3).
    #[must_use]
    pub fn holds_all(&self, items: &[(&[u8], &Signature)]) -> bool {
        let seed = batch_seed(next_batch_nonce(), items.len(), |i| {
            (items[i].0, items[i].1, &self.key)
        });
        let mut zs = batch_coefficients(&seed, items.len());
        let (mut s_sum, mut k_sum) = (Scalar::ZERO, Scalar::ZERO);
        let mut terms = Vec::with_capacity(items.len());
        for chunk in items.chunks(8) {
            let ks = challenges_eight(std::array::from_fn(|i| {
                let (message, signature) = chunk.get(i)?;
                Some((r_of(signature), self.key.as_bytes(), *message))
            }));
            for (((_, signature), k), z) in chunk.iter().zip(ks).zip(zs.by_ref()) {
                let Some(s) = Scalar::from_canonical_bytes(s_of(signature)) else {
                    return false;
                };
                s_sum = s_sum.add(z.mul(s));
                k_sum = k_sum.add(z.mul(k));
                terms.push(StrausTerm::unfilled(&z));
            }
        }
        let keyed = self.neg_a.double_scalar_mul_basepoint(&s_sum, &k_sum);
        let encodings = items.iter().map(|(_, signature)| r_of(signature));
        Point::multiscalar_mul_encoded(&Scalar::ZERO, &mut terms, encodings)
            .is_some_and(|nonces| keyed.add(&nonces.neg()).is_small_order())
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
    seed: Secret<SEED_LEN>,
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
            seed: Secret::new(*seed),
            expanded: OnceLock::new(),
        }
    }

    fn expanded(&self) -> &ExpandedKey {
        self.expanded
            .get_or_init(|| ExpandedKey::from_seed(self.seed.expose()))
    }

    /// The 32-byte seed this key expands from (RFC 8032 private key).
    ///
    /// This **is** the secret: expose it only to serialize the key into a
    /// confidentiality-protected channel.
    #[must_use]
    pub fn seed(&self) -> &[u8; SEED_LEN] {
        self.seed.expose()
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
/// [8]([−∑ z_i·s_i] B  +  ∑ [z_i] R_i  +  ∑ [z_i·k_i] A_i)  ==  identity
/// ```
///
/// which holds for independently random `z_i` exactly when every
/// individual cofactored equation `[8][s_i]B = [8]R_i + [8][k_i]A_i`
/// holds, except with probability ~2⁻¹²⁸. Because the doubling chain is
/// shared across all 2n+1 terms, the marginal cost per signature is
/// roughly a third of a standalone verification.
///
/// The coefficients are derived by hashing the whole batch together with
/// a process-local nonce (Fiat–Shamir style), so they are unpredictable
/// before the batch is fixed (`batch_seed` hashes the items in eight
/// interleaved parts, and `batch_coefficients` expands the seed, four to
/// a digest, both eight digests at a time in lanes). The factor 8 takes
/// every part of small order out of the sum — one `R` or `A` mangled by
/// small torsion, or two whose torsion the coefficients would cancel —
/// so the equation decides exactly what the lone checks decide. If the combined equation fails,
/// the batch falls back to sequential verification, so the result is
/// always exactly "every signature verifies individually" — a batch
/// rejection costs time, never correctness. [`first_failure`] says which one does not; [`batch_holds`]
/// is the equation alone.
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
/// [`batch_holds`] is the fast path for `None`. When the equation fails
/// — or cannot be built, because a key or `R` does not decompress or an
/// `s` is not canonical — [`first_lone_failure`] names the first bad
/// item, so the answer is always the first failure in order: a chain's
/// first bad link, whatever made the equation fail.
#[must_use]
pub fn first_failure(items: &[(&[u8], &Signature, &VerifyingKey)]) -> Option<usize> {
    if items.len() >= 2 && batch_holds(items) {
        return None;
    }
    first_lone_failure(items)
}

/// The index of the first of `items` that fails [`VerifyingKey::verify`]
/// on its own: one lone check per item up to that one, no equation.
#[must_use]
pub fn first_lone_failure(items: &[(&[u8], &Signature, &VerifyingKey)]) -> Option<usize> {
    items
        .iter()
        .position(|(message, signature, key)| key.verify(message, signature).is_err())
}

/// Whether the combined equation of [`verify_batch`] holds for `items`:
/// `true` exactly when every item verifies on its own (but for the
/// ~2⁻¹²⁸ chance above), `false` as soon as a key or `R` does not
/// decompress or an `s` is not canonical. A `false` says nothing about
/// which item failed and costs no lone check; [`first_lone_failure`]
/// does that.
#[must_use]
pub fn batch_holds(items: &[(&[u8], &Signature, &VerifyingKey)]) -> bool {
    let seed = batch_seed(next_batch_nonce(), items.len(), |i| items[i]);
    let mut zs = batch_coefficients(&seed, items.len());

    // One pass, one vector of terms: each signature contributes [z]R, and
    // each key one [Σ z·k]A over the signatures under it. `keys` holds,
    // per key in the order first seen, the index of its first item and
    // that sum, so an item's key is compared only against the keys seen
    // before it — in a `fig4_cold` read, sixteen head seals under the one
    // root key are one term, one decompression and one table. The
    // equation decompresses the points from the encodings after: every
    // R, then every key at its first item. (A sum that differs from the
    // terms' by a multiple of ℓ moves the equation by a point of small
    // order, which the factor 8 removes.)
    let mut terms = Vec::with_capacity(2 * items.len());
    let mut keys: Vec<(usize, Scalar)> = Vec::with_capacity(items.len());
    let mut b_coeff = Scalar::ZERO;
    for (c, chunk) in items.chunks(8).enumerate() {
        let ks = challenges_eight(std::array::from_fn(|i| {
            let (message, signature, key) = chunk.get(i)?;
            Some((r_of(signature), key.as_bytes(), *message))
        }));
        for (j, (((_, signature, key), k), z)) in chunk.iter().zip(ks).zip(zs.by_ref()).enumerate()
        {
            let Some(s) = Scalar::from_canonical_bytes(s_of(signature)) else {
                return false;
            };
            b_coeff = b_coeff.add(z.mul(s));
            terms.push(StrausTerm::unfilled(&z));
            match keys.iter_mut().find(|(first, _)| items[*first].2 == *key) {
                Some((_, zk)) => *zk = zk.add(z.mul(k)),
                None => keys.push((8 * c + j, z.mul(k))),
            }
        }
    }
    terms.extend(keys.iter().map(|(_, zk)| StrausTerm::unfilled(zk)));
    let encodings = items
        .iter()
        .map(|(_, signature, _)| r_of(signature))
        .chain(keys.iter().map(|(first, _)| items[*first].2.as_bytes()));
    Point::multiscalar_mul_encoded(&b_coeff.neg(), &mut terms, encodings)
        .is_some_and(|sum| sum.is_small_order())
}

/// A signature's `R`, as sent.
fn r_of(signature: &Signature) -> &[u8; 32] {
    signature.0[..32].try_into().expect("split")
}

/// A signature's `s`, as sent.
fn s_of(signature: &Signature) -> &[u8; 32] {
    signature.0[32..].try_into().expect("split")
}

/// A nonce no other batch in this process is given.
fn next_batch_nonce() -> u64 {
    BATCH_NONCE.fetch_add(1, Ordering::Relaxed)
}

/// The seed a batch's coefficients expand from:
/// `H(domain ‖ nonce ‖ d₀ ‖ … ‖ d₇)`, with `d_l` the first 32 bytes of
/// the SHA-512 of the encodings of the items `i ≡ l (mod 8)`, in order —
/// each item's signature, key, message length and message, from
/// `item(i)` for `i` in `0..n`. The eight parts hash in the lanes of
/// one [`edwards::sha512_eight`], so the seed still commits to every
/// item's `R`, `s`, `A` and message at an eighth of the serial hash;
/// the top hash reads 289 bytes, three blocks, whatever `n` is.
fn batch_seed<'a>(
    nonce: u64,
    n: usize,
    item: impl Fn(usize) -> (&'a [u8], &'a Signature, &'a VerifyingKey),
) -> [u8; 64] {
    let item = &item;
    let parts = edwards::sha512_eight(std::array::from_fn(|lane| {
        Some((lane..n).step_by(8).flat_map(move |i| {
            let (message, signature, key) = item(i);
            [
                Piece::Bytes(signature.as_bytes()),
                Piece::Bytes(key.as_bytes()),
                Piece::Length((message.len() as u64).to_le_bytes()),
                Piece::Bytes(message),
            ]
        }))
    }));
    let mut h = Sha512::new();
    h.update(b"proxy-aa.ed25519.batch.v3");
    h.update(&nonce.to_le_bytes());
    for part in &parts {
        h.update(&part[..32]);
    }
    h.finalize()
}

/// A piece of an item's encoding in [`batch_seed`]: bytes where they lie,
/// or a message's length.
enum Piece<'a> {
    Bytes(&'a [u8]),
    Length([u8; 8]),
}

impl AsRef<[u8]> for Piece<'_> {
    fn as_ref(&self) -> &[u8] {
        match self {
            Piece::Bytes(bytes) => bytes,
            Piece::Length(bytes) => bytes,
        }
    }
}

/// The coefficients `z_0 … z_{n−1}` of a batch with this `seed`: `z_i`
/// is lane `i % 4` of the four 128-bit lanes of `SHA-512(seed ‖ i / 4)`,
/// forced odd. The digests hash eight at a time
/// ([`edwards::sha512_eight`]), as many as `n` needs.
fn batch_coefficients(seed: &[u8; 64], n: usize) -> impl Iterator<Item = Scalar> + '_ {
    let blocks = n.div_ceil(4) as u64;
    (0..blocks)
        .step_by(8)
        .flat_map(move |first| {
            let counters: [[u8; 8]; 8] = std::array::from_fn(|l| (first + l as u64).to_le_bytes());
            let digests = edwards::sha512_eight(std::array::from_fn(|l| {
                (first + (l as u64) < blocks).then(|| [&seed[..], &counters[l][..]].into_iter())
            }));
            digests.into_iter().flat_map(|digest| {
                std::array::from_fn::<_, 4, _>(|lane| {
                    let z_bytes: [u8; 16] =
                        digest[16 * lane..16 * lane + 16].try_into().expect("split");
                    Scalar::from_u128(u128::from_le_bytes(z_bytes) | 1)
                })
            })
        })
        .take(n)
}

/// What a challenge hashes: `R`, `A` and the message.
type ChallengeInput<'a> = (&'a [u8; 32], &'a [u8; 32], &'a [u8]);

/// The challenges `k = H(R ‖ A ‖ M) mod ℓ` of up to eight `(R, A, M)`,
/// hashed in the lanes of one [`edwards::sha512_eight`]; zero where there
/// is none.
fn challenges_eight(items: [Option<ChallengeInput<'_>>; 8]) -> [Scalar; 8] {
    let digests = edwards::sha512_eight(
        items.map(|item| item.map(|(r, a, message)| [&r[..], &a[..], message].into_iter())),
    );
    std::array::from_fn(|i| match items[i] {
        Some(_) => Scalar::from_bytes_mod_order_wide(&digests[i]),
        None => Scalar::ZERO,
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
            assert_eq!(first_lone_failure(&items), *expect, "case {i}");
            assert_eq!(batch_holds(&items), expect.is_none(), "case {i}");
            assert_eq!(verify_batch(&items).is_ok(), expect.is_none(), "case {i}");
        }
    }

    /// A signature by `sk` over `message` whose `R` is `[r]B + t`: `s`
    /// is `r + k·a` with `k` hashed over that `R`, so the signature fails
    /// the equation by exactly `t`.
    fn torsioned(sk: &SigningKey, message: &[u8], nonce: u64, t: &Point) -> Signature {
        let r = Scalar::from_u64(nonce);
        let r_bytes = Point::mul_basepoint(&r).add(t).compress();
        let key = sk.expanded();
        let k = challenge_scalar(&r_bytes, key.public.as_bytes(), message);
        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(&k.mul_add(key.scalar, r).to_bytes());
        Signature(sig)
    }

    /// Two signatures under one key whose `R` is off by the point
    /// `(0, −1)` of order 2. A cofactorless lone check refuses each, and
    /// an equation whose odd coefficients sum to an even number lets the
    /// torsion cancel: every path must give the one cofactored verdict,
    /// alone and in every company, whatever the order of the torsion.
    #[test]
    fn a_torsioned_r_gets_one_verdict_from_every_path_and_group_size() {
        let sk = SigningKey::from_seed(&[70u8; 32]);
        let vk = sk.verifying_key();
        let prepared = PreparedKey::new(&vk.decompress().unwrap());
        let mut minus_one = [0xffu8; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        let order_2 = Point::decompress(&minus_one).unwrap();
        let order_8 = Point::decompress(&edwards::ORDER_8).unwrap();
        let honest_messages: Vec<Vec<u8>> = (0..30).map(|i| vec![i; 5]).collect();
        let honest: Vec<Signature> = honest_messages.iter().map(|m| sk.sign(m)).collect();
        for t in [order_2, order_8, order_8.double()] {
            let messages: [&[u8]; 2] = [b"first", b"second"];
            let sigs = [
                torsioned(&sk, messages[0], 11, &t),
                torsioned(&sk, messages[1], 12, &t),
            ];
            for (m, sig) in messages.iter().zip(&sigs) {
                assert!(vk.verify(m, sig).is_ok());
                assert!(prepared.verify(m, sig).is_ok());
            }
            // The pair alone and beside honest signatures: groups past
            // eight, on both sides of the lane chain's threshold in both
            // equations (2 + extra terms under one key, twice that in a
            // batch).
            for extra in (0..=honest.len()).filter(|&n| n <= 14 || n == honest.len()) {
                let mut items: Vec<(&[u8], &Signature)> =
                    messages.iter().copied().zip(&sigs).collect();
                items.extend(
                    honest_messages[..extra]
                        .iter()
                        .map(Vec::as_slice)
                        .zip(&honest),
                );
                let keyed: Vec<(&[u8], &Signature, &VerifyingKey)> =
                    items.iter().map(|(m, s)| (*m, *s, &vk)).collect();
                assert!(batch_holds(&keyed), "batch, {extra} extra");
                assert_eq!(first_failure(&keyed), None, "{extra} extra");
                assert!(prepared.holds_all(&items), "one key, {extra} extra");
            }
            // A torsioned R whose s is off is refused everywhere.
            let mut bad = sigs[1];
            bad.0[40] ^= 1;
            let items: Vec<(&[u8], &Signature)> =
                vec![(messages[0], &sigs[0]), (messages[1], &bad)];
            assert!(vk.verify(messages[1], &bad).is_err());
            assert!(!prepared.holds_all(&items));
            let keyed: Vec<(&[u8], &Signature, &VerifyingKey)> =
                items.iter().map(|(m, s)| (*m, *s, &vk)).collect();
            assert_eq!(first_failure(&keyed), Some(1));
        }
    }

    /// The one-key equation over n = 1–40 signatures says what the n lone
    /// checks say, with every kind of forgery at every position.
    #[test]
    fn the_one_key_equation_agrees_with_lone_checks() {
        let sk = SigningKey::from_seed(&[71u8; 32]);
        let vk = sk.verifying_key();
        let prepared = PreparedKey::new(&vk.decompress().unwrap());
        let other = SigningKey::from_seed(&[72u8; 32]);
        let messages: Vec<Vec<u8>> = (0..40u32).map(|i| i.to_le_bytes().repeat(3)).collect();
        let sigs: Vec<Signature> = messages.iter().map(|m| sk.sign(m)).collect();
        // A flipped bit of s, a signature by another key, no point's
        // encoding as R, and s ≥ ℓ.
        let forge = |kind: usize, message: &[u8], mut sig: Signature| match kind {
            0 => {
                sig.0[33] ^= 4;
                sig
            }
            1 => other.sign(message),
            2 => {
                sig.0[..32].copy_from_slice(&[2u8; 32]);
                sig
            }
            _ => {
                sig.0[32..].copy_from_slice(&[0xff; 32]);
                sig
            }
        };
        for n in 1..=40 {
            let items: Vec<(&[u8], &Signature)> =
                messages[..n].iter().map(Vec::as_slice).zip(&sigs).collect();
            assert!(prepared.holds_all(&items), "n = {n}");
            for at in 0..n {
                let forged = forge((n + at) % 4, &messages[at], sigs[at]);
                assert!(prepared.verify(&messages[at], &forged).is_err());
                let mut with_forgery = items.clone();
                with_forgery[at].1 = &forged;
                assert!(
                    !prepared.holds_all(&with_forgery),
                    "n = {n}, forged at {at}"
                );
            }
        }
        assert!(prepared.holds_all(&[]));
    }

    /// Both equations over n = 1–100 signatures, each with one forgery
    /// at every position, say what the n lone checks say: every count of
    /// terms the lane engine deals, on both sides of its chain threshold.
    #[test]
    fn both_equations_agree_with_lone_checks_up_to_a_hundred() {
        let sk = SigningKey::from_seed(&[73u8; 32]);
        let vk = sk.verifying_key();
        let prepared = PreparedKey::new(&vk.decompress().unwrap());
        let other = SigningKey::from_seed(&[74u8; 32]);
        let signers: Vec<SigningKey> = (0..7u8)
            .map(|i| SigningKey::from_seed(&[80 + i; 32]))
            .collect();
        let keys: Vec<VerifyingKey> = signers.iter().map(SigningKey::verifying_key).collect();
        let messages: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().repeat(2)).collect();
        let one_key: Vec<Signature> = messages.iter().map(|m| sk.sign(m)).collect();
        let many_keys: Vec<Signature> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| signers[i % signers.len()].sign(m))
            .collect();
        // A flipped bit of s, a signature by another key, no point's
        // encoding as R, s ≥ ℓ, and a flipped bit of R.
        let forge = |kind: usize, message: &[u8], mut sig: Signature| {
            match kind {
                0 => sig.0[40] ^= 1,
                1 => sig = other.sign(message),
                2 => sig.0[..32].copy_from_slice(&[2u8; 32]),
                3 => sig.0[32..].copy_from_slice(&[0xff; 32]),
                _ => sig.0[5] ^= 0x10,
            }
            sig
        };
        for n in 1..=100 {
            let items: Vec<(&[u8], &Signature)> = messages[..n]
                .iter()
                .map(Vec::as_slice)
                .zip(&one_key)
                .collect();
            let keyed: Vec<(&[u8], &Signature, &VerifyingKey)> = messages[..n]
                .iter()
                .zip(&many_keys)
                .enumerate()
                .map(|(i, (m, s))| (m.as_slice(), s, &keys[i % keys.len()]))
                .collect();
            assert!(prepared.holds_all(&items), "n = {n}");
            assert!(batch_holds(&keyed), "n = {n}");
            for at in 0..n {
                let kind = (n + at) % 5;
                let forged = forge(kind, &messages[at], one_key[at]);
                let lone = prepared.verify(&messages[at], &forged).is_ok();
                let mut with_forgery = items.clone();
                with_forgery[at].1 = &forged;
                assert_eq!(
                    prepared.holds_all(&with_forgery),
                    lone,
                    "one key, n = {n}, at {at}"
                );

                let forged = forge(kind, &messages[at], many_keys[at]);
                let lone = keys[at % keys.len()].verify(&messages[at], &forged).is_ok();
                let mut with_forgery = keyed.clone();
                with_forgery[at].1 = &forged;
                assert_eq!(batch_holds(&with_forgery), lone, "batch, n = {n}, at {at}");
            }
        }
    }

    /// Lone checks eight to a lane run, at group sizes 1–17 (so every
    /// fill of a run of eight, and runs beside runs), under five prepared
    /// keys, each verdict equal to that item's own `PreparedKey::verify`:
    /// honest, and with one forgery of each kind at every position — a
    /// flipped bit of `s`, `s ≥ ℓ`, an `R` that is no point, an `R` off by
    /// a point of order 8 (which the cofactored check accepts, after
    /// trying the translates), a wrong message.
    #[test]
    fn eight_lane_checks_agree_with_lone_checks_at_every_group_size() {
        let signers: Vec<SigningKey> = (0..5u8)
            .map(|i| SigningKey::from_seed(&[90 + i; 32]))
            .collect();
        let keys: Vec<PreparedKey> = signers
            .iter()
            .map(|sk| PreparedKey::new(&sk.verifying_key().decompress().unwrap()))
            .collect();
        let order_8 = Point::decompress(&edwards::ORDER_8).unwrap();
        let messages: Vec<Vec<u8>> = (0..17u32).map(|i| i.to_le_bytes().repeat(5)).collect();
        let signer = |i: usize| (&signers[i % signers.len()], &keys[i % keys.len()]);
        let honest: Vec<Signature> = (0..17).map(|i| signer(i).0.sign(&messages[i])).collect();
        let forge = |kind: usize, i: usize| {
            let mut sig = honest[i];
            let mut message = messages[i].clone();
            match kind {
                0 => sig.0[40] ^= 1,
                1 => sig.0[32..].copy_from_slice(&[0xff; 32]),
                2 => sig.0[..32].copy_from_slice(&[2u8; 32]),
                3 => sig = torsioned(signer(i).0, &message, 1000 + i as u64, &order_8),
                _ => message[0] ^= 1,
            }
            (message, sig)
        };
        let lanes = |items: &[(&[u8], &Signature, &PreparedKey)]| -> Vec<bool> {
            items
                .chunks(8)
                .flat_map(|run| {
                    let verdicts = PreparedKey::verify_eight(run);
                    assert!(verdicts[run.len()..].iter().all(|v| !v), "an empty lane");
                    verdicts.into_iter().take(run.len())
                })
                .collect()
        };
        let mut verdicts = [0usize; 2];
        for n in 1..=17 {
            let items: Vec<(&[u8], &Signature, &PreparedKey)> = (0..n)
                .map(|i| (messages[i].as_slice(), &honest[i], signer(i).1))
                .collect();
            assert!(lanes(&items).iter().all(|v| *v), "n = {n}");
            for at in 0..n {
                for kind in 0..5 {
                    let (message, sig) = forge(kind, at);
                    let mut forged = items.clone();
                    forged[at] = (&message, &sig, signer(at).1);
                    let lone: Vec<bool> = forged
                        .iter()
                        .map(|(m, s, key)| key.verify(m, s).is_ok())
                        .collect();
                    assert_eq!(lanes(&forged), lone, "n = {n}, kind {kind} at {at}");
                    verdicts[usize::from(lone[at])] += 1;
                }
            }
        }
        // Both verdicts occurred: the torsioned R verifies, the rest not.
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
        assert_eq!(PreparedKey::verify_eight(&[]), [false; 8]);
    }

    /// `batch_holds` merges the key terms of items under one key into
    /// one term; the equation still says what the lone checks say, a
    /// forgery under a merged key included.
    #[test]
    fn merged_key_terms_keep_the_lone_verdicts() {
        let root = SigningKey::from_seed(&[100u8; 32]);
        let others: Vec<SigningKey> = (0..6u8)
            .map(|i| SigningKey::from_seed(&[20 + i; 32]))
            .collect();
        // The shape of a fig4_cold read: a root-sealed head, then links
        // under keys of their own, six keys for twenty-four links.
        let signers: Vec<&SigningKey> = (0..30)
            .map(|i| match i % 5 {
                0 => &root,
                _ => &others[i % others.len()],
            })
            .collect();
        let vks: Vec<VerifyingKey> = signers.iter().map(|sk| sk.verifying_key()).collect();
        let messages: Vec<Vec<u8>> = (0..30u32).map(|i| i.to_le_bytes().repeat(4)).collect();
        let sigs: Vec<Signature> = signers
            .iter()
            .zip(&messages)
            .map(|(sk, m)| sk.sign(m))
            .collect();
        for n in [2, 5, 10, 16, 30] {
            let items: Vec<(&[u8], &Signature, &VerifyingKey)> = (0..n)
                .map(|i| (messages[i].as_slice(), &sigs[i], &vks[i]))
                .collect();
            assert!(batch_holds(&items), "n = {n}");
            for at in 0..n {
                let mut forged_sig = sigs[at];
                forged_sig.0[33] ^= 2;
                let mut forged = items.clone();
                forged[at].1 = &forged_sig;
                assert!(!batch_holds(&forged), "n = {n}, forged at {at}");
                assert_eq!(first_failure(&forged), Some(at), "n = {n}");
            }
        }
    }

    #[test]
    fn batch_coefficients_are_odd_distinct_and_seeded() {
        let coefficients =
            |seed: u8, n: usize| -> Vec<Scalar> { batch_coefficients(&[seed; 64], n).collect() };
        // Forty: one run of eight digests in lanes and part of a second.
        let zs = coefficients(1, 40);
        assert_eq!(zs.len(), 40);
        for (i, z) in zs.iter().enumerate() {
            assert_eq!(z.bit(0), 1, "z_{i} is odd");
            assert_eq!(z.to_bytes()[16..], [0u8; 16], "z_{i} is below 2^128");
            assert!(!zs[..i].contains(z), "z_{i} repeats an earlier one");
            let mut h = Sha512::new();
            h.update(&[1; 64]);
            h.update(&((i / 4) as u64).to_le_bytes());
            let lane = &h.finalize()[16 * (i % 4)..16 * (i % 4) + 16];
            let expect = Scalar::from_u128(u128::from_le_bytes(lane.try_into().unwrap()) | 1);
            assert_eq!(*z, expect, "z_{i} as defined");
        }
        for n in [0, 1, 4, 5, 31, 32, 33] {
            assert_eq!(coefficients(1, n), zs[..n], "{n} coefficients");
        }
        let other = coefficients(2, 40);
        assert!(zs.iter().zip(&other).all(|(a, b)| a != b));
    }

    /// The batch seed is the tree its doc gives, and it binds every item:
    /// a changed message, `R`, `s` or key at any of positions 0–17 (every
    /// lane of the tree, and eight lanes again after) changes it, and so
    /// does the nonce.
    #[test]
    fn the_batch_seed_binds_every_part_of_every_item() {
        let signers: Vec<SigningKey> = (0..3u8)
            .map(|i| SigningKey::from_seed(&[110 + i; 32]))
            .collect();
        let vks: Vec<VerifyingKey> = signers.iter().map(SigningKey::verifying_key).collect();
        let messages: Vec<Vec<u8>> = (0..18u8).map(|i| vec![i; 80 + usize::from(i)]).collect();
        let sigs: Vec<Signature> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| signers[i % 3].sign(m))
            .collect();
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> = (0..18)
            .map(|i| (messages[i].as_slice(), &sigs[i], &vks[i % 3]))
            .collect();
        let seed = |nonce: u64, items: &[(&[u8], &Signature, &VerifyingKey)]| {
            batch_seed(nonce, items.len(), |i| items[i])
        };
        // The top hash reads each lane digest's first 32 bytes: 25 + 8 +
        // 8 × 32 = 289 bytes, three SHA-512 blocks, for a batch of two
        // (six lanes empty) as for one of eighteen.
        let expected = |nonce: u64, items: &[(&[u8], &Signature, &VerifyingKey)]| {
            let mut top = b"proxy-aa.ed25519.batch.v3".to_vec();
            top.extend_from_slice(&nonce.to_le_bytes());
            for lane in 0..8 {
                let mut h = Sha512::new();
                for (message, signature, key) in items.iter().skip(lane).step_by(8) {
                    h.update(signature.as_bytes());
                    h.update(key.as_bytes());
                    h.update(&(message.len() as u64).to_le_bytes());
                    h.update(message);
                }
                top.extend_from_slice(&h.finalize()[..32]);
            }
            assert_eq!(top.len(), 289);
            Sha512::digest(&top)
        };
        for n in [1, 2, 5, 8, 9] {
            assert_eq!(seed(7, &items[..n]), expected(7, &items[..n]), "n = {n}");
        }
        let base = seed(7, &items);
        assert_eq!(base, expected(7, &items));
        assert_ne!(seed(8, &items), base, "the nonce");
        for at in 0..items.len() {
            let mut message = messages[at].clone();
            message[0] ^= 1;
            let (mut r, mut s) = (sigs[at], sigs[at]);
            r.0[0] ^= 1;
            s.0[40] ^= 1;
            let changes = [
                ("message", (message.as_slice(), &sigs[at], items[at].2)),
                ("R", (items[at].0, &r, items[at].2)),
                ("s", (items[at].0, &s, items[at].2)),
                ("key", (items[at].0, &sigs[at], &vks[(at + 1) % 3])),
            ];
            for (what, item) in changes {
                let mut changed = items.clone();
                changed[at] = item;
                assert_ne!(seed(7, &changed), base, "{what} at {at}");
            }
        }
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
