//! Authenticated symmetric sealing (encrypt-then-MAC).
//!
//! This is the workspace's equivalent of Kerberos "encrypt under the session
//! key": confidentiality from ChaCha20, integrity from HMAC-SHA-256, with
//! independent subkeys derived from the master key. Used to seal tickets,
//! proxy certificates (paper §6.2), and proxy keys in transit (Fig. 3's
//! `{K_proxy}K_session`).

use rand::RngCore;

use crate::chacha20;
use crate::ct::ct_eq;
use crate::hmac::HmacSha256;
use crate::keys::{Nonce, SymmetricKey};

/// Length of the integrity tag appended to sealed messages.
pub const TAG_LEN: usize = 32;

/// Errors from [`open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealError {
    /// Ciphertext too short to contain nonce and tag.
    Truncated,
    /// Integrity tag did not verify: wrong key or tampered ciphertext.
    BadTag,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::Truncated => write!(f, "sealed message truncated"),
            SealError::BadTag => write!(f, "seal integrity check failed"),
        }
    }
}

impl std::error::Error for SealError {}

const ENC_LABEL: &[u8] = b"proxy-aa seal enc";
const MAC_LABEL: &[u8] = b"proxy-aa seal mac";

/// The cipher key and the keyed MAC context every seal under one master
/// key uses. They depend on the master key alone, so a [`SymmetricKey`]
/// derives them once ([`SymmetricKey::seal_keys`]) instead of once per
/// message.
pub(crate) struct SealKeys {
    enc: [u8; 32],
    mac: HmacSha256,
}

impl SealKeys {
    /// Derives both subkeys of `master`: each is the HMAC of its domain
    /// separation label under the master key (single-block HKDF-like
    /// expand; sufficient for the fixed-size keys used throughout this
    /// workspace).
    pub(crate) fn derive(master: &SymmetricKey) -> Self {
        Self {
            enc: master.mac(ENC_LABEL),
            mac: HmacSha256::new(&master.mac(MAC_LABEL)),
        }
    }

    /// `HMAC(mac_key, nonce || aad_len_le64 || aad || ciphertext)`.
    fn tag(&self, nonce: &[u8], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = self.mac.clone();
        mac.update(nonce);
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(aad);
        mac.update(ct);
        mac.finalize()
    }
}

/// Seals `plaintext` (+ authenticated `aad`) under `key` with a fresh nonce
/// drawn from `rng`.
///
/// Wire layout: `nonce (12) || ciphertext || tag (32)` where
/// `tag = HMAC(mac_key, nonce || aad_len_le64 || aad || ciphertext)`.
pub fn seal<R: RngCore>(key: &SymmetricKey, aad: &[u8], plaintext: &[u8], rng: &mut R) -> Vec<u8> {
    let nonce = Nonce::generate(rng);
    seal_with_nonce(key, &nonce, aad, plaintext)
}

/// Deterministic variant of [`seal`] for tests and derived-nonce protocols.
#[must_use]
pub fn seal_with_nonce(key: &SymmetricKey, nonce: &Nonce, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let keys = key.seal_keys();
    let ct = chacha20::encrypt(&keys.enc, nonce.as_bytes(), plaintext);
    let mut out = Vec::with_capacity(chacha20::NONCE_LEN + ct.len() + TAG_LEN);
    out.extend_from_slice(nonce.as_bytes());
    out.extend_from_slice(&ct);
    out.extend_from_slice(&keys.tag(nonce.as_bytes(), aad, &ct));
    out
}

/// Wire length of a sealed 32-byte key: `nonce || ciphertext(32) || tag`.
pub const SEALED_KEY32_LEN: usize = chacha20::NONCE_LEN + 32 + TAG_LEN;

/// Seals a fixed 32-byte key under `key` without heap allocation.
///
/// Byte-identical to `seal(key, aad, key32, rng)` for the same nonce; the
/// fixed-width output lets hot paths that seal proxy keys (one per grant)
/// keep the sealed form inline instead of boxing it. [`open`] accepts the
/// result unchanged.
pub fn seal_key32<R: RngCore>(
    key: &SymmetricKey,
    aad: &[u8],
    key32: &[u8; 32],
    rng: &mut R,
) -> [u8; SEALED_KEY32_LEN] {
    let nonce = Nonce::generate(rng);
    seal_key32_with_nonce(key, &nonce, aad, key32)
}

/// Deterministic variant of [`seal_key32`] for tests and derived-nonce
/// protocols.
#[must_use]
pub fn seal_key32_with_nonce(
    key: &SymmetricKey,
    nonce: &Nonce,
    aad: &[u8],
    key32: &[u8; 32],
) -> [u8; SEALED_KEY32_LEN] {
    let keys = key.seal_keys();
    let mut out = [0u8; SEALED_KEY32_LEN];
    out[..chacha20::NONCE_LEN].copy_from_slice(nonce.as_bytes());
    let ct_end = chacha20::NONCE_LEN + 32;
    out[chacha20::NONCE_LEN..ct_end].copy_from_slice(key32);
    chacha20::xor_stream(
        &keys.enc,
        1,
        nonce.as_bytes(),
        &mut out[chacha20::NONCE_LEN..ct_end],
    );
    let tag = keys.tag(nonce.as_bytes(), aad, &out[chacha20::NONCE_LEN..ct_end]);
    out[ct_end..].copy_from_slice(&tag);
    out
}

/// Opens a message produced by [`seal`], verifying integrity before
/// returning the plaintext.
///
/// # Errors
///
/// * [`SealError::Truncated`] — `sealed` shorter than nonce + tag.
/// * [`SealError::BadTag`] — wrong key, wrong `aad`, or tampering.
pub fn open(key: &SymmetricKey, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, SealError> {
    if sealed.len() < chacha20::NONCE_LEN + TAG_LEN {
        return Err(SealError::Truncated);
    }
    let (nonce_bytes, rest) = sealed.split_at(chacha20::NONCE_LEN);
    let (ct, tag) = rest.split_at(rest.len() - TAG_LEN);
    let keys = key.seal_keys();
    if !ct_eq(&keys.tag(nonce_bytes, aad, ct), tag) {
        return Err(SealError::BadTag);
    }
    let nonce: [u8; chacha20::NONCE_LEN] = nonce_bytes.try_into().expect("split length");
    Ok(chacha20::decrypt(&keys.enc, &nonce, ct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> SymmetricKey {
        SymmetricKey::from_bytes([9u8; 32])
    }

    #[test]
    fn round_trip() {
        let mut rng = StdRng::seed_from_u64(0);
        let sealed = seal(&key(), b"ticket", b"session key material", &mut rng);
        let opened = open(&key(), b"ticket", &sealed).unwrap();
        assert_eq!(opened, b"session key material");
    }

    #[test]
    fn seal_key32_matches_generic_seal_and_opens() {
        let nonce = Nonce::from_bytes([3u8; 12]);
        let key32 = [0x42u8; 32];
        let fixed = seal_key32_with_nonce(&key(), &nonce, b"aad", &key32);
        let generic = seal_with_nonce(&key(), &nonce, b"aad", &key32);
        assert_eq!(fixed.as_slice(), generic.as_slice());
        assert_eq!(open(&key(), b"aad", &fixed).unwrap(), key32);
        let mut rng = StdRng::seed_from_u64(7);
        let sealed = seal_key32(&key(), b"aad", &key32, &mut rng);
        assert_eq!(sealed.len(), SEALED_KEY32_LEN);
        assert_eq!(open(&key(), b"aad", &sealed).unwrap(), key32);
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Sealed bytes recorded from the commit before keys kept their
    /// schedule (PR 22), which derived both subkeys and re-keyed the MAC
    /// on every call: same key, nonce and aad must give these bytes
    /// whether the key is on its first use or its second, and they must
    /// open.
    #[test]
    fn golden_vectors_from_the_per_call_derivation_still_hold() {
        const AAD: &[u8] = b"golden aad v1";
        const LONG: &[u8] =
            b"the quick brown fox jumps over the lazy dog, twice over the 64-byte block line";
        let key = SymmetricKey::from_bytes(std::array::from_fn(|i| {
            (i as u8).wrapping_mul(7).wrapping_add(3)
        }));
        let nonce = Nonce::from_bytes([0xa5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let key32: [u8; 32] = std::array::from_fn(|i| 0xf0 ^ i as u8);
        let sealed_key32 = unhex(
            "a50102030405060708090a0b38fa6b275190678eee48f6df1eb44640d29ce043\
             060380672fcb064be9ec020babe28a3dcfc39947cd6710cd19bdad4a5f319ab5\
             15f57c2a978aff69855c1440",
        );
        let sealed_long = unhex(
            "a50102030405060708090a0bbc63fcf4d410f81a7d916e568d3ed69f54127a80\
             88930bf0b40283d66073cc909d0eb435e89975b11e29083eef1ba573856f474e\
             320b415d732f56dea7978d7c21df8e87bdb4b05f005b01b8a17022190246ca0c\
             d41025ac53eb4b75824d7c54aba3bb8ea84c1e8be013033b860a",
        );
        let sealed_empty = unhex(
            "a50102030405060708090a0b944238c2f80ab7d1f91a1c6c8d5d4b88e7caf528\
             a6cf3c8f360cacad6e15bd58",
        );
        for _ in 0..2 {
            assert_eq!(
                seal_key32_with_nonce(&key, &nonce, AAD, &key32).as_slice(),
                sealed_key32
            );
            assert_eq!(seal_with_nonce(&key, &nonce, AAD, LONG), sealed_long);
            assert_eq!(seal_with_nonce(&key, &nonce, b"", b""), sealed_empty);
        }
        let cold = SymmetricKey::from_bytes(*key.as_bytes());
        assert_eq!(open(&cold, AAD, &sealed_key32).unwrap(), key32);
        assert_eq!(open(&key, AAD, &sealed_long).unwrap(), LONG);
        assert_eq!(open(&key, b"", &sealed_empty).unwrap(), b"");
    }

    #[test]
    fn the_two_seal_subkeys_differ_and_are_stable() {
        // A subkey is the plain HMAC of its label under the master key.
        let enc = HmacSha256::mac(key().as_bytes(), ENC_LABEL);
        let mac = HmacSha256::mac(key().as_bytes(), MAC_LABEL);
        assert_ne!(enc, mac);
        for _ in 0..2 {
            let keys = SealKeys::derive(&key());
            assert_eq!(keys.enc, enc);
            assert_eq!(
                keys.tag(b"nonce", b"aad", b"ct"),
                HmacSha256::mac(&mac, b"nonce\x03\0\0\0\0\0\0\0aadct")
            );
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let sealed = seal(&key(), b"", b"secret", &mut rng);
        let other = SymmetricKey::from_bytes([8u8; 32]);
        assert_eq!(open(&other, b"", &sealed), Err(SealError::BadTag));
    }

    #[test]
    fn wrong_aad_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let sealed = seal(&key(), b"context-a", b"secret", &mut rng);
        assert_eq!(open(&key(), b"context-b", &sealed), Err(SealError::BadTag));
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut sealed = seal(&key(), b"", b"secret payload", &mut rng);
        // Flip one bit in each position and ensure every mutation is caught.
        for i in 0..sealed.len() {
            sealed[i] ^= 1;
            assert_eq!(
                open(&key(), b"", &sealed),
                Err(SealError::BadTag),
                "byte {i}"
            );
            sealed[i] ^= 1;
        }
        assert!(open(&key(), b"", &sealed).is_ok());
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(open(&key(), b"", &[0u8; 10]), Err(SealError::Truncated));
        assert_eq!(open(&key(), b"", &[]), Err(SealError::Truncated));
    }

    #[test]
    fn empty_plaintext_allowed() {
        let mut rng = StdRng::seed_from_u64(1);
        let sealed = seal(&key(), b"aad", b"", &mut rng);
        assert_eq!(open(&key(), b"aad", &sealed).unwrap(), b"");
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = seal(&key(), b"", b"same message", &mut rng);
        let b = seal(&key(), b"", b"same message", &mut rng);
        assert_ne!(a, b);
        assert_eq!(
            open(&key(), b"", &a).unwrap(),
            open(&key(), b"", &b).unwrap()
        );
    }
}
