//! Key and nonce newtypes shared by the higher protocol layers.
//!
//! Using distinct types for session keys, proxy keys, and nonces keeps the
//! protocol code honest about *which* secret is being used where — a proxy
//! key must never be confused with the session key protecting it in transit
//! (paper Fig. 3).

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::RngCore;

use crate::chacha20;
use crate::ct::Secret;
use crate::hmac::{HmacSha256, TAG_LEN_256};
use crate::seal::SealKeys;

/// Error type for key material parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// Provided byte slice had the wrong length.
    WrongLength {
        /// Expected number of bytes.
        expected: usize,
        /// Actual number of bytes supplied.
        actual: usize,
    },
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::WrongLength { expected, actual } => {
                write!(
                    f,
                    "wrong key material length: expected {expected}, got {actual}"
                )
            }
        }
    }
}

impl std::error::Error for KeyError {}

/// A 256-bit symmetric key (session key, proxy key, or long-term key).
///
/// The bytes are a [`Secret`]: `Debug` redacts them, and a key has no
/// `==`, so neither can any type that holds one derive it.
///
/// Everything SHA-256 computes from the key bytes alone — the two HMAC
/// pad midstates and the [`crate::seal`] subkeys — is derived on first
/// use and kept behind one pointer that clones share, so a key that
/// seals or checks a message per request pays for its pads once. The
/// pointer, not the ~500 bytes behind it, is what travels in every value
/// that carries a key.
#[derive(Clone)]
pub struct SymmetricKey {
    bytes: Secret<32>,
    schedule: OnceLock<Arc<Schedule>>,
}

/// What a key derives from its bytes. The seal half is lazy on its own:
/// a proxy key that signs one possession proof never derives subkeys.
struct Schedule {
    mac: HmacSha256,
    seal: OnceLock<SealKeys>,
}

impl SymmetricKey {
    /// Wraps raw key bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self {
            bytes: Secret::new(bytes),
            schedule: OnceLock::new(),
        }
    }

    /// Parses a key from a slice.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::WrongLength`] if `bytes` is not 32 bytes.
    pub fn try_from_slice(bytes: &[u8]) -> Result<Self, KeyError> {
        let arr: [u8; 32] = bytes.try_into().map_err(|_| KeyError::WrongLength {
            expected: 32,
            actual: bytes.len(),
        })?;
        Ok(Self::from_bytes(arr))
    }

    /// Generates a fresh random key from `rng`.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        Self::from_bytes(bytes)
    }

    /// Exposes the raw key bytes (needed to feed MACs and ciphers).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        self.bytes.expose()
    }

    fn schedule(&self) -> &Schedule {
        self.schedule.get_or_init(|| {
            Arc::new(Schedule {
                mac: HmacSha256::new(self.bytes.expose()),
                seal: OnceLock::new(),
            })
        })
    }

    /// HMAC-SHA-256 tag of `data` under this key; the same bytes as
    /// [`HmacSha256::mac`] under [`Self::as_bytes`]. Works on a copy of
    /// the keyed context the key keeps, so only the first call on a key
    /// (or on a clone taken before it) absorbs the pad blocks.
    #[must_use]
    pub fn mac(&self, data: &[u8]) -> Secret<TAG_LEN_256> {
        let mut m = self.schedule().mac.clone();
        m.update(data);
        m.finalize()
    }

    /// Constant-time verification of `tag` over `data` under this key.
    #[must_use]
    pub fn verify_mac(&self, data: &[u8], tag: &[u8]) -> bool {
        self.mac(data).ct_eq(tag)
    }

    /// The subkeys [`crate::seal`] works under.
    pub(crate) fn seal_keys(&self) -> &SealKeys {
        self.schedule().seal.get_or_init(|| SealKeys::derive(self))
    }

    /// Derives now everything this key would derive on first use. A
    /// holder that hands out clones (a key resolver, a session table)
    /// calls this on the copy it stores: clones of a key that has
    /// derived share the result, clones of one that has not each start
    /// over.
    pub fn prepare(&self) {
        let _ = self.seal_keys();
    }

    /// Whether `self` and `other` hold the very same derived state
    /// (both have derived, and one is a clone of the other) — a probe
    /// for tests that a holder derives on its stored copy.
    #[doc(hidden)]
    #[must_use]
    pub fn shares_schedule_with(&self, other: &Self) -> bool {
        match (self.schedule.get(), other.schedule.get()) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymmetricKey(<redacted>)")
    }
}

/// A 96-bit nonce for [`crate::chacha20`] / [`crate::seal`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Nonce([u8; chacha20::NONCE_LEN]);

impl Nonce {
    /// Wraps raw nonce bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; chacha20::NONCE_LEN]) -> Self {
        Self(bytes)
    }

    /// Generates a fresh random nonce from `rng`.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; chacha20::NONCE_LEN];
        rng.fill_bytes(&mut bytes);
        Self(bytes)
    }

    /// Exposes the raw nonce bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; chacha20::NONCE_LEN] {
        &self.0
    }
}

impl fmt::Debug for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nonce(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn key_debug_redacts() {
        let key = SymmetricKey::from_bytes([7u8; 32]);
        let s = format!("{key:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains('7'));
    }

    /// Fails if `printed` shows any four consecutive bytes of `key`, of
    /// `key ⊕ ipad` or of `key ⊕ opad`, as hex or as the decimal list a
    /// derived `Debug` prints for a byte array.
    fn assert_no_key_window(printed: &str, key: &[u8; 32]) {
        let printed: String = printed.split_whitespace().collect();
        let printed = printed.to_lowercase();
        for pad in [0x00u8, 0x36, 0x5c] {
            for window in key.map(|b| b ^ pad).windows(4) {
                let decimal: Vec<String> = window.iter().map(u8::to_string).collect();
                let hex: String = window.iter().map(|b| format!("{b:02x}")).collect();
                for shown in [decimal.join(","), hex] {
                    assert!(
                        !printed.contains(&shown),
                        "{shown} (key ^ {pad:#04x}) shows in {printed}"
                    );
                }
            }
        }
    }

    #[test]
    fn debug_discloses_no_key_material_before_or_after_first_use() {
        let bytes: [u8; 32] = std::array::from_fn(|i| 0x81 ^ (i as u8).wrapping_mul(29));
        let key = SymmetricKey::from_bytes(bytes);
        let before = format!("{key:?}");
        assert_no_key_window(&before, &bytes);
        let _ = key.mac(b"first use");
        key.prepare();
        assert_eq!(format!("{key:?}"), before);
        assert_no_key_window(&format!("{key:#?}"), &bytes);

        let mut context = HmacSha256::new(&bytes);
        assert_no_key_window(&format!("{context:?}"), &bytes);
        context.update(b"some message");
        assert_no_key_window(&format!("{context:#?}"), &bytes);
        assert_no_key_window(&format!("{:?}", key.schedule().mac), &bytes);
    }

    #[test]
    fn tags_and_debug_ignore_whether_the_schedule_exists() {
        let cold = SymmetricKey::from_bytes([7u8; 32]);
        let warm = cold.clone();
        warm.prepare();
        assert!(cold.schedule.get().is_none() && warm.schedule.get().is_some());
        assert!(cold.verify_mac(b"m", warm.mac(b"m").expose()));
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        assert!(!SymmetricKey::from_bytes([8u8; 32]).verify_mac(b"m", warm.mac(b"m").expose()));
    }

    #[test]
    fn clones_taken_before_and_after_first_use_give_the_same_tags() {
        let key = SymmetricKey::from_bytes([0x42; 32]);
        let early = key.clone();
        let tag = *key.mac(b"message").expose();
        let late = key.clone();
        assert_eq!(*early.mac(b"message").expose(), tag);
        assert_eq!(*late.mac(b"message").expose(), tag);
        assert_eq!(tag, HmacSha256::mac(&[0x42; 32], b"message"));
        // The late clone shares what the key derived; the early one had
        // nothing to share and derived its own.
        assert!(late.shares_schedule_with(&key));
        assert!(!early.shares_schedule_with(&key));
        assert!(!key.shares_schedule_with(&SymmetricKey::from_bytes([0x42; 32])));
    }

    #[test]
    fn a_possession_proof_alone_derives_no_seal_subkeys() {
        let key = SymmetricKey::from_bytes([0x11; 32]);
        let _ = key.mac(b"challenge");
        let schedule = key.schedule.get().expect("derived by mac");
        assert!(schedule.seal.get().is_none());
        key.prepare();
        assert!(schedule.seal.get().is_some());
    }

    #[test]
    fn eight_threads_first_using_one_key_agree() {
        let key = SymmetricKey::from_bytes([0x5a; 32]);
        let nonce = Nonce::from_bytes([1; 12]);
        let start = std::sync::Barrier::new(8);
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (
                            *key.mac(b"raced").expose(),
                            crate::seal::seal_with_nonce(&key, &nonce, b"aad", b"raced"),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no thread panics"))
                .collect()
        });
        let fresh = SymmetricKey::from_bytes([0x5a; 32]);
        let expected = (
            HmacSha256::mac(&[0x5a; 32], b"raced"),
            crate::seal::seal_with_nonce(&fresh, &nonce, b"aad", b"raced"),
        );
        assert!(results.iter().all(|r| *r == expected));
    }

    #[test]
    fn a_key_is_its_bytes_and_one_pointer() {
        // Every `Message` that carries a proxy key carries this many
        // bytes; the schedule behind the pointer is ~500.
        assert!(std::mem::size_of::<SymmetricKey>() <= 48);
    }

    #[test]
    fn a_tag_checks_only_under_the_key_that_made_it() {
        let a = SymmetricKey::from_bytes([7u8; 32]);
        let tag = a.mac(b"m");
        assert!(SymmetricKey::from_bytes([7u8; 32]).verify_mac(b"m", tag.expose()));
        // A single differing key byte — anywhere, including the last —
        // fails the constant-time compare.
        for i in [0usize, 15, 31] {
            let mut bytes = [7u8; 32];
            bytes[i] ^= 0x01;
            assert!(!SymmetricKey::from_bytes(bytes).verify_mac(b"m", tag.expose()));
        }
    }

    #[test]
    fn try_from_slice_validates_length() {
        assert!(SymmetricKey::try_from_slice(&[0u8; 32]).is_ok());
        let err = SymmetricKey::try_from_slice(&[0u8; 31]).unwrap_err();
        assert_eq!(
            err,
            KeyError::WrongLength {
                expected: 32,
                actual: 31
            }
        );
        assert!(err.to_string().contains("31"));
    }

    #[test]
    fn generate_is_seeded_deterministic() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        assert_eq!(
            SymmetricKey::generate(&mut a).as_bytes(),
            SymmetricKey::generate(&mut b).as_bytes()
        );
        let mut c = StdRng::seed_from_u64(2);
        assert_ne!(
            SymmetricKey::generate(&mut StdRng::seed_from_u64(1)).as_bytes(),
            SymmetricKey::generate(&mut c).as_bytes()
        );
    }

    #[test]
    fn nonce_debug_is_hex() {
        let n = Nonce::from_bytes([0xab; 12]);
        assert_eq!(format!("{n:?}"), format!("Nonce({})", "ab".repeat(12)));
    }
}
