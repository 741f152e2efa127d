//! HMAC (RFC 2104 / FIPS 198-1) over SHA-256.
//!
//! HMAC-SHA-256 is the *conventional cryptography* seal of the paper's §6.2:
//! a proxy certificate signed under a shared or session key. The tag doubles
//! as the proof-of-possession primitive for bearer proxies (signing a
//! challenge with the proxy key).
//!
//! A keyed context holds both pad midstates, so cloning one that is
//! already keyed costs no compression: a long-lived key keeps its
//! context ([`crate::keys::SymmetricKey::mac`]) and pays the two pad
//! blocks once, not once per message.

use std::fmt;

use crate::ct::ct_eq;
use crate::sha256::{self, Sha256};

/// Size of an HMAC-SHA-256 tag in bytes.
pub const TAG_LEN_256: usize = sha256::DIGEST_LEN;

/// Incremental HMAC-SHA-256.
///
/// ```
/// use proxy_crypto::hmac::HmacSha256;
/// let tag = HmacSha256::mac(b"key", b"message");
/// assert!(HmacSha256::verify(b"key", b"message", &tag));
/// assert!(!HmacSha256::verify(b"key", b"tampered", &tag));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    /// Hash state after the key ⊕ ipad block, then the message so far.
    inner: Sha256,
    /// Hash state after the key ⊕ opad block.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC context keyed with `key` (any length; long keys are
    /// pre-hashed per the RFC).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut block = [0u8; sha256::BLOCK_LEN];
        if key.len() > sha256::BLOCK_LEN {
            let digest = Sha256::digest(key);
            block[..digest.len()].copy_from_slice(&digest);
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = block;
        let mut opad = block;
        for b in ipad.iter_mut() {
            *b ^= 0x36;
        }
        for b in opad.iter_mut() {
            *b ^= 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        Self { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the final tag, consuming the context.
    #[must_use]
    pub fn finalize(self) -> [u8; TAG_LEN_256] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// One-shot MAC of `data` under `key`.
    #[must_use]
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; TAG_LEN_256] {
        let mut m = Self::new(key);
        m.update(data);
        m.finalize()
    }

    /// Constant-time verification of `tag` over `data` under `key`.
    #[must_use]
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        ct_eq(&Self::mac(key, data), tag)
    }
}

/// Both midstates are functions of the key alone (`state` after one
/// block of key ⊕ pad): printing them would hand out a MAC oracle.
impl fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HmacSha256(<redacted>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SymmetricKey;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    const LARGE_KEY_DATA: &[u8] = b"Test Using Larger Than Block-Size Key - Hash Key First";

    /// RFC 4231 cases 1, 2, 3 and 6: key, data, tag.
    fn rfc4231() -> [(Vec<u8>, Vec<u8>, &'static str); 4] {
        [
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                vec![0xaa; 131],
                LARGE_KEY_DATA.to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ]
    }

    #[test]
    fn rfc4231_case_1() {
        let (key, data, tag) = &rfc4231()[0];
        assert_eq!(hex(&HmacSha256::mac(key, data)), *tag);
    }

    #[test]
    fn rfc4231_case_2() {
        let (key, data, tag) = &rfc4231()[1];
        assert_eq!(hex(&HmacSha256::mac(key, data)), *tag);
    }

    #[test]
    fn rfc4231_case_3_repeated_bytes() {
        let (key, data, tag) = &rfc4231()[2];
        assert_eq!(hex(&HmacSha256::mac(key, data)), *tag);
    }

    #[test]
    fn long_key_is_prehashed() {
        // RFC 4231 case 6: 131-byte key.
        let (key, data, tag) = &rfc4231()[3];
        assert_eq!(hex(&HmacSha256::mac(key, data)), *tag);
    }

    #[test]
    fn one_keyed_context_cloned_and_used_twice_gives_the_rfc_tags() {
        for (key, data, tag) in rfc4231() {
            let keyed = HmacSha256::new(&key);
            for _ in 0..2 {
                let mut m = keyed.clone();
                m.update(&data);
                assert_eq!(hex(&m.finalize()), tag);
            }
            // A clone taken mid-message carries the message so far.
            let (head, tail) = data.split_at(data.len() / 2);
            let mut first = keyed.clone();
            first.update(head);
            let mut second = first.clone();
            first.update(tail);
            second.update(tail);
            assert_eq!(first.finalize(), second.finalize());
        }
    }

    #[test]
    fn symmetric_key_method_gives_the_same_tags() {
        // Key 00 01 … 1f over the four RFC messages; tags from an
        // independent implementation (Python's hmac module).
        let key_bytes: [u8; 32] = std::array::from_fn(|i| i as u8);
        let key = SymmetricKey::from_bytes(key_bytes);
        let expected = [
            "278639ec02309d3afded1b273f1349ba63b9089c12476d716bee3ecc94673e9e",
            "099805f4ac310786968565c098db515cc50862b420ae31e20238312344bed36a",
            "1365933c269fcf4f64b3b73a1dec78947a95e2f8a1ebe6944de46eda346be4bd",
            "f4048b21e47156398b330981c88cf79c9cb8d11f20814fd8a4586561d44f5aaf",
        ];
        for ((_, data, _), tag) in rfc4231().iter().zip(expected) {
            // First use and warm use alike.
            for _ in 0..2 {
                assert_eq!(hex(&key.mac(data)), tag);
            }
            assert_eq!(hex(&HmacSha256::mac(&key_bytes, data)), tag);
            assert!(key.verify_mac(data, &key.mac(data)));
            assert!(!key.verify_mac(data, &key.mac(data)[..31]));
            assert!(!key.verify_mac(b"other", &key.mac(data)));
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"proxy key";
        let data: Vec<u8> = (0u8..200).collect();
        let mut m = HmacSha256::new(key);
        for chunk in data.chunks(13) {
            m.update(chunk);
        }
        assert_eq!(m.finalize(), HmacSha256::mac(key, &data));
    }

    #[test]
    fn verify_rejects_wrong_key_and_data() {
        let tag = HmacSha256::mac(b"k1", b"data");
        assert!(HmacSha256::verify(b"k1", b"data", &tag));
        assert!(!HmacSha256::verify(b"k2", b"data", &tag));
        assert!(!HmacSha256::verify(b"k1", b"Data", &tag));
        assert!(!HmacSha256::verify(b"k1", b"data", &tag[..31]));
    }
}
