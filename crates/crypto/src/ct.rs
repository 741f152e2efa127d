//! Constant-time comparison helpers.
//!
//! Secret-dependent branching leaks timing information; every comparison of
//! MACs, signatures, or keys in this workspace goes through [`ct_eq`].
//! [`Secret`] makes that a type rule: key bytes and computed tags live in
//! one, and it has no `==`.

use std::fmt;

/// Compares two byte slices in time dependent only on their lengths.
///
/// Returns `false` immediately if the lengths differ (lengths are public in
/// every protocol in this workspace), otherwise accumulates the XOR of all
/// byte pairs and compares the accumulator to zero once.
///
/// ```
/// use proxy_crypto::ct::ct_eq;
/// assert!(ct_eq(b"abc", b"abc"));
/// assert!(!ct_eq(b"abc", b"abd"));
/// assert!(!ct_eq(b"abc", b"ab"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    // Collapse to 0/1 without a data-dependent branch: the addition
    // carries into bit 8 exactly when acc != 0.
    let nonzero = (acc as u16).wrapping_add(0xff) >> 8;
    nonzero == 0
}

/// Secret bytes: a key, or a tag a verifier computed to compare against
/// one it received. There is no `PartialEq`, so `expected == received`
/// does not compile, and neither does a `derive(PartialEq)` on any type
/// that holds one; the only comparison is [`Secret::ct_eq`].
///
/// ```compile_fail
/// # use proxy_crypto::keys::SymmetricKey;
/// let key = SymmetricKey::from_bytes([7; 32]);
/// let _ = key.mac(b"m") == key.mac(b"m");
/// ```
/// ```
/// # use proxy_crypto::keys::SymmetricKey;
/// let key = SymmetricKey::from_bytes([7; 32]);
/// assert!(key.mac(b"m").ct_eq(key.mac(b"m").expose()));
/// ```
///
/// A holder of a key cannot derive `==` either:
///
/// ```compile_fail
/// # use proxy_crypto::keys::SymmetricKey;
/// #[derive(PartialEq)]
/// struct Holder(SymmetricKey);
/// ```
/// ```
/// # use proxy_crypto::keys::SymmetricKey;
/// #[derive(Clone)]
/// struct Holder(SymmetricKey);
/// ```
#[derive(Clone)]
pub struct Secret<const N: usize>([u8; N]);

impl<const N: usize> Secret<N> {
    /// Wraps secret bytes.
    #[must_use]
    pub const fn new(bytes: [u8; N]) -> Self {
        Self(bytes)
    }

    /// Whether `other` holds the same bytes, in time that depends only
    /// on the lengths.
    #[must_use]
    pub fn ct_eq(&self, other: &[u8]) -> bool {
        ct_eq(&self.0, other)
    }

    /// The bytes, to feed a MAC or a cipher, or to send a tag (a tag on
    /// the wire is public).
    #[must_use]
    pub fn expose(&self) -> &[u8; N] {
        &self.0
    }
}

impl<const N: usize> fmt::Debug for Secret<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Secret(<redacted>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slices_compare_equal() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"x", b"x"));
        assert!(ct_eq(&[0u8; 64], &[0u8; 64]));
    }

    #[test]
    fn unequal_slices_compare_unequal() {
        assert!(!ct_eq(b"a", b"b"));
        assert!(!ct_eq(&[0u8; 32], &[1u8; 32]));
        // Difference only in last byte.
        let mut b = [0u8; 32];
        b[31] = 1;
        assert!(!ct_eq(&[0u8; 32], &b));
    }

    #[test]
    fn length_mismatch_is_unequal() {
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(!ct_eq(b"", b"a"));
    }
}
