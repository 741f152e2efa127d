//! Constant-time comparison helpers.
//!
//! Secret-dependent branching leaks timing information; every comparison of
//! MACs, signatures, or keys in this workspace goes through [`ct_eq`].

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
