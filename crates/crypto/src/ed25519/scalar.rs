//! Arithmetic modulo the Ed25519 group order
//! ℓ = 2^252 + 27742317777372353535851937790883648493.
//!
//! Scalars are four little-endian `u64` limbs, always kept < ℓ. Reduction
//! uses bitwise restoring division — a few hundred word operations, which is
//! noise next to the point arithmetic that consumes these scalars.

// The arithmetic methods deliberately mirror mathematical notation
// (`add`, `mul`, …) rather than the operator traits, keeping reduction
// behavior explicit at call sites; index-based limb loops follow the
// reference implementations they are checked against.
#![allow(clippy::should_implement_trait, clippy::needless_range_loop)]

/// The group order ℓ as little-endian limbs.
pub const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// A scalar modulo ℓ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

/// Compares a 5-limb value with ℓ (extended to 5 limbs).
fn geq_l(rem: &[u64; 5]) -> bool {
    if rem[4] != 0 {
        return true;
    }
    for i in (0..4).rev() {
        if rem[i] != L[i] {
            return rem[i] > L[i];
        }
    }
    true // equal
}

fn sub_l(rem: &mut [u64; 5]) {
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d, b1) = rem[i].overflowing_sub(L[i]);
        let (d, b2) = d.overflowing_sub(borrow);
        rem[i] = d;
        borrow = u64::from(b1) + u64::from(b2);
    }
    rem[4] -= borrow;
}

/// Reduces a little-endian multi-limb value modulo ℓ by restoring division.
fn mod_l(limbs: &[u64]) -> [u64; 4] {
    let mut rem = [0u64; 5];
    for i in (0..limbs.len() * 64).rev() {
        // rem <<= 1
        for j in (1..5).rev() {
            rem[j] = (rem[j] << 1) | (rem[j - 1] >> 63);
        }
        rem[0] <<= 1;
        rem[0] |= (limbs[i / 64] >> (i % 64)) & 1;
        if geq_l(&rem) {
            sub_l(&mut rem);
        }
    }
    [rem[0], rem[1], rem[2], rem[3]]
}

impl Scalar {
    /// The scalar 0.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar 1.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Builds a scalar from a small integer.
    #[must_use]
    pub fn from_u64(x: u64) -> Scalar {
        Scalar([x, 0, 0, 0])
    }

    /// Interprets 32 little-endian bytes, reducing modulo ℓ.
    #[must_use]
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut limbs = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let mut le = [0u8; 8];
            le.copy_from_slice(chunk);
            limbs[i] = u64::from_le_bytes(le);
        }
        Scalar(mod_l(&limbs))
    }

    /// Interprets 64 little-endian bytes (a SHA-512 digest), reducing mod ℓ.
    #[must_use]
    pub fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let mut le = [0u8; 8];
            le.copy_from_slice(chunk);
            limbs[i] = u64::from_le_bytes(le);
        }
        Scalar(mod_l(&limbs))
    }

    /// Parses a canonical scalar encoding, rejecting values ≥ ℓ.
    ///
    /// Used when verifying signatures: RFC 8032 requires rejecting
    /// non-canonical `s` to prevent malleability.
    #[must_use]
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 5];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let mut le = [0u8; 8];
            le.copy_from_slice(chunk);
            limbs[i] = u64::from_le_bytes(le);
        }
        if geq_l(&limbs) {
            return None;
        }
        Some(Scalar([limbs[0], limbs[1], limbs[2], limbs[3]]))
    }

    /// Serializes to 32 little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Scalar addition mod ℓ.
    #[must_use]
    pub fn add(self, other: Scalar) -> Scalar {
        let mut limbs = [0u64; 5];
        let mut carry = 0u64;
        for i in 0..4 {
            let (s, c1) = self.0[i].overflowing_add(other.0[i]);
            let (s, c2) = s.overflowing_add(carry);
            limbs[i] = s;
            carry = u64::from(c1) + u64::from(c2);
        }
        limbs[4] = carry;
        if geq_l(&limbs) {
            sub_l(&mut limbs);
        }
        Scalar([limbs[0], limbs[1], limbs[2], limbs[3]])
    }

    /// Scalar multiplication mod ℓ.
    #[must_use]
    pub fn mul(self, other: Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc = wide[i + j] as u128 + (self.0[i] as u128) * (other.0[j] as u128) + carry;
                wide[i + j] = acc as u64;
                carry = acc >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        Scalar(mod_l(&wide))
    }

    /// Fused multiply-add `self * b + c mod ℓ` (the `s = r + k·a` of RFC
    /// 8032 signing).
    #[must_use]
    pub fn mul_add(self, b: Scalar, c: Scalar) -> Scalar {
        self.mul(b).add(c)
    }

    /// Additive inverse mod ℓ.
    #[must_use]
    pub fn neg(self) -> Scalar {
        if self.is_zero() {
            return self;
        }
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d, b1) = L[i].overflowing_sub(self.0[i]);
            let (d, b2) = d.overflowing_sub(borrow);
            out[i] = d;
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0, "scalar is < ℓ, so ℓ − scalar cannot borrow");
        Scalar(out)
    }

    /// Scalar subtraction mod ℓ.
    #[must_use]
    pub fn sub(self, other: Scalar) -> Scalar {
        self.add(other.neg())
    }

    /// Builds a scalar from a 128-bit integer (always canonical: 2¹²⁸ < ℓ).
    ///
    /// Batch signature verification draws its random coefficients from this
    /// range.
    #[must_use]
    pub fn from_u128(x: u128) -> Scalar {
        Scalar([x as u64, (x >> 64) as u64, 0, 0])
    }

    /// The 128-bit halves `(lo, hi)` with `self = lo + 2¹²⁸·hi`.
    ///
    /// A point prepared with its own `[2¹²⁸]` multiple multiplies by the
    /// two halves on one doubling chain of half the length.
    #[must_use]
    pub fn split_128(self) -> (Scalar, Scalar) {
        (
            Scalar([self.0[0], self.0[1], 0, 0]),
            Scalar([self.0[2], self.0[3], 0, 0]),
        )
    }

    /// True when the scalar is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Iterates the 256 bits little-endian (used by double-and-add).
    #[must_use]
    pub fn bit(&self, i: usize) -> u8 {
        ((self.0[i / 64] >> (i % 64)) & 1) as u8
    }

    /// Width-`w` non-adjacent form: signed digits `d[i]` with
    /// `∑ d[i]·2^i = self`, each nonzero digit odd with `|d[i]| < 2^(w-1)`,
    /// and any two nonzero digits at least `w` positions apart.
    ///
    /// The sparse signed representation is what makes windowed scalar
    /// multiplication fast: ~256/(w+1) point additions instead of ~128,
    /// with negative digits served by (free) point negation.
    ///
    /// # Panics
    ///
    /// Panics when `w` is outside `2..=8` (digits must fit an `i8`).
    #[must_use]
    pub fn non_adjacent_form(&self, w: usize) -> [i8; 256] {
        assert!((2..=8).contains(&w), "wNAF width must be in 2..=8");
        let mut naf = [0i8; 256];
        let x = [self.0[0], self.0[1], self.0[2], self.0[3], 0u64];
        let width = 1u64 << w;
        let mask = width - 1;
        let mut pos = 0usize;
        let mut carry = 0u64;
        while pos < 256 {
            let idx = pos / 64;
            let shift = pos % 64;
            // The w-bit window starting at `pos`, possibly spanning limbs.
            let bits = if shift < 64 - w {
                x[idx] >> shift
            } else {
                (x[idx] >> shift) | (x[idx + 1] << (64 - shift))
            };
            let window = carry + (bits & mask);
            if window & 1 == 0 {
                pos += 1;
                continue;
            }
            if window < width / 2 {
                carry = 0;
                naf[pos] = window as i8;
            } else {
                // Subtract 2^w here and carry it into the next window.
                carry = 1;
                naf[pos] = (window as i8).wrapping_sub(width as i8);
            }
            pos += w;
        }
        debug_assert_eq!(carry, 0, "scalars < 2^253 leave no final carry");
        naf
    }

    /// Signed radix-16 digits `d[i] ∈ [−8, 8]` with `∑ d[i]·16^i = self`.
    ///
    /// Feeds fixed-base multiplication from the precomputed basepoint
    /// table: 64 table additions replace a 256-step doubling ladder.
    #[must_use]
    pub fn to_radix16(&self) -> [i8; 64] {
        let bytes = self.to_bytes();
        let mut digits = [0i8; 64];
        for i in 0..32 {
            digits[2 * i] = (bytes[i] & 15) as i8;
            digits[2 * i + 1] = (bytes[i] >> 4) as i8;
        }
        // Recenter each digit into [−8, 8], carrying upward. The top digit
        // absorbs at most a single carry: scalars are < 2^253.
        for i in 0..63 {
            let carry = (digits[i] + 8) >> 4;
            digits[i] -= carry << 4;
            digits[i + 1] += carry;
        }
        digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l_reduces_to_zero() {
        let mut l_bytes = [0u8; 32];
        for (i, limb) in L.iter().enumerate() {
            l_bytes[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_mod_order(&l_bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let mut bytes = [0u8; 32];
        let mut limbs = L;
        limbs[0] -= 1;
        for (i, limb) in limbs.iter().enumerate() {
            bytes[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        let s = Scalar::from_canonical_bytes(&bytes).unwrap();
        // (ℓ-1) + 1 ≡ 0
        assert_eq!(s.add(Scalar::ONE), Scalar::ZERO);
        // (ℓ-1) * (ℓ-1) = ℓ² - 2ℓ + 1 ≡ 1
        assert_eq!(s.mul(s), Scalar::ONE);
    }

    #[test]
    fn small_arithmetic() {
        let a = Scalar::from_u64(1_000_000);
        let b = Scalar::from_u64(2_000_000);
        assert_eq!(a.add(b), Scalar::from_u64(3_000_000));
        assert_eq!(
            Scalar::from_u64(6).mul(Scalar::from_u64(7)),
            Scalar::from_u64(42)
        );
        assert_eq!(
            Scalar::from_u64(3).mul_add(Scalar::from_u64(4), Scalar::from_u64(5)),
            Scalar::from_u64(17)
        );
    }

    #[test]
    fn wide_reduction_matches_narrow_for_small_values() {
        let mut wide = [0u8; 64];
        wide[0] = 77;
        assert_eq!(
            Scalar::from_bytes_mod_order_wide(&wide),
            Scalar::from_u64(77)
        );
    }

    #[test]
    fn wide_reduction_of_all_ones() {
        // 2^512 - 1 mod ℓ, cross-checked against the identity
        // x ≡ ((x mod ℓ) ) by re-reducing the result.
        let wide = [0xffu8; 64];
        let s = Scalar::from_bytes_mod_order_wide(&wide);
        let again = Scalar::from_bytes_mod_order(&s.to_bytes());
        assert_eq!(s, again);
        assert!(Scalar::from_canonical_bytes(&s.to_bytes()).is_some());
    }

    #[test]
    fn to_bytes_round_trip() {
        let s = Scalar::from_u64(0xdead_beef_cafe_f00d);
        assert_eq!(Scalar::from_bytes_mod_order(&s.to_bytes()), s);
    }

    #[test]
    fn bits_enumerate_little_endian() {
        let s = Scalar::from_u64(0b1011);
        assert_eq!(s.bit(0), 1);
        assert_eq!(s.bit(1), 1);
        assert_eq!(s.bit(2), 0);
        assert_eq!(s.bit(3), 1);
        assert_eq!(s.bit(200), 0);
    }

    #[test]
    fn neg_and_sub_are_inverse_operations() {
        let a = Scalar::from_bytes_mod_order(&[0x5a; 32]);
        let b = Scalar::from_bytes_mod_order(&[0x29; 32]);
        assert_eq!(a.add(a.neg()), Scalar::ZERO);
        assert_eq!(Scalar::ZERO.neg(), Scalar::ZERO);
        assert_eq!(a.sub(b).add(b), a);
        assert_eq!(a.sub(a), Scalar::ZERO);
    }

    #[test]
    fn from_u128_is_canonical() {
        let s = Scalar::from_u128(u128::MAX);
        assert!(Scalar::from_canonical_bytes(&s.to_bytes()).is_some());
        assert_eq!(
            Scalar::from_u128(u128::from(u64::MAX)),
            Scalar::from_u64(u64::MAX)
        );
    }

    /// Reconstructs a scalar from signed digit representations by plain
    /// mod-ℓ arithmetic.
    fn from_signed_digits(digits: &[i8], radix_log2: usize) -> Scalar {
        let mut acc = Scalar::ZERO;
        for &d in digits.iter().rev() {
            for _ in 0..radix_log2 {
                acc = acc.add(acc);
            }
            let mag = Scalar::from_u64(u64::from(d.unsigned_abs()));
            acc = if d >= 0 { acc.add(mag) } else { acc.sub(mag) };
        }
        acc
    }

    #[test]
    fn wnaf_reconstructs_and_respects_invariants() {
        for (fill, w) in [(0x11u8, 5), (0xf3, 5), (0x77, 8), (0xe9, 6)] {
            let s = Scalar::from_bytes_mod_order(&[fill; 32]);
            let naf = s.non_adjacent_form(w);
            assert_eq!(from_signed_digits(&naf, 1), s, "fill {fill:#x} w {w}");
            let bound = 1i16 << (w - 1);
            let mut last_nonzero: Option<usize> = None;
            for (i, &d) in naf.iter().enumerate() {
                if d == 0 {
                    continue;
                }
                assert_eq!(d & 1, 1, "digit at {i} must be odd");
                assert!(i16::from(d).abs() < bound, "digit at {i} out of range");
                if let Some(j) = last_nonzero {
                    assert!(i - j >= w, "digits at {j} and {i} closer than {w}");
                }
                last_nonzero = Some(i);
            }
        }
    }

    #[test]
    fn radix16_reconstructs_with_bounded_digits() {
        for fill in [0x00u8, 0x01, 0x42, 0x9d, 0xff] {
            let s = Scalar::from_bytes_mod_order(&[fill; 32]);
            let digits = s.to_radix16();
            assert_eq!(from_signed_digits(&digits, 4), s, "fill {fill:#x}");
            for (i, &d) in digits.iter().enumerate() {
                assert!((-8..=8).contains(&d), "digit {d} at {i} out of [−8, 8]");
            }
        }
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let a = Scalar::from_bytes_mod_order(&[0x11; 32]);
        let b = Scalar::from_bytes_mod_order(&[0x7f; 32]);
        let c = Scalar::from_bytes_mod_order(&[0x3c; 32]);
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }
}
