//! Arithmetic modulo the Ed25519 group order
//! ℓ = 2^252 + 27742317777372353535851937790883648493.
//!
//! Scalars are four little-endian `u64` limbs, always kept < ℓ.
//!
//! Reduction folds at 2²⁵²: with ℓ = 2²⁵² + c and c < 2¹²⁵,
//! 2²⁵² ≡ −c (mod ℓ), so `x = x₀ + 2²⁵²·x₁` is congruent to `x₀ − x₁·c`,
//! which is 127 bits shorter than `x`. Three folds take a 512-bit value
//! (a SHA-512 digest, a product of two scalars) to an alternating sum of
//! four short terms, and at most three subtractions of ℓ make that
//! canonical: about thirty word multiplications in all, 34 ns for a
//! digest and 48 ns for a product on a stopwatch.
//!
//! It matters that this is cheap. Batch verification reduces one digest
//! and multiplies two scalars per signature, and signing reduces two
//! digests and multiplies once. The bitwise restoring division this
//! module used until PR 18 — 512 shift-compare-subtract steps — spent
//! 0.8 µs per digest and 1.7 µs per product: 17 of a four-signature
//! batch's 130 µs and 3.3 of a signature's 16. The division is kept
//! under `cfg(test)` as the reference the fold is property-tested
//! against.

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

/// 2ℓ: what [`mod_l`] adds so its alternating sum cannot go negative.
const TWO_L: [u64; 4] = [
    0xb024_c634_b9eb_a7da,
    0x29bd_f3bd_45ef_39ac,
    0x0000_0000_0000_0000,
    0x2000_0000_0000_0000,
];

/// The low 60 bits of a top limb: what lies below bit 252.
const LOW_60: u64 = (1 << 60) - 1;

/// A scalar modulo ℓ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

/// `a ≥ ℓ`.
#[inline]
fn geq_l(a: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != L[i] {
            return a[i] > L[i];
        }
    }
    true // equal
}

/// `a + b`; the callers' bounds keep the sum below 2²⁵⁶.
#[inline]
fn add4(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut carry = 0u64;
    for i in 0..4 {
        let (s, c1) = a[i].overflowing_add(b[i]);
        let (s, c2) = s.overflowing_add(carry);
        out[i] = s;
        carry = u64::from(c1) + u64::from(c2);
    }
    debug_assert_eq!(carry, 0, "sum stays below 2^256");
    out
}

/// `a − b`; the callers' bounds keep `a ≥ b`.
#[inline]
fn sub4(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow);
        out[i] = d;
        borrow = u64::from(b1) + u64::from(b2);
    }
    debug_assert_eq!(borrow, 0, "difference stays nonnegative");
    out
}

/// One fold at 2²⁵²: `(x mod 2²⁵², ⌊x / 2²⁵²⌋ · c)` with c = ℓ − 2²⁵²,
/// so that `x ≡ lo − product (mod ℓ)`. The quotient has at most 260 bits
/// and c 125, so the product has at most 385: seven limbs.
#[inline]
fn fold(x: &[u64; 8]) -> ([u64; 4], [u64; 8]) {
    let lo = [x[0], x[1], x[2], x[3] & LOW_60];
    let mut hi = [0u64; 5];
    for i in 0..4 {
        hi[i] = (x[3 + i] >> 60) | (x[4 + i] << 4);
    }
    hi[4] = x[7] >> 60;
    let mut product = [0u64; 8];
    for j in 0..2 {
        let mut carry = 0u128;
        for i in 0..5 {
            let acc = u128::from(product[i + j]) + u128::from(hi[i]) * u128::from(L[j]) + carry;
            product[i + j] = acc as u64;
            carry = acc >> 64;
        }
        product[5 + j] = carry as u64;
    }
    (lo, product)
}

/// Reduces a 512-bit little-endian value modulo ℓ (module docs).
fn mod_l(x: &[u64; 8]) -> [u64; 4] {
    let (x0, y) = fold(x); // x ≡ x0 − y, y < 2^385
    let (y0, z) = fold(&y); // y ≡ y0 − z, z < 2^258
    let (z0, w) = fold(&z); // z ≡ z0 − w, w < 2^131
    debug_assert_eq!(w[3..], [0; 5], "the third fold leaves 131 bits");
    // x ≡ (x0 + z0 + 2ℓ) − (y0 + w): x0, y0, z0 < 2^252, so the sum is
    // below 2^253 + 2ℓ < 4ℓ and, as y0 + w < 2^252 + 2^131 < 2ℓ, above 0.
    let plus = add4(&add4(&x0, &z0), &TWO_L);
    let minus = add4(&y0, &[w[0], w[1], w[2], 0]);
    let mut out = sub4(&plus, &minus);
    while geq_l(&out) {
        out = sub4(&out, &L);
    }
    out
}

/// Little-endian limbs of `bytes`, zero-extended to 512 bits.
fn limbs_of(bytes: &[u8]) -> [u64; 8] {
    let mut limbs = [0u64; 8];
    for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(chunk);
        *limb = u64::from_le_bytes(le);
    }
    limbs
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
        Scalar(mod_l(&limbs_of(bytes)))
    }

    /// Interprets 64 little-endian bytes (a SHA-512 digest), reducing mod ℓ.
    #[must_use]
    pub fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Scalar {
        Scalar(mod_l(&limbs_of(bytes)))
    }

    /// Parses a canonical scalar encoding, rejecting values ≥ ℓ.
    ///
    /// Used when verifying signatures: RFC 8032 requires rejecting
    /// non-canonical `s` to prevent malleability.
    #[must_use]
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let wide = limbs_of(bytes);
        let limbs = [wide[0], wide[1], wide[2], wide[3]];
        if geq_l(&limbs) {
            return None;
        }
        Some(Scalar(limbs))
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
        // Both below ℓ < 2^253: the sum fits, and is below 2ℓ.
        let mut sum = add4(&self.0, &other.0);
        if geq_l(&sum) {
            sum = sub4(&sum, &L);
        }
        Scalar(sum)
    }

    /// Scalar multiplication mod ℓ.
    #[must_use]
    pub fn mul(self, other: Scalar) -> Scalar {
        Scalar(mod_l(&self.mul_wide(other)))
    }

    /// The 512-bit schoolbook product, unreduced.
    fn mul_wide(self, other: Scalar) -> [u64; 8] {
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
        wide
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
        Scalar(sub4(&L, &self.0))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference [`mod_l`] is tested against: bitwise restoring
    /// division, one conditional subtraction of ℓ per input bit. This was
    /// the module's reduction until PR 18.
    fn mod_l_by_division(limbs: &[u64; 8]) -> [u64; 4] {
        let mut rem = [0u64; 5];
        for i in (0..512).rev() {
            for j in (1..5).rev() {
                rem[j] = (rem[j] << 1) | (rem[j - 1] >> 63);
            }
            rem[0] = (rem[0] << 1) | ((limbs[i / 64] >> (i % 64)) & 1);
            let low = [rem[0], rem[1], rem[2], rem[3]];
            if rem[4] != 0 || geq_l(&low) {
                let mut borrow = 0u64;
                for j in 0..4 {
                    let (d, b1) = rem[j].overflowing_sub(L[j]);
                    let (d, b2) = d.overflowing_sub(borrow);
                    rem[j] = d;
                    borrow = u64::from(b1) + u64::from(b2);
                }
                rem[4] -= borrow;
            }
        }
        [rem[0], rem[1], rem[2], rem[3]]
    }

    /// `a + b` over 512 bits, wrapping.
    fn add8(a: &[u64; 8], b: &[u64; 8]) -> [u64; 8] {
        let mut out = [0u64; 8];
        let mut carry = 0u128;
        for i in 0..8 {
            let acc = u128::from(a[i]) + u128::from(b[i]) + carry;
            out[i] = acc as u64;
            carry = acc >> 64;
        }
        out
    }

    /// `a · k` over 512 bits, wrapping.
    fn mul8_small(a: &[u64; 8], k: u64) -> [u64; 8] {
        let mut out = [0u64; 8];
        let mut carry = 0u128;
        for i in 0..8 {
            let acc = u128::from(a[i]) * u128::from(k) + carry;
            out[i] = acc as u64;
            carry = acc >> 64;
        }
        out
    }

    fn widen(a: [u64; 4]) -> [u64; 8] {
        [a[0], a[1], a[2], a[3], 0, 0, 0, 0]
    }

    #[test]
    fn fold_matches_division_on_edge_vectors() {
        let l = widen(L);
        let one = widen([1, 0, 0, 0]);
        let minus_one = [u64::MAX; 8]; // 2^512 − 1, and −1 under wrapping add
        let two_252 = widen([0, 0, 0, 1 << 60]);
        let mut vectors = vec![
            [0u64; 8],
            one,
            add8(&l, &minus_one), // ℓ − 1
            l,
            add8(&l, &one),
            add8(&two_252, &minus_one), // 2^252 − 1
            two_252,
            add8(&two_252, &one),
            widen(TWO_L),
            widen([u64::MAX; 4]), // 2^256 − 1
            minus_one,
        ];
        // k·ℓ and its neighbours, up to the largest multiple below 2^512.
        for k in [2u64, 3, 4, 15, 16, 17, u64::MAX] {
            let mut kl = mul8_small(&l, k);
            for shift in [0usize, 1, 2, 3] {
                if shift > 0 {
                    // · 2^64: still a multiple of ℓ, now up to 509 bits.
                    kl.rotate_right(1);
                    kl[0] = 0;
                }
                vectors.push(add8(&kl, &minus_one));
                vectors.push(kl);
                vectors.push(add8(&kl, &one));
            }
        }
        for v in &vectors {
            assert_eq!(mod_l(v), mod_l_by_division(v), "{v:x?}");
        }
        assert_eq!(mod_l(&l), [0; 4]);
        assert_eq!(mod_l(&add8(&l, &one)), [1, 0, 0, 0]);
        assert_eq!(mod_l(&mul8_small(&l, u64::MAX)), [0; 4]);
        assert_eq!(add4(&L, &L), TWO_L);
    }

    proptest! {
        // The division is ~1 µs an input: thousands of cases cost nothing.
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn fold_matches_division_on_512_bit_inputs(bytes in any::<[u8; 64]>()) {
            let limbs = limbs_of(&bytes);
            prop_assert_eq!(Scalar::from_bytes_mod_order_wide(&bytes).0, mod_l_by_division(&limbs));
        }

        #[test]
        fn fold_matches_division_on_256_bit_inputs(bytes in any::<[u8; 32]>()) {
            let limbs = limbs_of(&bytes);
            prop_assert_eq!(limbs[4..], [0u64; 4]);
            prop_assert_eq!(Scalar::from_bytes_mod_order(&bytes).0, mod_l_by_division(&limbs));
        }

        #[test]
        fn mul_matches_division_of_the_schoolbook_product(a in any::<[u8; 32]>(),
                                                          b in any::<[u8; 32]>()) {
            let (a, b) = (Scalar::from_bytes_mod_order(&a), Scalar::from_bytes_mod_order(&b));
            prop_assert_eq!(a.mul(b).0, mod_l_by_division(&a.mul_wide(b)));
        }

        /// Inputs with long runs of ones and zeros, where carries and
        /// borrows run the whole width.
        #[test]
        fn fold_matches_division_on_sparse_inputs(fill in any::<[bool; 8]>(),
                                                  tweak in any::<u64>(),
                                                  at in 0usize..8) {
            let mut limbs = [0u64; 8];
            for (limb, ones) in limbs.iter_mut().zip(fill) {
                *limb = if ones { u64::MAX } else { 0 };
            }
            limbs[at] ^= tweak;
            prop_assert_eq!(mod_l(&limbs), mod_l_by_division(&limbs));
        }
    }

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

    /// Reconstructs a scalar from signed binary digits by plain mod-ℓ
    /// arithmetic.
    fn from_signed_digits(digits: &[i8]) -> Scalar {
        let mut acc = Scalar::ZERO;
        for &d in digits.iter().rev() {
            acc = acc.add(acc);
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
            assert_eq!(from_signed_digits(&naf), s, "fill {fill:#x} w {w}");
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
    fn mul_commutes_and_distributes() {
        let a = Scalar::from_bytes_mod_order(&[0x11; 32]);
        let b = Scalar::from_bytes_mod_order(&[0x7f; 32]);
        let c = Scalar::from_bytes_mod_order(&[0x3c; 32]);
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }
}
