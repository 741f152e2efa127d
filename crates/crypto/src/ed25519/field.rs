//! Arithmetic in GF(2^255 − 19) with 51-bit limbs.
//!
//! Representation: five `u64` limbs, value = Σ limb\[i\]·2^(51·i). The
//! public operations accept inputs with limbs < 2^57 and return outputs
//! with limbs < 2^52 ("weakly reduced"); [`Fe::to_bytes`] performs the
//! canonical strong reduction. This is the classic donna-style
//! representation; multiplication folds the 2^255 overflow back with the
//! factor 19.
//!
//! The crate-internal `add_lazy`/`sub_lazy` variants skip the carry pass
//! entirely and may return limbs up to 2^55; the point formulas in
//! `edwards.rs` chain at most two of them between multiplications, which
//! the 2^57 input bound absorbs (worst-case u128 accumulators stay below
//! 2^121 — see the bound notes on [`Fe::mul`] and [`Fe::square`]).

// The arithmetic methods deliberately mirror mathematical notation
// (`add`, `mul`, …) rather than the operator traits, keeping reduction
// behavior explicit at call sites; index-based limb loops follow the
// reference implementations they are checked against.
#![allow(clippy::should_implement_trait, clippy::needless_range_loop)]

use std::sync::OnceLock;

pub(crate) const MASK: u64 = (1 << 51) - 1;

/// A field element of GF(2^255 − 19).
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

/// 4p in limb form; added before subtraction so limbs never underflow for
/// inputs with limbs < 2^54... (inputs are kept < 2^52 by every public op).
const FOUR_P: [u64; 5] = [
    (1u64 << 53) - 76,
    (1u64 << 53) - 4,
    (1u64 << 53) - 4,
    (1u64 << 53) - 4,
    (1u64 << 53) - 4,
];

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Constructs the field element for a small integer.
    #[inline]
    pub fn from_u64(x: u64) -> Fe {
        let mut out = Fe::ZERO;
        out.0[0] = x & MASK;
        out.0[1] = x >> 51;
        out
    }

    /// Parses 32 little-endian bytes, ignoring the top (sign) bit as RFC
    /// 8032 prescribes.
    #[inline]
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |b: &[u8]| -> u64 {
            let mut le = [0u8; 8];
            le.copy_from_slice(&b[..8]);
            u64::from_le_bytes(le)
        };
        let mut limbs = [0u64; 5];
        limbs[0] = load(&bytes[0..8]) & MASK;
        limbs[1] = (load(&bytes[6..14]) >> 3) & MASK;
        limbs[2] = (load(&bytes[12..20]) >> 6) & MASK;
        limbs[3] = (load(&bytes[19..27]) >> 1) & MASK;
        limbs[4] = (load(&bytes[24..32]) >> 12) & MASK;
        Fe(limbs)
    }

    /// Serializes to 32 little-endian bytes in canonical (fully reduced)
    /// form; the top bit is always zero.
    pub fn to_bytes(self) -> [u8; 32] {
        // Weak reduce so limbs < 2^52, then strong reduce mod p.
        let mut t = self.weak_reduce().0;
        // Compute the quotient q = 1 iff value >= p, via trial propagation
        // of (value + 19) through the limbs.
        let mut q = (t[0].wrapping_add(19)) >> 51;
        q = (t[1] + q) >> 51;
        q = (t[2] + q) >> 51;
        q = (t[3] + q) >> 51;
        q = (t[4] + q) >> 51;
        // value mod p = value + 19q, dropping bit 255.
        t[0] += 19 * q;
        t[1] += t[0] >> 51;
        t[0] &= MASK;
        t[2] += t[1] >> 51;
        t[1] &= MASK;
        t[3] += t[2] >> 51;
        t[2] &= MASK;
        t[4] += t[3] >> 51;
        t[3] &= MASK;
        t[4] &= MASK; // discard 2^255
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for limb in t {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        while idx < 32 {
            out[idx] = (acc & 0xff) as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    #[inline]
    fn weak_reduce(self) -> Fe {
        let mut t = self.0;
        let c = t[4] >> 51;
        t[4] &= MASK;
        t[0] += 19 * c;
        let c = t[0] >> 51;
        t[0] &= MASK;
        t[1] += c;
        let c = t[1] >> 51;
        t[1] &= MASK;
        t[2] += c;
        let c = t[2] >> 51;
        t[2] &= MASK;
        t[3] += c;
        let c = t[3] >> 51;
        t[3] &= MASK;
        t[4] += c;
        // One more fold in case t[4] overflowed again (it cannot exceed
        // 2^51 + small, so a single extra fold suffices).
        let c = t[4] >> 51;
        t[4] &= MASK;
        t[0] += 19 * c;
        Fe(t)
    }

    /// Field addition.
    #[inline]
    pub fn add(self, other: Fe) -> Fe {
        let mut t = self.0;
        for i in 0..5 {
            t[i] += other.0[i];
        }
        Fe(t).weak_reduce()
    }

    /// Field subtraction (adds 4p before subtracting to avoid underflow).
    #[inline]
    pub fn sub(self, other: Fe) -> Fe {
        let mut t = self.0;
        for i in 0..5 {
            t[i] = t[i] + FOUR_P[i] - other.0[i];
        }
        Fe(t).weak_reduce()
    }

    /// Field negation.
    #[inline]
    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Addition without the carry pass: a plain limb-wise sum.
    ///
    /// Contract: callers must keep the *sum* of the two inputs' limb
    /// bounds below 2^57 (in practice, at most two lazy ops are chained
    /// on weakly-reduced values before a `mul`/`square` absorbs them).
    #[inline]
    pub(crate) fn add_lazy(self, other: Fe) -> Fe {
        let mut t = self.0;
        for i in 0..5 {
            t[i] += other.0[i];
        }
        Fe(t)
    }

    /// Subtraction without the carry pass: `self + 4p − other`, limb-wise.
    ///
    /// Contract: `other` must be weakly reduced (limbs < 2^52 < the 4p
    /// limbs, so no underflow); `self` may carry up to 2^55 of lazy slack.
    /// The result's limbs are below `self`'s bound + 2^53.
    #[inline]
    pub(crate) fn sub_lazy(self, other: Fe) -> Fe {
        let mut t = self.0;
        for i in 0..5 {
            t[i] = t[i] + FOUR_P[i] - other.0[i];
        }
        Fe(t)
    }

    /// Field multiplication. Accepts limbs < 2^57 (covering lazy inputs):
    /// the 19-folded operand limbs stay below 19·2^57 < 2^62, each widening
    /// product below 2^119, and the five-term accumulators below 2^121.
    #[inline]
    pub fn mul(self, other: Fe) -> Fe {
        let a = self.0;
        let b = other.0;
        // Pre-fold 19·b into u64 so no u128 product needs scaling.
        let b1_19 = 19 * b[1];
        let b2_19 = 19 * b[2];
        let b3_19 = 19 * b[3];
        let b4_19 = 19 * b[4];
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let r0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let r1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let r2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let r3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let r4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Field squaring. Exploits symmetry of the schoolbook product: the 10
    /// cross terms `a_i·a_j` (i≠j) each appear twice, so 15 widening
    /// multiplies suffice where `mul` needs 25. The doubled (< 2^58) and
    /// 19-folded (< 2^62) limbs are precomputed in u64; with inputs below
    /// 2^57 every three-term accumulator stays below 2^121.
    #[inline]
    pub fn square(self) -> Fe {
        let a = self.0;
        let d0 = 2 * a[0];
        let d1 = 2 * a[1];
        let d2 = 2 * a[2];
        let d3 = 2 * a[3];
        let a3_19 = 19 * a[3];
        let a4_19 = 19 * a[4];
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let r0 = m(a[0], a[0]) + m(d1, a4_19) + m(d2, a3_19);
        let r1 = m(d0, a[1]) + m(d2, a4_19) + m(a[3], a3_19);
        let r2 = m(d0, a[2]) + m(a[1], a[1]) + m(d3, a4_19);
        let r3 = m(d0, a[3]) + m(d1, a[2]) + m(a[4], a4_19);
        let r4 = m(d0, a[4]) + m(d1, a[3]) + m(a[2], a[2]);
        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Squares `self` `k` times.
    #[inline]
    pub fn pow2k(self, k: u32) -> Fe {
        let mut x = self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    #[inline]
    fn carry_wide(mut t: [u128; 5]) -> Fe {
        let mask = MASK as u128;
        t[1] += t[0] >> 51;
        t[0] &= mask;
        t[2] += t[1] >> 51;
        t[1] &= mask;
        t[3] += t[2] >> 51;
        t[2] &= mask;
        t[4] += t[3] >> 51;
        t[3] &= mask;
        t[0] += 19 * (t[4] >> 51);
        t[4] &= mask;
        t[1] += t[0] >> 51;
        t[0] &= mask;
        Fe([
            t[0] as u64,
            t[1] as u64,
            t[2] as u64,
            t[3] as u64,
            t[4] as u64,
        ])
    }

    /// Multiplies by a small constant.
    #[inline]
    pub fn mul_small(self, c: u64) -> Fe {
        let mut t = [0u128; 5];
        for i in 0..5 {
            t[i] = (self.0[i] as u128) * (c as u128);
        }
        Fe::carry_wide(t)
    }

    /// Multiplicative inverse via Fermat: self^(p−2). The zero element maps
    /// to zero (callers check for zero where it matters).
    pub fn invert(self) -> Fe {
        // Addition chain computing z^(2^255 - 21).
        let z = self;
        let z2 = z.square(); // 2
        let z9 = z2.pow2k(2).mul(z); // 9
        let z11 = z9.mul(z2); // 11
        let z2_5_0 = z11.square().mul(z9); // 2^5 - 1
        let z2_10_0 = z2_5_0.pow2k(5).mul(z2_5_0); // 2^10 - 1
        let z2_20_0 = z2_10_0.pow2k(10).mul(z2_10_0); // 2^20 - 1
        let z2_40_0 = z2_20_0.pow2k(20).mul(z2_20_0); // 2^40 - 1
        let z2_50_0 = z2_40_0.pow2k(10).mul(z2_10_0); // 2^50 - 1
        let z2_100_0 = z2_50_0.pow2k(50).mul(z2_50_0); // 2^100 - 1
        let z2_200_0 = z2_100_0.pow2k(100).mul(z2_100_0); // 2^200 - 1
        let z2_250_0 = z2_200_0.pow2k(50).mul(z2_50_0); // 2^250 - 1
        z2_250_0.pow2k(5).mul(z11) // 2^255 - 21 = p - 2
    }

    /// Computes self^((p−5)/8) = self^(2^252 − 3), used by [`sqrt_ratio`].
    pub fn pow_p58(self) -> Fe {
        let [out] = pow_p58_lanes([self]);
        out
    }

    /// True if the canonical encoding is all zeros.
    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Sign of the field element: the least-significant bit of the canonical
    /// encoding (RFC 8032's definition of "negative").
    pub fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Equality on canonical encodings.
    pub fn ct_eq(self, other: Fe) -> bool {
        crate::ct::ct_eq(&self.to_bytes(), &other.to_bytes())
    }
}

/// √−1 mod p, computed once as 2^((p−1)/4).
pub fn sqrt_m1() -> Fe {
    static CELL: OnceLock<Fe> = OnceLock::new();
    *CELL.get_or_init(|| {
        // Exponent (p−1)/4 = 2^253 − 5: binary has ones at bits 0,1,3..252.
        let base = Fe::from_u64(2);
        let mut acc = Fe::ONE;
        for bit in (0..253).rev() {
            acc = acc.square();
            if bit != 2 {
                acc = acc.mul(base);
            }
        }
        acc
    })
}

/// The twisted Edwards curve constant d = −121665/121666.
pub fn d() -> Fe {
    static CELL: OnceLock<Fe> = OnceLock::new();
    *CELL.get_or_init(|| {
        Fe::from_u64(121665)
            .neg()
            .mul(Fe::from_u64(121666).invert())
    })
}

/// 2d, used by the extended-coordinates addition formulas.
pub fn d2() -> Fe {
    static CELL: OnceLock<Fe> = OnceLock::new();
    *CELL.get_or_init(|| d().add(d()))
}

/// `z^(2^252 − 3)` for each of `N` elements, advanced in lockstep.
///
/// The chain is ~250 squarings, each waiting on the one before, so a lone
/// chain leaves most of the multiplier idle; `N` independent chains side
/// by side fill it. Two elements cost about one and a half times one.
pub(crate) fn pow_p58_lanes<const N: usize>(z: [Fe; N]) -> [Fe; N] {
    let mul = |mut a: [Fe; N], b: [Fe; N]| {
        for i in 0..N {
            a[i] = a[i].mul(b[i]);
        }
        a
    };
    let pow2k = |mut x: [Fe; N], k: u32| {
        for _ in 0..k {
            for lane in &mut x {
                *lane = lane.square();
            }
        }
        x
    };
    let z2 = pow2k(z, 1);
    let z9 = mul(pow2k(z2, 2), z);
    let z11 = mul(z9, z2);
    let z2_5_0 = mul(pow2k(z11, 1), z9);
    let z2_10_0 = mul(pow2k(z2_5_0, 5), z2_5_0);
    let z2_20_0 = mul(pow2k(z2_10_0, 10), z2_10_0);
    let z2_40_0 = mul(pow2k(z2_20_0, 20), z2_20_0);
    let z2_50_0 = mul(pow2k(z2_40_0, 10), z2_10_0);
    let z2_100_0 = mul(pow2k(z2_50_0, 50), z2_50_0);
    let z2_200_0 = mul(pow2k(z2_100_0, 100), z2_100_0);
    let z2_250_0 = mul(pow2k(z2_200_0, 50), z2_50_0);
    mul(pow2k(z2_250_0, 2), z) // 2^252 - 3
}

/// Computes `sqrt(u/v)` when it exists.
///
/// Returns `(was_square, root)`: `root` is a square root of `u/v` when
/// `was_square`, otherwise undefined junk the caller must ignore.
pub fn sqrt_ratio(u: Fe, v: Fe) -> (bool, Fe) {
    let [out] = sqrt_ratios([(u, v)]);
    out
}

/// [`sqrt_ratio`] of `N` pairs `(u, v)`, the exponentiations in lockstep
/// ([`pow_p58_lanes`]): the same result for each pair as on its own.
pub(crate) fn sqrt_ratios<const N: usize>(uv: [(Fe, Fe); N]) -> [(bool, Fe); N] {
    let v3 = uv.map(|(_, v)| v.square().mul(v));
    let bases: [Fe; N] = std::array::from_fn(|i| {
        let (u, v) = uv[i];
        let v7 = v3[i].square().mul(v);
        u.mul(v7)
    });
    let powers = pow_p58_lanes(bases);
    std::array::from_fn(|i| {
        let (u, v) = uv[i];
        let mut r = u.mul(v3[i]).mul(powers[i]);
        let check = v.mul(r.square());
        let correct = check.ct_eq(u);
        let flipped = check.ct_eq(u.neg());
        if flipped {
            r = r.mul(sqrt_m1());
        }
        (correct || flipped, r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe::from_u64(n)
    }

    #[test]
    fn add_sub_round_trip() {
        let a = fe(1234567);
        let b = fe(7654321);
        assert!(a.add(b).sub(b).ct_eq(a));
        assert!(a.sub(b).add(b).ct_eq(a));
    }

    #[test]
    fn mul_matches_small_integers() {
        assert!(fe(7).mul(fe(6)).ct_eq(fe(42)));
        assert!(fe(0).mul(fe(99)).ct_eq(Fe::ZERO));
        assert!(fe(1).mul(fe(99)).ct_eq(fe(99)));
    }

    #[test]
    fn p_reduces_to_zero() {
        // p = 2^255 - 19 encoded little-endian.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let p = Fe::from_bytes(&p_bytes);
        // from_bytes does not reduce, but to_bytes must canonicalize.
        assert_eq!(p.to_bytes(), [0u8; 32]);
        // p + 1 ≡ 1
        p_bytes[0] = 0xee;
        assert!(Fe::from_bytes(&p_bytes).ct_eq(Fe::ONE));
    }

    #[test]
    fn bytes_round_trip_canonical_values() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0x42;
        bytes[20] = 0x99;
        bytes[31] = 0x55; // below 2^255 - 19, canonical
        let x = Fe::from_bytes(&bytes);
        assert_eq!(x.to_bytes(), bytes);
    }

    #[test]
    fn invert_is_inverse() {
        for n in [1u64, 2, 5, 121665, 0xffff_ffff] {
            let x = fe(n);
            assert!(x.mul(x.invert()).ct_eq(Fe::ONE), "n = {n}");
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = sqrt_m1();
        assert!(i.square().ct_eq(Fe::ONE.neg()));
    }

    #[test]
    fn d_satisfies_definition() {
        // d * 121666 + 121665 == 0
        assert!(d().mul(fe(121666)).add(fe(121665)).ct_eq(Fe::ZERO));
    }

    #[test]
    fn sqrt_ratio_finds_roots() {
        // 4/1 has root 2 (or -2; take canonical nonnegative result squared).
        let (ok, r) = sqrt_ratio(fe(4), Fe::ONE);
        assert!(ok);
        assert!(r.square().ct_eq(fe(4)));
        // 2 is a non-residue mod p (p ≡ 5 mod 8), so sqrt(2) must fail.
        let (ok, _) = sqrt_ratio(fe(2), Fe::ONE);
        assert!(!ok);
    }

    #[test]
    fn negate_and_sign() {
        let x = fe(3);
        assert!(x.is_negative()); // 3 is odd
        assert!(!fe(4).is_negative());
        assert!(x.neg().add(x).ct_eq(Fe::ZERO));
    }

    #[test]
    fn mul_small_matches_mul() {
        let x = fe(0xdead_beef);
        assert!(x.mul_small(19).ct_eq(x.mul(fe(19))));
    }

    #[test]
    fn distributive_law_spot_check() {
        let a = fe(111_111_111);
        let b = fe(222_222_222);
        let c = fe(333_333_333);
        assert!(a.add(b).mul(c).ct_eq(a.mul(c).add(b.mul(c))));
    }
}
