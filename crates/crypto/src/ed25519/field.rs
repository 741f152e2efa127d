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
//!
//! [`Fe::invert`] is Bernstein–Yang's safegcd on signed 62-bit limbs, in
//! variable time like the rest of the crate (see the `safegcd` module).

// The arithmetic methods deliberately mirror mathematical notation
// (`add`, `mul`, …) rather than the operator traits, keeping reduction
// behavior explicit at call sites; index-based limb loops follow the
// reference implementations they are checked against.
#![allow(clippy::should_implement_trait, clippy::needless_range_loop)]

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

    /// Multiplicative inverse, by safegcd in variable time: about a third
    /// of the time of `self^(p−2)`'s ~255 squarings. The zero element maps
    /// to zero (callers check for zero where it matters), as under Fermat.
    pub fn invert(self) -> Fe {
        safegcd::invert(self)
    }

    /// Multiplicative inverse via Fermat, `self^(p−2)`: the reference
    /// [`Fe::invert`] is tested against.
    #[cfg(test)]
    pub(crate) fn invert_fermat(self) -> Fe {
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

/// √−1 mod p, 2^((p−1)/4). The three constants are canonical limbs, each
/// derived from its definition by a unit test in `edwards.rs`.
pub const SQRT_M1: Fe = Fe([
    1718705420411056,
    234908883556509,
    2233514472574048,
    2117202627021982,
    765476049583133,
]);

/// The twisted Edwards curve constant d = −121665/121666.
pub const D: Fe = Fe([
    929955233495203,
    466365720129213,
    1662059464998953,
    2033849074728123,
    1442794654840575,
]);

/// 2d, used by the extended-coordinates addition formulas.
pub const D2: Fe = Fe([
    1859910466990425,
    932731440258426,
    1072319116312658,
    1815898335770999,
    633789495995903,
]);

/// Inversion mod p by Bernstein and Yang's safegcd ("Fast constant-time
/// gcd computation and modular inversion", 2019), in the variable-time
/// form of libsecp256k1's `modinv64_var`.
///
/// A *divstep* maps `(δ, f, g)`, f odd, to `(1 − δ, g, (g − f)/2)` when
/// δ > 0 and g is odd, else to `(1 + δ, f, (g + (g mod 2)·f)/2)`. From
/// `(1, p, x)` it reaches g = 0 with f = ±gcd(p, x) = ±1. Each step is a
/// 2×2 matrix on (f, g), and 62 of them depend only on the low 62 bits of
/// f and g, so [`divsteps_62`] runs them on one word and [`transform`]
/// applies their product to the whole numbers once. The same matrices
/// act on (d, e), from (0, 1), modulo p, keeping f ≡ d·x and g ≡ e·x: at
/// g = 0, x⁻¹ = ±d. Numbers are five signed 62-bit limbs in `i64`, the
/// top one carrying the sign; products accumulate in `i128`. Five
/// hundred to six hundred divsteps in practice, ten outer steps.
mod safegcd {
    use super::Fe;

    const M62: u64 = u64::MAX >> 2;

    /// p = 2²⁵⁵ − 19 as −19 + 128·2²⁴⁸.
    const P: [i64; 5] = [-19, 0, 0, 0, 128];

    /// p⁻¹ mod 2⁶², by Newton's method: an odd x is its own inverse mod
    /// 2³, and each `x ← x·(2 − p·x)` doubles the low bits that are right.
    /// `P[0]` is p mod 2⁶⁴ (the top limb sits at bit 248).
    const P_INV62: u64 = {
        let p = P[0] as u64;
        let mut x = p;
        let mut steps = 0;
        while steps < 5 {
            x = x.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(x)));
            steps += 1;
        }
        x & M62
    };
    const _: () = assert!(P_INV62.wrapping_mul(P[0] as u64) & M62 == 1);

    /// `[u, v, q, r]`: 62 divsteps take (f, g) to
    /// `((u·f + v·g) / 2⁶², (q·f + r·g) / 2⁶²)`.
    type Matrix = [i64; 4];

    /// 62 divsteps from `η = −δ` on the low words of f (odd) and g: the
    /// η after them and their matrix. Runs of even g are taken at once,
    /// and each odd g has up to six of its low bits cancelled by one
    /// multiple of f.
    fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, Matrix) {
        let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
        let (mut f, mut g) = (f0, g0);
        let mut left = 62u32;
        loop {
            // Steps on an even g only halve it; a sentinel bit stops the
            // count at the steps left.
            let zeros = (g | (u64::MAX << left)).trailing_zeros();
            g >>= zeros;
            u <<= zeros;
            v <<= zeros;
            eta -= i64::from(zeros);
            left -= zeros;
            if left == 0 {
                break;
            }
            // g is odd. With δ > 0 the step swaps (f, g) for (g, −f).
            let w = if eta < 0 {
                eta = -eta;
                (f, g) = (g, f.wrapping_neg());
                (u, q) = (q, u.wrapping_neg());
                (v, r) = (r, v.wrapping_neg());
                // w ≡ −g/f mod 2⁶: f·(f² − 2) ≡ −f⁻¹ there.
                let w = f
                    .wrapping_mul(g)
                    .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2));
                w & low_bits(eta, left, 63)
            } else {
                // Here η tends to be small: four bits, f⁻¹ mod 2⁴ by a trick.
                let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
                f_inv.wrapping_neg().wrapping_mul(g) & low_bits(eta, left, 15)
            };
            g = g.wrapping_add(f.wrapping_mul(w));
            q = q.wrapping_add(u.wrapping_mul(w));
            r = r.wrapping_add(v.wrapping_mul(w));
        }
        (eta, [u as i64, v as i64, q as i64, r as i64])
    }

    /// The mask of g's bits one multiple of f may cancel: no more than
    /// η + 1 (η's sign flips after that) or than the steps left, nor than
    /// `cap` covers.
    fn low_bits(eta: i64, left: u32, cap: u64) -> u64 {
        let limit = (eta + 1).min(i64::from(left)) as u32;
        (u64::MAX >> (64 - limit)) & cap
    }

    /// `(a, b) ← t·(a, b) / 2⁶²`. With `modular` (for d, e), first adds the
    /// multiples of p that make both sums divisible by 2⁶², chosen so that
    /// a result in (−2p, p) follows from an input there; for f, g the
    /// division is exact as it is.
    fn transform(t: Matrix, a: &mut [i64; 5], b: &mut [i64; 5], modular: bool) {
        let wide = |x: i64, y: i64| i128::from(x) * i128::from(y);
        let [u, v, q, r] = t;
        let (mut ma, mut mb) = (0, 0);
        if modular {
            let (sa, sb) = (a[4] >> 63, b[4] >> 63);
            ma = (u & sa) + (v & sb);
            mb = (q & sa) + (r & sb);
        }
        let mut ca = wide(u, a[0]) + wide(v, b[0]);
        let mut cb = wide(q, a[0]) + wide(r, b[0]);
        if modular {
            ma -= (P_INV62.wrapping_mul(ca as u64).wrapping_add(ma as u64) & M62) as i64;
            mb -= (P_INV62.wrapping_mul(cb as u64).wrapping_add(mb as u64) & M62) as i64;
            ca += wide(P[0], ma);
            cb += wide(P[0], mb);
        }
        debug_assert!(ca as u64 & M62 == 0 && cb as u64 & M62 == 0);
        ca >>= 62;
        cb >>= 62;
        for i in 1..5 {
            ca += wide(u, a[i]) + wide(v, b[i]) + wide(P[i], ma);
            cb += wide(q, a[i]) + wide(r, b[i]) + wide(P[i], mb);
            a[i - 1] = (ca as u64 & M62) as i64;
            b[i - 1] = (cb as u64 & M62) as i64;
            ca >>= 62;
            cb >>= 62;
        }
        a[4] = ca as i64;
        b[4] = cb as i64;
    }

    /// Carries limbs 0..4 into [0, 2⁶²), the top limb taking the sign.
    fn carry(x: &mut [i64; 5]) {
        for i in 0..4 {
            x[i + 1] += x[i] >> 62;
            x[i] &= M62 as i64;
        }
    }

    /// The representative in [0, p) of `d` ∈ (−2p, p), negated first when
    /// `negate`.
    fn normalize(mut d: [i64; 5], negate: bool) -> [i64; 5] {
        let add_p = |x: &mut [i64; 5]| {
            x[0] += P[0];
            x[4] += P[4];
        };
        if d[4] < 0 {
            add_p(&mut d);
        }
        if negate {
            d = d.map(|limb| -limb);
        }
        carry(&mut d);
        if d[4] < 0 {
            add_p(&mut d);
            carry(&mut d);
        }
        d
    }

    /// `x`'s canonical value in 62-bit limbs.
    fn limbs_of(x: Fe) -> [i64; 5] {
        let bytes = x.to_bytes();
        let w: [u64; 4] = std::array::from_fn(|i| {
            let mut le = [0u8; 8];
            le.copy_from_slice(&bytes[8 * i..8 * i + 8]);
            u64::from_le_bytes(le)
        });
        let limbs = [
            w[0],
            w[0] >> 62 | w[1] << 2,
            w[1] >> 60 | w[2] << 4,
            w[2] >> 58 | w[3] << 6,
            w[3] >> 56,
        ];
        limbs.map(|limb| (limb & M62) as i64)
    }

    /// The field element of limbs in [0, p).
    fn fe_of(limbs: [i64; 5]) -> Fe {
        let l = limbs.map(|limb| limb as u64);
        let w = [
            l[0] | l[1] << 62,
            l[1] >> 2 | l[2] << 60,
            l[2] >> 4 | l[3] << 58,
            l[3] >> 6 | l[4] << 56,
        ];
        let mut bytes = [0u8; 32];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(w) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        Fe::from_bytes(&bytes)
    }

    pub(super) fn invert(x: Fe) -> Fe {
        let (mut d, mut e) = ([0i64; 5], [1, 0, 0, 0, 0]);
        let (mut f, mut g) = (P, limbs_of(x));
        let mut eta = -1;
        while g != [0; 5] {
            let (next, t) = divsteps_62(eta, f[0] as u64, g[0] as u64);
            eta = next;
            transform(t, &mut d, &mut e, true);
            transform(t, &mut f, &mut g, false);
        }
        // f = ±1, its sign in the top limb.
        fe_of(normalize(d, f[4] < 0))
    }
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
            r = r.mul(SQRT_M1);
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
    fn safegcd_matches_fermat_on_limb_edges_and_a_stream() {
        // Every value with one 62-bit limb of the inverter at an extreme,
        // limbs of the field at theirs, and a multiplicative walk.
        let mut inputs = vec![Fe::ZERO, Fe::ONE, Fe::ONE.neg(), fe(19), fe(19).neg()];
        for bit in [51, 61, 62, 63, 102, 124, 186, 248, 254] {
            let mut bytes = [0u8; 32];
            bytes[bit / 8] = 1 << (bit % 8);
            let power = Fe::from_bytes(&bytes);
            inputs.extend([power, power.sub(Fe::ONE), power.neg()]);
        }
        let mut walk = fe(3);
        for _ in 0..2_000 {
            walk = walk.mul(walk).add(fe(7));
            inputs.push(walk);
        }
        for (i, x) in inputs.iter().enumerate() {
            assert_eq!(
                x.invert().to_bytes(),
                x.invert_fermat().to_bytes(),
                "input {i}"
            );
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        assert!(SQRT_M1.square().ct_eq(Fe::ONE.neg()));
    }

    #[test]
    fn d_satisfies_definition() {
        // d * 121666 + 121665 == 0
        assert!(D.mul(fe(121666)).add(fe(121665)).ct_eq(Fe::ZERO));
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
