//! Frozen copy of the seed revision's Ed25519 kernels, for benchmarking.
//!
//! The "windowed vs. seed" ablation (`figures --ablate-crypto`) needs
//! both implementations inside one process — cross-run ratios drift
//! with machine load. This module freezes the arithmetic exactly as the
//! growth seed shipped it (commit `f43013a`, `crates/crypto/src/ed25519/
//! {field,edwards}.rs`): schoolbook 51-bit field multiplication with
//! `square(x) = mul(x, x)`, plain double-and-add scalar multiplication,
//! and the table-free Straus double-scalar loop (one shared doubling
//! chain, full unified additions on every nonzero bit pair).
//!
//! Only the operations the ablation exercises are kept, up to the full
//! [`seed_verify`] path (decompression, challenge hash, Straus,
//! projective equality). Scalars and SHA-512 come from the live crate —
//! both are unchanged since the seed, so those costs are identical on
//! both sides. Do not "improve" this module; its whole value is staying
//! byte-for-byte the algorithm the EXPERIMENTS.md seed numbers measured.

// Items mirror the seed sources verbatim and are intentionally not
// re-documented here.
#![allow(missing_docs)]
#![allow(clippy::should_implement_trait, clippy::needless_range_loop)]

use std::sync::OnceLock;

use proxy_crypto::ed25519::scalar::Scalar;
use proxy_crypto::sha512::Sha512;

const MASK: u64 = (1 << 51) - 1;

/// 4p in limb form, added before subtraction to avoid underflow.
const FOUR_P: [u64; 5] = [
    (1u64 << 53) - 76,
    (1u64 << 53) - 4,
    (1u64 << 53) - 4,
    (1u64 << 53) - 4,
    (1u64 << 53) - 4,
];

/// Seed field element: five 51-bit limbs, weakly reduced.
#[derive(Clone, Copy, Debug)]
pub struct SeedFe([u64; 5]);

/// 2d = 2·(−121665/121666) mod p, as 51-bit limbs.
const D2: SeedFe = SeedFe([
    0x0069b9426b2f159,
    0x0035050762add7a,
    0x003cf44c0038052,
    0x006738cc7407977,
    0x002406d9dc56dff,
]);

impl SeedFe {
    pub const ZERO: SeedFe = SeedFe([0, 0, 0, 0, 0]);
    pub const ONE: SeedFe = SeedFe([1, 0, 0, 0, 0]);

    fn weak_reduce(self) -> SeedFe {
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
        let c = t[4] >> 51;
        t[4] &= MASK;
        t[0] += 19 * c;
        SeedFe(t)
    }

    pub fn add(self, other: SeedFe) -> SeedFe {
        let mut t = self.0;
        for i in 0..5 {
            t[i] += other.0[i];
        }
        SeedFe(t).weak_reduce()
    }

    pub fn sub(self, other: SeedFe) -> SeedFe {
        let mut t = self.0;
        for i in 0..5 {
            t[i] = t[i] + FOUR_P[i] - other.0[i];
        }
        SeedFe(t).weak_reduce()
    }

    pub fn mul(self, other: SeedFe) -> SeedFe {
        let a = self.0;
        let b = other.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let r0 =
            m(a[0], b[0]) + 19 * (m(a[1], b[4]) + m(a[2], b[3]) + m(a[3], b[2]) + m(a[4], b[1]));
        let r1 =
            m(a[0], b[1]) + m(a[1], b[0]) + 19 * (m(a[2], b[4]) + m(a[3], b[3]) + m(a[4], b[2]));
        let r2 =
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + 19 * (m(a[3], b[4]) + m(a[4], b[3]));
        let r3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + 19 * m(a[4], b[4]);
        let r4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        SeedFe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// The seed had no dedicated squaring — this indirection is the point.
    pub fn square(self) -> SeedFe {
        self.mul(self)
    }

    fn carry_wide(mut t: [u128; 5]) -> SeedFe {
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
        SeedFe([
            t[0] as u64,
            t[1] as u64,
            t[2] as u64,
            t[3] as u64,
            t[4] as u64,
        ])
    }

    pub fn mul_small(self, c: u64) -> SeedFe {
        let mut t = [0u128; 5];
        for i in 0..5 {
            t[i] = (self.0[i] as u128) * (c as u128);
        }
        SeedFe::carry_wide(t)
    }

    pub fn invert(self) -> SeedFe {
        let z = self;
        let z2 = z.square();
        let z9 = z2.square().square().mul(z);
        let z11 = z9.mul(z2);
        let z2_5_0 = z11.square().mul(z9);
        let pow2k = |mut x: SeedFe, k: u32| {
            for _ in 0..k {
                x = x.square();
            }
            x
        };
        let z2_10_0 = pow2k(z2_5_0, 5).mul(z2_5_0);
        let z2_20_0 = pow2k(z2_10_0, 10).mul(z2_10_0);
        let z2_40_0 = pow2k(z2_20_0, 20).mul(z2_20_0);
        let z2_50_0 = pow2k(z2_40_0, 10).mul(z2_10_0);
        let z2_100_0 = pow2k(z2_50_0, 50).mul(z2_50_0);
        let z2_200_0 = pow2k(z2_100_0, 100).mul(z2_100_0);
        let z2_250_0 = pow2k(z2_200_0, 50).mul(z2_50_0);
        pow2k(z2_250_0, 5).mul(z11)
    }

    pub fn to_bytes(self) -> [u8; 32] {
        let mut t = self.weak_reduce().0;
        let mut q = (t[0].wrapping_add(19)) >> 51;
        q = (t[1] + q) >> 51;
        q = (t[2] + q) >> 51;
        q = (t[3] + q) >> 51;
        q = (t[4] + q) >> 51;
        t[0] += 19 * q;
        t[1] += t[0] >> 51;
        t[0] &= MASK;
        t[2] += t[1] >> 51;
        t[1] &= MASK;
        t[3] += t[2] >> 51;
        t[2] &= MASK;
        t[4] += t[3] >> 51;
        t[3] &= MASK;
        t[4] &= MASK;
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

    fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    pub fn from_bytes(bytes: &[u8; 32]) -> SeedFe {
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
        SeedFe(limbs)
    }

    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    fn eq_canonical(self, other: SeedFe) -> bool {
        self.to_bytes() == other.to_bytes()
    }

    /// self^(2^252 − 3), the seed's `pow_p58` (every squaring a full mul).
    fn pow_p58(self) -> SeedFe {
        let pow2k = |mut x: SeedFe, k: u32| {
            for _ in 0..k {
                x = x.square();
            }
            x
        };
        let z = self;
        let z2 = z.square();
        let z9 = pow2k(z2, 2).mul(z);
        let z11 = z9.mul(z2);
        let z2_5_0 = z11.square().mul(z9);
        let z2_10_0 = pow2k(z2_5_0, 5).mul(z2_5_0);
        let z2_20_0 = pow2k(z2_10_0, 10).mul(z2_10_0);
        let z2_40_0 = pow2k(z2_20_0, 20).mul(z2_20_0);
        let z2_50_0 = pow2k(z2_40_0, 10).mul(z2_10_0);
        let z2_100_0 = pow2k(z2_50_0, 50).mul(z2_50_0);
        let z2_200_0 = pow2k(z2_100_0, 100).mul(z2_100_0);
        let z2_250_0 = pow2k(z2_200_0, 50).mul(z2_50_0);
        pow2k(z2_250_0, 2).mul(z)
    }
}

/// √−1 mod p (2^((p−1)/4)), computed once with seed arithmetic.
fn sqrt_m1() -> SeedFe {
    static CELL: OnceLock<SeedFe> = OnceLock::new();
    *CELL.get_or_init(|| {
        let base = SeedFe([2, 0, 0, 0, 0]);
        let mut acc = SeedFe::ONE;
        for bit in (0..253).rev() {
            acc = acc.square();
            if bit != 2 {
                acc = acc.mul(base);
            }
        }
        acc
    })
}

/// The curve constant d = −121665/121666, computed once.
fn curve_d() -> SeedFe {
    static CELL: OnceLock<SeedFe> = OnceLock::new();
    *CELL.get_or_init(|| {
        SeedFe::ZERO
            .sub(SeedFe([121665, 0, 0, 0, 0]))
            .mul(SeedFe([121666, 0, 0, 0, 0]).invert())
    })
}

/// The seed's `sqrt_ratio`: sqrt(u/v) when it exists.
fn sqrt_ratio(u: SeedFe, v: SeedFe) -> (bool, SeedFe) {
    let v3 = v.square().mul(v);
    let v7 = v3.square().mul(v);
    let mut r = u.mul(v3).mul(u.mul(v7).pow_p58());
    let check = v.mul(r.square());
    let correct = check.eq_canonical(u);
    let flipped = check.eq_canonical(SeedFe::ZERO.sub(u));
    if flipped {
        r = r.mul(sqrt_m1());
    }
    (correct || flipped, r)
}

/// Seed curve point in extended homogeneous coordinates.
#[derive(Clone, Copy, Debug)]
pub struct SeedPoint {
    x: SeedFe,
    y: SeedFe,
    z: SeedFe,
    t: SeedFe,
}

impl SeedPoint {
    #[must_use]
    pub fn identity() -> SeedPoint {
        SeedPoint {
            x: SeedFe::ZERO,
            y: SeedFe::ONE,
            z: SeedFe::ONE,
            t: SeedFe::ZERO,
        }
    }

    /// The standard basepoint, as affine limb constants (the seed derived
    /// it via square roots at runtime; the value is identical).
    #[must_use]
    pub fn basepoint() -> SeedPoint {
        SeedPoint {
            x: SeedFe([
                0x0062d608f25d51a,
                0x00412a4b4f6592a,
                0x0075b7171a4b31d,
                0x001ff60527118fe,
                0x00216936d3cd6e5,
            ]),
            y: SeedFe([
                0x006666666666658,
                0x004cccccccccccc,
                0x001999999999999,
                0x003333333333333,
                0x006666666666666,
            ]),
            z: SeedFe::ONE,
            t: SeedFe([
                0x0068ab3a5b7dda3,
                0x00000eea2a5eadbb,
                0x002af8df483c27e,
                0x00332b375274732,
                0x0067875f0fd78b7,
            ]),
        }
    }

    /// Unified addition, a = −1 (verbatim seed formulas).
    #[must_use]
    pub fn add(&self, other: &SeedPoint) -> SeedPoint {
        let a = self.y.sub(self.x).mul(other.y.sub(other.x));
        let b = self.y.add(self.x).mul(other.y.add(other.x));
        let c = self.t.mul(D2).mul(other.t);
        let dd = self.z.mul(other.z).mul_small(2);
        let e = b.sub(a);
        let f = dd.sub(c);
        let g = dd.add(c);
        let h = b.add(a);
        SeedPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    #[must_use]
    pub fn double(&self) -> SeedPoint {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().mul_small(2);
        let h = a.add(b);
        let e = h.sub(self.x.add(self.y).square());
        let g = a.sub(b);
        let f = c.add(g);
        SeedPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    #[must_use]
    pub fn neg(&self) -> SeedPoint {
        SeedPoint {
            x: SeedFe::ZERO.sub(self.x),
            y: self.y,
            z: self.z,
            t: SeedFe::ZERO.sub(self.t),
        }
    }

    /// Seed scalar multiplication: plain double-and-add.
    #[must_use]
    pub fn mul_scalar(&self, k: &Scalar) -> SeedPoint {
        let mut acc = SeedPoint::identity();
        for i in (0..256).rev() {
            acc = acc.double();
            if k.bit(i) == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Seed Straus: one shared doubling chain, full addition per nonzero
    /// bit pair, no windowing.
    #[must_use]
    pub fn double_scalar_mul(a: &Scalar, p: &SeedPoint, b: &Scalar, q: &SeedPoint) -> SeedPoint {
        let pq = p.add(q);
        let mut acc = SeedPoint::identity();
        for i in (0..256).rev() {
            acc = acc.double();
            match (a.bit(i), b.bit(i)) {
                (0, 0) => {}
                (1, 0) => acc = acc.add(p),
                (0, 1) => acc = acc.add(q),
                (1, 1) => acc = acc.add(&pq),
                _ => unreachable!("bits are 0 or 1"),
            }
        }
        acc
    }

    /// RFC 8032 compressed encoding, for pinning against the live crate.
    #[must_use]
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut bytes = y.to_bytes();
        if x.is_negative() {
            bytes[31] |= 0x80;
        }
        bytes
    }

    /// Seed point decompression (x² = (y² − 1)/(d·y² + 1)).
    pub fn decompress(bytes: &[u8; 32]) -> Option<SeedPoint> {
        let x_sign = bytes[31] >> 7 == 1;
        let y = SeedFe::from_bytes(bytes);
        let yy = y.square();
        let u = yy.sub(SeedFe::ONE);
        let v = curve_d().mul(yy).add(SeedFe::ONE);
        let (is_square, mut x) = sqrt_ratio(u, v);
        if !is_square {
            return None;
        }
        if x.is_zero() && x_sign {
            return None;
        }
        if x.is_negative() != x_sign {
            x = SeedFe::ZERO.sub(x);
        }
        Some(SeedPoint {
            x,
            y,
            z: SeedFe::ONE,
            t: x.mul(y),
        })
    }

    /// Projective equality, as the seed's `eq_point`.
    #[must_use]
    pub fn eq_point(&self, other: &SeedPoint) -> bool {
        self.x.mul(other.z).eq_canonical(other.x.mul(self.z))
            && self.y.mul(other.z).eq_canonical(other.y.mul(self.z))
    }
}

/// The seed revision's *entire* verify path: decompress A and R with seed
/// field arithmetic, hash the RFC 8032 challenge, run the table-free
/// Straus loop, and compare projectively. This is the end-to-end
/// comparator for the "windowed vs. seed" ablation row.
#[must_use]
pub fn seed_verify(key: &[u8; 32], message: &[u8], signature: &[u8; 64]) -> bool {
    let Some(a) = SeedPoint::decompress(key) else {
        return false;
    };
    let r_bytes: [u8; 32] = signature[..32].try_into().expect("split");
    let s_bytes: [u8; 32] = signature[32..].try_into().expect("split");
    let Some(r) = SeedPoint::decompress(&r_bytes) else {
        return false;
    };
    let Some(s) = Scalar::from_canonical_bytes(&s_bytes) else {
        return false;
    };
    let mut h = Sha512::new();
    h.update(&r_bytes);
    h.update(key);
    h.update(message);
    let k = Scalar::from_bytes_mod_order_wide(&h.finalize());
    // [s]B + [k](−A) == R, via the seed's shared-doubling Straus loop.
    let lhs = SeedPoint::double_scalar_mul(&s, &SeedPoint::basepoint(), &k, &a.neg());
    lhs.eq_point(&r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxy_crypto::ed25519::edwards::Point;

    #[test]
    fn frozen_basepoint_matches_live() {
        assert_eq!(
            SeedPoint::basepoint().compress(),
            Point::basepoint().compress()
        );
    }

    #[test]
    fn frozen_scalar_mul_matches_live() {
        for k in [1u64, 2, 7, 1234, u64::MAX] {
            let s = Scalar::from_u64(k);
            assert_eq!(
                SeedPoint::basepoint().mul_scalar(&s).compress(),
                Point::basepoint().mul_scalar(&s).compress(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn frozen_straus_matches_live() {
        let (a, b) = (Scalar::from_u64(987_654_321), Scalar::from_u64(123_456_789));
        let seed_q = SeedPoint::basepoint().mul_scalar(&Scalar::from_u64(99));
        let live_q = Point::basepoint().mul_scalar(&Scalar::from_u64(99));
        let seed = SeedPoint::double_scalar_mul(&a, &SeedPoint::basepoint(), &b, &seed_q);
        let live = Point::double_scalar_mul(&a, &Point::basepoint(), &b, &live_q);
        assert_eq!(seed.compress(), live.compress());
    }

    #[test]
    fn frozen_negation_round_trips() {
        let p = SeedPoint::basepoint().mul_scalar(&Scalar::from_u64(5));
        assert_eq!(p.neg().neg().compress(), p.compress());
    }

    #[test]
    fn frozen_decompress_round_trips() {
        for k in [1u64, 3, 77] {
            let p = SeedPoint::basepoint().mul_scalar(&Scalar::from_u64(k));
            let q = SeedPoint::decompress(&p.compress()).expect("on curve");
            assert!(p.eq_point(&q), "k = {k}");
        }
        assert!(SeedPoint::decompress(&[2u8; 32]).is_none());
    }

    #[test]
    fn frozen_verify_agrees_with_live() {
        use proxy_crypto::ed25519::SigningKey;
        let sk = SigningKey::from_seed(&[9u8; 32]);
        let vk = sk.verifying_key();
        let msg = b"frozen comparator";
        let sig = sk.sign(msg);
        assert!(seed_verify(vk.as_bytes(), msg, sig.as_bytes()));
        assert!(!seed_verify(vk.as_bytes(), b"tampered", sig.as_bytes()));
        let mut bad = *sig.as_bytes();
        bad[3] ^= 1;
        assert!(!seed_verify(vk.as_bytes(), msg, &bad));
    }
}
