//! The eight-lane engine under the batch equations, on AVX-512 IFMA.
//!
//! A batch equation of n signatures has 2n + 1 terms, so its work falls
//! into independent pieces eight at a time: eight square roots, eight
//! tables, and the digits of one chain position dealt to eight
//! accumulators. Each piece runs in one lane of a vector of field
//! elements ([`FeX8`]): five `__m512i`, one per limb, each holding that
//! limb of eight elements in the radix 2^51 of the scalar [`Fe`], so a
//! lane takes a scalar element's limbs as they are.
//!
//! * [`FeX8::mul`] is 25 `vpmadd52luq` and 25 `vpmadd52huq`. IFMA
//!   multiplies the low 52 bits of its inputs and adds either half of
//!   the 104-bit product, so a high half counts twice one limb up
//!   (2^52 = 2·2^51); then 2^255 ≡ 19 folds limbs 5..9 into 0..4, and
//!   one carry pass brings every limb below 2^52. [`FeX8::square`] takes
//!   15 products, its cross terms doubled once accumulated.
//! * IFMA reads only 52 bits of an input, so nothing here is lazy: every
//!   [`FeX8::add`] and [`FeX8::sub`] carries once, and every value that
//!   reaches a multiplier has limbs below 2^52.
//! * Points use the scalar formulas: [`PointX8::add_cached`], and
//!   doubling through a completed point ([`CompletedX8`]).
//!
//! The module is compiled only where the build's target has every
//! feature its kernels enable (the `cfg` on its declaration); there is
//! no runtime dispatch. Every kernel is a safe `#[target_feature]`
//! function over value intrinsics — elements come in through
//! `_mm512_set_epi64` and leave through lane extracts, with no load or
//! store through a pointer. Calling one from code compiled without the
//! attribute is `unsafe` even when the whole build has the features, and
//! a `#[test]` cannot carry the attribute. So every kernel, the tests'
//! oracle kernels among them, is a [`Kernel`] whose `run` is compiled
//! for the features, [`enter`] makes the one call into it, and that
//! call's safety argument is the `cfg`.
//! The scalar composition it replaces (`Point::decompress_pair`,
//! `StrausTerm::new`, `Point::multiscalar_mul_basepoint`) is the oracle
//! the tests below hold each kernel to.

use std::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_extracti64x2_epi64, _mm512_madd52hi_epu64,
    _mm512_madd52lo_epu64, _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512,
    _mm512_slli_epi64, _mm512_srli_epi64, _mm512_sub_epi64, _mm_extract_epi64,
};

use super::super::field::{pow_p58_chain, Fe, D2, FOUR_P, MASK};
use super::{encoded_y, highest_nonzero, CachedPoint, DecompressError, Point, Scalar, StrausTerm};

/// Whether this build runs the eight-lane engine.
pub(super) const ENABLED: bool = true;

/// Work compiled for the lanes' features, run by [`enter`].
trait Kernel {
    type Output;

    /// Runs the kernel.
    ///
    /// # Safety
    ///
    /// The CPU has `avx512ifma`, `avx512f`, `avx512dq` and `sse4.1`. Every
    /// implementation enables exactly those and only calls safe kernel
    /// functions compiled for them, so that is its one precondition.
    unsafe fn run(self) -> Self::Output;
}

/// Runs `kernel`: the one call from code compiled without the lanes'
/// features into code compiled with them.
fn enter<K: Kernel>(kernel: K) -> K::Output {
    // SAFETY: this module is compiled only when the build's target
    // features include `avx512ifma`, `avx512f`, `avx512dq` and `sse4.1`
    // (the `cfg` on its declaration in `edwards.rs`), so every CPU this
    // code runs on has the instructions each kernel is compiled for.
    unsafe { kernel.run() }
}

/// [`super::Point::decompress_eight`]: the eight exponentiations of the
/// square roots are one chain of vector squarings, and every check
/// around them runs per lane, as `from_ys` makes it.
pub(super) fn decompress(encodings: [&[u8; 32]; 8]) -> [Result<Point, DecompressError>; 8] {
    struct Decompress<'a>([&'a [u8; 32]; 8]);
    impl Kernel for Decompress<'_> {
        type Output = [Result<Point, DecompressError>; 8];
        #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
        unsafe fn run(self) -> Self::Output {
            Point::from_ys_by(self.0.map(encoded_y), |z| pow_p58(z))
        }
    }
    enter(Decompress(encodings))
}

/// [`super::StrausTerm::set_points`]: the eight width-5 tables built in
/// the lanes of one.
pub(super) fn fill(terms: &mut [StrausTerm], points: &[Point]) {
    struct Fill<'a>(&'a mut [StrausTerm], &'a [Point]);
    impl Kernel for Fill<'_> {
        type Output = ();
        #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
        unsafe fn run(self) {
            fill_tables(self.0, self.1);
        }
    }
    enter(Fill(terms, points));
}

/// [`super::Point::multiscalar_mul_basepoint_lanes`].
pub(super) fn straus(b: &Scalar, terms: &[StrausTerm]) -> Point {
    struct Straus<'a>(&'a Scalar, &'a [StrausTerm]);
    impl Kernel for Straus<'_> {
        type Output = Point;
        #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
        unsafe fn run(self) -> Point {
            straus_chain(self.0, self.1)
        }
    }
    enter(Straus(b, terms))
}

/// Eight field elements, one per lane: limb `k` of lane `l` is lane `l`
/// of `self.0[k]`. Every operation returns limbs below 2^52 and takes
/// inputs with limbs below 2^52.
#[derive(Clone, Copy)]
struct FeX8([__m512i; 5]);

impl FeX8 {
    /// `x` in every lane.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn splat(x: Fe) -> FeX8 {
        FeX8(x.0.map(|limb| _mm512_set1_epi64(limb as i64)))
    }

    /// `x[l]` in lane `l`.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn from_lanes(x: [Fe; 8]) -> FeX8 {
        let limb = |l: usize, k: usize| x[l].0[k] as i64;
        FeX8(std::array::from_fn(|k| {
            _mm512_set_epi64(
                limb(7, k),
                limb(6, k),
                limb(5, k),
                limb(4, k),
                limb(3, k),
                limb(2, k),
                limb(1, k),
                limb(0, k),
            )
        }))
    }

    /// Lane `l` as element `l`.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn to_lanes(self) -> [Fe; 8] {
        let limbs = self.0.map(|v| lanes_of(v));
        std::array::from_fn(|l| Fe(std::array::from_fn(|k| limbs[k][l])))
    }

    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn add(self, other: FeX8) -> FeX8 {
        carry(std::array::from_fn(|k| {
            _mm512_add_epi64(self.0[k], other.0[k])
        }))
    }

    /// `self + 4p − other`: no limb underflows, as `other`'s are below
    /// 2^52 and 4p's above 2^53 − 77.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn sub(self, other: FeX8) -> FeX8 {
        carry(std::array::from_fn(|k| {
            let biased = _mm512_add_epi64(self.0[k], _mm512_set1_epi64(FOUR_P[k] as i64));
            _mm512_sub_epi64(biased, other.0[k])
        }))
    }

    /// Each of the 25 limb products lands its low 52 bits at limb `i + j`
    /// and its high 52 bits at `i + j + 1`, where they count twice.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn mul(self, other: FeX8) -> FeX8 {
        let (a, b) = (self.0, other.0);
        let mut lo = [_mm512_setzero_si512(); 10];
        let mut hi = [_mm512_setzero_si512(); 10];
        for i in 0..5 {
            for j in 0..5 {
                lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a[i], b[j]);
                hi[i + j + 1] = _mm512_madd52hi_epu64(hi[i + j + 1], a[i], b[j]);
            }
        }
        reduce(lo, hi)
    }

    /// [`FeX8::mul`] of `self` by itself in 15 products: the ten cross
    /// products once, doubled, then the five squares.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn square(self) -> FeX8 {
        let a = self.0;
        let mut lo = [_mm512_setzero_si512(); 10];
        let mut hi = [_mm512_setzero_si512(); 10];
        for i in 0..5 {
            for j in i + 1..5 {
                lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a[i], a[j]);
                hi[i + j + 1] = _mm512_madd52hi_epu64(hi[i + j + 1], a[i], a[j]);
            }
        }
        let mut lo = lo.map(|x| _mm512_slli_epi64::<1>(x));
        let mut hi = hi.map(|x| _mm512_slli_epi64::<1>(x));
        for i in 0..5 {
            lo[2 * i] = _mm512_madd52lo_epu64(lo[2 * i], a[i], a[i]);
            hi[2 * i + 1] = _mm512_madd52hi_epu64(hi[2 * i + 1], a[i], a[i]);
        }
        reduce(lo, hi)
    }
}

/// The eight 64-bit lanes of `v`, lane 0 first.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn lanes_of(v: __m512i) -> [u64; 8] {
    let pairs = [
        _mm512_extracti64x2_epi64::<0>(v),
        _mm512_extracti64x2_epi64::<1>(v),
        _mm512_extracti64x2_epi64::<2>(v),
        _mm512_extracti64x2_epi64::<3>(v),
    ];
    std::array::from_fn(|l| {
        let pair = pairs[l / 2];
        let lane = if l % 2 == 0 {
            _mm_extract_epi64::<0>(pair)
        } else {
            _mm_extract_epi64::<1>(pair)
        };
        lane as u64
    })
}

/// `19·x`, as `16x + 2x + x`.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn times_19(x: __m512i) -> __m512i {
    let x18 = _mm512_add_epi64(_mm512_slli_epi64::<4>(x), _mm512_slli_epi64::<1>(x));
    _mm512_add_epi64(x18, x)
}

/// The product whose limb `k` is `lo[k] + 2·hi[k]`, k = 0..9, brought to
/// five limbs below 2^52.
///
/// Bounds, for inputs below 2^52: each half-product is below 2^52 and a
/// limb gathers at most five of each, so `lo[k] + 2·hi[k]` < 15·2^52 <
/// 2^56; folding limb `k + 5` in at 19 times leaves every limb below
/// 20·2^56 < 2^61, whose carry (< 2^10) [`carry`] absorbs.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn reduce(lo: [__m512i; 10], hi: [__m512i; 10]) -> FeX8 {
    let z: [__m512i; 10] =
        std::array::from_fn(|k| _mm512_add_epi64(lo[k], _mm512_slli_epi64::<1>(hi[k])));
    carry(std::array::from_fn(|k| {
        _mm512_add_epi64(z[k], times_19(z[k + 5]))
    }))
}

/// One carry pass on limbs below 2^62, all limbs at once: each keeps its
/// low 51 bits and takes the carry of the one below, limb 0 the top
/// one's at 19 times (2^255 ≡ 19). A carry below 2^11 leaves every limb
/// below 2^52.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn carry(t: [__m512i; 5]) -> FeX8 {
    let mask = _mm512_set1_epi64(MASK as i64);
    let c = t.map(|limb| _mm512_srli_epi64::<51>(limb));
    FeX8(std::array::from_fn(|k| {
        let from_below = if k == 0 { times_19(c[4]) } else { c[k - 1] };
        _mm512_add_epi64(_mm512_and_si512(t[k], mask), from_below)
    }))
}

/// `z^(2^252 − 3)` for eight elements: the chain of
/// [`super::super::field::pow_p58_lanes`] on one vector.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn pow_p58(z: [Fe; 8]) -> [Fe; 8] {
    let pow2k = |mut x: FeX8, k| {
        for _ in 0..k {
            x = x.square();
        }
        x
    };
    pow_p58_chain(FeX8::from_lanes(z), |a, b| a.mul(b), pow2k).to_lanes()
}

/// Eight points in extended coordinates.
#[derive(Clone, Copy)]
struct PointX8 {
    x: FeX8,
    y: FeX8,
    z: FeX8,
    t: FeX8,
}

/// Eight points in projective coordinates: what doubling reads.
#[derive(Clone, Copy)]
struct ProjectiveX8 {
    x: FeX8,
    y: FeX8,
    z: FeX8,
}

/// A doubling before its last multiplications, as the scalar `Completed`.
#[derive(Clone, Copy)]
struct CompletedX8 {
    e: FeX8,
    f: FeX8,
    g: FeX8,
    h: FeX8,
}

/// Eight points in the scalar `CachedPoint`'s form.
#[derive(Clone, Copy)]
struct CachedX8 {
    y_plus_x: FeX8,
    y_minus_x: FeX8,
    t2d: FeX8,
    z2: FeX8,
}

impl PointX8 {
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn from_lanes(p: &[Point; 8]) -> PointX8 {
        PointX8 {
            x: FeX8::from_lanes(p.map(|p| p.x)),
            y: FeX8::from_lanes(p.map(|p| p.y)),
            z: FeX8::from_lanes(p.map(|p| p.z)),
            t: FeX8::from_lanes(p.map(|p| p.t)),
        }
    }

    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn to_lanes(self) -> [Point; 8] {
        let [x, y, z, t] = [self.x, self.y, self.z, self.t].map(|fe| fe.to_lanes());
        std::array::from_fn(|l| Point {
            x: x[l],
            y: y[l],
            z: z[l],
            t: t[l],
        })
    }

    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn projective(self) -> ProjectiveX8 {
        ProjectiveX8 {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    /// The scalar `Point::add_cached`, lane by lane.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn add_cached(self, other: &CachedX8) -> PointX8 {
        let a = self.y.sub(self.x).mul(other.y_minus_x);
        let b = self.y.add(self.x).mul(other.y_plus_x);
        let c = self.t.mul(other.t2d);
        let dd = self.z.mul(other.z2);
        let e = b.sub(a);
        let f = dd.sub(c);
        let g = dd.add(c);
        let h = b.add(a);
        PointX8 {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }
}

impl ProjectiveX8 {
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn identity() -> ProjectiveX8 {
        ProjectiveX8 {
            x: FeX8::splat(Fe::ZERO),
            y: FeX8::splat(Fe::ONE),
            z: FeX8::splat(Fe::ONE),
        }
    }

    /// The scalar `Projective::double`, lane by lane.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn double(self) -> CompletedX8 {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(zz);
        let h = a.add(b);
        let e = h.sub(self.x.add(self.y).square());
        let g = a.sub(b);
        let f = c.add(g);
        CompletedX8 { e, f, g, h }
    }
}

impl CompletedX8 {
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn to_projective(self) -> ProjectiveX8 {
        ProjectiveX8 {
            x: self.e.mul(self.f),
            y: self.g.mul(self.h),
            z: self.f.mul(self.g),
        }
    }

    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn to_extended(self) -> PointX8 {
        PointX8 {
            x: self.e.mul(self.f),
            y: self.g.mul(self.h),
            z: self.f.mul(self.g),
            t: self.e.mul(self.h),
        }
    }
}

impl CachedX8 {
    /// The scalar `CachedPoint::from_point`, lane by lane.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn from_point(p: PointX8) -> CachedX8 {
        CachedX8 {
            y_plus_x: p.y.add(p.x),
            y_minus_x: p.y.sub(p.x),
            t2d: p.t.mul(FeX8::splat(D2)),
            z2: p.z.add(p.z),
        }
    }

    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn from_lanes(c: &[CachedPoint; 8]) -> CachedX8 {
        CachedX8 {
            y_plus_x: FeX8::from_lanes(c.map(|c| c.y_plus_x)),
            y_minus_x: FeX8::from_lanes(c.map(|c| c.y_minus_x)),
            t2d: FeX8::from_lanes(c.map(|c| c.t2d)),
            z2: FeX8::from_lanes(c.map(|c| c.z2)),
        }
    }

    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn to_lanes(self) -> [CachedPoint; 8] {
        let [y_plus_x, y_minus_x, t2d, z2] =
            [self.y_plus_x, self.y_minus_x, self.t2d, self.z2].map(|fe| fe.to_lanes());
        std::array::from_fn(|l| CachedPoint {
            y_plus_x: y_plus_x[l],
            y_minus_x: y_minus_x[l],
            t2d: t2d[l],
            z2: z2[l],
        })
    }
}

/// The scalar `NafLookupTable::<8>::from_point` of each of `points` (at
/// most eight), into the tables of `terms`, eight at once: lanes without
/// a point build the identity's table and are dropped.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn fill_tables(terms: &mut [StrausTerm], points: &[Point]) {
    let mut eight = [Point::identity(); 8];
    for (lane, point) in eight.iter_mut().zip(points) {
        *lane = *point;
    }
    let p = PointX8::from_lanes(&eight);
    let two_p = CachedX8::from_point(p.projective().double().to_extended());
    let mut current = p;
    for k in 0..8 {
        if k > 0 {
            current = current.add_cached(&two_p);
        }
        let entries = CachedX8::from_point(current).to_lanes();
        for (term, entry) in terms.iter_mut().zip(entries).take(points.len()) {
            term.table.0[k] = entry;
        }
    }
}

/// `[b]B + Σ terms` on eight accumulators. Every lane doubles at every
/// position, so a digit may go to any lane: each position's nonzero
/// digits are dealt round-robin, eight to one [`PointX8::add_cached`],
/// the identity padding the last, and the lanes are summed at the end.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn straus_chain(b: &Scalar, terms: &[StrausTerm]) -> Point {
    let b_naf = b.non_adjacent_form(8);
    let b_table = &super::basepoint_stride_tables()[0];
    let start = highest_nonzero(terms.iter().map(|term| &term.naf).chain([&b_naf]));
    let digits = |i: usize| {
        let b_digit = (b_naf[i] != 0).then(|| b_table.select(b_naf[i]));
        let term_digits = terms
            .iter()
            .filter(move |term| term.naf[i] != 0)
            .map(move |term| term.table.select(term.naf[i]));
        b_digit.into_iter().chain(term_digits)
    };
    let sum_lanes = |p: PointX8| {
        p.to_lanes()
            .iter()
            .fold(Point::identity(), |sum, lane| sum.add(lane))
    };
    let mut acc = ProjectiveX8::identity();
    let mut i = start;
    loop {
        let doubled = acc.double();
        let mut digits = digits(i).peekable();
        if digits.peek().is_none() {
            if i == 0 {
                return sum_lanes(doubled.to_extended());
            }
            acc = doubled.to_projective();
        } else {
            let mut ext = doubled.to_extended();
            while digits.peek().is_some() {
                let mut dealt = [CachedPoint::IDENTITY; 8];
                for (lane, digit) in dealt.iter_mut().zip(&mut digits) {
                    *lane = digit;
                }
                ext = ext.add_cached(&CachedX8::from_lanes(&dealt));
            }
            if i == 0 {
                return sum_lanes(ext);
            }
            acc = ext.projective();
        }
        i -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{NafLookupTable, StrausTerm};
    use super::*;

    /// A deterministic xorshift stream.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// Limbs anywhere below 2^52, the whole input range of a lane.
        fn fe(&mut self) -> Fe {
            Fe(std::array::from_fn(|_| self.next() >> 12))
        }

        fn bytes(&mut self) -> [u8; 32] {
            let mut out = [0u8; 32];
            for chunk in out.chunks_exact_mut(8) {
                chunk.copy_from_slice(&self.next().to_le_bytes());
            }
            out
        }
    }

    /// Lane `mul`, `square`, `add` and `sub` of `pairs`, eight at a time,
    /// with each result's largest limb.
    fn lane_ops(pairs: &[(Fe, Fe)]) -> Vec<[(Fe, u64); 4]> {
        struct Ops<'a>(&'a [(Fe, Fe)]);
        impl Kernel for Ops<'_> {
            type Output = Vec<[(Fe, u64); 4]>;
            #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
            unsafe fn run(self) -> Self::Output {
                let mut out = Vec::new();
                for chunk in self.0.chunks(8) {
                    let lane =
                        |i: usize, pick: fn(&(Fe, Fe)) -> Fe| chunk.get(i).map_or(Fe::ZERO, pick);
                    let a = FeX8::from_lanes(std::array::from_fn(|i| lane(i, |p| p.0)));
                    let b = FeX8::from_lanes(std::array::from_fn(|i| lane(i, |p| p.1)));
                    let results = [a.mul(b), a.square(), a.add(b), a.sub(b)].map(|r| r.to_lanes());
                    for l in 0..chunk.len() {
                        out.push(results.map(|r| (r[l], r[l].0.into_iter().max().unwrap_or(0))));
                    }
                }
                out
            }
        }
        enter(Ops(pairs))
    }

    #[test]
    fn lane_arithmetic_matches_fe_on_limb_edges_and_random_pairs() {
        const TOP: u64 = (1 << 52) - 1;
        let mut edges = vec![
            Fe::ZERO,
            Fe::ONE,
            // p − 1, p, p + 18 and 2^255 − 1: the last limbs 19 folds.
            Fe::ONE.neg(),
            Fe([MASK - 18, MASK, MASK, MASK, MASK]),
            Fe([MASK, MASK, MASK, MASK, MASK]),
            Fe([TOP; 5]),
            Fe([0, 0, 0, 0, TOP]),
            Fe([TOP, 0, 0, 0, 0]),
            Fe([0, 0, 0, 0, 1 << 51]),
            Fe([MASK + 1, MASK + 1, MASK + 1, MASK + 1, MASK + 1]),
        ];
        for k in 0..5 {
            let mut limbs = [0u64; 5];
            limbs[k] = TOP;
            edges.push(Fe(limbs));
            limbs[k] = 1 << 51;
            edges.push(Fe(limbs));
        }
        let mut pairs: Vec<(Fe, Fe)> = edges
            .iter()
            .flat_map(|a| edges.iter().map(move |b| (*a, *b)))
            .collect();
        let mut stream = Stream(0x9e37_79b9_7f4a_7c15);
        pairs.extend((0..10_000).map(|_| (stream.fe(), stream.fe())));
        for (i, ((a, b), lanes)) in pairs.iter().zip(lane_ops(&pairs)).enumerate() {
            let expect = [a.mul(*b), a.square(), a.add(*b), a.sub(*b)];
            for (op, ((lane, top), scalar)) in lanes.iter().zip(expect).enumerate() {
                assert_eq!(lane.to_bytes(), scalar.to_bytes(), "pair {i}, op {op}");
                assert!(*top < 1 << 52, "pair {i}, op {op}: a limb at {top:#x}");
            }
        }
    }

    #[test]
    fn lane_decompression_matches_decompress_in_every_lane() {
        let mut corpus = super::super::tests::decompression_corpus();
        corpus.extend(crate::ed25519::SMALL_ORDER_ENCODINGS);
        let mut stream = Stream(0x2545_f491_4f6c_dd1d);
        corpus.extend((0..64).map(|_| stream.bytes()));
        let same = |lane: &Result<Point, DecompressError>,
                    alone: &Result<Point, DecompressError>| {
            match (lane, alone) {
                (Ok(p), Ok(q)) => p.eq_point(q) && p.compress() == q.compress(),
                (Err(_), Err(_)) => true,
                _ => false,
            }
        };
        let alone: Vec<_> = corpus.iter().map(Point::decompress).collect();
        assert!(alone.iter().any(Result::is_ok) && alone.iter().any(Result::is_err));
        // Every encoding in every lane, beside every other kind.
        for offset in 0..corpus.len() {
            let eight: [&[u8; 32]; 8] =
                std::array::from_fn(|l| &corpus[(offset + 3 * l) % corpus.len()]);
            for (l, lane) in decompress(eight).iter().enumerate() {
                let i = (offset + 3 * l) % corpus.len();
                assert!(same(lane, &alone[i]), "encoding {i} in lane {l}");
            }
        }
    }

    #[test]
    fn lane_tables_match_scalar_tables() {
        let b = Point::basepoint();
        let points: Vec<Point> = (1u64..=8)
            .map(|k| {
                b.mul_scalar(&Scalar::from_u64(k * 7919))
                    .add(&Point::identity())
            })
            .collect();
        for n in 0..=8 {
            let mut terms: Vec<StrausTerm> =
                (0..8).map(|_| StrausTerm::unfilled(&Scalar::ONE)).collect();
            fill(&mut terms, &points[..n]);
            for (i, term) in terms.iter().enumerate() {
                let expect = match points.get(i).filter(|_| i < n) {
                    Some(p) => NafLookupTable::<8>::from_point(p).0,
                    None => [CachedPoint::IDENTITY; 8],
                };
                for (k, (lane, scalar)) in term.table.0.iter().zip(expect).enumerate() {
                    let fields =
                        |c: &CachedPoint| [c.y_plus_x, c.y_minus_x, c.t2d, c.z2].map(Fe::to_bytes);
                    assert_eq!(
                        fields(lane),
                        fields(&scalar),
                        "{n} points, term {i}, entry {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_chain_matches_the_scalar_chain_at_every_term_count() {
        let b = Point::basepoint();
        let mut stream = Stream(0x1234_5678_9abc_def1);
        let mut scalar = || Scalar::from_bytes_mod_order(&stream.bytes());
        let terms: Vec<StrausTerm> = (0..40u64)
            .map(|i| StrausTerm::new(&scalar(), &b.mul_scalar(&Scalar::from_u64(i + 2))))
            .collect();
        for n in 0..=terms.len() {
            for base in [Scalar::ZERO, scalar()] {
                let lanes = straus(&base, &terms[..n]);
                let one = Point::multiscalar_mul_basepoint(&base, &terms[..n]);
                assert!(lanes.eq_point(&one), "{n} terms");
            }
        }
    }
}
