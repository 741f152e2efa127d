//! The eight-lane engine under the batch equations and a read's lone
//! checks, on AVX-512 IFMA.
//!
//! A batch equation of n signatures has 2n + 1 terms, so its work falls
//! into independent pieces eight at a time: eight square roots, eight
//! tables, and the digits of one chain position dealt to eight
//! accumulators, each table entry read where it lies
//! ([`CachedX8::gather`]) from a schedule sorted by position before the
//! chain. Eight lone checks under prepared keys are eight stride
//! chains of the same 32 doublings ([`stride_lanes`]): one accumulator
//! each, every lane adding its own digits from its own key's tables.
//! Each piece runs in one lane of a vector of field
//! elements ([`FeX8`]): five `__m512i`, one per limb, each holding that
//! limb of eight elements in the radix 2^51 of the scalar [`Fe`], so a
//! lane takes a scalar element's limbs as they are.
//!
//! The equations' hashing — eight challenges, the eight parts of the
//! batch seed, eight coefficient digests — is eight SHA-512 streams, one
//! per lane of 64-bit words ([`sha512_lanes`]): each rotation one
//! `vprorq`, each three-input function one `vpternlogq`, and a lane
//! whose stream has ended standing still under a mask while the others
//! go on.
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
//! `StrausTerm::new`, `Point::multiscalar_mul_basepoint`,
//! `PreparedPoint::double_scalar_mul_basepoint`) is the oracle the tests
//! below hold each kernel to, and eight [`crate::sha512::Sha512`]s are
//! the hash lanes' (`edwards::tests`).

use std::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_extracti64x2_epi64, _mm512_madd52hi_epu64,
    _mm512_madd52lo_epu64, _mm512_mask_add_epi64, _mm512_mask_blend_epi64, _mm512_ror_epi64,
    _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512, _mm512_slli_epi64,
    _mm512_srli_epi64, _mm512_sub_epi64, _mm512_ternarylogic_epi64, _mm_extract_epi64,
};

use super::super::field::{pow_p58_chain, Fe, D2, FOUR_P, MASK};
use super::{
    encoded_y, CachedPoint, DecompressError, Point, Scalar, StrausTerm, StrideChain, PIECES, STRIDE,
};
use crate::sha512::{BLOCK_LEN, DIGEST_LEN, H0, K};

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

/// [`super::PreparedPoint::double_scalar_mul_basepoint_eight`].
pub(super) fn stride_chains(chains: [StrideChain<'_>; 8]) -> [Point; 8] {
    struct Stride<'a>([StrideChain<'a>; 8]);
    impl Kernel for Stride<'_> {
        type Output = [Point; 8];
        #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
        unsafe fn run(self) -> [Point; 8] {
            stride_lanes(self.0)
        }
    }
    enter(Stride(chains))
}

/// [`super::sha512_eight`]: eight SHA-512 streams, one per lane.
pub(super) fn sha512<I>(inputs: [Option<I>; 8]) -> [[u8; DIGEST_LEN]; 8]
where
    I: Iterator<Item: AsRef<[u8]>>,
{
    struct Sha<I>([Option<I>; 8]);
    impl<I: Iterator<Item: AsRef<[u8]>>> Kernel for Sha<I> {
        type Output = [[u8; DIGEST_LEN]; 8];
        #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
        unsafe fn run(self) -> Self::Output {
            sha512_lanes(self.0)
        }
    }
    enter(Sha(inputs))
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
        FeX8::gather(x.each_ref())
    }

    /// `*x[l]` in lane `l`: the limbs read where they lie.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn gather(x: [&Fe; 8]) -> FeX8 {
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

    /// Lane `l` is `*entries[l]`, negated where bit `l` of `negative` is
    /// set, as `CachedPoint::neg` negates: the two sums trade places and
    /// `t2d` changes sign. Nothing is copied out of the tables first.
    #[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
    fn gather(entries: [&CachedPoint; 8], negative: u8) -> CachedX8 {
        let field = |pick: fn(&CachedPoint) -> &Fe| FeX8::gather(entries.map(pick));
        let y_plus_x = field(|c| &c.y_plus_x);
        let y_minus_x = field(|c| &c.y_minus_x);
        let t2d = field(|c| &c.t2d);
        let pick = |positive: FeX8, negated: FeX8| {
            FeX8(std::array::from_fn(|k| {
                _mm512_mask_blend_epi64(negative, positive.0[k], negated.0[k])
            }))
        };
        CachedX8 {
            y_plus_x: pick(y_plus_x, y_minus_x),
            y_minus_x: pick(y_minus_x, y_plus_x),
            t2d: pick(t2d, FeX8::splat(Fe::ZERO).sub(t2d)),
            z2: field(|c| &c.z2),
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
///
/// The digits are scheduled once, before the chain: a counting sort of
/// every term's nonzero digits by position into one vector of table
/// entries, each with its sign, so position `i`'s run is
/// `dealt[starts[i]..starts[i + 1]]`. The chain then reads each entry
/// where it lies ([`CachedX8::gather`]) and no term's digits again.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn straus_chain(b: &Scalar, terms: &[StrausTerm]) -> Point {
    let b_naf = b.non_adjacent_form(8);
    let b_table = &super::basepoint_stride_tables()[0];
    let mut starts = [0usize; 257];
    for naf in terms.iter().map(|term| &term.naf).chain([&b_naf]) {
        for (i, digit) in naf.iter().enumerate() {
            starts[i + 1] += usize::from(*digit != 0);
        }
    }
    for i in 0..256 {
        starts[i + 1] += starts[i];
    }
    let mut dealt = vec![(&CachedPoint::IDENTITY, false); starts[256]];
    let mut next = starts;
    let mut deal = |i: usize, entry, digit: i8| {
        dealt[next[i]] = (entry, digit < 0);
        next[i] += 1;
    };
    for term in terms {
        for (i, &digit) in term.naf.iter().enumerate().filter(|(_, d)| **d != 0) {
            deal(i, term.table.entry(digit), digit);
        }
    }
    for (i, &digit) in b_naf.iter().enumerate().filter(|(_, d)| **d != 0) {
        deal(i, b_table.entry(digit), digit);
    }

    let sum_lanes = |p: PointX8| {
        p.to_lanes()
            .iter()
            .fold(Point::identity(), |sum, lane| sum.add(lane))
    };
    let mut acc = ProjectiveX8::identity();
    let mut i = (0..256)
        .rev()
        .find(|&i| starts[i + 1] > starts[i])
        .unwrap_or(0);
    loop {
        let doubled = acc.double();
        let run = &dealt[starts[i]..starts[i + 1]];
        if run.is_empty() {
            if i == 0 {
                return sum_lanes(doubled.to_extended());
            }
            acc = doubled.to_projective();
        } else {
            let mut ext = doubled.to_extended();
            for eight in run.chunks(8) {
                let mut negative = 0u8;
                let entries = std::array::from_fn(|l| match eight.get(l) {
                    Some(&(entry, minus)) => {
                        negative |= u8::from(minus) << l;
                        entry
                    }
                    None => &CachedPoint::IDENTITY,
                });
                ext = ext.add_cached(&CachedX8::gather(entries, negative));
            }
            if i == 0 {
                return sum_lanes(ext);
            }
            acc = ext.projective();
        }
        i -= 1;
    }
}

/// Eight [`super::stride_chain`]s on one chain of [`STRIDE`] vector
/// doublings. At step `j` each lane gathers its own digits `32i + j` —
/// B's from the static stride tables, its point's from that point's own —
/// and they go in one vector addition per digit of the lane that has the
/// most, a lane with fewer adding the identity. A lane without a chain
/// adds nothing and stays the identity.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn stride_lanes(chains: [StrideChain<'_>; 8]) -> [Point; 8] {
    let base = super::basepoint_stride_tables();
    let inputs = chains
        .map(|chain| chain.map(|(a, b, q)| (a.non_adjacent_form(8), b.non_adjacent_form(5), &q.0)));
    let mut acc = ProjectiveX8::identity();
    let mut j = STRIDE - 1;
    loop {
        // This step's nonzero digits in the rounds they are added in:
        // `digits[r][l]` is lane `l`'s `r`-th, as the piece, whether it
        // is B's digit or the point's, and the digit.
        let mut digits = [[(0usize, false, 0i8); 8]; 2 * PIECES];
        let mut counts = [0usize; 8];
        for (l, input) in inputs.iter().enumerate() {
            let Some((a, b, _)) = input else { continue };
            for i in 0..PIECES {
                let p = STRIDE * i + j;
                for (of_b, digit) in [(true, a[p]), (false, b[p])] {
                    if digit != 0 {
                        digits[counts[l]][l] = (i, of_b, digit);
                        counts[l] += 1;
                    }
                }
            }
        }
        let rounds = counts.into_iter().max().unwrap_or(0);
        let doubled = acc.double();
        if rounds == 0 {
            if j == 0 {
                return doubled.to_extended().to_lanes();
            }
            acc = doubled.to_projective();
        } else {
            let mut ext = doubled.to_extended();
            for (round, dealt_digits) in digits.iter().enumerate().take(rounds) {
                let mut negative = 0u8;
                let dealt: [&CachedPoint; 8] = std::array::from_fn(|l| match &inputs[l] {
                    Some((_, _, tables)) if round < counts[l] => {
                        let (i, of_b, digit) = dealt_digits[l];
                        negative |= u8::from(digit < 0) << l;
                        if of_b {
                            base[i].entry(digit)
                        } else {
                            tables[i].entry(digit)
                        }
                    }
                    _ => &CachedPoint::IDENTITY,
                });
                ext = ext.add_cached(&CachedX8::gather(dealt, negative));
            }
            if j == 0 {
                return ext.to_lanes();
            }
            acc = ext.projective();
        }
        j -= 1;
    }
}

/// SHA-512's compression of eight blocks, one per lane, from eight
/// states: the scalar rounds of [`crate::sha512::Sha512`] with each
/// rotation one `vprorq` and each three-input function (the two
/// three-way sums of rotations, `Ch` and `Maj`) one `vpternlogq`. The
/// schedule is kept as a ring of the last sixteen words.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn compress(state: [__m512i; 8], block: [__m512i; 16]) -> [__m512i; 8] {
    let xor3 = |a, b, c| _mm512_ternarylogic_epi64::<0x96>(a, b, c);
    let add = |a, b| _mm512_add_epi64(a, b);
    let mut w = block;
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
    for (t, k) in K.iter().enumerate() {
        if t >= 16 {
            let (w15, w2) = (w[(t + 1) % 16], w[(t + 14) % 16]);
            let s0 = xor3(
                _mm512_ror_epi64::<1>(w15),
                _mm512_ror_epi64::<8>(w15),
                _mm512_srli_epi64::<7>(w15),
            );
            let s1 = xor3(
                _mm512_ror_epi64::<19>(w2),
                _mm512_ror_epi64::<61>(w2),
                _mm512_srli_epi64::<6>(w2),
            );
            w[t % 16] = add(add(w[t % 16], s0), add(w[(t + 9) % 16], s1));
        }
        let s1 = xor3(
            _mm512_ror_epi64::<14>(e),
            _mm512_ror_epi64::<18>(e),
            _mm512_ror_epi64::<41>(e),
        );
        // Ch: f where e is set, else g.
        let ch = _mm512_ternarylogic_epi64::<0xca>(e, f, g);
        let t1 = add(
            add(h, s1),
            add(ch, add(_mm512_set1_epi64(*k as i64), w[t % 16])),
        );
        let s0 = xor3(
            _mm512_ror_epi64::<28>(a),
            _mm512_ror_epi64::<34>(a),
            _mm512_ror_epi64::<39>(a),
        );
        // Maj: the bit two of a, b and c share.
        let maj = _mm512_ternarylogic_epi64::<0xe8>(a, b, c);
        h = g;
        g = f;
        f = e;
        e = add(d, t1);
        d = c;
        c = b;
        b = a;
        a = add(t1, add(s0, maj));
    }
    [a, b, c, d, e, f, g, h]
}

/// Eight SHA-512 streams in step: at each step every lane still hashing
/// compresses its stream's next padded block ([`Blocks`]), each word
/// dealt in through `_mm512_set_epi64`, and the state of a lane whose
/// stream has ended (or never began) stands still under the add's mask.
/// Lane `l`'s digest is its state's words, extracted; all zeros where
/// `inputs[l]` is `None`.
#[target_feature(enable = "avx512ifma,avx512f,avx512dq,sse4.1")]
fn sha512_lanes<I>(inputs: [Option<I>; 8]) -> [[u8; DIGEST_LEN]; 8]
where
    I: Iterator<Item: AsRef<[u8]>>,
{
    let present = inputs.each_ref().map(Option::is_some);
    let mut streams = inputs.map(|input| input.map(Blocks::new));
    let mut state = H0.map(|h| _mm512_set1_epi64(h as i64));
    loop {
        let mut active = 0u8;
        let blocks: [[u64; 16]; 8] =
            std::array::from_fn(|l| match streams[l].as_mut().and_then(Iterator::next) {
                Some(block) => {
                    active |= 1 << l;
                    block
                }
                None => [0; 16],
            });
        if active == 0 {
            break;
        }
        let word = |t: usize| {
            let lane = |l: usize| blocks[l][t] as i64;
            _mm512_set_epi64(
                lane(7),
                lane(6),
                lane(5),
                lane(4),
                lane(3),
                lane(2),
                lane(1),
                lane(0),
            )
        };
        let compressed = compress(state, std::array::from_fn(word));
        state = std::array::from_fn(|k| {
            _mm512_mask_add_epi64(state[k], active, state[k], compressed[k])
        });
    }
    let words = state.map(|v| lanes_of(v));
    std::array::from_fn(|l| {
        let mut digest = [0u8; DIGEST_LEN];
        if present[l] {
            for (bytes, word) in digest.chunks_exact_mut(8).zip(&words) {
                bytes.copy_from_slice(&word[l].to_be_bytes());
            }
        }
        digest
    })
}

/// The padded blocks of one SHA-512 stream, the concatenation of its
/// pieces, each as the sixteen big-endian words a compression reads: the
/// data, then `0x80`, zeros and the bit length, in one more block where
/// the data's last leaves no room for the sixteen length bytes.
struct Blocks<I: Iterator> {
    pieces: I,
    /// The piece being read and how far.
    piece: Option<I::Item>,
    offset: usize,
    /// Bytes of data so far.
    len: u128,
    tail: Tail,
}

/// Where a [`Blocks`] stands.
enum Tail {
    /// Data is left, or its padding is.
    Data,
    /// Only the block holding the length is.
    Length,
    Done,
}

impl<I: Iterator<Item: AsRef<[u8]>>> Blocks<I> {
    fn new(pieces: I) -> Self {
        Blocks {
            pieces,
            piece: None,
            offset: 0,
            len: 0,
            tail: Tail::Data,
        }
    }

    /// Copies the stream's next bytes into `block` until it is full or the
    /// pieces run out; how many.
    fn fill(&mut self, block: &mut [u8; BLOCK_LEN]) -> usize {
        let mut filled = 0;
        while filled < BLOCK_LEN {
            if self.piece.is_none() {
                self.piece = self.pieces.next();
                self.offset = 0;
            }
            let Some(piece) = &self.piece else { break };
            let bytes = &piece.as_ref()[self.offset..];
            let take = bytes.len().min(BLOCK_LEN - filled);
            block[filled..filled + take].copy_from_slice(&bytes[..take]);
            filled += take;
            if take == bytes.len() {
                self.piece = None;
            } else {
                self.offset += take;
            }
        }
        filled
    }
}

impl<I: Iterator<Item: AsRef<[u8]>>> Iterator for Blocks<I> {
    type Item = [u64; 16];

    fn next(&mut self) -> Option<[u64; 16]> {
        let mut block = [0u8; BLOCK_LEN];
        match self.tail {
            Tail::Done => return None,
            Tail::Length => self.tail = Tail::Done,
            Tail::Data => {
                let filled = self.fill(&mut block);
                self.len += filled as u128;
                if filled < BLOCK_LEN {
                    block[filled] = 0x80;
                    self.tail = if filled < BLOCK_LEN - 16 {
                        Tail::Done
                    } else {
                        Tail::Length
                    };
                }
            }
        }
        if let Tail::Done = self.tail {
            block[BLOCK_LEN - 16..].copy_from_slice(&(self.len * 8).to_be_bytes());
        }
        let mut words = [0u64; 16];
        for (word, bytes) in words.iter_mut().zip(block.chunks_exact(8)) {
            *word = u64::from_be_bytes(bytes.try_into().expect("eight bytes"));
        }
        Some(words)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{NafLookupTable, PreparedPoint, StrausTerm};
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

    #[test]
    fn lane_stride_chains_match_the_scalar_chain_in_every_lane() {
        let b = Point::basepoint();
        let points: Vec<PreparedPoint> = (0..8u64)
            .map(|i| PreparedPoint::new(&b.mul_scalar(&Scalar::from_u64(3 * i + 5))))
            .collect();
        let mut stream = Stream(0x0bad_5eed_1234_5678);
        let minus_one = Scalar::ZERO.sub(Scalar::ONE);
        let mut scalars = vec![
            (Scalar::ZERO, Scalar::ZERO),
            (Scalar::ONE, Scalar::ZERO),
            (Scalar::ZERO, Scalar::ONE),
            (minus_one, minus_one),
        ];
        scalars.extend((0..12).map(|_| {
            let mut scalar = || Scalar::from_bytes_mod_order(&stream.bytes());
            (scalar(), scalar())
        }));
        // Every pair of scalars in every lane, beside lanes without a
        // chain in every pattern of a 3-cycle, and all eight empty.
        for offset in 0..scalars.len() {
            for empty in 0..4 {
                let chains: [StrideChain<'_>; 8] = std::array::from_fn(|l| {
                    let (a, b) = &scalars[(offset + l) % scalars.len()];
                    ((l + empty) % 3 != 0 || empty == 3).then_some((a, b, &points[l]))
                });
                let chains = if offset == 0 && empty == 0 {
                    [None; 8]
                } else {
                    chains
                };
                for (l, (lane, chain)) in stride_chains(chains).iter().zip(chains).enumerate() {
                    let expect = chain.map_or_else(Point::identity, |(a, b, q)| {
                        q.double_scalar_mul_basepoint(a, b)
                    });
                    assert!(
                        lane.eq_point(&expect),
                        "offset {offset}, empty {empty}, lane {l}"
                    );
                }
            }
        }
    }
}
