//! Point arithmetic on the twisted Edwards curve
//! −x² + y² = 1 + d·x²y² over GF(2^255 − 19).
//!
//! Points use extended homogeneous coordinates (X : Y : Z : T) with
//! x = X/Z, y = Y/Z, T = XY/Z. Scalar multiplication is variable-time and
//! table-driven; this workspace runs simulations, not production TLS, so
//! we trade side-channel hardening for speed and clarity (noted here per
//! the crate docs). The paths, all sharing one doubling chain
//! (`straus_chain`) over width-w NAF digits:
//!
//! * [`Point::mul_scalar`] — plain double-and-add, the reference every
//!   other path is tested against;
//! * [`Point::mul_basepoint`] — fixed-base `[k]B` from a static radix-16
//!   table (signing, key derivation);
//! * [`Point::double_scalar_mul_basepoint`] — Straus `[a]B + [b]Q` with a
//!   static width-8 table for B and a width-5 table built per call for Q:
//!   one verification under a key not seen before, ~253 doublings;
//! * [`PreparedPoint::double_scalar_mul_basepoint`] — the same sum for a
//!   Q that keeps tables of `[2³²ⁱ]Q`, i = 0..8 (B has the same eight,
//!   static): each scalar's ordinary wNAF is read with stride 32, digit
//!   `32i + j` added from table `i` at step `j` of one chain of 32
//!   doublings, with no table build. Costs 224 doublings and eight table
//!   builds once per Q;
//! * [`Point::multiscalar_mul_basepoint`] — variable-length Straus over
//!   [`StrausTerm`]s for batch verification.

// `neg`/`add` mirror group notation; see field.rs rationale.
#![allow(clippy::should_implement_trait)]

use std::sync::OnceLock;

use super::field::{sqrt_ratios, Fe, D, D2};
use super::scalar::Scalar;

/// A point on the Ed25519 curve in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// The basepoint in canonical limbs, derived from its definition by
/// `curve_constants_match_their_definitions`.
const BASEPOINT: Point = Point {
    x: Fe([
        1738742601995546,
        1146398526822698,
        2070867633025821,
        562264141797630,
        587772402128613,
    ]),
    y: Fe([
        1801439850948184,
        1351079888211148,
        450359962737049,
        900719925474099,
        1801439850948198,
    ]),
    z: Fe::ONE,
    t: Fe([
        1841354044333475,
        16398895984059,
        755974180946558,
        900171276175154,
        1821297809914039,
    ]),
};

/// Error from [`Point::decompress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompressError;

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte string is not a valid curve point encoding")
    }
}

impl std::error::Error for DecompressError {}

impl Point {
    /// The neutral element (0, 1).
    #[must_use]
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard basepoint B with y = 4/5 and x "positive" (even).
    #[must_use]
    pub const fn basepoint() -> Point {
        BASEPOINT
    }

    /// Recovers a point from its y coordinate and the sign bit of x.
    ///
    /// x² = (y² − 1) / (d·y² + 1)
    pub(crate) fn from_y(y: Fe, x_sign: bool) -> Result<Point, DecompressError> {
        let [point] = Point::from_ys([(y, x_sign)]);
        point
    }

    /// [`Point::from_y`] for `N` encodings with their square roots taken
    /// in lockstep ([`sqrt_ratios`]); each result is what `from_y` gives
    /// that encoding alone.
    fn from_ys<const N: usize>(ys: [(Fe, bool); N]) -> [Result<Point, DecompressError>; N] {
        let roots = sqrt_ratios(ys.map(|(y, _)| {
            let yy = y.square();
            (yy.sub(Fe::ONE), D.mul(yy).add(Fe::ONE))
        }));
        std::array::from_fn(|i| {
            let (y, x_sign) = ys[i];
            let (is_square, mut x) = roots[i];
            if !is_square {
                return Err(DecompressError);
            }
            if x.is_zero() && x_sign {
                // -0 is not a valid encoding.
                return Err(DecompressError);
            }
            if x.is_negative() != x_sign {
                x = x.neg();
            }
            Ok(Point {
                x,
                y,
                z: Fe::ONE,
                t: x.mul(y),
            })
        })
    }

    /// Parses the 32-byte RFC 8032 point encoding.
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] when the y coordinate has no matching x.
    pub fn decompress(bytes: &[u8; 32]) -> Result<Point, DecompressError> {
        let x_sign = bytes[31] >> 7 == 1;
        let y = Fe::from_bytes(bytes);
        Point::from_y(y, x_sign)
    }

    /// [`Point::decompress`] of two encodings at once — a signature's `A`
    /// and `R` — for about one and a half times the cost of one: the two
    /// square roots, each a chain of ~250 dependent squarings, advance in
    /// lockstep. Each result is exactly what `decompress` gives that
    /// encoding alone.
    pub fn decompress_pair(a: &[u8; 32], b: &[u8; 32]) -> [Result<Point, DecompressError>; 2] {
        Point::from_ys([a, b].map(|bytes| (Fe::from_bytes(bytes), bytes[31] >> 7 == 1)))
    }

    /// Serializes to the 32-byte RFC 8032 encoding (y with x's sign bit).
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

    /// Addition against a precomputed [`CachedPoint`]: the same unified
    /// formula as [`Point::add`] with `other`'s reusable subexpressions
    /// already evaluated, saving two field multiplications per addition.
    /// All table-driven scalar multiplication goes through this.
    #[must_use]
    #[inline]
    fn add_cached(&self, other: &CachedPoint) -> Point {
        // Lazy add/sub throughout: all inputs are weakly reduced (point
        // coordinates and cached table entries are multiplication
        // outputs), so intermediate limbs stay below 2^55 and the final
        // multiplications absorb the slack (see field.rs bound notes).
        let a = self.y.sub_lazy(self.x).mul(other.y_minus_x);
        let b = self.y.add_lazy(self.x).mul(other.y_plus_x);
        let c = self.t.mul(other.t2d);
        let dd = self.z.mul(other.z2);
        let e = b.sub_lazy(a);
        let f = dd.sub_lazy(c);
        let g = dd.add_lazy(c);
        let h = b.add_lazy(a);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Point addition (unified formulas, a = −1).
    #[must_use]
    #[inline]
    pub fn add(&self, other: &Point) -> Point {
        let a = self.y.sub_lazy(self.x).mul(other.y.sub_lazy(other.x));
        let b = self.y.add_lazy(self.x).mul(other.y.add_lazy(other.x));
        let c = self.t.mul(D2).mul(other.t);
        let zz = self.z.mul(other.z);
        let dd = zz.add_lazy(zz);
        let e = b.sub_lazy(a);
        let f = dd.sub_lazy(c);
        let g = dd.add_lazy(c);
        let h = b.add_lazy(a);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Point doubling.
    #[must_use]
    #[inline]
    pub fn double(&self) -> Point {
        self.as_projective().double().to_extended()
    }

    /// Drops the extended coordinate, keeping (X : Y : Z).
    #[inline]
    fn as_projective(&self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    /// Point negation.
    #[must_use]
    #[inline]
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication `[k]self` by plain double-and-add.
    ///
    /// This is the *reference* ladder: one doubling per bit and one
    /// addition per set bit, with no tables and no signed encodings.
    /// The windowed paths ([`Point::mul_wnaf`], [`Point::mul_basepoint`],
    /// [`Point::double_scalar_mul`]) are property-tested against it, and
    /// the benchmark ablation uses it as the naive baseline.
    #[must_use]
    pub fn mul_scalar(&self, k: &Scalar) -> Point {
        let mut acc = Point::identity();
        for i in (0..256).rev() {
            acc = acc.double();
            if k.bit(i) == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Scalar multiplication `[k]self` with a width-5 sliding window
    /// (wNAF): an 8-entry odd-multiple table, ~256 doublings and ~42
    /// additions instead of double-and-add's ~128 additions.
    #[must_use]
    pub fn mul_wnaf(&self, k: &Scalar) -> Point {
        let naf = k.non_adjacent_form(5);
        let table = NafLookupTable::<8>::from_point(self);
        straus_chain(
            highest_nonzero([&naf]),
            |i| naf[i] != 0,
            |i, p| p.add_cached(&table.select(naf[i])),
        )
    }

    /// Simultaneous double-scalar multiplication `[a]P + [b]Q` (Straus):
    /// one shared doubling chain over both scalars' width-5 wNAF digits,
    /// with an odd-multiple table per point.
    #[must_use]
    pub fn double_scalar_mul(a: &Scalar, p: &Point, b: &Scalar, q: &Point) -> Point {
        let a_naf = a.non_adjacent_form(5);
        let b_naf = b.non_adjacent_form(5);
        let p_table = NafLookupTable::<8>::from_point(p);
        let q_table = NafLookupTable::<8>::from_point(q);
        straus_chain(
            highest_nonzero([&a_naf, &b_naf]),
            |i| a_naf[i] != 0 || b_naf[i] != 0,
            |i, mut acc| {
                if a_naf[i] != 0 {
                    acc = acc.add_cached(&p_table.select(a_naf[i]));
                }
                if b_naf[i] != 0 {
                    acc = acc.add_cached(&q_table.select(b_naf[i]));
                }
                acc
            },
        )
    }

    /// `[a]B + [b]Q` for the fixed basepoint B: the hot path of signature
    /// verification (`[s]B + [k](−A)`).
    ///
    /// B's digits use width-8 wNAF against a precomputed 64-entry static
    /// table (built once per process), so only the dynamic point Q pays
    /// for table construction.
    #[must_use]
    pub fn double_scalar_mul_basepoint(a: &Scalar, b: &Scalar, q: &Point) -> Point {
        let a_naf = a.non_adjacent_form(8);
        let b_naf = b.non_adjacent_form(5);
        let b_table = basepoint_naf_table();
        let q_table = NafLookupTable::<8>::from_point(q);
        straus_chain(
            highest_nonzero([&a_naf, &b_naf]),
            |i| a_naf[i] != 0 || b_naf[i] != 0,
            |i, mut acc| {
                if a_naf[i] != 0 {
                    acc = acc.add_cached(&b_table.select(a_naf[i]));
                }
                if b_naf[i] != 0 {
                    acc = acc.add_cached(&q_table.select(b_naf[i]));
                }
                acc
            },
        )
    }

    /// Fixed-base multiplication `[k]B` from the precomputed radix-16
    /// basepoint table: 64 table additions plus 4 doublings, replacing the
    /// 256-doubling ladder. Used by signing (`[r]B`) and key derivation.
    #[must_use]
    pub fn mul_basepoint(k: &Scalar) -> Point {
        let digits = k.to_radix16();
        let table = basepoint_table();
        // ∑ d_i·16^i B = ∑_{i odd} d_i·16^i B + ∑_{i even} d_i·16^i B, and
        // the odd-index sum is 16 × ∑ d_{2j+1}·16^{2j} B — four doublings
        // applied once, so every digit reads a 16^{2j}-stride table.
        let mut acc = Point::identity();
        for i in (1..64).step_by(2) {
            if let Some(entry) = table.select(i / 2, digits[i]) {
                acc = acc.add_cached(&entry);
            }
        }
        acc = acc.double().double().double().double();
        for i in (0..64).step_by(2) {
            if let Some(entry) = table.select(i / 2, digits[i]) {
                acc = acc.add_cached(&entry);
            }
        }
        acc
    }

    /// Variable-length Straus multiscalar multiplication
    /// `[b]B + ∑ [scalarᵢ] pointᵢ` over prepared `terms`: one shared
    /// doubling chain across all of them, and for the basepoint the
    /// static width-8 table. Batch signature verification reduces to a
    /// single call.
    #[must_use]
    pub fn multiscalar_mul_basepoint(b: &Scalar, terms: &[StrausTerm]) -> Point {
        let b_naf = b.non_adjacent_form(8);
        let b_table = basepoint_naf_table();
        let nafs = || terms.iter().map(|term| &term.naf).chain([&b_naf]);
        straus_chain(
            highest_nonzero(nafs()),
            |i| nafs().any(|naf| naf[i] != 0),
            |i, mut acc| {
                if b_naf[i] != 0 {
                    acc = acc.add_cached(&b_table.select(b_naf[i]));
                }
                for term in terms {
                    if term.naf[i] != 0 {
                        acc = acc.add_cached(&term.table.select(term.naf[i]));
                    }
                }
                acc
            },
        )
    }

    /// Whether `bytes` encodes this point: what
    /// `Point::decompress(bytes).is_ok_and(|r| r.eq_point(self))` says,
    /// without the square root.
    ///
    /// `self` is a curve point, so once its y equals the encoded y — read
    /// as [`Fe::from_bytes`] reads it, reduced mod p — that y has a root
    /// and the encoding decompresses to `self` or to `(−x, y)`. The sign
    /// bit picks which, and one inversion gives x's sign. At x = 0 the two
    /// are one point and a set sign bit is "−0", which `decompress`
    /// refuses; x's sign (clear) refuses it here. An encoded y that is no
    /// curve point's matches no `self`.
    #[must_use]
    pub(crate) fn matches_encoding(&self, bytes: &[u8; 32]) -> bool {
        if !self.y.ct_eq(Fe::from_bytes(bytes).mul(self.z)) {
            return false;
        }
        let x = self.x.mul(self.z.invert());
        x.is_negative() == (bytes[31] >> 7 == 1)
    }

    /// Projective equality: X1·Z2 = X2·Z1 and Y1·Z2 = Y2·Z1.
    #[must_use]
    pub fn eq_point(&self, other: &Point) -> bool {
        self.x.mul(other.z).ct_eq(other.x.mul(self.z))
            && self.y.mul(other.z).ct_eq(other.y.mul(self.z))
    }

    /// True when this is the neutral element.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.eq_point(&Point::identity())
    }

    /// Checks the affine point satisfies the curve equation (debug aid and
    /// test invariant).
    #[must_use]
    pub fn is_on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let xx = x.square();
        let yy = y.square();
        // −x² + y² = 1 + d x² y²
        yy.sub(xx).ct_eq(Fe::ONE.add(D.mul(xx).mul(yy)))
    }
}

/// A point with the reusable inputs of the unified addition formula
/// precomputed: (Y+X, Y−X, 2d·T, 2Z). Tables store these so each
/// table-driven addition costs 7 field multiplications instead of 9, and
/// negation is free (swap the sums, flip `t2d`).
#[derive(Clone, Copy, Debug)]
struct CachedPoint {
    y_plus_x: Fe,
    y_minus_x: Fe,
    t2d: Fe,
    z2: Fe,
}

impl CachedPoint {
    #[inline]
    fn from_point(p: &Point) -> CachedPoint {
        CachedPoint {
            y_plus_x: p.y.add(p.x),
            y_minus_x: p.y.sub(p.x),
            t2d: p.t.mul(D2),
            z2: p.z.mul_small(2),
        }
    }

    #[inline]
    fn neg(&self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            t2d: self.t2d.neg(),
            z2: self.z2,
        }
    }
}

/// A point in plain projective coordinates (X : Y : Z), without the
/// extended coordinate T = XY/Z. Doubling never reads T, so the shared
/// doubling chains of the Straus loops carry this form between
/// iterations and only pay for T on the iterations that actually add.
#[derive(Clone, Copy, Debug)]
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// The (E, F, G, H) output of the doubling formula before the final
/// multiplications: the doubled point is (E·F : G·H : F·G) with
/// T = E·H. Materializing only what the next step needs saves one field
/// multiplication per doubling-only iteration.
#[derive(Clone, Copy, Debug)]
struct Completed {
    e: Fe,
    f: Fe,
    g: Fe,
    h: Fe,
}

impl Projective {
    fn identity() -> Projective {
        Projective {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
        }
    }

    /// Doubling: 4 squarings and no full multiplications; products are
    /// deferred to [`Completed::to_projective`] / [`Completed::to_extended`].
    #[inline]
    fn double(&self) -> Completed {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add_lazy(zz);
        let h = a.add_lazy(b);
        let e = h.sub_lazy(self.x.add_lazy(self.y).square());
        let g = a.sub_lazy(b);
        let f = c.add_lazy(g);
        Completed { e, f, g, h }
    }
}

impl Completed {
    /// Three multiplications: enough to keep doubling.
    #[inline]
    fn to_projective(self) -> Projective {
        Projective {
            x: self.e.mul(self.f),
            y: self.g.mul(self.h),
            z: self.f.mul(self.g),
        }
    }

    /// Four multiplications: the full extended point, required before an
    /// addition (which reads T).
    #[inline]
    fn to_extended(self) -> Point {
        Point {
            x: self.e.mul(self.f),
            y: self.g.mul(self.h),
            z: self.f.mul(self.g),
            t: self.e.mul(self.h),
        }
    }
}

/// Odd multiples [P, 3P, 5P, …, (2N−1)P] in cached form, indexed by wNAF
/// digit. N = 8 serves width-5 digits (|d| ≤ 15), N = 32 width-7
/// (|d| ≤ 63), N = 64 width-8 (|d| ≤ 127).
struct NafLookupTable<const N: usize>([CachedPoint; N]);

impl<const N: usize> NafLookupTable<N> {
    /// N + 1 conversions to cached form: `2P` once, then each entry.
    fn from_point(p: &Point) -> Self {
        let two_p = CachedPoint::from_point(&p.double());
        let mut entries = [CachedPoint::from_point(p); N];
        let mut current = *p;
        for entry in entries.iter_mut().skip(1) {
            current = current.add_cached(&two_p);
            *entry = CachedPoint::from_point(&current);
        }
        Self(entries)
    }

    /// The table entry for an odd signed digit: `[digit]P`.
    #[inline]
    fn select(&self, digit: i8) -> CachedPoint {
        debug_assert_eq!(digit & 1, 1, "wNAF digits are odd");
        if digit > 0 {
            self.0[(digit as usize - 1) / 2]
        } else {
            self.0[(digit.unsigned_abs() as usize - 1) / 2].neg()
        }
    }
}

/// One `[scalar] point` term of [`Point::multiscalar_mul_basepoint`],
/// ready for the shared chain: the scalar's width-5 wNAF digits and the
/// point's odd-multiple table (1.5 KiB). A caller builds its terms into
/// one vector as it learns them.
pub struct StrausTerm {
    naf: [i8; 256],
    table: NafLookupTable<8>,
}

impl StrausTerm {
    /// Prepares `[scalar] point`.
    #[must_use]
    pub fn new(scalar: &Scalar, point: &Point) -> StrausTerm {
        StrausTerm {
            naf: scalar.non_adjacent_form(5),
            table: NafLookupTable::from_point(point),
        }
    }
}

/// The static width-8 wNAF table for the basepoint, built on first use.
fn basepoint_naf_table() -> &'static NafLookupTable<64> {
    static CELL: OnceLock<NafLookupTable<64>> = OnceLock::new();
    CELL.get_or_init(|| NafLookupTable::<64>::from_point(&Point::basepoint()))
}

/// Digit positions per piece of a [`PreparedPoint`] chain: its length.
const STRIDE: usize = 32;

/// Pieces a 256-digit wNAF falls into at that stride: tables per point.
const PIECES: usize = 256 / STRIDE;

/// `[2^STRIDE]p`, on the projective doubling chain.
fn mul_2_stride(p: &Point) -> Point {
    let mut acc = p.as_projective();
    for _ in 1..STRIDE {
        acc = acc.double().to_projective();
    }
    acc.double().to_extended()
}

/// Odd-multiple tables of `[2^(STRIDE·i)]p` for `i` in `0..PIECES`: 224
/// doublings and eight table builds.
fn stride_tables<const N: usize>(p: &Point) -> [NafLookupTable<N>; PIECES] {
    let mut piece = *p;
    std::array::from_fn(|i| {
        if i > 0 {
            piece = mul_2_stride(&piece);
        }
        NafLookupTable::from_point(&piece)
    })
}

/// The static width-7 stride tables of the basepoint (40 KiB): B's part
/// of a [`PreparedPoint`] chain, built on first use.
fn basepoint_stride_tables() -> &'static [NafLookupTable<32>; PIECES] {
    static CELL: OnceLock<[NafLookupTable<32>; PIECES]> = OnceLock::new();
    CELL.get_or_init(|| stride_tables(&Point::basepoint()))
}

/// A point Q prepared for repeated `[a]B + [b]Q`: width-5 odd-multiple
/// tables of `[2³²ⁱ]Q` for i = 0..8 (10 KiB).
///
/// Building one costs 224 doublings and eight table builds, nearly as
/// much as one [`Point::double_scalar_mul_basepoint`]; each use then walks
/// an eighth of that function's doubling chain and builds nothing, at
/// about two fifths of its cost, so preparation pays from the second use
/// on.
pub struct PreparedPoint([NafLookupTable<8>; PIECES]);

impl PreparedPoint {
    /// Prepares `q`.
    #[must_use]
    pub fn new(q: &Point) -> PreparedPoint {
        PreparedPoint(stride_tables(q))
    }

    /// `[a]B + [b]Q`, equal to [`Point::double_scalar_mul_basepoint`].
    ///
    /// With digits `d` of either scalar's wNAF, `∑ d[p]·2^p` regroups by
    /// `p = 32i + j` into `∑_j 2^j ∑_i d[32i + j]·2^(32i)`: step `j` of a
    /// chain of 32 doublings adds digit `32i + j` from the table of
    /// `[2³²ⁱ]`. The digits are the ones every other path uses — no piece
    /// is recoded, so no carry crosses a piece boundary.
    #[must_use]
    pub fn double_scalar_mul_basepoint(&self, a: &Scalar, b: &Scalar) -> Point {
        let a_naf = a.non_adjacent_form(7);
        let b_naf = b.non_adjacent_form(5);
        let base = basepoint_stride_tables();
        let pieces = |j: usize| (j..256).step_by(STRIDE);
        straus_chain(
            STRIDE - 1,
            |j| pieces(j).any(|p| a_naf[p] != 0 || b_naf[p] != 0),
            |j, mut acc| {
                for (i, p) in pieces(j).enumerate() {
                    if a_naf[p] != 0 {
                        acc = acc.add_cached(&base[i].select(a_naf[p]));
                    }
                    if b_naf[p] != 0 {
                        acc = acc.add_cached(&self.0[i].select(b_naf[p]));
                    }
                }
                acc
            },
        )
    }
}

/// The radix-16 fixed-base table: `entry(i, j) = [j·16^(2i)]B` for
/// `j ∈ 1..=8`, `i ∈ 0..32`. 256 cached points (~40 KiB), built once.
struct BasepointTable(Vec<[CachedPoint; 8]>);

impl BasepointTable {
    /// `[digit · 16^(2i)]B` for a signed radix-16 digit, or `None` for 0.
    fn select(&self, i: usize, digit: i8) -> Option<CachedPoint> {
        match digit.cmp(&0) {
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(self.0[i][digit as usize - 1]),
            std::cmp::Ordering::Less => Some(self.0[i][digit.unsigned_abs() as usize - 1].neg()),
        }
    }
}

/// The static radix-16 basepoint table, built on first use (mirrors
/// [`Point::basepoint`]'s `OnceLock` idiom).
fn basepoint_table() -> &'static BasepointTable {
    static CELL: OnceLock<BasepointTable> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut rows = Vec::with_capacity(32);
        let mut base = Point::basepoint();
        for _ in 0..32 {
            let mut row = [CachedPoint::from_point(&base); 8];
            let mut current = base;
            for entry in row.iter_mut().skip(1) {
                current = current.add(&base);
                *entry = CachedPoint::from_point(&current);
            }
            rows.push(row);
            // Advance base from [16^(2i)]B to [16^(2i+2)]B.
            for _ in 0..8 {
                base = base.double();
            }
        }
        BasepointTable(rows)
    })
}

/// The shared-doubling chain behind every windowed scalar multiplication:
/// walks digit positions from `start` down to 0, doubling once per
/// position and calling `add_digits` wherever `any_digit` reports work.
/// Doubling-only steps stay in projective form (no extended coordinate),
/// so they cost 4 squarings + 3 multiplications; the extended T is
/// materialized only on the steps an addition actually consumes it.
fn straus_chain(
    start: usize,
    any_digit: impl Fn(usize) -> bool,
    add_digits: impl Fn(usize, Point) -> Point,
) -> Point {
    let mut acc = Projective::identity();
    let mut i = start;
    loop {
        let doubled = acc.double();
        if any_digit(i) {
            let ext = add_digits(i, doubled.to_extended());
            if i == 0 {
                return ext;
            }
            acc = ext.as_projective();
        } else {
            if i == 0 {
                return doubled.to_extended();
            }
            acc = doubled.to_projective();
        }
        i -= 1;
    }
}

/// The highest index at which any of the digit strings is nonzero (0 when
/// all are zero); scalar-mul loops start here instead of doubling the
/// identity 256 times.
fn highest_nonzero<'a>(nafs: impl IntoIterator<Item = &'a [i8; 256]> + Clone) -> usize {
    for i in (0..256).rev() {
        if nafs.clone().into_iter().any(|naf| naf[i] != 0) {
            return i;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basepoint_is_on_curve() {
        assert!(Point::basepoint().is_on_curve());
    }

    /// The constant limbs against their definitions, inverting by Fermat
    /// so that nothing here rests on the inversion it feeds.
    #[test]
    fn curve_constants_match_their_definitions() {
        use super::super::field::SQRT_M1;
        let fe = Fe::from_u64;
        let d = fe(121665).neg().mul(fe(121666).invert_fermat());
        assert_eq!(D.to_bytes(), d.to_bytes(), "d = −121665/121666");
        assert_eq!(D2.to_bytes(), d.add(d).to_bytes(), "2d");
        // (p − 1)/4 = 2²⁵³ − 5: ones at bits 0, 1 and 3..=252.
        let mut root = Fe::ONE;
        for bit in (0..253).rev() {
            root = root.square();
            if bit != 2 {
                root = root.mul(fe(2));
            }
        }
        assert_eq!(SQRT_M1.to_bytes(), root.to_bytes(), "2^((p−1)/4)");
        let y = fe(4).mul(fe(5).invert_fermat());
        let b = Point::from_y(y, false).expect("4/5 is a curve point's y");
        for (constant, derived) in [
            (BASEPOINT.x, b.x),
            (BASEPOINT.y, b.y),
            (BASEPOINT.z, b.z),
            (BASEPOINT.t, b.t),
        ] {
            assert_eq!(
                constant.to_bytes(),
                derived.to_bytes(),
                "B: y = 4/5, x even"
            );
        }
        assert_eq!(BASEPOINT.z.0, Fe::ONE.0);
        for constant in [D, D2, SQRT_M1, BASEPOINT.x, BASEPOINT.y, BASEPOINT.t] {
            assert_eq!(
                Fe::from_bytes(&constant.to_bytes()).0,
                constant.0,
                "canonical limbs"
            );
        }
    }

    #[test]
    fn basepoint_compressed_encoding_matches_rfc() {
        // RFC 8032: B encodes as 0x58 followed by 31 bytes of 0x66.
        let mut expect = [0x66u8; 32];
        expect[0] = 0x58;
        assert_eq!(Point::basepoint().compress(), expect);
    }

    #[test]
    fn decompress_compress_round_trip() {
        let b = Point::basepoint();
        for k in 1u64..20 {
            let p = b.mul_scalar(&Scalar::from_u64(k));
            let enc = p.compress();
            let q = Point::decompress(&enc).unwrap();
            assert!(p.eq_point(&q), "k = {k}");
            assert!(q.is_on_curve());
        }
    }

    #[test]
    fn addition_matches_scalar_multiplication() {
        let b = Point::basepoint();
        let two = b.add(&b);
        assert!(two.eq_point(&b.double()));
        assert!(two.eq_point(&b.mul_scalar(&Scalar::from_u64(2))));
        let five = b
            .mul_scalar(&Scalar::from_u64(2))
            .add(&b.mul_scalar(&Scalar::from_u64(3)));
        assert!(five.eq_point(&b.mul_scalar(&Scalar::from_u64(5))));
    }

    #[test]
    fn identity_is_neutral() {
        let b = Point::basepoint();
        assert!(b.add(&Point::identity()).eq_point(&b));
        assert!(Point::identity().add(&b).eq_point(&b));
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn order_l_annihilates_basepoint() {
        // [ℓ]B = identity: encode ℓ as ℓ-1 then add B once more.
        let mut l_minus_1 = super::super::scalar::L;
        l_minus_1[0] -= 1;
        let mut bytes = [0u8; 32];
        for (i, limb) in l_minus_1.iter().enumerate() {
            bytes[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        let s = Scalar::from_canonical_bytes(&bytes).unwrap();
        let b = Point::basepoint();
        let almost = b.mul_scalar(&s);
        assert!(almost.add(&b).is_identity());
    }

    #[test]
    fn scalar_mul_is_linear() {
        let b = Point::basepoint();
        let k1 = Scalar::from_u64(1234);
        let k2 = Scalar::from_u64(5678);
        let lhs = b.mul_scalar(&k1.add(k2));
        let rhs = b.mul_scalar(&k1).add(&b.mul_scalar(&k2));
        assert!(lhs.eq_point(&rhs));
    }

    #[test]
    fn invalid_encoding_rejected() {
        // y = 2 gives y²−1 = 3, dy²+1: 3/(4d+1) is not a QR for this curve.
        // Easier: an encoding that is a valid field element but not on the
        // curve. Try a few candidates and expect at least one rejection.
        let mut rejected = 0;
        for c in 0u8..8 {
            let mut bytes = [0u8; 32];
            bytes[0] = 2 + c;
            if Point::decompress(&bytes).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "some small-y encodings must be off-curve");
    }

    #[test]
    fn compressed_points_are_stable_under_double_negation() {
        let p = Point::basepoint().mul_scalar(&Scalar::from_u64(7));
        assert!(p.neg().neg().eq_point(&p));
        assert_eq!(p.neg().neg().compress(), p.compress());
    }

    #[test]
    fn double_scalar_mul_matches_separate_ladders() {
        let b = Point::basepoint();
        let q = b.mul_scalar(&Scalar::from_u64(99));
        for (ka, kb) in [
            (0u64, 0u64),
            (1, 0),
            (0, 1),
            (5, 7),
            (1234, 98765),
            (u64::MAX, 3),
        ] {
            let (sa, sb) = (Scalar::from_u64(ka), Scalar::from_u64(kb));
            let fused = Point::double_scalar_mul(&sa, &b, &sb, &q);
            let separate = b.mul_scalar(&sa).add(&q.mul_scalar(&sb));
            assert!(fused.eq_point(&separate), "ka={ka} kb={kb}");
            let via_basepoint = Point::double_scalar_mul_basepoint(&sa, &sb, &q);
            assert!(via_basepoint.eq_point(&separate), "ka={ka} kb={kb}");
        }
    }

    #[test]
    fn cached_addition_matches_plain_addition() {
        let b = Point::basepoint();
        let p = b.mul_scalar(&Scalar::from_u64(31));
        let q = b.mul_scalar(&Scalar::from_u64(47));
        let cached = p.add_cached(&CachedPoint::from_point(&q));
        assert!(cached.eq_point(&p.add(&q)));
        let neg = p.add_cached(&CachedPoint::from_point(&q).neg());
        assert!(neg.eq_point(&p.add(&q.neg())));
    }

    #[test]
    fn wnaf_mul_matches_double_and_add() {
        let b = Point::basepoint();
        let p = b.mul_scalar(&Scalar::from_u64(3));
        for fill in [0u8, 1, 0x5a, 0xc3, 0xff] {
            let k = Scalar::from_bytes_mod_order(&[fill; 32]);
            assert!(p.mul_wnaf(&k).eq_point(&p.mul_scalar(&k)), "fill {fill:#x}");
        }
    }

    #[test]
    fn basepoint_table_mul_matches_double_and_add() {
        let b = Point::basepoint();
        for fill in [0u8, 1, 0x42, 0x9d, 0xff] {
            let k = Scalar::from_bytes_mod_order(&[fill; 32]);
            assert!(
                Point::mul_basepoint(&k).eq_point(&b.mul_scalar(&k)),
                "fill {fill:#x}"
            );
        }
        assert!(Point::mul_basepoint(&Scalar::ZERO).is_identity());
    }

    #[test]
    fn multiscalar_mul_matches_sum_of_ladders() {
        let b = Point::basepoint();
        let points: Vec<Point> = (1u64..6)
            .map(|i| b.mul_scalar(&Scalar::from_u64(i * 17)))
            .collect();
        let scalars: Vec<Scalar> = (0u8..5)
            .map(|i| Scalar::from_bytes_mod_order(&[i.wrapping_mul(53); 32]))
            .collect();
        let terms: Vec<StrausTerm> = scalars
            .iter()
            .zip(&points)
            .map(|(s, p)| StrausTerm::new(s, p))
            .collect();
        for base_scalar in [Scalar::ZERO, Scalar::from_bytes_mod_order(&[0xb7; 32])] {
            let fused = Point::multiscalar_mul_basepoint(&base_scalar, &terms);
            let mut expect = b.mul_scalar(&base_scalar);
            for (s, p) in scalars.iter().zip(&points) {
                expect = expect.add(&p.mul_scalar(s));
            }
            assert!(fused.eq_point(&expect));
        }
        assert!(Point::multiscalar_mul_basepoint(&Scalar::ZERO, &[]).is_identity());
        let seven = Scalar::from_u64(7);
        assert!(Point::multiscalar_mul_basepoint(&seven, &[]).eq_point(&b.mul_scalar(&seven)));
    }

    /// Encodings that exercise every way out of `from_ys`.
    fn decompression_corpus() -> Vec<[u8; 32]> {
        let b = Point::basepoint();
        let mut corpus: Vec<[u8; 32]> = (1u64..12)
            .map(|k| b.mul_scalar(&Scalar::from_u64(k * k + 3)).compress())
            .collect();
        // The same points with the other sign of x.
        for i in 0..4 {
            let mut flipped = corpus[i];
            flipped[31] ^= 0x80;
            corpus.push(flipped);
        }
        // Small y: some on the curve, some with no square root.
        for y in 0u8..16 {
            let mut bytes = [0u8; 32];
            bytes[0] = y;
            corpus.push(bytes);
            bytes[31] = 0x80;
            corpus.push(bytes);
        }
        // x = 0 (y = ±1): the encodings with the sign bit set are "−0".
        let mut minus_one = [0xffu8; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        let mut one = [0u8; 32];
        one[0] = 1;
        for mut bytes in [one, minus_one] {
            corpus.push(bytes);
            bytes[31] |= 0x80;
            corpus.push(bytes);
        }
        // Non-canonical y ≥ p: p + k for k in 0..19 fits below 2^255.
        for k in 0u8..19 {
            let mut bytes = [0xffu8; 32];
            bytes[0] = 0xed + k;
            bytes[31] = 0x7f;
            corpus.push(bytes);
            bytes[31] = 0xff;
            corpus.push(bytes);
        }
        corpus
    }

    #[test]
    fn lockstep_decompression_matches_decompress_one_at_a_time() {
        let corpus = decompression_corpus();
        let same = |pair: &Result<Point, DecompressError>,
                    alone: &Result<Point, DecompressError>| {
            match (pair, alone) {
                (Ok(p), Ok(q)) => p.eq_point(q) && p.compress() == q.compress(),
                (Err(_), Err(_)) => true,
                _ => false,
            }
        };
        let alone: Vec<_> = corpus.iter().map(Point::decompress).collect();
        assert!(alone.iter().any(Result::is_ok) && alone.iter().any(Result::is_err));
        // Every ordered pair: a bad encoding in one lane must not leak
        // into the verdict or the point of the other.
        for (i, a) in corpus.iter().enumerate() {
            for (j, b) in corpus.iter().enumerate() {
                let [pa, pb] = Point::decompress_pair(a, b);
                assert!(same(&pa, &alone[i]), "lane 0 of pair ({i}, {j})");
                assert!(same(&pb, &alone[j]), "lane 1 of pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn matching_an_encoding_is_decompressing_it_and_comparing() {
        let corpus = decompression_corpus();
        // Every point the corpus holds, and its mirror, off Z = 1.
        let points: Vec<Point> = corpus
            .iter()
            .filter_map(|bytes| Point::decompress(bytes).ok())
            .flat_map(|p| [p, p.neg()])
            .map(|p| p.add(&Point::identity()))
            .collect();
        let mut matches = 0;
        for (i, p) in points.iter().enumerate() {
            for (j, bytes) in corpus.iter().enumerate() {
                let expect = Point::decompress(bytes).is_ok_and(|r| r.eq_point(p));
                assert_eq!(p.matches_encoding(bytes), expect, "point {i}, encoding {j}");
                matches += usize::from(expect);
            }
        }
        // Every encoding that decompresses matches the point it gives.
        let decodable = corpus
            .iter()
            .filter(|bytes| Point::decompress(bytes).is_ok())
            .count();
        assert!(matches >= decodable, "{matches} < {decodable}");
    }

    #[test]
    fn prepared_point_matches_ladders_at_every_stride_edge() {
        let b = Point::basepoint();
        let q = b.mul_scalar(&Scalar::from_u64(99));
        let prepared = PreparedPoint::new(&q);
        // The bit pattern `fill` below 2²⁵², which is canonical as it is.
        let pattern = |fill: u8| {
            let mut bytes = [fill; 32];
            bytes[31] &= 0x0f;
            Scalar::from_canonical_bytes(&bytes).expect("below 2^252")
        };
        let mut edges = vec![
            Scalar::ZERO,
            Scalar::ONE,
            // ℓ − 1, the largest canonical scalar.
            Scalar::ZERO.sub(Scalar::ONE),
            pattern(0xaa),
            pattern(0x55),
        ];
        for i in 1..PIECES {
            let mut limbs = [0u64; 4];
            limbs[STRIDE * i / 64] = 1 << (STRIDE * i % 64);
            let boundary = Scalar(limbs);
            edges.extend([
                boundary.sub(Scalar::ONE),
                boundary,
                boundary.add(Scalar::ONE),
            ]);
        }
        let ladders: Vec<(Point, Point)> = edges
            .iter()
            .map(|s| (b.mul_scalar(s), q.mul_scalar(s)))
            .collect();
        for (i, sa) in edges.iter().enumerate() {
            for (j, sb) in edges.iter().enumerate() {
                let separate = ladders[i].0.add(&ladders[j].1);
                let strided = prepared.double_scalar_mul_basepoint(sa, sb);
                assert!(strided.eq_point(&separate), "edges {i}, {j}");
            }
        }
    }

    #[test]
    fn two_to_the_stride_multiple_matches_the_ladder() {
        let q = Point::basepoint().mul_scalar(&Scalar::from_u64(5));
        let two_stride = Scalar::from_u64(1 << STRIDE);
        assert!(mul_2_stride(&q).eq_point(&q.mul_scalar(&two_stride)));
        assert!(mul_2_stride(&Point::identity()).is_identity());
    }
}
