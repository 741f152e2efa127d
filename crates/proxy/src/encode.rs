//! Canonical, deterministic byte encoding.
//!
//! Certificates are signed over their byte encoding, so the encoding must
//! be canonical: one value, one byte string. This module provides a small
//! length-prefixed binary codec (no external serializers, no ambiguity).
//! All integers are little-endian; collections are length-prefixed with a
//! `u32` count; strings are UTF-8 with a `u32` byte length.

// L1, panic-free decode (DESIGN.md §11): this module parses bytes a peer
// chose, so outside test code a reachable panic is a remote crash.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::disallowed_macros,
    )
)]

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Errors produced when decoding a wire value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A length prefix exceeded the remaining input (or a sanity bound).
    BadLength(u64),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// An enum tag byte was not recognized.
    BadTag(u8),
    /// The input had trailing bytes after the value.
    TrailingBytes(usize),
    /// A field decoded structurally but held a semantically invalid value
    /// (e.g. an empty principal name).
    InvalidValue(&'static str),
    /// Nested values exceeded the decoder's depth bound (e.g. a
    /// `limit`-restriction tree deep enough to threaten the stack).
    TooDeep(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::BadLength(n) => write!(f, "implausible length prefix {n}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::BadTag(t) => write!(f, "unrecognized tag byte {t:#04x}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::InvalidValue(what) => write!(f, "invalid value: {what}"),
            DecodeError::TooDeep(max) => write!(f, "nesting deeper than {max} levels"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maximum accepted collection length; prevents allocation bombs when
/// decoding attacker-supplied bytes.
const MAX_COLLECTION: u32 = 1 << 20;

/// Default bound on recursive nesting accepted by a [`Decoder`]
/// (see [`Decoder::descend`]). Legitimate encodings nest one or two
/// levels; sixteen leaves headroom without letting hostile input recurse
/// toward stack exhaustion.
pub const MAX_DECODE_DEPTH: usize = 16;

/// Append-only canonical encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty encoder with `capacity` bytes pre-reserved, so an
    /// encode of known size pays exactly one allocation.
    #[must_use]
    pub fn with_capacity(capacity: Bounded) -> Self {
        Self {
            buf: capacity.vec(),
        }
    }

    /// Creates an encoder that appends to `buf`, preserving its existing
    /// contents and capacity — the reusable-scratch-buffer encode path:
    /// a pooled buffer cycles through `from_vec` → encode → [`finish`]
    /// without ever reallocating once warm.
    ///
    /// [`finish`]: Self::finish
    #[must_use]
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Finishes encoding and returns the bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends raw bytes with a u32 length prefix (the count of bytes).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.count(v.len());
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed nested value encoded in place: writes a
    /// `u32` length placeholder, runs `f` against this encoder, then
    /// backfills the placeholder with the number of bytes `f` appended.
    ///
    /// Byte-identical to encoding the nested value into a temporary
    /// encoder and appending it with [`bytes`](Self::bytes), without the
    /// temporary allocation — the scratch-buffer path for hot encodes.
    ///
    /// # Panics
    ///
    /// Panics if the nested value exceeds `u32::MAX` bytes.
    #[expect(
        clippy::expect_used,
        reason = "the documented `# Panics` contract: a nested value over 4 GiB is built by local code, never read off the wire"
    )]
    pub fn nested(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        let len_at = self.buf.len();
        self.u32(0);
        let start = self.buf.len();
        f(self);
        let len = u32::try_from(self.buf.len() - start).expect("nested value too large to encode");
        if let Some(slot) = self.buf.get_mut(len_at..start) {
            slot.copy_from_slice(&len.to_le_bytes());
        }
        self
    }

    /// Appends fixed-width raw bytes with no length prefix (for keys,
    /// tags, and signatures whose width is fixed by context).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a UTF-8 string with a u32 length prefix.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Appends a collection count or byte length prefix.
    #[expect(
        clippy::expect_used,
        reason = "collection and value sizes originate locally, so one over 4 GiB is a caller bug; only decode-side counts are attacker-controlled and those return DecodeError"
    )]
    pub fn count(&mut self, n: usize) -> &mut Self {
        self.u32(u32::try_from(n).expect("value too large to encode"))
    }
}

/// A size it is safe to allocate for: a count [`Decoder::counted`]
/// checked against the bytes left, a length [`Bounded::at_most`] checked
/// against a protocol maximum, the length of something already in memory
/// ([`Bounded::len_of`]) or a size fixed at build time
/// ([`Bounded::fixed`]). There is no constructor from a bare `usize`
/// known only at run time, and `clippy.toml` disallows
/// `Vec::with_capacity`, `reserve`, `resize`, `vec![x; n]` and
/// `HashMap::with_capacity` wherever bytes are decoded: a length read off
/// the wire or the disk sizes an allocation only through this type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounded(usize);

impl Bounded {
    /// `n`, when it is at most `max`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadLength`] when `n` exceeds `max`.
    pub fn at_most(n: usize, max: usize) -> Result<Bounded, DecodeError> {
        if n > max {
            return Err(DecodeError::BadLength(n as u64));
        }
        Ok(Bounded(n))
    }

    /// The length of `items`, which are in memory already.
    #[must_use]
    pub fn len_of<T>(items: &[T]) -> Bounded {
        Bounded(items.len())
    }

    /// `N`, a size fixed when the program was built.
    #[must_use]
    pub const fn fixed<const N: usize>() -> Bounded {
        Bounded(N)
    }

    /// This size plus `other` (saturating).
    #[must_use]
    pub fn plus(self, other: Bounded) -> Bounded {
        Bounded(self.0.saturating_add(other.0))
    }

    /// This many items of `each` (saturating).
    #[must_use]
    pub fn times(self, each: Bounded) -> Bounded {
        Bounded(self.0.saturating_mul(each.0))
    }

    /// The size.
    #[must_use]
    pub fn get(self) -> usize {
        self.0
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the allocations a `Bounded` sizes: every bounded size reaches its allocator here, and only here"
)]
impl Bounded {
    /// An empty vector with room for this many items.
    #[must_use]
    pub fn vec<T>(self) -> Vec<T> {
        Vec::with_capacity(self.0)
    }

    /// An empty map with room for this many entries.
    #[must_use]
    pub fn map<K: Hash + Eq, V>(self) -> HashMap<K, V> {
        HashMap::with_capacity(self.0)
    }

    /// This many zero bytes.
    #[must_use]
    pub fn zeroed(self) -> Vec<u8> {
        vec![0; self.0]
    }

    /// Makes room in `items` for this many more.
    pub fn reserve_in<T>(self, items: &mut Vec<T>) {
        items.reserve_exact(self.0);
    }
}

/// Cursor-based canonical decoder.
#[derive(Debug)]
pub struct Decoder<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `input`.
    #[must_use]
    pub fn new(input: &'a [u8]) -> Self {
        Self {
            input,
            pos: 0,
            depth: 0,
            max_depth: MAX_DECODE_DEPTH,
        }
    }

    /// Replaces the nesting bound enforced by [`Decoder::descend`].
    #[must_use]
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Bytes not yet consumed.
    ///
    /// Outer protocols (the wire framing) use this to cap what a nested
    /// value may claim to contain before allocating for it.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Enters one level of recursive decoding; pair with
    /// [`Decoder::ascend`]. Recursive decoders (the `limit` restriction
    /// holds a nested restriction list) call this so attacker-chosen
    /// nesting is bounded in one place rather than per message.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TooDeep`] when nesting exceeds the configured bound.
    pub fn descend(&mut self) -> Result<(), DecodeError> {
        if self.depth >= self.max_depth {
            return Err(DecodeError::TooDeep(self.max_depth));
        }
        self.depth += 1;
        Ok(())
    }

    /// Leaves one level of recursive decoding.
    pub fn ascend(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TrailingBytes`] when bytes remain.
    pub fn finish(self) -> Result<(), DecodeError> {
        let rest = self.input.len() - self.pos;
        if rest == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(rest))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::UnexpectedEnd)?;
        let out = self
            .input
            .get(self.pos..end)
            .ok_or(DecodeError::UnexpectedEnd)?;
        self.pos = end;
        Ok(out)
    }

    /// Reads exactly `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] when fewer than `N` bytes remain.
    pub fn raw_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?
            .first_chunk::<N>()
            .copied()
            .ok_or(DecodeError::UnexpectedEnd)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] when the input is exhausted.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let [b] = self.raw_array::<1>()?;
        Ok(b)
    }

    /// Reads a little-endian u16.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] when the input is exhausted.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.raw_array::<2>()?))
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] when the input is exhausted.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.raw_array::<4>()?))
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] when the input is exhausted.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.raw_array::<8>()?))
    }

    /// Reads a u32-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadLength`] on implausible lengths,
    /// [`DecodeError::UnexpectedEnd`] when truncated.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()?;
        if len > MAX_COLLECTION {
            return Err(DecodeError::BadLength(len as u64));
        }
        self.take(len as usize)
    }

    /// Reads fixed-width raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] when truncated.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Reads a UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadUtf8`] on invalid UTF-8, plus the errors of
    /// [`Decoder::bytes`].
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a principal name, rejecting empty names.
    ///
    /// # Errors
    ///
    /// [`DecodeError::InvalidValue`] for empty names, plus the errors of
    /// [`Decoder::str`].
    pub fn principal(&mut self) -> Result<crate::principal::PrincipalId, DecodeError> {
        crate::principal::PrincipalId::try_new(self.str()?)
            .ok_or(DecodeError::InvalidValue("empty principal name"))
    }

    /// Reads a collection count prefix, checked against the sanity bound
    /// only: [`Decoder::counted`] is what callers size collections by.
    fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()?;
        if n > MAX_COLLECTION {
            return Err(DecodeError::BadLength(n as u64));
        }
        Ok(n as usize)
    }

    /// Reads a collection count prefix and additionally requires that
    /// `count * min_item_bytes` fit in the remaining input, so a count
    /// can never commit the caller to allocating more than the input
    /// could possibly justify. Each element must occupy at least
    /// `min_item_bytes` on the wire.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadLength`] when the count exceeds the sanity
    /// bound or outruns the remaining input.
    pub fn counted(&mut self, min_item_bytes: usize) -> Result<Bounded, DecodeError> {
        let n = self.count()?;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::BadLength(n as u64));
        }
        Ok(Bounded(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut e = Encoder::new();
        e.u8(7)
            .u32(0xdead_beef)
            .u64(u64::MAX)
            .str("hello")
            .bytes(b"\x00\x01");
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.bytes().unwrap(), b"\x00\x01");
        d.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Encoder::new();
        e.u64(1);
        let buf = e.finish();
        let mut d = Decoder::new(&buf[..4]);
        assert_eq!(d.u64(), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn every_primitive_errors_on_short_input() {
        // Regression: these paths once sliced/`expect`ed internally; a
        // hostile short buffer must come back as UnexpectedEnd at every
        // width, never a panic.
        assert_eq!(Decoder::new(&[]).u8(), Err(DecodeError::UnexpectedEnd));
        assert_eq!(
            Decoder::new(&[1, 2, 3]).u32(),
            Err(DecodeError::UnexpectedEnd)
        );
        assert_eq!(
            Decoder::new(&[1, 2, 3, 4, 5, 6, 7]).u64(),
            Err(DecodeError::UnexpectedEnd)
        );
        assert_eq!(
            Decoder::new(&[0u8; 31]).raw_array::<32>(),
            Err(DecodeError::UnexpectedEnd)
        );
        let mut d = Decoder::new(&[9, 8]);
        assert_eq!(d.raw_array::<2>(), Ok([9, 8]));
        d.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.u8(1).u8(2);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 1);
        assert_eq!(d.finish(), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut d = Decoder::new(&buf);
        assert_eq!(d.bytes(), Err(DecodeError::BadLength(u32::MAX as u64)));
        let mut d = Decoder::new(&buf);
        assert_eq!(d.count(), Err(DecodeError::BadLength(u32::MAX as u64)));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut e = Encoder::new();
        e.bytes(&[0xff, 0xfe]);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.str(), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn counted_rejects_counts_exceeding_remaining_input() {
        // Claims 1000 elements of >= 4 bytes each, but only 8 bytes follow.
        let mut e = Encoder::new();
        e.count(1000).u64(0);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.counted(4), Err(DecodeError::BadLength(1000)));
        // The same count is fine when the input could actually hold it.
        let mut e = Encoder::new();
        e.count(2).u64(0);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.counted(4).map(Bounded::get), Ok(2));
    }

    #[test]
    fn depth_guard_stops_runaway_recursion() {
        let mut d = Decoder::new(&[]).with_max_depth(2);
        d.descend().unwrap();
        d.descend().unwrap();
        assert_eq!(d.descend(), Err(DecodeError::TooDeep(2)));
        d.ascend();
        assert!(d.descend().is_ok());
    }

    #[test]
    fn remaining_tracks_cursor() {
        let mut e = Encoder::new();
        e.u32(7).u8(1);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.remaining(), 5);
        d.u32().unwrap();
        assert_eq!(d.remaining(), 1);
    }

    #[test]
    fn encoding_is_deterministic() {
        let encode = || {
            let mut e = Encoder::new();
            e.str("abc").u64(42).count(3);
            e.finish()
        };
        assert_eq!(encode(), encode());
    }
}
