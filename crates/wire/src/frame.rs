//! Length-prefixed frames: the outermost layer of the protocol.
//!
//! Layout (all integers little-endian; see DESIGN.md §10 for the field
//! table):
//!
//! ```text
//! offset  size  field
//!      0     4  magic        b"PXAA"
//!      4     1  version      PROTOCOL_VERSION
//!      5     1  msg_type     message discriminant (message module)
//!      6     8  request_id   echoed verbatim in the reply
//!     14     4  body_len     length of the body that follows
//!     18     n  body         canonical message encoding
//!   18+n     4  crc32        CRC-32 over bytes [0, 18+n)
//! ```
//!
//! The 18-byte header is parsed and validated — magic, version,
//! `body_len ≤ MAX_FRAME_BODY` — *before* any body byte is read or
//! buffered, so an attacker declaring a 4 GiB body costs the receiver
//! eighteen bytes of work, not an allocation.

use std::io::{Read, Write};

use restricted_proxy::encode::Bounded;

use crate::crc::crc32;
use crate::error::WireError;
use crate::{MAGIC, MAX_FRAME_BODY, PROTOCOL_VERSION};

/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 18;
/// Bytes in the CRC trailer.
pub const TRAILER_LEN: usize = 4;

/// A parsed, validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version (currently always [`PROTOCOL_VERSION`]).
    pub version: u8,
    /// Message-type discriminant.
    pub msg_type: u8,
    /// Correlation id; a reply echoes its request's id.
    pub request_id: u64,
    /// Length of the body following the header.
    pub body_len: u32,
}

/// Parses and validates the fixed-size header.
///
/// # Errors
///
/// [`WireError::BadMagic`], [`WireError::UnsupportedVersion`], or
/// [`WireError::FrameTooLarge`] — all decided from these 18 bytes alone.
pub fn parse_header(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
    // Array-pattern destructuring: the compiler proves every field
    // access fits in the 18 bytes, so no slice can panic.
    let [m0, m1, m2, m3, version, msg_type, r0, r1, r2, r3, r4, r5, r6, r7, l0, l1, l2, l3] =
        *bytes;
    let magic = [m0, m1, m2, m3];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if version != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let request_id = u64::from_le_bytes([r0, r1, r2, r3, r4, r5, r6, r7]);
    let body_len = u32::from_le_bytes([l0, l1, l2, l3]);
    if body_len > MAX_FRAME_BODY {
        return Err(WireError::FrameTooLarge {
            len: body_len,
            max: MAX_FRAME_BODY,
        });
    }
    Ok(FrameHeader {
        version,
        msg_type,
        request_id,
        body_len,
    })
}

/// Encodes a complete frame (header + body + CRC trailer).
///
/// # Panics
///
/// Panics if `body` exceeds [`MAX_FRAME_BODY`] — encoding oversized
/// frames is a caller bug, only *decoding* them is an expected hostile
/// input.
#[must_use]
pub fn encode_frame(msg_type: u8, request_id: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Bounded::len_of(body)
        .plus(Bounded::fixed::<{ HEADER_LEN + TRAILER_LEN }>())
        .vec();
    let start = begin_frame(&mut out, msg_type, request_id);
    out.extend_from_slice(body);
    finish_frame(&mut out, start);
    out
}

/// Starts a frame in `out`: appends the header with a zero length
/// placeholder and returns the frame's start offset. Encode the body
/// directly into `out`, then call [`finish_frame`] with the returned
/// offset to patch the length and append the CRC.
///
/// With [`finish_frame`], the only code that lays out a frame: the body
/// bytes are produced once, in place, after any frames already in `out`.
#[must_use]
pub(crate) fn begin_frame(out: &mut Vec<u8>, msg_type: u8, request_id: u64) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(msg_type);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    start
}

/// Completes a frame started with [`begin_frame`] at offset `start`:
/// patches the body length and appends the CRC-32 trailer.
///
/// # Panics
///
/// Panics if the body written since [`begin_frame`] exceeds
/// [`MAX_FRAME_BODY`], or if `start` is not an offset previously
/// returned by [`begin_frame`] on this buffer — both caller bugs on the
/// encode side, never reachable from wire input.
#[expect(
    clippy::disallowed_macros,
    clippy::expect_used,
    reason = "the documented `# Panics` contract of the one frame writer: an oversized body or a foreign `start` is built by local code; decode rejects an oversized body from its header"
)]
pub(crate) fn finish_frame(out: &mut Vec<u8>, start: usize) {
    let body_start = start.saturating_add(HEADER_LEN);
    assert!(body_start <= out.len(), "finish_frame before begin_frame");
    let body_len = u32::try_from(out.len() - body_start).expect("frame body over 4 GiB");
    assert!(
        body_len <= MAX_FRAME_BODY,
        "frame body of {body_len} bytes exceeds MAX_FRAME_BODY"
    );
    let len_at = start.saturating_add(HEADER_LEN - 4);
    if let Some(slot) = out.get_mut(len_at..body_start) {
        slot.copy_from_slice(&body_len.to_le_bytes());
    }
    let crc = crc32(out.get(start..).unwrap_or(&[]));
    out.extend_from_slice(&crc.to_le_bytes());
}

/// One frame split off the front of a stream buffer: the parsed header,
/// the body borrowed from the buffer, and the total bytes the frame
/// occupies (header + body + trailer — advance the cursor by this).
pub type SplitFrame<'a> = (FrameHeader, &'a [u8], usize);

/// Splits one complete frame off the front of `buf` without copying the
/// body: on success returns the parsed header, a view of the body
/// borrowed from `buf`, and the total bytes the frame occupies.
///
/// This is the one frame checker: every received frame — drained from a
/// stream, read by [`read_frame`] or decoded whole by
/// [`crate::Message::from_frame`] — passes through it.
///
/// Returns `Ok(None)` when `buf` holds only a prefix of a frame (read
/// more and retry); bytes after the frame are left for the caller.
///
/// # Errors
///
/// Header errors as in [`parse_header`]; [`WireError::BadCrc`] on
/// checksum mismatch.
pub fn split_frame(buf: &[u8]) -> Result<Option<SplitFrame<'_>>, WireError> {
    let Some((header_bytes, rest)) = buf.split_first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    let header = parse_header(header_bytes)?;
    let body_len = header.body_len as usize;
    let total = HEADER_LEN + body_len + TRAILER_LEN;
    if buf.len() < total {
        return Ok(None);
    }
    const EOF: WireError = WireError::Io(std::io::ErrorKind::UnexpectedEof);
    let body = rest.get(..body_len).ok_or(EOF)?;
    let trailer = rest
        .get(body_len..body_len + TRAILER_LEN)
        .and_then(|t| t.first_chunk::<TRAILER_LEN>())
        .ok_or(EOF)?;
    let expected = u32::from_le_bytes(*trailer);
    let actual = crc32(buf.get(..total - TRAILER_LEN).ok_or(EOF)?);
    if expected != actual {
        return Err(WireError::BadCrc { expected, actual });
    }
    Ok(Some((header, body, total)))
}

/// Writes a complete frame to `w`.
///
/// # Errors
///
/// Propagates I/O errors (as [`WireError::Io`]).
pub fn write_frame(
    w: &mut impl Write,
    msg_type: u8,
    request_id: u64,
    body: &[u8],
) -> Result<(), WireError> {
    let frame = encode_frame(msg_type, request_id, body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from `r`. The header is validated before the body is
/// read — an oversized declared body is refused after eighteen bytes and
/// no allocation — and the whole frame is then checked by
/// [`split_frame`].
///
/// # Errors
///
/// Header errors as in [`parse_header`]; [`WireError::BadCrc`];
/// [`WireError::Io`] for transport failures (including `UnexpectedEof`
/// on a connection closed mid-frame).
pub fn read_frame(r: &mut impl Read) -> Result<(FrameHeader, Vec<u8>), WireError> {
    let mut header_bytes = [0u8; HEADER_LEN];
    r.read_exact(&mut header_bytes)?;
    let header = parse_header(&header_bytes)?;
    let mut frame = Bounded::at_most(
        HEADER_LEN + header.body_len as usize + TRAILER_LEN,
        HEADER_LEN + MAX_FRAME_BODY as usize + TRAILER_LEN,
    )
    .map_err(|_| WireError::FrameTooLarge {
        len: header.body_len,
        max: MAX_FRAME_BODY,
    })?
    .zeroed();
    let (head, rest) = frame.split_at_mut(HEADER_LEN);
    head.copy_from_slice(&header_bytes);
    r.read_exact(rest)?;
    let (header, body, _) =
        split_frame(&frame)?.ok_or(WireError::Io(std::io::ErrorKind::UnexpectedEof))?;
    let body_end = HEADER_LEN + body.len();
    frame.truncate(body_end);
    frame.drain(..HEADER_LEN);
    Ok((header, frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let frame = encode_frame(0x42, 7, b"hello");
        let (header, body, used) = split_frame(&frame).unwrap().unwrap();
        assert_eq!(header.msg_type, 0x42);
        assert_eq!(header.request_id, 7);
        assert_eq!(body, b"hello");
        assert_eq!(used, frame.len());

        let mut cursor = std::io::Cursor::new(frame);
        let (header, body) = read_frame(&mut cursor).unwrap();
        assert_eq!(header.request_id, 7);
        assert_eq!(body, b"hello");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(1, 1, b"x");
        frame[0] = b'Z';
        assert!(matches!(split_frame(&frame), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut frame = encode_frame(1, 1, b"x");
        frame[4] = 99;
        assert_eq!(
            split_frame(&frame).unwrap_err(),
            WireError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn oversized_declared_body_rejected_from_header_alone() {
        let mut frame = encode_frame(1, 1, b"x");
        frame[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        // split_frame never gets past the 18-byte header.
        assert_eq!(
            split_frame(&frame).unwrap_err(),
            WireError::FrameTooLarge {
                len: u32::MAX,
                max: MAX_FRAME_BODY
            }
        );
    }

    #[test]
    fn flipped_bit_fails_crc() {
        let mut frame = encode_frame(1, 1, b"payload");
        let idx = HEADER_LEN + 2;
        frame[idx] ^= 0x01;
        assert!(matches!(split_frame(&frame), Err(WireError::BadCrc { .. })));
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn begin_finish_frame_matches_encode_and_packs_back_to_back() {
        let mut packed = Vec::new();
        for (msg_type, id, body) in [(0x42, 7, &b"hello"[..]), (0x43, 8, b"in-place body")] {
            let start = begin_frame(&mut packed, msg_type, id);
            packed.extend_from_slice(body);
            finish_frame(&mut packed, start);
        }
        // Both frames split back out of the shared buffer, in order.
        let (h1, b1, used1) = split_frame(&packed).unwrap().unwrap();
        assert_eq!(packed[..used1], encode_frame(0x42, 7, b"hello"));
        assert_eq!((h1.msg_type, h1.request_id, b1), (0x42, 7, &b"hello"[..]));
        let (h2, b2, used2) = split_frame(&packed[used1..]).unwrap().unwrap();
        assert_eq!(
            (h2.msg_type, h2.request_id, b2),
            (0x43, 8, &b"in-place body"[..])
        );
        assert_eq!(used1 + used2, packed.len());
    }

    #[test]
    fn split_frame_reports_incomplete_as_none_not_error() {
        let frame = encode_frame(1, 1, b"payload");
        for cut in [0, 5, HEADER_LEN, frame.len() - 1] {
            assert!(matches!(split_frame(&frame[..cut]), Ok(None)), "cut {cut}");
        }
        // A flipped bit is still a hard error.
        let mut bad = frame.clone();
        bad[HEADER_LEN + 1] ^= 0x10;
        assert!(matches!(split_frame(&bad), Err(WireError::BadCrc { .. })));
    }

    /// A reader that counts the bytes it hands out.
    struct Counting<'a> {
        inner: &'a [u8],
        taken: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.taken += n;
            Ok(n)
        }
    }

    #[test]
    fn read_frame_refuses_an_oversized_body_after_reading_only_the_header() {
        let mut bytes = encode_frame(1, 1, b"x");
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 64]);
        let mut r = Counting {
            inner: &bytes,
            taken: 0,
        };
        assert_eq!(
            read_frame(&mut r).unwrap_err(),
            WireError::FrameTooLarge {
                len: u32::MAX,
                max: MAX_FRAME_BODY
            }
        );
        assert_eq!(r.taken, HEADER_LEN);
    }

    #[test]
    fn message_from_frame_keeps_its_three_framing_errors() {
        use restricted_proxy::encode::DecodeError;
        let msg = crate::Message::RevocationFetch {
            issuer: restricted_proxy::principal::PrincipalId::new("R"),
            have_epoch: 3,
        };
        let frame = msg.to_frame(5);
        let (id, back) = crate::Message::from_frame(&frame).unwrap();
        assert_eq!((id, back.encode_body()), (5, msg.encode_body()));
        for cut in [0, 5, HEADER_LEN, frame.len() - 1] {
            assert_eq!(
                crate::Message::from_frame(&frame[..cut]).unwrap_err(),
                WireError::Io(std::io::ErrorKind::UnexpectedEof),
                "cut {cut}"
            );
        }
        let mut flipped = frame.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            crate::Message::from_frame(&flipped),
            Err(WireError::BadCrc { .. })
        ));
        let mut trailing = frame;
        trailing.extend_from_slice(b"abc");
        assert_eq!(
            crate::Message::from_frame(&trailing).unwrap_err(),
            WireError::Decode(DecodeError::TrailingBytes(3))
        );
    }

    #[test]
    fn truncation_is_io_error() {
        let frame = encode_frame(1, 1, b"payload");
        for cut in [0, 5, HEADER_LEN, frame.len() - 1] {
            assert!(matches!(
                crate::Message::from_frame(&frame[..cut]),
                Err(WireError::Io(std::io::ErrorKind::UnexpectedEof))
            ));
            assert!(matches!(
                read_frame(&mut &frame[..cut]),
                Err(WireError::Io(std::io::ErrorKind::UnexpectedEof))
            ));
        }
    }
}
