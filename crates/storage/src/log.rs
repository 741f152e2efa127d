//! On-disk record framing for the write-ahead log.
//!
//! Every record is framed as `[u32 payload-length][u32 crc32(payload)]
//! [payload]`, little-endian, using the same CRC-32C as the wire layer
//! (`proxy_wire::crc`). The format is deliberately dumb: a segment is a
//! concatenation of frames with no index, so the only failure modes are
//! a *torn tail* (the residue of a crash mid-write — a frame whose
//! header or payload runs past end-of-file) and *corruption* (a frame
//! that is structurally complete but fails its integrity check).
//!
//! The distinction is load-bearing for crash recovery (DESIGN.md §15.3):
//!
//! * A torn tail is expected after a kill between `write` and `fsync`.
//!   The truncated record was never acknowledged durable, so recovery
//!   drops it and truncates the segment to the last whole record.
//! * A CRC mismatch or implausible length *before* end-of-file cannot be
//!   produced by tearing an append-only stream — appends never rewrite
//!   earlier bytes — so it is bit rot or tampering, and recovery refuses
//!   to proceed past it (fail-closed), naming the exact record.
//!
//! This module is pure byte manipulation (no I/O) and sits in the
//! storage crate's panic-free scope (the L1 clippy lints its root
//! denies, DESIGN.md §11): decode rejects hostile or damaged input with
//! typed errors, never a panic.

use proxy_wire::crc::crc32;

use crate::{CorruptKind, StorageError, MAX_RECORD};

/// Frame header width: length prefix plus CRC.
pub const FRAME_HEADER: usize = 8;

/// Appends one framed record onto `buf`.
///
/// # Errors
///
/// [`StorageError::TooLarge`] when the record exceeds [`MAX_RECORD`].
pub fn frame_into(buf: &mut Vec<u8>, record: &[u8]) -> Result<(), StorageError> {
    if record.len() > MAX_RECORD {
        return Err(StorageError::TooLarge(record.len()));
    }
    let len = u32::try_from(record.len()).map_err(|_| StorageError::TooLarge(record.len()))?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc32(record).to_le_bytes());
    buf.extend_from_slice(record);
    Ok(())
}

/// The result of scanning one log segment.
#[derive(Debug, Clone, Default)]
pub struct SegmentScan {
    /// The whole, integrity-checked records, in order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of the segment covered by whole records; a recovering
    /// backend truncates the file to this length when a tail was torn.
    pub valid_len: u64,
    /// True when the segment ended in an incomplete frame.
    pub torn_tail: bool,
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let raw = bytes.get(at..at.checked_add(4)?)?;
    let arr: [u8; 4] = raw.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Scans a segment's bytes into whole records, distinguishing a torn
/// tail (tolerated, truncated) from corruption (fail-closed error at the
/// exact record).
///
/// # Errors
///
/// [`StorageError::Corrupt`] at the first record whose CRC fails or
/// whose length prefix is implausible while the frame is structurally
/// complete.
pub fn scan_segment(bytes: &[u8]) -> Result<SegmentScan, StorageError> {
    let mut scan = SegmentScan::default();
    let mut pos: usize = 0;
    let mut index: u64 = 0;
    while pos < bytes.len() {
        let corrupt = |reason: CorruptKind| StorageError::Corrupt {
            record: index,
            offset: pos as u64,
            reason,
        };
        let (Some(len), Some(crc)) = (read_u32(bytes, pos), read_u32(bytes, pos.wrapping_add(4)))
        else {
            // Header itself is truncated: torn tail.
            scan.torn_tail = true;
            break;
        };
        let len = len as usize;
        if len > MAX_RECORD {
            // A length a writer could never have framed: corruption even
            // at the tail (torn writes only shorten, they cannot invent
            // an implausible header that passed `frame_into`'s bound).
            return Err(corrupt(CorruptKind::ImplausibleLength(len as u64)));
        }
        let body_start = match pos.checked_add(FRAME_HEADER) {
            Some(s) => s,
            None => return Err(corrupt(CorruptKind::ImplausibleLength(len as u64))),
        };
        let body_end = match body_start.checked_add(len) {
            Some(e) => e,
            None => return Err(corrupt(CorruptKind::ImplausibleLength(len as u64))),
        };
        let Some(payload) = bytes.get(body_start..body_end) else {
            // Payload runs past end-of-file: torn tail.
            scan.torn_tail = true;
            break;
        };
        if crc32(payload) != crc {
            return Err(corrupt(CorruptKind::CrcMismatch));
        }
        scan.records.push(payload.to_vec());
        pos = body_end;
        index = index.saturating_add(1);
    }
    scan.valid_len = pos as u64;
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(records: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in records {
            frame_into(&mut buf, r).expect("frame");
        }
        buf
    }

    #[test]
    fn round_trip_multiple_records() {
        let buf = segment(&[b"alpha", b"", b"gamma-gamma"]);
        let scan = scan_segment(&buf).expect("scan");
        assert_eq!(
            scan.records,
            vec![b"alpha".to_vec(), vec![], b"gamma-gamma".to_vec()]
        );
        assert_eq!(scan.valid_len, buf.len() as u64);
        assert!(!scan.torn_tail);
    }

    #[test]
    fn torn_header_is_tolerated_and_truncated() {
        let mut buf = segment(&[b"whole"]);
        let good = buf.len();
        buf.extend_from_slice(&[7, 0, 0]); // 3 bytes of a future header
        let scan = scan_segment(&buf).expect("scan");
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, good as u64);
        assert!(scan.torn_tail);
    }

    #[test]
    fn torn_payload_is_tolerated_and_truncated() {
        let mut buf = segment(&[b"whole"]);
        let good = buf.len();
        let mut tail = Vec::new();
        frame_into(&mut tail, b"lost-in-the-crash").expect("frame");
        tail.truncate(tail.len() - 5);
        buf.extend_from_slice(&tail);
        let scan = scan_segment(&buf).expect("scan");
        assert_eq!(scan.records, vec![b"whole".to_vec()]);
        assert_eq!(scan.valid_len, good as u64);
        assert!(scan.torn_tail);
    }

    #[test]
    fn bit_flip_is_fail_closed_at_the_exact_record() {
        let mut buf = segment(&[b"first", b"second", b"third"]);
        // Flip one payload bit inside record 1.
        let r0 = FRAME_HEADER + 5;
        buf[r0 + FRAME_HEADER + 2] ^= 0x40;
        let err = scan_segment(&buf).expect_err("must fail closed");
        assert_eq!(
            err,
            StorageError::Corrupt {
                record: 1,
                offset: r0 as u64,
                reason: CorruptKind::CrcMismatch
            }
        );
    }

    #[test]
    fn implausible_length_is_corruption_not_torn_tail() {
        let mut buf = segment(&[b"ok"]);
        let off = buf.len();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        let err = scan_segment(&buf).expect_err("must fail closed");
        assert_eq!(
            err,
            StorageError::Corrupt {
                record: 1,
                offset: off as u64,
                reason: CorruptKind::ImplausibleLength(u64::from(u32::MAX)),
            }
        );
    }

    #[test]
    fn oversized_record_rejected_at_frame_time() {
        let mut buf = Vec::new();
        let big = vec![0u8; MAX_RECORD + 1];
        assert_eq!(
            frame_into(&mut buf, &big),
            Err(StorageError::TooLarge(MAX_RECORD + 1))
        );
        assert!(buf.is_empty());
    }
}
