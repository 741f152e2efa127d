//! CRC-32 (IEEE 802.3 polynomial), table-driven, implemented locally.
//!
//! The frame trailer carries a CRC so a receiver can cheaply reject
//! frames corrupted in transit (or mutated by an adversary) before any
//! expensive body decoding or signature verification. It is an integrity
//! *hint*, not an authenticator — real tamper resistance comes from the
//! seals on the certificates inside.
//!
//! The hot path uses slicing-by-8: eight 256-entry tables let the inner
//! loop fold eight input bytes per iteration instead of one, turning the
//! per-frame checksum from a byte-serial dependency chain into a handful
//! of independent table lookups per word. The original byte-at-a-time
//! loop is kept as [`crc32_bytewise`], the reference implementation the
//! property tests compare against; the same step handles the tail of
//! an input that is not a whole number of words.

/// Reflected polynomial for CRC-32/ISO-HDLC (the zlib/Ethernet CRC).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables. `TABLES[0]` is the classic bytewise table;
/// `TABLES[k][b]` is the CRC contribution of byte `b` seen `k` positions
/// before the end of an 8-byte block.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    // Base table: CRC of each single byte.
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // Table k advances table k-1 by one zero byte: shifting a byte one
    // position earlier in the stream is the same as appending a zero.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `data` (slicing-by-8 with a bytewise tail).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // The low word of the block absorbs the running CRC; each of
        // the eight bytes is then looked up in the table matching its
        // distance from the end of the block. All eight lookups are
        // independent, so the CPU can overlap them.
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// One-shot CRC-32 of `data`, byte-at-a-time.
///
/// Reference implementation for the slicing-by-8 hot path: the unit
/// tests and the property suite assert both agree on arbitrary inputs.
#[must_use]
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn bytewise_reference_matches_known_vectors() {
        assert_eq!(crc32_bytewise(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32_bytewise(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_across_lengths() {
        // Cover every alignment class around the 8-byte block size.
        let data: Vec<u8> = (0..257u16)
            .map(|i| (i.wrapping_mul(31) ^ 0x5A) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"some frame bytes".to_vec();
        let clean = crc32(&data);
        data[5] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
