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
//! of independent table lookups per word. A byte-at-a-time step handles
//! the tail of an input that is not a whole number of words; the
//! property suite checks the whole against a table-free bitwise
//! reference of its own.

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
    let (blocks, tail) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in blocks {
        // The low word of the block absorbs the running CRC; each of
        // the eight bytes is then looked up in the table matching its
        // distance from the end of the block. All eight lookups are
        // independent, so the CPU can overlap them.
        let [l0, l1, l2, l3] = (u32::from_le_bytes([b0, b1, b2, b3]) ^ crc).to_le_bytes();
        crc = TABLES[7][usize::from(l0)]
            ^ TABLES[6][usize::from(l1)]
            ^ TABLES[5][usize::from(l2)]
            ^ TABLES[4][usize::from(l3)]
            ^ TABLES[3][usize::from(b4)]
            ^ TABLES[2][usize::from(b5)]
            ^ TABLES[1][usize::from(b6)]
            ^ TABLES[0][usize::from(b7)];
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][usize::from(crc.to_le_bytes()[0] ^ b)];
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
    fn detects_single_bit_flip() {
        let mut data = b"some frame bytes".to_vec();
        let clean = crc32(&data);
        data[5] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
