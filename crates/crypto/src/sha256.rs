//! SHA-256 (FIPS 180-4).
//!
//! Incremental and one-shot interfaces. Used by [`crate::hmac`] for
//! conventional-key proxy certificate seals and by the canonical encoding
//! layer for content digests.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (relevant to HMAC key preparation).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "sha",
    target_feature = "sse4.1"
))]
#[allow(unsafe_code)]
mod ni;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use proxy_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let (block, rest) = data.split_at(BLOCK_LEN);
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(block);
            self.compress(&b);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Pads and produces the final digest, consuming the hasher.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then 64-bit big-endian length.
        self.update_padding(bit_len);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn update_padding(&mut self, bit_len: u64) {
        let mut pad = [0u8; BLOCK_LEN * 2];
        pad[0] = 0x80;
        let rem = self.buf_len;
        // Number of zero bytes so that rem + 1 + zeros + 8 ≡ 0 (mod 64).
        let pad_len = if rem < 56 { 56 - rem } else { 120 - rem };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        // Feed padding through `update` without double-counting length.
        let saved = self.total_len;
        self.update(&pad[..pad_len + 8]);
        self.total_len = saved;
        debug_assert_eq!(self.buf_len, 0);
    }

    /// Compresses one block: on the SHA extensions where the build
    /// targets them ([`ni`]), else [`compress_portable`].
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "sha",
            target_feature = "sse4.1"
        ))]
        ni::compress(&mut self.state, block);
        #[cfg(not(all(
            target_arch = "x86_64",
            target_feature = "sha",
            target_feature = "sse4.1"
        )))]
        compress_portable(&mut self.state, block);
    }
}

/// The portable SHA-256 compression of one block into `state`.
///
/// The compression of every build whose target has no SHA extensions,
/// and the reference the SHA-NI kernel is tested against. Public so the
/// crypto ablation (`figures --ablate-crypto`) can time it beside the
/// kernel.
// Fully unrolled rounds with a rolling 16-word message schedule.
// The textbook formulation (`h = g; g = f; …` in a 64-iteration
// loop) defeats the optimizer's register allocation; assigning the
// rotated variable roles per call site keeps the working state in
// registers and roughly halves the per-block cost.
pub fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[inline(always)]
    fn lo0(x: u32) -> u32 {
        x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
    }
    #[inline(always)]
    fn lo1(x: u32) -> u32 {
        x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
    }

    let mut w = [0u32; 16];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    /// One round, with the eight working variables in rotated
    /// positions so nothing is shuffled between rounds.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $kw:expr) => {{
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h.wrapping_add(s1).wrapping_add(ch).wrapping_add($kw);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0.wrapping_add(maj));
        }};
    }
    /// Sixteen rounds against the current schedule window.
    macro_rules! sixteen {
        ($base:expr) => {{
            round!(a, b, c, d, e, f, g, h, K[$base].wrapping_add(w[0]));
            round!(h, a, b, c, d, e, f, g, K[$base + 1].wrapping_add(w[1]));
            round!(g, h, a, b, c, d, e, f, K[$base + 2].wrapping_add(w[2]));
            round!(f, g, h, a, b, c, d, e, K[$base + 3].wrapping_add(w[3]));
            round!(e, f, g, h, a, b, c, d, K[$base + 4].wrapping_add(w[4]));
            round!(d, e, f, g, h, a, b, c, K[$base + 5].wrapping_add(w[5]));
            round!(c, d, e, f, g, h, a, b, K[$base + 6].wrapping_add(w[6]));
            round!(b, c, d, e, f, g, h, a, K[$base + 7].wrapping_add(w[7]));
            round!(a, b, c, d, e, f, g, h, K[$base + 8].wrapping_add(w[8]));
            round!(h, a, b, c, d, e, f, g, K[$base + 9].wrapping_add(w[9]));
            round!(g, h, a, b, c, d, e, f, K[$base + 10].wrapping_add(w[10]));
            round!(f, g, h, a, b, c, d, e, K[$base + 11].wrapping_add(w[11]));
            round!(e, f, g, h, a, b, c, d, K[$base + 12].wrapping_add(w[12]));
            round!(d, e, f, g, h, a, b, c, K[$base + 13].wrapping_add(w[13]));
            round!(c, d, e, f, g, h, a, b, K[$base + 14].wrapping_add(w[14]));
            round!(b, c, d, e, f, g, h, a, K[$base + 15].wrapping_add(w[15]));
        }};
    }
    /// Advances the rolling schedule window by sixteen words:
    /// `w[t] += σ0(w[t+1]) + w[t+9] + σ1(w[t+14])` (indices mod 16).
    macro_rules! advance {
        () => {{
            let mut t = 0;
            while t < 16 {
                w[t] = w[t]
                    .wrapping_add(lo0(w[(t + 1) & 15]))
                    .wrapping_add(w[(t + 9) & 15])
                    .wrapping_add(lo1(w[(t + 14) & 15]));
                t += 1;
            }
        }};
    }

    sixteen!(0);
    advance!();
    sixteen!(16);
    advance!();
    sixteen!(32);
    advance!();
    sixteen!(48);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::HmacSha256;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 written out on [`compress_portable`], padding and all,
    /// without [`Sha256`]: the path the kernel is held to.
    fn portable_digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(BLOCK_LEN) {
            compress_portable(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// RFC 2104 HMAC on [`portable_digest`].
    fn portable_hmac(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block[..DIGEST_LEN].copy_from_slice(&portable_digest(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| block.iter().map(|b| b ^ byte).collect::<Vec<u8>>();
        let inner = portable_digest(&[pad(0x36), data.to_vec()].concat());
        portable_digest(&[pad(0x5c), inner.to_vec()].concat())
    }

    /// The digest of `data` in hex, after checking that the product
    /// path (the SHA-NI kernel on a SHA build) and the portable path
    /// agree on it: the vectors below hold both.
    fn both(data: &[u8]) -> String {
        let digest = Sha256::digest(data);
        assert_eq!(digest, portable_digest(data));
        hex(&digest)
    }

    /// The kernel against the portable compression, one block at a
    /// time over a chain of 4 096 blocks: each block is pseudo-random
    /// (xorshift) and each step starts from the state both agreed on.
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "sha",
        target_feature = "sse4.1"
    ))]
    #[test]
    fn kernel_matches_portable_on_chained_blocks() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut state = H0;
        for _ in 0..4096 {
            let mut block = [0u8; BLOCK_LEN];
            for chunk in block.chunks_exact_mut(8) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                chunk.copy_from_slice(&x.to_le_bytes());
            }
            let mut kernel = state;
            ni::compress(&mut kernel, &block);
            compress_portable(&mut state, &block);
            assert_eq!(kernel, state, "block {block:02x?}");
        }
    }

    proptest! {
        #[test]
        fn sha256_matches_the_portable_path(data in proptest::collection::vec(any::<u8>(), 0..600),
                                            split in 0usize..600) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), portable_digest(&data));
        }

        #[test]
        fn hmac_matches_the_portable_path(key in proptest::collection::vec(any::<u8>(), 0..100),
                                          data in proptest::collection::vec(any::<u8>(), 0..300),
                                          split in 0usize..300) {
            let split = split.min(data.len());
            let mut mac = HmacSha256::new(&key);
            mac.update(&data[..split]);
            mac.update(&data[split..]);
            let tag = mac.finalize();
            prop_assert_eq!(*tag.expose(), portable_hmac(&key, &data));
        }
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            both(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            both(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            both(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let expect = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding across the 55/56/63/64-byte boundaries.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "len {len}");
        }
    }
}
