//! The SHA-256 compression on the x86 SHA extensions (SHA-NI).
//!
//! Compiled only where the build targets a CPU with them and with
//! SSE4.1, which the kernel's lane extracts need
//! (`cfg(all(target_arch = "x86_64", target_feature = "sha",
//! target_feature = "sse4.1"))`; the workspace builds with
//! `target-cpu=native`), and then the only compression
//! [`super::Sha256`] runs. There is no runtime dispatch:
//! a build without the feature compiles this module out and runs
//! [`super::compress_portable`], which is also the oracle the tests
//! hold this kernel to.
//!
//! The one module of `proxy-crypto` allowed `unsafe` code, for one
//! call. [`compress_ni`] is a safe function: its body uses value
//! intrinsics only — words come in through `u32::from_be_bytes` and
//! `_mm_set_epi32` and leave through `_mm_extract_epi32`, with no load
//! or store through a pointer. Calling a `#[target_feature]` function
//! from code compiled without that attribute is `unsafe` even when the
//! whole build enables the features, so [`compress`] makes that one
//! call, and its safety argument is the `cfg` this module sits behind.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
};

use super::{BLOCK_LEN, K};

/// Compresses one block into `state` with the SHA extensions.
pub(super) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    // SAFETY: this module is compiled only when the build's target
    // features include `sha` and `sse4.1` (which implies `ssse3` and
    // `sse2`), so every CPU this code runs on has the instructions
    // `compress_ni` is compiled for.
    unsafe { compress_ni(state, block) }
}

/// Rounds `k..k + 4` on the message words `w`. Each `rnds2` runs two
/// rounds on the low half of `w + K` and returns the new `ABEF`, which
/// is the next pair's `CDGH`, so the two registers trade roles twice
/// and end where they began.
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $k:expr) => {{
        let wk = _mm_add_epi32(
            $w,
            _mm_set_epi32(
                K[$k + 3] as i32,
                K[$k + 2] as i32,
                K[$k + 1] as i32,
                K[$k] as i32,
            ),
        );
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }};
}

/// The next four schedule words from the previous sixteen, oldest
/// first: `msg1` adds σ0, `alignr` lines up `w[t-7]`, `msg2` adds σ1.
macro_rules! schedule {
    ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
        _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
            $w3,
        )
    };
}

/// One block's 64 rounds. The state is held as `ABEF` and `CDGH`, the
/// register layout `sha256rnds2` works on; lane 0 is the last letter.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_ni(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let word = |i: usize| {
        let b = &block[4 * i..4 * i + 4];
        u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as i32
    };
    let four = |i: usize| _mm_set_epi32(word(i + 3), word(i + 2), word(i + 1), word(i));
    let s = state.map(|x| x as i32);
    let abef0: __m128i = _mm_set_epi32(s[0], s[1], s[4], s[5]);
    let cdgh0: __m128i = _mm_set_epi32(s[2], s[3], s[6], s[7]);
    let (mut abef, mut cdgh) = (abef0, cdgh0);

    let [mut w0, mut w1, mut w2, mut w3] = [four(0), four(4), four(8), four(12)];
    rounds4!(abef, cdgh, w0, 0);
    rounds4!(abef, cdgh, w1, 4);
    rounds4!(abef, cdgh, w2, 8);
    rounds4!(abef, cdgh, w3, 12);
    for k in [16, 32, 48] {
        w0 = schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, w0, k);
        w1 = schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, w1, k + 4);
        w2 = schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, w2, k + 8);
        w3 = schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, w3, k + 12);
    }

    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|x| x as u32);
}
