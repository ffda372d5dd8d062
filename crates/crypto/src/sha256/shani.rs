//! The SHA-256 compression function on the x86-64 SHA extensions
//! (SHA-NI): `sha256rnds2` runs two rounds per instruction, and
//! `sha256msg1`/`sha256msg2` expand the message schedule four words at a
//! time, so one block costs 32 round instructions instead of 64 scalar
//! rounds plus a 48-word schedule.
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsics exist only under `#[target_feature]`, and calling such a
//! function is sound only on a CPU that has the features. [`detected`]
//! checks them at run time (the standard library caches the answer), and
//! [`super::compress_block`] takes this path only when it holds.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Whether this CPU has every feature [`compress_block`] is compiled for.
#[inline]
pub(super) fn detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Loads four round constants `K[4i..4i+4]`, lane 0 = `K[4i]`.
#[inline(always)]
fn k4(i: usize) -> __m128i {
    let k = &K[4 * i..4 * i + 4];
    // SAFETY: `k` is a slice of exactly four `u32`s (16 readable bytes),
    // and `_mm_loadu_si128` has no alignment requirement.
    unsafe { _mm_loadu_si128(k.as_ptr().cast()) }
}

/// Four rounds: adds the round constants to schedule words `w`, then two
/// `sha256rnds2` steps. Each step swaps which register holds `ABEF` and
/// which `CDGH`, so after both the roles are back where they started.
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
        let wk = _mm_add_epi32($w, k4($i));
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }};
}

/// Schedule words `W[t..t+4]` from the previous sixteen, held four to a
/// register: `w0 = W[t-16..t-12]` through `w3 = W[t-4..t]`.
macro_rules! schedule {
    ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {{
        // W[t-16] + σ0(W[t-15]), plus W[t-7], then + σ1(W[t-2]).
        let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
        _mm_sha256msg2_epu32(t, $w3)
    }};
}

/// Compresses one 64-byte block into `state` — bit-identical to
/// [`super::compress_block_portable`].
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`; check
/// [`detected`] first.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(super) unsafe fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    // Byte-reverses each 32-bit lane: the block is big-endian words.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is 32 readable bytes and `block` 64; each load reads
    // 16 of them at an offset that stays in bounds, and `loadu` has no
    // alignment requirement.
    let (dcba, hgfe, m0, m1, m2, m3) = unsafe {
        let s = state.as_ptr().cast::<__m128i>();
        let b = block.as_ptr().cast::<__m128i>();
        (
            _mm_loadu_si128(s),
            _mm_loadu_si128(s.add(1)),
            _mm_loadu_si128(b),
            _mm_loadu_si128(b.add(1)),
            _mm_loadu_si128(b.add(2)),
            _mm_loadu_si128(b.add(3)),
        )
    };

    // `sha256rnds2` wants the state as ABEF / CDGH. Registers are named
    // by their lanes, highest first.
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
    let (abef_in, cdgh_in) = (abef, cdgh);

    let mut w0 = _mm_shuffle_epi8(m0, bswap);
    let mut w1 = _mm_shuffle_epi8(m1, bswap);
    let mut w2 = _mm_shuffle_epi8(m2, bswap);
    let mut w3 = _mm_shuffle_epi8(m3, bswap);
    rounds4!(abef, cdgh, w0, 0);
    rounds4!(abef, cdgh, w1, 1);
    rounds4!(abef, cdgh, w2, 2);
    rounds4!(abef, cdgh, w3, 3);
    // Rounds 16..64 in three passes of four groups; each group overwrites
    // the oldest schedule register with the next four words.
    let mut i = 4;
    while i < 16 {
        w0 = schedule!(w0, w1, w2, w3);
        rounds4!(abef, cdgh, w0, i);
        w1 = schedule!(w1, w2, w3, w0);
        rounds4!(abef, cdgh, w1, i + 1);
        w2 = schedule!(w2, w3, w0, w1);
        rounds4!(abef, cdgh, w2, i + 2);
        w3 = schedule!(w3, w0, w1, w2);
        rounds4!(abef, cdgh, w3, i + 3);
        i += 4;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);

    // Back to the a..h word order.
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: `state` is 32 writable bytes; the two stores cover exactly
    // them, and `storeu` has no alignment requirement.
    unsafe {
        let s = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(s, dcba);
        _mm_storeu_si128(s.add(1), hgfe);
    }
}
