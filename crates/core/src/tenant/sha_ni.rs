//! SHA-256 block compression on Intel's SHA extensions (SHA-NI).
//!
//! The layout follows Gulley et al., "Intel SHA Extensions" (2013): the
//! eight state words travel as two vectors, `ABEF` and `CDGH`, each
//! `sha256rnds2` performs two rounds, and `sha256msg1`/`sha256msg2` expand
//! the message schedule four words at a time. The whole run of blocks is
//! compressed in one call so the state never leaves registers between
//! blocks. The digest is bit-identical to the portable compress in the
//! parent module, which stays the reference (see its parity tests).

#![deny(unsafe_op_in_unsafe_fn)]

use super::{Compress, SHA256_K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// The SHA-NI compress if this CPU supports it. The function pointer is
/// only ever handed out from here, after the features
/// [`compress_blocks`] is compiled for were detected at run time.
pub(super) fn detect() -> Option<Compress> {
    let supported = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    supported.then_some(compress as Compress)
}

fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: this function is private to the module and is reachable only
    // through the pointer `detect` returns, which it returns only after
    // `is_x86_feature_detected!` reported `sha`, `ssse3` and `sse4.1` —
    // every feature `compress_blocks` is compiled for beyond the x86-64
    // baseline.
    unsafe { compress_blocks(state, blocks) }
}

/// Expands the next four message-schedule words from the previous
/// sixteen, held oldest first in `w0..w3` (FIPS 180-4 §6.2.2 step 1).
#[inline]
#[target_feature(enable = "sha,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(t, w3)
}

/// Four rounds on message words `w` (schedule group `group`, rounds
/// `4 * group .. 4 * group + 4`), two per `sha256rnds2`.
#[inline]
#[target_feature(enable = "sha")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
    let k = &SHA256_K[4 * group..4 * group + 4];
    // SAFETY: `k` is a bounds-checked slice of exactly four `u32`s, so the
    // unaligned 16-byte load reads only those four words.
    let wk = _mm_add_epi32(w, unsafe { _mm_loadu_si128(k.as_ptr().cast()) });
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Compresses every whole 64-byte block of `blocks` into `state`; a
/// shorter tail is ignored.
///
/// # Safety
///
/// The CPU must support the `sha`, `ssse3` and `sse4.1` instruction set
/// extensions; [`detect`] checks exactly that at run time.
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte shuffle that turns each little-endian lane into the
    // big-endian word SHA-256 reads.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is eight `u32`s, 32 bytes: the two unaligned 16-byte
    // loads read its first and second halves.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state.as_ptr().add(4).cast()),
        )
    };
    // Regroup (a,b,c,d),(e,f,g,h) into the (A,B,E,F),(C,D,G,H) pairs
    // `sha256rnds2` works on.
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is exactly 64 bytes; the four unaligned 16-byte
        // loads read its four quarters.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        };
        w0 = _mm_shuffle_epi8(w0, bswap);
        w1 = _mm_shuffle_epi8(w1, bswap);
        w2 = _mm_shuffle_epi8(w2, bswap);
        w3 = _mm_shuffle_epi8(w3, bswap);

        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        // Groups 4..16: each new group overwrites the oldest of the four
        // live ones, so the window rotates through w0..w3.
        for group in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, group);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, group + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, group + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, group + 3);
        }

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // Undo the regrouping.
    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above — the two unaligned 16-byte stores
    // write the first and second halves of the exclusively borrowed
    // 32-byte `state`.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef);
    }
}
