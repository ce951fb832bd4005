//! SHA-256 (FIPS-180-4), implemented from scratch.
//!
//! Used by the ledger substrate for transaction digests and object IDs, by
//! HMAC, and by the Schnorr signature challenge derivation. Validated
//! against the standard NIST vectors.
//!
//! # Backend selection
//!
//! Like [`crate::aes`], the compression function has two backends chosen
//! **once per process** ([`active_backend`]): SHA-NI
//! (`SHA256RNDS2`/`SHA256MSG1`/`SHA256MSG2` via `std::arch::x86_64`) when
//! `is_x86_feature_detected!("sha")` says so, the portable word-oriented
//! code elsewhere. `HUMMINGBIRD_AES_BACKEND=soft` is the portable-crypto
//! switch: it forces the portable path here as well as in AES, so one CI
//! leg covers every fallback.

use std::sync::OnceLock;

/// Bytes per compression block.
const BLOCK: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

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

/// Whether the CPU has every feature `ni::compress` is compiled for — the
/// soundness condition for calling it.
fn ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as detected;
        detected!("sha") && detected!("sse2") && detected!("ssse3") && detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this process compresses with SHA-NI: available and not
/// overridden by the portable-crypto switch. Computed once.
fn ni_active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| !crate::aes::portable_forced() && ni_available())
}

/// The process-wide compression backend, by the names
/// `HUMMINGBIRD_AES_BACKEND` and benchmark output use: `"ni"` (SHA-NI)
/// or `"soft"` (portable). Computed once.
pub fn active_backend() -> &'static str {
    if ni_active() {
        "ni"
    } else {
        "soft"
    }
}

/// Runs the compression function over every block of `blocks`, in order,
/// straight from the caller's bytes.
#[allow(unsafe_code)] // calls into `ni` after runtime detection
fn compress(state: &mut [u32; 8], blocks: &[[u8; BLOCK]]) {
    if blocks.is_empty() {
        return; // most `update`s are short: skip the state round trip
    }
    #[cfg(target_arch = "x86_64")]
    if ni_active() {
        // SAFETY: `ni_active` implies `ni_available`: sha, sse2, ssse3
        // and sse4.1 were all runtime-detected.
        return unsafe { ni::compress(state, blocks) };
    }
    compress_soft(state, blocks);
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The trailing partial block; `buffered < BLOCK` between calls.
    buffer: [u8; BLOCK],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0u8; BLOCK], buffered: 0, total_len: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (BLOCK - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < BLOCK {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffered = 0;
        }
        let (blocks, tail) = input.as_chunks::<BLOCK>();
        compress(&mut self.state, blocks);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, 8-byte big-endian bit length — spilling
        // into a second block when fewer than 8 bytes remain after 0x80.
        const LEN_AT: usize = BLOCK - 8;
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= LEN_AT {
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer[..LEN_AT].fill(0);
        }
        self.buffer[LEN_AT..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, std::slice::from_ref(&self.buffer));
        digest_bytes(&self.state)
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

/// The digest a final state stands for: its words, big-endian.
fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The portable compression function (FIPS-180-4 §6.2.2).
fn compress_soft(state: &mut [u32; 8], blocks: &[[u8; BLOCK]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    //! SHA-NI compression. `compress` carries
    //! `#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]`; the
    //! soundness condition for calling it is that
    //! `super::ni_available()` returned true: all four runtime-detected.
    #![deny(unsafe_op_in_unsafe_fn)]

    use super::{BLOCK, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    #[inline]
    fn load_bytes(src: &[u8; 16]) -> __m128i {
        // SAFETY: `src` is 16 readable bytes; `loadu` is unaligned.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    #[inline]
    fn load_words(src: &[u32; 4]) -> __m128i {
        // SAFETY: `src` is 16 readable bytes; `loadu` is unaligned.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    #[inline]
    fn store_words(dst: &mut [u32; 4], v: __m128i) {
        // SAFETY: `dst` is 16 writable bytes; `storeu` is unaligned.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
    }

    /// Four rounds: the instruction wants the state as `ABEF`/`CDGH`
    /// halves and consumes two `w + k` lanes per issue.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let k: &[u32; 4] = K[4 * group..4 * group + 4].try_into().expect("4 of 64 constants");
        let wk = _mm_add_epi32(w, load_words(k));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; BLOCK]]) {
        // Big-endian message words, four to a vector.
        let be = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);
        let (dcba, hgfe) = state.split_at_mut(4);
        let dcba: &mut [u32; 4] = dcba.try_into().expect("first half of 8 words");
        let hgfe: &mut [u32; 4] = hgfe.try_into().expect("second half of 8 words");

        let cdab = _mm_shuffle_epi32(load_words(dcba), 0xB1);
        let efgh = _mm_shuffle_epi32(load_words(hgfe), 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let (quads, _) = block.as_chunks::<16>();
            // The last four message vectors (`be` is a placeholder);
            // group `g >= 4` schedules its words from groups `g-4..g`
            // and overwrites the oldest.
            let mut w = [be; 4];
            for g in 0..16 {
                let wg = if g < 4 {
                    _mm_shuffle_epi8(load_bytes(&quads[g]), be)
                } else {
                    let [w0, w1, w2, w3] =
                        [w[g % 4], w[(g + 1) % 4], w[(g + 2) % 4], w[(g + 3) % 4]];
                    let sum =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                    _mm_sha256msg2_epu32(sum, w3)
                };
                w[g % 4] = wg;
                rounds4(&mut abef, &mut cdgh, wg, g);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        store_words(dcba, _mm_blend_epi16(feba, dchg, 0xF0));
        store_words(hgfe, _mm_alignr_epi8(dchg, feba, 8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn empty_string() {
        assert_eq!(
            Sha256::digest(b"").to_vec(),
            hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            Sha256::digest(b"abc").to_vec(),
            hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_vec(),
            hex("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
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
            h.finalize().to_vec(),
            hex("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    /// A backend's compression function.
    type Compress = fn(&mut [u32; 8], &[[u8; BLOCK]]);

    /// `msg` padded by the book (FIPS-180-4 §5.1.1), independently of
    /// `finalize`, and run through one backend's compression function.
    fn digest_via(compress: Compress, msg: &[u8]) -> [u8; 32] {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK != BLOCK - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let (blocks, tail) = padded.as_chunks::<BLOCK>();
        assert!(tail.is_empty());
        let mut state = H0;
        compress(&mut state, blocks);
        digest_bytes(&state)
    }

    /// The SHA-NI compression function as a plain `fn`, when this CPU
    /// has it (regardless of the process-wide choice).
    #[allow(unsafe_code)]
    fn ni_compress() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        if ni_available() {
            // SAFETY: every feature `ni::compress` enables was just
            // runtime-detected.
            return Some(|state, blocks| unsafe { ni::compress(state, blocks) });
        }
        println!("note: CPU lacks SHA-NI; only the portable SHA-256 backend is tested");
        None
    }

    #[test]
    fn backends_agree_at_every_length_and_split() {
        let ni = ni_compress();
        let data: Vec<u8> = (0u32..200).map(|i| (i * 167 + 13) as u8).collect();
        let mut rng = StdRng::seed_from_u64(0x5A17);
        // 55/56 and 119/120 straddle the one-vs-two padding blocks; 63/64/65
        // the block boundary.
        for len in 0..=200 {
            let msg = &data[..len];
            let expected = digest_via(compress_soft, msg);
            assert_eq!(Sha256::digest(msg), expected, "{} backend, len {len}", active_backend());
            if let Some(ni) = ni {
                assert_eq!(digest_via(ni, msg), expected, "ni backend, len {len}");
            }
            for _ in 0..4 {
                let (a, b) = (rng.gen_range(0..=len), rng.gen_range(0..=len));
                let (a, b) = (a.min(b), a.max(b));
                let mut h = Sha256::new();
                h.update(&msg[..a]);
                h.update(&msg[a..b]);
                h.update(&msg[b..]);
                assert_eq!(h.finalize(), expected, "len {len} split at {a},{b}");
            }
        }
    }

    #[test]
    fn backends_agree_on_nist_vectors() {
        let two_block = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        let cases: [(&[u8], &str); 3] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (two_block, "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
        ];
        let ni = ni_compress();
        for (msg, want) in cases {
            assert_eq!(digest_via(compress_soft, msg).to_vec(), hex(want));
            if let Some(ni) = ni {
                assert_eq!(digest_via(ni, msg).to_vec(), hex(want));
            }
        }
    }
}
