//! AES-128 block cipher (FIPS-197) with runtime-dispatched fast backends.
//!
//! Hummingbird computes every reservation key and per-packet authentication
//! tag with `PRF = AES` (the paper uses AES-128 via AES-NI; see §7.1), so
//! single-block AES throughput *is* the data-plane budget: the paper's
//! 308 ns border-router cost assumes one or two hardware AES invocations
//! per packet. This module provides one [`Aes128`] type over two backends:
//!
//! * **`soft`** — a portable word-oriented T-table implementation
//!   (4×256-entry tables built at compile time, `u32` round keys). This is
//!   the baseline on every architecture and is itself ~an order of
//!   magnitude faster than the byte-oriented S-box/`xtime` formulation it
//!   replaced (kept as [`bytewise`] for differential testing).
//! * **`ni`** — AES-NI via `std::arch::x86_64` intrinsics
//!   (`AESENC`/`AESENCLAST`, the latter also as the key schedule's
//!   S-box), selected at runtime with
//!   `is_x86_feature_detected!("aes")` (and `"ssse3"`, for the key
//!   schedule's byte shuffle) and falling back to `soft` otherwise.
//!
//! # Backend selection
//!
//! The backend is chosen **once per process** ([`active_backend`]) and
//! baked into each key at expansion time ([`Aes128::new`]), so the hot
//! path carries no per-block dispatch. Selection order:
//!
//! 1. `HUMMINGBIRD_AES_BACKEND=soft` forces the portable T-table path.
//!    This is **the portable-crypto switch**: the same setting also forces
//!    the portable SHA-256 compression in [`crate::sha256`], so CI's one
//!    `soft` leg keeps every fallback in the crate green;
//! 2. otherwise (unset, `ni`, or anything else) AES-NI is used when
//!    detected, `soft` elsewhere.
//!
//! `Aes128::with_backend` pins a specific backend for the tests below
//! regardless of the process-wide choice.
//!
//! # Batch entry points
//!
//! `Aes128::encrypt_blocks` (one key, many blocks) and
//! `Aes128::encrypt_blocks_with` (one key *per* block — the shape of
//! a per-burst flyover-tag sweep, where every packet authenticates under
//! its own `A_i`) keep 4 (software) or 8 (AES-NI) independent blocks in
//! flight so the pipelined `AESENC` units / overlapping table loads are
//! actually saturated, mirroring how the paper's DPDK router interleaves
//! the per-burst key derivations. Both are bit-for-bit identical to the
//! single-block loop.
//!
//! `Aes128::derive_and_encrypt_blocks` is the fused kernel for keys
//! that live for one block: it derives block `i`'s key through a chain
//! of `k` levels that starts under this cipher and encrypts the block
//! under the last one, computing each derived key's schedule round by
//! round as it is applied (AES-NI: 8 lanes plus a one-lane remainder),
//! so no schedule is ever stored. Every border-router family tags its
//! flyover packets this way — Hummingbird under `A_K = E_SV(ResInfo)`
//! (`k = 1`), the DRKey, EPIC and Helia baselines under their DRKey
//! chains (`k` = 2, 3, 4; the table is on the kernel).
//!
//! All paths are validated against the FIPS-197 / NIST CAVP vectors and
//! cross-checked against each other by the property tests below.

use std::sync::OnceLock;

/// The AES block size in bytes.
pub(crate) const BLOCK_SIZE: usize = 16;
/// The AES-128 key size in bytes.
pub(crate) const KEY_SIZE: usize = 16;
/// Number of round keys for AES-128 (10 rounds + initial whitening).
const ROUND_KEYS: usize = 11;
/// Round-key words (4 per round key).
const RK_WORDS: usize = 4 * ROUND_KEYS;

/// Forward S-box (FIPS-197 Fig. 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

// ---------------------------------------------------------------------------
// T-tables (built at compile time).
//
// `TE0[x]` holds the MixColumns-weighted S-box column `[2·S(x), S(x),
// S(x), 3·S(x)]` as a big-endian word; `TE1..TE3` are its byte
// rotations, one per state row, so a full round is 16 table loads and
// 16 XORs instead of per-byte SubBytes + ShiftRows + xtime MixColumns.
// ---------------------------------------------------------------------------

const fn build_te(rot: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        let w = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        t[x] = w.rotate_right(rot);
        x += 1;
    }
    t
}

static TE0: [u32; 256] = build_te(0);
static TE1: [u32; 256] = build_te(8);
static TE2: [u32; 256] = build_te(16);
static TE3: [u32; 256] = build_te(24);

/// Which implementation backs an expanded key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AesBackend {
    /// Portable word-oriented T-table implementation.
    Soft,
    /// AES-NI (`std::arch::x86_64` intrinsics), runtime-detected.
    Ni,
}

impl AesBackend {
    /// Stable display name (`soft` / `ni`), as used by
    /// `HUMMINGBIRD_AES_BACKEND` and benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            AesBackend::Soft => "soft",
            AesBackend::Ni => "ni",
        }
    }
}

/// Whether AES-NI is available on this CPU (with SSSE3, whose byte
/// shuffle the key schedule uses; every AES-NI CPU has it).
pub(crate) fn ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes") && std::arch::is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether `HUMMINGBIRD_AES_BACKEND=soft` — the portable-crypto switch —
/// is set. It forces *every* portable path in this crate (AES here,
/// SHA-256 in [`crate::sha256`]), so the one CI leg that sets it runs the
/// whole workspace without hardware crypto. Any other value means
/// auto-detection: the override is a test/CI knob, not configuration.
pub(crate) fn portable_forced() -> bool {
    std::env::var("HUMMINGBIRD_AES_BACKEND").is_ok_and(|v| v == "soft")
}

/// The process-wide backend every [`Aes128::new`] key uses: `soft` under
/// the `HUMMINGBIRD_AES_BACKEND=soft` override, otherwise AES-NI when the
/// CPU supports it, `soft` elsewhere. Computed once.
pub fn active_backend() -> AesBackend {
    static ACTIVE: OnceLock<AesBackend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if !portable_forced() && ni_available() {
            AesBackend::Ni
        } else {
            AesBackend::Soft
        }
    })
}

/// Expanded round keys, in the representation of the owning backend.
#[derive(Clone)]
enum Keys {
    /// 44 big-endian words (11 round keys × 4 columns).
    Soft([u32; RK_WORDS]),
    /// 11 `__m128i` round keys. Only ever constructed after
    /// `ni_available()` returned true — the soundness condition for
    /// calling the `ni` kernels.
    #[cfg(target_arch = "x86_64")]
    Ni(ni::Schedule),
}

/// An expanded AES-128 key, ready for encryption.
///
/// Expansion is done once (and the backend fixed at that point);
/// encrypting a block is then allocation-free and dispatch-free.
#[derive(Clone)]
pub struct Aes128 {
    keys: Keys,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes128 { .. }")
    }
}

impl Aes128 {
    /// Expands `key` into the round keys (FIPS-197 §5.2) using the
    /// process-wide [`active_backend`].
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        Self::with_backend(key, active_backend())
    }

    /// Expands `key` for a specific backend, falling back to
    /// [`AesBackend::Soft`] when `AesBackend::Ni` is requested on a CPU
    /// without AES-NI. Intended for tests; callers use [`Aes128::new`].
    #[allow(unsafe_code)] // calls into `ni` after runtime detection
    pub(crate) fn with_backend(key: &[u8; KEY_SIZE], backend: AesBackend) -> Self {
        match backend {
            AesBackend::Soft => Aes128 { keys: Keys::Soft(expand_soft(key)) },
            AesBackend::Ni => {
                #[cfg(target_arch = "x86_64")]
                if ni_available() {
                    // SAFETY: AES-NI support was just runtime-detected.
                    return Aes128 { keys: Keys::Ni(unsafe { ni::expand(key) }) };
                }
                Aes128 { keys: Keys::Soft(expand_soft(key)) }
            }
        }
    }

    /// The backend this key was expanded for.
    pub fn backend(&self) -> AesBackend {
        match &self.keys {
            Keys::Soft(_) => AesBackend::Soft,
            #[cfg(target_arch = "x86_64")]
            Keys::Ni(_) => AesBackend::Ni,
        }
    }

    /// Encrypts a single 16-byte block in place.
    #[allow(unsafe_code)] // `Keys::Ni` implies runtime-detected AES-NI
    pub(crate) fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        match &self.keys {
            Keys::Soft(rk) => encrypt1_soft(rk, block),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Keys::Ni` implies AES-NI was detected at expansion.
            Keys::Ni(s) => unsafe { ni::encrypt_block(s, block) },
        }
    }

    /// Encrypts a block, returning the ciphertext.
    #[inline]
    pub fn encrypt(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Encrypts every block in `blocks` in place, keeping several blocks
    /// in flight (8 under AES-NI, 4 in software).
    ///
    /// A single AES block is a serial chain of 10 dependent rounds;
    /// interleaving independent blocks fills the pipeline — pipelined
    /// `AESENC` on the NI path (latency ≫ throughput on every x86 core),
    /// overlapping T-table loads on the software path. Bit-for-bit
    /// identical to calling [`encrypt_block`](Aes128::encrypt_block) on
    /// each element.
    #[allow(unsafe_code)] // `Keys::Ni` implies runtime-detected AES-NI
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [[u8; BLOCK_SIZE]]) {
        match &self.keys {
            Keys::Soft(rk) => {
                let mut chunks = blocks.chunks_exact_mut(SOFT_LANES);
                for chunk in &mut chunks {
                    encrypt4_soft([rk, rk, rk, rk], chunk);
                }
                for block in chunks.into_remainder() {
                    encrypt1_soft(rk, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Keys::Ni` implies AES-NI was detected at expansion.
            Keys::Ni(s) => unsafe { ni::encrypt_blocks(s, blocks) },
        }
    }

    /// Encrypts `blocks[i]` under `cipher_at(i)` for every `i`, with the
    /// same interleaving as [`encrypt_blocks`](Aes128::encrypt_blocks).
    ///
    /// This is the shape of a per-burst tag sweep: every packet of a
    /// burst authenticates under its *own* reservation key `A_i`, but the
    /// blocks are still independent, so they pipeline just as well as a
    /// single-key batch. Backend-homogeneous groups (the only case that
    /// occurs in practice — the backend is process-wide) take the wide
    /// kernels; mixed groups fall back to per-block encryption. The cipher
    /// is resolved through `cipher_at(i)` instead of a materialized slice,
    /// so hot batch paths that already hold their keys in an index
    /// structure build (and allocate) no reference vector per burst.
    /// `cipher_at` must be a pure index lookup: it may be called more than
    /// once per index (the interleave kernels probe a group's backends
    /// before committing to a wide pass), in ascending order within each
    /// group.
    #[allow(unsafe_code)] // `Keys::Ni` implies runtime-detected AES-NI
    pub(crate) fn encrypt_blocks_with<'a>(
        cipher_at: impl Fn(usize) -> &'a Aes128,
        blocks: &mut [[u8; BLOCK_SIZE]],
    ) {
        let n = blocks.len();
        let mut i = 0;
        while i < n {
            #[cfg(target_arch = "x86_64")]
            if i + ni::LANES <= n {
                if let Some(group) = ni_group(i, &cipher_at) {
                    let chunk: &mut [[u8; BLOCK_SIZE]; ni::LANES] =
                        (&mut blocks[i..i + ni::LANES]).try_into().expect("chunk is LANES long");
                    // SAFETY: the group only forms from `Keys::Ni`
                    // schedules, which imply runtime-detected AES-NI.
                    unsafe { ni::encrypt_lanes(&group, chunk) };
                    i += ni::LANES;
                    continue;
                }
            }
            if i + SOFT_LANES <= n {
                if let Some(group) = soft_group(i, &cipher_at) {
                    encrypt4_soft(group, &mut blocks[i..i + SOFT_LANES]);
                    i += SOFT_LANES;
                    continue;
                }
            }
            cipher_at(i).encrypt_block(&mut blocks[i]);
            i += 1;
        }
    }

    /// Encrypts `blocks[i]` under the last key of the chain that
    /// `chains[i]` derives from this cipher, for every `i`. The chain's
    /// first key is this cipher's encryption of `chains[i][0]`; each
    /// further level `l` encrypts `chains[i][l]` under the key before it;
    /// the last key encrypts the block. A `k`-level chain is `k`
    /// sequential `Aes128::new(..).encrypt(..)` calls, then one more for
    /// the block — bit for bit.
    ///
    /// No derived key's schedule is ever stored. Under AES-NI, 8 lanes
    /// run at once: 8 first-level derivations under this cipher's
    /// schedule, then, per further level and for the block, 8 key
    /// schedules computed round by round, each round key going straight
    /// into its lane's `AESENC`. A remainder runs one lane at a time. The
    /// software backend expands each derived key and encrypts.
    ///
    /// The border-router families each start from a pre-expanded root
    /// that no packet chooses, and the last key tags the packet's MAC
    /// block:
    ///
    /// | family | root | k | levels |
    /// |---|---|---|---|
    /// | Hummingbird | the SV | 1 | `A_K = PRF_SV(ResInfo)` |
    /// | DRKey | the epoch secret of `now` | 2 | `K_{A→B}`, `K_{A→B:H}` |
    /// | EPIC | the epoch secret of `now` | 3 | `K_{A→B}`, `K_{A→B:H}`, `K^{epic}` |
    /// | Helia | the DRKey master | 4 | the slot's epoch secret, `K_{A→B}`, the slot key, the packet key |
    ///
    /// # Panics
    ///
    /// If `chains.len() != blocks.len()`, or a chain is empty or of
    /// another length than the first.
    #[allow(unsafe_code)] // `Keys::Ni` implies runtime-detected AES-NI
    pub(crate) fn derive_and_encrypt_blocks<C: AsRef<[[u8; BLOCK_SIZE]]>>(
        &self,
        chains: &[C],
        blocks: &mut [[u8; BLOCK_SIZE]],
    ) {
        assert_eq!(chains.len(), blocks.len(), "one key chain per block");
        let levels = chains.first().map_or(1, |chain| chain.as_ref().len());
        assert!(
            levels > 0 && chains.iter().all(|chain| chain.as_ref().len() == levels),
            "key chains of one non-zero length"
        );
        match &self.keys {
            Keys::Soft(rk) => {
                for (chain, block) in chains.iter().zip(blocks) {
                    let (first, rest) = chain.as_ref().split_first().expect("non-empty chain");
                    let mut key = *first;
                    encrypt1_soft(rk, &mut key);
                    for input in rest {
                        let mut next = *input;
                        encrypt1_soft(&expand_soft(&key), &mut next);
                        key = next;
                    }
                    encrypt1_soft(&expand_soft(&key), block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Keys::Ni` implies AES-NI was detected at expansion.
            Keys::Ni(s) => unsafe { ni::derive_and_encrypt_blocks(s, chains, blocks) },
        }
    }
}

/// The software round keys of blocks `base..base + SOFT_LANES`, if all
/// four are soft-backed.
fn soft_group<'a>(
    base: usize,
    cipher_at: &impl Fn(usize) -> &'a Aes128,
) -> Option<[&'a [u32; RK_WORDS]; SOFT_LANES]> {
    let rk = |i: usize| match &cipher_at(base + i).keys {
        Keys::Soft(rk) => Some(rk),
        #[cfg(target_arch = "x86_64")]
        Keys::Ni(_) => None,
    };
    Some([rk(0)?, rk(1)?, rk(2)?, rk(3)?])
}

/// The NI schedules of blocks `base..base + ni::LANES`, if all are
/// NI-backed.
#[cfg(target_arch = "x86_64")]
fn ni_group<'a>(
    base: usize,
    cipher_at: &impl Fn(usize) -> &'a Aes128,
) -> Option<[&'a ni::Schedule; ni::LANES]> {
    let mut out: [Option<&ni::Schedule>; ni::LANES] = [None; ni::LANES];
    for (l, slot) in out.iter_mut().enumerate() {
        match &cipher_at(base + l).keys {
            Keys::Ni(s) => *slot = Some(s),
            Keys::Soft(_) => return None,
        }
    }
    Some(out.map(|s| s.expect("filled above")))
}

// ---------------------------------------------------------------------------
// Software (T-table) backend.
// ---------------------------------------------------------------------------

/// Blocks kept in flight by the software batch kernels.
const SOFT_LANES: usize = 4;

fn sub_word(w: u32) -> u32 {
    (u32::from(SBOX[(w >> 24) as usize]) << 24)
        | (u32::from(SBOX[((w >> 16) & 0xff) as usize]) << 16)
        | (u32::from(SBOX[((w >> 8) & 0xff) as usize]) << 8)
        | u32::from(SBOX[(w & 0xff) as usize])
}

/// FIPS-197 §5.2 key expansion into 44 big-endian words.
fn expand_soft(key: &[u8; KEY_SIZE]) -> [u32; RK_WORDS] {
    let mut w = [0u32; RK_WORDS];
    for i in 0..4 {
        w[i] = u32::from_be_bytes(key[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
    }
    for i in 4..RK_WORDS {
        let mut t = w[i - 1];
        if i % 4 == 0 {
            t = sub_word(t.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
        }
        w[i] = w[i - 4] ^ t;
    }
    w
}

#[inline]
fn load_state(block: &[u8; BLOCK_SIZE]) -> [u32; 4] {
    let w =
        |i: usize| u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
    [w(0), w(1), w(2), w(3)]
}

#[inline]
fn store_state(block: &mut [u8; BLOCK_SIZE], s: [u32; 4]) {
    for (chunk, w) in block.chunks_exact_mut(4).zip(s) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
}

/// One middle round: 16 table loads + round key. The column rotation
/// (`s[c]`, `s[c+1]`, …) *is* ShiftRows; the table weights *are*
/// MixColumns. `R` is the (compile-time) round index so the round-key
/// loads are constant offsets — no slices, no bounds checks on the
/// latency-critical path.
#[inline(always)]
fn ttable_round<const R: usize>(s: [u32; 4], rk: &[u32; RK_WORDS]) -> [u32; 4] {
    let col = |a: u32, b: u32, c: u32, d: u32, k: u32| {
        TE0[(a >> 24) as usize]
            ^ TE1[((b >> 16) & 0xff) as usize]
            ^ TE2[((c >> 8) & 0xff) as usize]
            ^ TE3[(d & 0xff) as usize]
            ^ k
    };
    [
        col(s[0], s[1], s[2], s[3], rk[4 * R]),
        col(s[1], s[2], s[3], s[0], rk[4 * R + 1]),
        col(s[2], s[3], s[0], s[1], rk[4 * R + 2]),
        col(s[3], s[0], s[1], s[2], rk[4 * R + 3]),
    ]
}

/// The final round (SubBytes + ShiftRows + AddRoundKey, no MixColumns).
#[inline(always)]
fn last_round(s: [u32; 4], rk: &[u32; RK_WORDS]) -> [u32; 4] {
    let col = |a: u32, b: u32, c: u32, d: u32, k: u32| {
        ((u32::from(SBOX[(a >> 24) as usize]) << 24)
            | (u32::from(SBOX[((b >> 16) & 0xff) as usize]) << 16)
            | (u32::from(SBOX[((c >> 8) & 0xff) as usize]) << 8)
            | u32::from(SBOX[(d & 0xff) as usize]))
            ^ k
    };
    [
        col(s[0], s[1], s[2], s[3], rk[40]),
        col(s[1], s[2], s[3], s[0], rk[41]),
        col(s[2], s[3], s[0], s[1], rk[42]),
        col(s[3], s[0], s[1], s[2], rk[43]),
    ]
}

/// All ten rounds, fully unrolled (constant round-key offsets).
#[inline(always)]
fn rounds_soft(rk: &[u32; RK_WORDS], mut s: [u32; 4]) -> [u32; 4] {
    s[0] ^= rk[0];
    s[1] ^= rk[1];
    s[2] ^= rk[2];
    s[3] ^= rk[3];
    s = ttable_round::<1>(s, rk);
    s = ttable_round::<2>(s, rk);
    s = ttable_round::<3>(s, rk);
    s = ttable_round::<4>(s, rk);
    s = ttable_round::<5>(s, rk);
    s = ttable_round::<6>(s, rk);
    s = ttable_round::<7>(s, rk);
    s = ttable_round::<8>(s, rk);
    s = ttable_round::<9>(s, rk);
    last_round(s, rk)
}

fn encrypt1_soft(rk: &[u32; RK_WORDS], block: &mut [u8; BLOCK_SIZE]) {
    store_state(block, rounds_soft(rk, load_state(block)));
}

/// Four blocks through the rounds together (round-major), each under its
/// own round keys; the fixed-size inner loops unroll, exposing 4
/// independent dependency chains to the out-of-order core.
fn encrypt4_soft(rks: [&[u32; RK_WORDS]; SOFT_LANES], blocks: &mut [[u8; BLOCK_SIZE]]) {
    debug_assert_eq!(blocks.len(), SOFT_LANES);
    let mut st = [[0u32; 4]; SOFT_LANES];
    for b in 0..SOFT_LANES {
        st[b] = load_state(&blocks[b]);
        for i in 0..4 {
            st[b][i] ^= rks[b][i];
        }
    }
    macro_rules! round_all {
        ($r:literal) => {
            for b in 0..SOFT_LANES {
                st[b] = ttable_round::<$r>(st[b], rks[b]);
            }
        };
    }
    round_all!(1);
    round_all!(2);
    round_all!(3);
    round_all!(4);
    round_all!(5);
    round_all!(6);
    round_all!(7);
    round_all!(8);
    round_all!(9);
    for b in 0..SOFT_LANES {
        st[b] = last_round(st[b], rks[b]);
        store_state(&mut blocks[b], st[b]);
    }
}

// ---------------------------------------------------------------------------
// AES-NI backend.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    //! AES-NI kernels. Every function carries
    //! `#[target_feature(enable = "aes,ssse3")]`; the soundness condition
    //! for calling them is that `super::ni_available()` returned true,
    //! which is established once at key-expansion time (`Keys::Ni` values
    //! exist only on CPUs with both).
    #![deny(unsafe_op_in_unsafe_fn)]

    use super::{BLOCK_SIZE, KEY_SIZE, RCON, ROUND_KEYS};
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set1_epi32,
        _mm_set_epi8, _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    /// Blocks kept in flight by the batch kernels: `AESENC` latency is
    /// ~3-7 cycles at 1-2/cycle throughput on post-2015 x86, so 8
    /// independent chains saturate the unit with headroom.
    pub(super) const LANES: usize = 8;

    /// An expanded AES-NI key schedule.
    #[derive(Clone, Copy)]
    pub(super) struct Schedule([__m128i; ROUND_KEYS]);

    #[inline]
    fn load(block: &[u8; BLOCK_SIZE]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes; `loadu` is unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    #[inline]
    fn store(block: &mut [u8; BLOCK_SIZE], v: __m128i) {
        // SAFETY: `block` is 16 writable bytes; `storeu` is unaligned.
        unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), v) }
    }

    /// One step of FIPS-197 §5.2: the round key after `prev`, with
    /// `AESENCLAST` as the S-box. `AESKEYGENASSIST` is the instruction
    /// made for this, but it is several times slower than `AESENCLAST`
    /// on many cores (≈ 55 vs ≈ 18 ns per key here), and a border router
    /// runs a whole schedule for every flyover packet.
    ///
    /// `PSHUFB` broadcasts `RotWord(w3)` of the last word to all four
    /// columns. ShiftRows then moves nothing, so `AESENCLAST(·, Rcon × 4)`
    /// is `SubWord(RotWord(w3)) ⊕ Rcon` in every column: one shuffle and
    /// one `AESENCLAST` on the critical path. The running XOR of the
    /// previous round key's words is a two-step prefix XOR beside it.
    #[inline]
    #[target_feature(enable = "aes,ssse3")]
    fn next_round_key(prev: __m128i, rcon: u8) -> __m128i {
        let rot_w3 = _mm_set_epi8(12, 15, 14, 13, 12, 15, 14, 13, 12, 15, 14, 13, 12, 15, 14, 13);
        let t =
            _mm_aesenclast_si128(_mm_shuffle_epi8(prev, rot_w3), _mm_set1_epi32(i32::from(rcon)));
        let mut k = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
        k = _mm_xor_si128(k, _mm_slli_si128(k, 8));
        _mm_xor_si128(k, t)
    }

    /// The full schedule, one [`next_round_key`] step per round.
    #[target_feature(enable = "aes,ssse3")]
    pub(super) fn expand(key: &[u8; KEY_SIZE]) -> Schedule {
        let mut rk = [_mm_setzero_si128(); ROUND_KEYS];
        rk[0] = load(key);
        for (i, &rcon) in RCON.iter().enumerate() {
            rk[i + 1] = next_round_key(rk[i], rcon);
        }
        Schedule(rk)
    }

    /// `N` blocks under one schedule, round-major.
    #[inline]
    #[target_feature(enable = "aes,ssse3")]
    fn encrypt_n<const N: usize>(s: &Schedule, mut v: [__m128i; N]) -> [__m128i; N] {
        for lane in v.iter_mut() {
            *lane = _mm_xor_si128(*lane, s.0[0]);
        }
        for r in 1..10 {
            for lane in v.iter_mut() {
                *lane = _mm_aesenc_si128(*lane, s.0[r]);
            }
        }
        for lane in v.iter_mut() {
            *lane = _mm_aesenclast_si128(*lane, s.0[10]);
        }
        v
    }

    /// `N` blocks, each under its own key whose schedule is computed as
    /// it is applied: every round key comes out of [`next_round_key`]
    /// and goes straight into its lane's `AESENC`, so none is stored.
    /// The lanes are independent chains, interleaved round by round.
    #[inline]
    #[target_feature(enable = "aes,ssse3")]
    fn encrypt_fresh_keys<const N: usize>(
        mut keys: [__m128i; N],
        mut v: [__m128i; N],
    ) -> [__m128i; N] {
        for l in 0..N {
            v[l] = _mm_xor_si128(v[l], keys[l]);
        }
        for &rcon in &RCON[..9] {
            for l in 0..N {
                keys[l] = next_round_key(keys[l], rcon);
                v[l] = _mm_aesenc_si128(v[l], keys[l]);
            }
        }
        for l in 0..N {
            v[l] = _mm_aesenclast_si128(v[l], next_round_key(keys[l], RCON[9]));
        }
        v
    }

    /// `N` lanes of the fused kernel: each lane's chain starts under
    /// `root`, every further level and the block run under keys whose
    /// schedules are computed on the fly.
    #[inline]
    #[target_feature(enable = "aes,ssse3")]
    fn derive_and_encrypt_n<const N: usize, C: AsRef<[[u8; BLOCK_SIZE]]>>(
        root: &Schedule,
        chains: &[C],
        blocks: &mut [[u8; BLOCK_SIZE]],
    ) {
        let level = |l: usize| std::array::from_fn(|lane| load(&chains[lane].as_ref()[l]));
        let mut keys = encrypt_n::<N>(root, level(0));
        for l in 1..chains[0].as_ref().len() {
            keys = encrypt_fresh_keys::<N>(keys, level(l));
        }
        let v = encrypt_fresh_keys::<N>(keys, std::array::from_fn(|lane| load(&blocks[lane])));
        for (block, lane) in blocks.iter_mut().zip(v) {
            store(block, lane);
        }
    }

    /// The fused derive-and-encrypt kernel: [`LANES`]-wide groups, then
    /// one lane at a time.
    #[target_feature(enable = "aes,ssse3")]
    pub(super) fn derive_and_encrypt_blocks<C: AsRef<[[u8; BLOCK_SIZE]]>>(
        root: &Schedule,
        chains: &[C],
        blocks: &mut [[u8; BLOCK_SIZE]],
    ) {
        let wide = blocks.len() - blocks.len() % LANES;
        for i in (0..wide).step_by(LANES) {
            derive_and_encrypt_n::<LANES, C>(
                root,
                &chains[i..i + LANES],
                &mut blocks[i..i + LANES],
            );
        }
        for i in wide..blocks.len() {
            derive_and_encrypt_n::<1, C>(root, &chains[i..=i], &mut blocks[i..=i]);
        }
    }

    /// The on-the-fly half of the fused kernel alone: every block under
    /// `key`, for known-answer tests.
    #[cfg(test)]
    #[target_feature(enable = "aes,ssse3")]
    pub(super) fn encrypt_fresh_key<const N: usize>(
        key: &[u8; KEY_SIZE],
        blocks: &mut [[u8; BLOCK_SIZE]; N],
    ) {
        let v = encrypt_fresh_keys([load(key); N], blocks.map(|b| load(&b)));
        for (block, lane) in blocks.iter_mut().zip(v) {
            store(block, lane);
        }
    }

    #[target_feature(enable = "aes,ssse3")]
    pub(super) fn encrypt_block(s: &Schedule, block: &mut [u8; BLOCK_SIZE]) {
        let mut b = _mm_xor_si128(load(block), s.0[0]);
        for r in 1..10 {
            b = _mm_aesenc_si128(b, s.0[r]);
        }
        store(block, _mm_aesenclast_si128(b, s.0[10]));
    }

    /// Single-key batch: [`LANES`] blocks in flight per group.
    #[target_feature(enable = "aes,ssse3")]
    pub(super) fn encrypt_blocks(s: &Schedule, blocks: &mut [[u8; BLOCK_SIZE]]) {
        let mut chunks = blocks.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            let mut v = [_mm_setzero_si128(); LANES];
            for (lane, block) in v.iter_mut().zip(chunk.iter()) {
                *lane = _mm_xor_si128(load(block), s.0[0]);
            }
            for r in 1..10 {
                let k = s.0[r];
                for lane in v.iter_mut() {
                    *lane = _mm_aesenc_si128(*lane, k);
                }
            }
            for (lane, block) in v.iter_mut().zip(chunk.iter_mut()) {
                store(block, _mm_aesenclast_si128(*lane, s.0[10]));
            }
        }
        for block in chunks.into_remainder() {
            encrypt_block(s, block);
        }
    }

    /// Multi-key batch: `blocks[i]` under `scheds[i]` — the per-burst
    /// flyover-tag shape (one reservation key per packet).
    #[target_feature(enable = "aes,ssse3")]
    pub(super) fn encrypt_lanes(
        scheds: &[&Schedule; LANES],
        blocks: &mut [[u8; BLOCK_SIZE]; LANES],
    ) {
        let mut v = [_mm_setzero_si128(); LANES];
        for l in 0..LANES {
            v[l] = _mm_xor_si128(load(&blocks[l]), scheds[l].0[0]);
        }
        for r in 1..10 {
            for l in 0..LANES {
                v[l] = _mm_aesenc_si128(v[l], scheds[l].0[r]);
            }
        }
        for l in 0..LANES {
            store(&mut blocks[l], _mm_aesenclast_si128(v[l], scheds[l].0[10]));
        }
    }
}

pub mod bytewise {
    //! The original byte-oriented AES-128 (S-box + `xtime` MixColumns,
    //! no lookup tables beyond the S-box), retained as a differential
    //! oracle for the fast backends: the tests below check both against
    //! it, and the reference router and source of
    //! `crates/dataplane/tests/reference` compute every key and tag with
    //! it.

    use super::{xtime, BLOCK_SIZE, KEY_SIZE, RCON, ROUND_KEYS, SBOX};

    /// An expanded key for the byte-oriented reference implementation.
    #[derive(Clone)]
    pub struct ByteAes128 {
        round_keys: [[u8; 16]; ROUND_KEYS],
    }

    impl ByteAes128 {
        /// Expands `key` (FIPS-197 §5.2, byte formulation).
        pub fn new(key: &[u8; KEY_SIZE]) -> Self {
            let mut rk = [[0u8; 16]; ROUND_KEYS];
            rk[0] = *key;
            let mut prev = *key;
            for round in 1..ROUND_KEYS {
                let mut w = [prev[12], prev[13], prev[14], prev[15]];
                // RotWord + SubWord + Rcon
                w.rotate_left(1);
                for b in w.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                w[0] ^= RCON[round - 1];
                let mut cur = [0u8; 16];
                for i in 0..4 {
                    cur[i] = prev[i] ^ w[i];
                }
                for i in 4..16 {
                    cur[i] = prev[i] ^ cur[i - 4];
                }
                rk[round] = cur;
                prev = cur;
            }
            ByteAes128 { round_keys: rk }
        }

        /// Encrypts a block, returning the ciphertext.
        pub fn encrypt(&self, block: &[u8; BLOCK_SIZE]) -> [u8; BLOCK_SIZE] {
            let mut out = *block;
            add_round_key(&mut out, &self.round_keys[0]);
            for round in 1..10 {
                sub_bytes(&mut out);
                shift_rows(&mut out);
                mix_columns(&mut out);
                add_round_key(&mut out, &self.round_keys[round]);
            }
            sub_bytes(&mut out);
            shift_rows(&mut out);
            add_round_key(&mut out, &self.round_keys[10]);
            out
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State is column-major: byte `state[4*c + r]` is row `r`, column `c`.
    fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: shift left by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: shift left by 2.
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: shift left by 3 (= right by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let a0 = col[0];
            let a1 = col[1];
            let a2 = col[2];
            let a3 = col[3];
            let all = a0 ^ a1 ^ a2 ^ a3;
            col[0] = a0 ^ all ^ xtime(a0 ^ a1);
            col[1] = a1 ^ all ^ xtime(a1 ^ a2);
            col[2] = a2 ^ all ^ xtime(a2 ^ a3);
            col[3] = a3 ^ all ^ xtime(a3 ^ a0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::bytewise::ByteAes128;
    use super::*;
    use proptest::prelude::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, b) in out.iter_mut().enumerate() {
            *b = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    /// Every backend available on this machine, for exhaustive vector
    /// coverage (`Ni` silently degrades to `Soft` off-x86, where the two
    /// entries simply test the same path twice).
    fn backends() -> Vec<AesBackend> {
        vec![AesBackend::Soft, AesBackend::Ni]
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS-197 Appendix B worked example.
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        for backend in backends() {
            let ct = Aes128::with_backend(&key, backend).encrypt(&pt);
            assert_eq!(ct, hex16("3925841d02dc09fbdc118597196a0b32"), "{backend:?}");
        }
    }

    #[test]
    fn fips197_appendix_c1() {
        // FIPS-197 Appendix C.1 AES-128 example vector.
        let key = hex16("000102030405060708090a0b0c0d0e0f");
        let pt = hex16("00112233445566778899aabbccddeeff");
        for backend in backends() {
            let ct = Aes128::with_backend(&key, backend).encrypt(&pt);
            assert_eq!(ct, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"), "{backend:?}");
        }
    }

    /// The FIPS-197 appendix vectors through the fused kernel's
    /// on-the-fly schedule, at the full lane width and at the one-lane
    /// remainder. (The software fallback is `expand_soft` + encrypt,
    /// which the vectors above already cover.)
    #[test]
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // AES-NI presence checked first
    fn fips197_vectors_through_the_on_the_fly_schedule() {
        if !ni_available() {
            return;
        }
        let vectors = [
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "3243f6a8885a308d313198a2e0370734",
                "3925841d02dc09fbdc118597196a0b32",
            ),
            (
                "000102030405060708090a0b0c0d0e0f",
                "00112233445566778899aabbccddeeff",
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
        ];
        for (key, pt, ct) in vectors {
            let mut wide = [hex16(pt); ni::LANES];
            let mut one = [hex16(pt)];
            // SAFETY: AES-NI support was just runtime-detected.
            unsafe {
                ni::encrypt_fresh_key(&hex16(key), &mut wide);
                ni::encrypt_fresh_key(&hex16(key), &mut one);
            }
            assert_eq!(wide, [hex16(ct); ni::LANES], "8 lanes, key {key}");
            assert_eq!(one, [hex16(ct)], "one lane, key {key}");
        }
    }

    #[test]
    fn nist_cavp_varkey_first() {
        // NIST CAVP ECBVarKey128 count 0: key = 0x80||0..0, pt = 0.
        let mut key = [0u8; 16];
        key[0] = 0x80;
        let pt = [0u8; 16];
        for backend in backends() {
            let ct = Aes128::with_backend(&key, backend).encrypt(&pt);
            assert_eq!(ct, hex16("0edd33d3c621e546455bd8ba1418bec8"), "{backend:?}");
        }
    }

    #[test]
    fn nist_cavp_vartxt_first() {
        // NIST CAVP ECBVarTxt128 count 0: key = 0, pt = 0x80||0..0.
        let key = [0u8; 16];
        let mut pt = [0u8; 16];
        pt[0] = 0x80;
        for backend in backends() {
            let ct = Aes128::with_backend(&key, backend).encrypt(&pt);
            assert_eq!(ct, hex16("3ad78e726c1ec02b7ebfe92b23d9ec34"), "{backend:?}");
        }
    }

    #[test]
    fn nist_cavp_gfsbox_vectors() {
        // NIST CAVP ECBGFSbox128: key = 0, varying plaintexts.
        let key = [0u8; 16];
        let cases = [
            ("f34481ec3cc627bacd5dc3fb08f273e6", "0336763e966d92595a567cc9ce537f5e"),
            ("9798c4640bad75c7c3227db910174e72", "a9a1631bf4996954ebc093957b234589"),
            ("96ab5c2ff612d9dfaae8c31f30c42168", "ff4f8391a6a40ca5b25d23bedd44a597"),
            ("6a118a874519e64e9963798a503f1d35", "dc43be40be0e53712f7e2bf5ca707209"),
            ("cb9fceec81286ca3e989bd979b0cb284", "92beedab1895a94faa69b632e5cc47ce"),
            ("b26aeb1874e47ca8358ff22378f09144", "459264f4798f6a78bacb89c15ed3d601"),
            ("58c8e00b2631686d54eab84b91f0aca1", "08a4e2efec8a8e3312ca7460b9040bbf"),
        ];
        for backend in backends() {
            let cipher = Aes128::with_backend(&key, backend);
            for (pt, ct) in cases {
                assert_eq!(cipher.encrypt(&hex16(pt)), hex16(ct), "{backend:?} GFSbox pt {pt}");
            }
        }
    }

    #[test]
    fn nist_cavp_keysbox_vectors() {
        // NIST CAVP ECBKeySbox128: plaintext = 0, varying keys.
        let pt = [0u8; 16];
        let cases = [
            ("10a58869d74be5a374cf867cfb473859", "6d251e6944b051e04eaa6fb4dbf78465"),
            ("caea65cdbb75e9169ecd22ebe6e54675", "6e29201190152df4ee058139def610bb"),
            ("a2e2fa9baf7d20822ca9f0542f764a41", "c3b44b95d9d2f25670eee9a0de099fa3"),
            ("b6364ac4e1de1e285eaf144a2415f7a0", "5d9b05578fc944b3cf1ccf0e746cd581"),
            ("64cf9c7abc50b888af65f49d521944b2", "f7efc89d5dba578104016ce5ad659c05"),
        ];
        for backend in backends() {
            for (key, ct) in cases {
                assert_eq!(
                    Aes128::with_backend(&hex16(key), backend).encrypt(&pt),
                    hex16(ct),
                    "{backend:?} KeySbox {key}"
                );
            }
        }
    }

    #[test]
    fn encrypt_is_deterministic_and_key_sensitive() {
        let k1 = Aes128::new(&[1u8; 16]);
        let k2 = Aes128::new(&[2u8; 16]);
        let pt = [7u8; 16];
        assert_eq!(k1.encrypt(&pt), k1.encrypt(&pt));
        assert_ne!(k1.encrypt(&pt), k2.encrypt(&pt));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = Aes128::new(&[0x42u8; 16]);
        let s = format!("{k:?}");
        assert!(!s.contains("42"));
    }

    #[test]
    fn backend_selection_reports_and_degrades() {
        let key = [3u8; 16];
        assert_eq!(Aes128::with_backend(&key, AesBackend::Soft).backend(), AesBackend::Soft);
        let ni = Aes128::with_backend(&key, AesBackend::Ni);
        if ni_available() {
            assert_eq!(ni.backend(), AesBackend::Ni);
        } else {
            assert_eq!(ni.backend(), AesBackend::Soft, "Ni degrades to Soft off-hardware");
        }
        // The active backend is one of the two and stable.
        assert_eq!(active_backend(), active_backend());
        assert_eq!(AesBackend::Soft.name(), "soft");
        assert_eq!(AesBackend::Ni.name(), "ni");
    }

    #[test]
    fn portable_switch_covers_aes_and_sha256() {
        // Only the CI `soft` leg sets the variable; there both primitives
        // must report the portable path. Elsewhere the pair follows the CPU.
        if portable_forced() {
            assert_eq!(active_backend(), AesBackend::Soft);
            assert_eq!(crate::sha256::active_backend(), "soft");
        } else {
            assert_eq!(active_backend() == AesBackend::Ni, ni_available());
        }
    }

    #[test]
    fn encrypt_blocks_matches_single_block_path_on_every_backend() {
        // Covers remainder handling around both lane widths (4 and 8).
        for backend in backends() {
            let cipher = Aes128::with_backend(&hex16("000102030405060708090a0b0c0d0e0f"), backend);
            for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 33] {
                let mut batch: Vec<[u8; 16]> = (0..n).map(|i| [i as u8; 16]).collect();
                let expected: Vec<[u8; 16]> = batch.iter().map(|b| cipher.encrypt(b)).collect();
                cipher.encrypt_blocks(&mut batch);
                assert_eq!(batch, expected, "{backend:?}: batch of {n} diverged");
            }
        }
    }

    #[test]
    fn encrypt_blocks_per_key_matches_per_block_loop() {
        for backend in backends() {
            let ciphers: Vec<Aes128> =
                (0..23).map(|i| Aes128::with_backend(&[i as u8 + 1; 16], backend)).collect();
            for n in [0usize, 1, 4, 7, 8, 9, 16, 23] {
                let refs: Vec<&Aes128> = ciphers[..n].iter().collect();
                let mut batch: Vec<[u8; 16]> = (0..n).map(|i| [0xA0 ^ i as u8; 16]).collect();
                let expected: Vec<[u8; 16]> =
                    batch.iter().zip(&refs).map(|(b, c)| c.encrypt(b)).collect();
                Aes128::encrypt_blocks_with(|i| refs[i], &mut batch);
                assert_eq!(batch, expected, "{backend:?}: per-key batch of {n} diverged");
            }
        }
    }

    #[test]
    fn encrypt_blocks_per_key_handles_mixed_backends() {
        // Mixed groups only arise via explicit `with_backend`, but they
        // must still be correct (per-block fallback).
        let a = Aes128::with_backend(&[1; 16], AesBackend::Soft);
        let b = Aes128::with_backend(&[2; 16], AesBackend::Ni);
        let refs: Vec<&Aes128> = (0..12).map(|i| if i % 2 == 0 { &a } else { &b }).collect();
        let mut batch: Vec<[u8; 16]> = (0..12).map(|i| [i as u8; 16]).collect();
        let expected: Vec<[u8; 16]> =
            batch.iter().zip(&refs).map(|(blk, c)| c.encrypt(blk)).collect();
        Aes128::encrypt_blocks_with(|i| refs[i], &mut batch);
        assert_eq!(batch, expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Cross-backend equivalence: for random keys and blocks, the
        /// T-table path, the AES-NI path (where available) and the
        /// byte-oriented reference all agree — single-block and batch.
        #[test]
        fn backends_agree_on_random_inputs(
            key in proptest::collection::vec(any::<u8>(), 16..17),
            blocks in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 16..17), 1..20),
        ) {
            let key: [u8; 16] = key.as_slice().try_into().unwrap();
            let blocks: Vec<[u8; 16]> =
                blocks.iter().map(|b| b.as_slice().try_into().unwrap()).collect();
            let reference = ByteAes128::new(&key);
            let soft = Aes128::with_backend(&key, AesBackend::Soft);
            let ni = Aes128::with_backend(&key, AesBackend::Ni);
            let expected: Vec<[u8; 16]> = blocks.iter().map(|b| reference.encrypt(b)).collect();
            for (label, cipher) in [("soft", &soft), ("ni", &ni)] {
                let singles: Vec<[u8; 16]> = blocks.iter().map(|b| cipher.encrypt(b)).collect();
                prop_assert_eq!(&singles, &expected, "{} single-block diverged", label);
                let mut batch = blocks.clone();
                cipher.encrypt_blocks(&mut batch);
                prop_assert_eq!(&batch, &expected, "{} batch diverged", label);
            }
        }

        /// The fused kernel, `k` sequential expanded keys
        /// (`Aes128::new(k).encrypt(b)`) and the byte-oriented reference
        /// agree on both backends, for every chain length k ≤ 4 and every
        /// burst length 0..=40: five 8-lane groups and every remainder.
        #[test]
        fn fused_kernel_agrees_with_expanded_keys(
            root in any::<[u8; 16]>(),
            levels in proptest::collection::vec(any::<[u8; 64]>(), 40..41),
            blocks in proptest::collection::vec(any::<[u8; 16]>(), 40..41),
        ) {
            let chains: Vec<[[u8; 16]; 4]> = levels
                .iter()
                .map(|l| std::array::from_fn(|i| l[16 * i..16 * i + 16].try_into().unwrap()))
                .collect();
            for k in 1..=4 {
                let chains: Vec<&[[u8; 16]]> = chains.iter().map(|c| &c[..k]).collect();
                let expected: Vec<[u8; 16]> = chains
                    .iter()
                    .zip(&blocks)
                    .map(|(chain, b)| {
                        let key = chain.iter().fold(root, |key, input| {
                            ByteAes128::new(&key).encrypt(input)
                        });
                        ByteAes128::new(&key).encrypt(b)
                    })
                    .collect();
                for backend in backends() {
                    let cipher = Aes128::with_backend(&root, backend);
                    for ((chain, b), want) in chains.iter().zip(&blocks).zip(&expected) {
                        let key = chain[1..].iter().fold(cipher.encrypt(&chain[0]), |key, input| {
                            Aes128::new(&key).encrypt(input)
                        });
                        prop_assert_eq!(&Aes128::new(&key).encrypt(b), want);
                    }
                    for n in 0..=40 {
                        let mut got = blocks[..n].to_vec();
                        cipher.derive_and_encrypt_blocks(&chains[..n], &mut got);
                        prop_assert_eq!(&got[..], &expected[..n], "{:?} k = {}, burst of {}", backend, k, n);
                    }
                }
            }
        }
    }
}
