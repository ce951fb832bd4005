//! Reservation authentication (paper §4.1, §4.3, Appendix A.4/A.6).
//!
//! This module implements the three cryptographic derivations at the heart
//! of the Hummingbird data plane:
//!
//! 1. the **reservation authentication key** `A_K = PRF_SV(ResInfo_K)`
//!    (Eq. 2), derived by the granting AS from its secret value `SV_K` over
//!    the exact 16-byte layout of Fig. 12;
//! 2. the **per-packet flyover MAC**
//!    `V_K = PRF_A(DstAddr ∥ PktLen ∥ TS)[:ℓ_tag]` (Eq. 3 / Eq. 7a) over the
//!    16-byte layout of Fig. 11, truncated to [`TAG_LEN`] = 6 bytes;
//! 3. the **aggregate MAC** `AggMAC = HopFieldMAC ⊕ FlyoverMAC` (Eq. 6),
//!    which folds the flyover tag into the SCION hop-field MAC so the tag
//!    costs no extra header bytes.
//!
//! Both PRF inputs are exactly one AES block, so the PRF costs a single
//! AES-128 invocation — this is what makes the paper's 308 ns border-router
//! budget possible.

use crate::aes::Aes128;
use std::collections::HashMap;
use std::hash::Hash;

/// Tag length ℓ_tag in bytes (§5.4: 6 bytes ⇒ ~2^47 online brute-force work).
pub const TAG_LEN: usize = 6;

/// A 6-byte truncated MAC tag as carried in the packet header.
pub type Tag = [u8; TAG_LEN];

/// The static description of one flyover reservation (Eq. 1).
///
/// `ResInfo_K = (In, Eg, ResID, BW, StrT, Dur)`. The granting AS is implied
/// by the key used to authenticate it, not stored in the packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResInfo {
    /// Ingress interface ID (`ConsIngress`).
    pub ingress: u16,
    /// Egress interface ID (`ConsEgress`).
    pub egress: u16,
    /// Reservation ID, unique per interface pair within the validity period.
    /// 22-bit field on the wire (≈4 M concurrent reservations).
    pub res_id: u32,
    /// Reserved bandwidth in the 10-bit wire encoding (see
    /// `hummingbird_wire::bwcls`). The *encoded* value is authenticated.
    pub bw_encoded: u16,
    /// Absolute reservation start time (Unix seconds).
    pub res_start: u32,
    /// Reservation duration in seconds (16-bit on the wire).
    pub duration: u16,
}

/// Maximum encodable ResID (22 bits).
pub const RES_ID_MAX: u32 = (1 << 22) - 1;
/// Maximum encodable bandwidth class (10 bits).
pub const BW_ENC_MAX: u16 = (1 << 10) - 1;

impl ResInfo {
    /// Serializes to the 16-byte key-derivation input of Fig. 12:
    ///
    /// ```text
    ///  0..2  ConsIngress      2..4  ConsEgress
    ///  4..8  ResID(22) ∥ BW(10)
    ///  8..12 ResStart
    /// 12..14 ResDuration     14..16 zero padding
    /// ```
    #[inline]
    pub fn to_kdf_block(&self) -> [u8; 16] {
        debug_assert!(self.res_id <= RES_ID_MAX, "ResID exceeds 22 bits");
        debug_assert!(self.bw_encoded <= BW_ENC_MAX, "BW exceeds 10 bits");
        let mut b = [0u8; 16];
        b[0..2].copy_from_slice(&self.ingress.to_be_bytes());
        b[2..4].copy_from_slice(&self.egress.to_be_bytes());
        let packed: u32 = (self.res_id << 10) | u32::from(self.bw_encoded & BW_ENC_MAX);
        b[4..8].copy_from_slice(&packed.to_be_bytes());
        b[8..12].copy_from_slice(&self.res_start.to_be_bytes());
        b[12..14].copy_from_slice(&self.duration.to_be_bytes());
        // b[14..16] stays zero (Fig. 12 "0 ∥ Padding").
        b
    }

    /// Whether `now` (Unix seconds) falls within `[ResStart, ResStart +
    /// ResDuration]`, in 64 bits: a reservation may end past the 32-bit
    /// seconds of its start, and `now` may be there too.
    ///
    /// Per Appendix A.7, the clock skew is deliberately *not* applied here to
    /// avoid double-counting traffic across adjacent reservations that share
    /// a ResID.
    #[inline]
    pub fn is_active_at(&self, now: u64) -> bool {
        let start = u64::from(self.res_start);
        now >= start && now <= start + u64::from(self.duration)
    }
}

/// The AS-local secret value `SV_K` shared among its border routers.
///
/// Both PRF inputs in Hummingbird (Fig. 11 and Fig. 12) are exactly one
/// AES block, so the PRF is instantiated as a single raw AES-128
/// invocation — a PRP used as a PRF, which is what the paper's DPDK
/// implementation does ("Compute authentication key (A_i): 43 ns" = one
/// AES-NI block). [`crate::cmac`] remains available for variable-length
/// inputs elsewhere in the system.
#[derive(Clone)]
pub struct SecretValue {
    cipher: Aes128,
}

impl std::fmt::Debug for SecretValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretValue { .. }")
    }
}

impl SecretValue {
    /// Creates a secret value from 16 raw bytes.
    pub fn new(key: [u8; 16]) -> Self {
        SecretValue { cipher: Aes128::new(&key) }
    }

    /// Derives the reservation authentication key `A_K` (Eq. 2),
    /// including the AES key extension of the result.
    pub fn derive_key(&self, info: &ResInfo) -> AuthKey {
        AuthKey::new(self.derive_key_bytes(info))
    }

    /// Derives only the raw key bytes without the AES key extension — the
    /// "Compute authentication key" step of Table 3 in isolation.
    #[inline]
    pub fn derive_key_bytes(&self, info: &ResInfo) -> [u8; 16] {
        self.cipher.encrypt(&info.to_kdf_block())
    }

    /// Derives and expands the keys of a whole burst: the PRF inputs are
    /// serialized, encrypted together via `Aes128::encrypt_blocks`
    /// (round-major over the batch, several blocks in flight), and each
    /// result is expanded. Appends one key per `ResInfo`, in order, to
    /// `out`; the result is element-wise identical to calling
    /// [`derive_key`](SecretValue::derive_key) per reservation. The
    /// border router does not call this — it derives and uses each key
    /// inside one fused pass ([`chained_flyover_tags`] under
    /// [`cipher`](SecretValue::cipher)) — but it is the one-call form for
    /// callers that want every key expanded (and the benchmark's per-key
    /// derivation row).
    ///
    /// `scratch` holds the raw key bytes so hot loops can reuse one
    /// allocation across calls (it is cleared on entry).
    pub fn derive_keys_batch(
        &self,
        infos: &[ResInfo],
        scratch: &mut Vec<[u8; 16]>,
        out: &mut Vec<AuthKey>,
    ) {
        scratch.clear();
        scratch.extend(infos.iter().map(ResInfo::to_kdf_block));
        self.cipher.encrypt_blocks(scratch);
        out.reserve(infos.len());
        out.extend(scratch.iter().map(|bytes| AuthKey::new(*bytes)));
    }

    /// The expanded SV: the root of the one-level key chain
    /// `A_K = PRF_SV(ResInfo)` that [`chained_flyover_tags`] tags a
    /// burst under.
    #[inline]
    pub fn cipher(&self) -> &Aes128 {
        &self.cipher
    }
}

/// The flyover tag `V_K` of one packet whose key comes out of `chain`
/// under `root` (`Aes128::derive_and_encrypt_blocks`, one lane): equal
/// to deriving every level with `Aes128::new(..).encrypt(..)` and calling
/// [`AuthKey::flyover_mac`] under the last key, without storing any
/// derived key's schedule.
pub fn chained_flyover_tag<C: AsRef<[[u8; 16]]>>(
    root: &Aes128,
    chain: &C,
    input: &FlyoverMacInput,
) -> Tag {
    let mut block = [input.to_block()];
    root.derive_and_encrypt_blocks(std::slice::from_ref(chain), &mut block);
    truncate(&block[0])
}

/// [`chained_flyover_tag`] over a burst: appends the tag of `inputs[i]`
/// under the key `chains[i]` derives from `root` to `out`, in order.
/// Under AES-NI eight packets run at once; the MAC blocks live on the
/// stack, so nothing but `out` is allocated.
///
/// # Panics
///
/// If `chains.len() != inputs.len()`, or the chains differ in length.
pub fn chained_flyover_tags<C: AsRef<[[u8; 16]]>>(
    root: &Aes128,
    chains: &[C],
    inputs: &[FlyoverMacInput],
    out: &mut Vec<Tag>,
) {
    /// Packets per stack chunk: a burst, and a multiple of the lanes.
    const CHUNK: usize = 32;
    assert_eq!(chains.len(), inputs.len(), "one MAC input per key chain");
    out.reserve(inputs.len());
    for (chains, inputs) in chains.chunks(CHUNK).zip(inputs.chunks(CHUNK)) {
        let mut blocks = [[0u8; 16]; CHUNK];
        let blocks = &mut blocks[..inputs.len()];
        for (block, input) in blocks.iter_mut().zip(inputs) {
            *block = input.to_block();
        }
        root.derive_and_encrypt_blocks(chains, blocks);
        out.extend(blocks.iter().map(truncate));
    }
}

/// A MAC block cut to the [`TAG_LEN`] bytes a packet carries.
#[inline]
fn truncate(full: &[u8; 16]) -> Tag {
    let mut tag = [0u8; TAG_LEN];
    tag.copy_from_slice(&full[..TAG_LEN]);
    tag
}

/// A reservation authentication key `A_K`, expanded and ready to MAC packets.
#[derive(Clone)]
pub struct AuthKey {
    key: [u8; 16],
    cipher: Aes128,
}

impl std::fmt::Debug for AuthKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AuthKey { .. }")
    }
}

impl PartialEq for AuthKey {
    fn eq(&self, other: &Self) -> bool {
        crate::hmac::ct_eq(&self.key, &other.key)
    }
}
impl Eq for AuthKey {}

impl AuthKey {
    /// Wraps raw key bytes (e.g. received through the control plane) and
    /// performs the AES key expansion ("AES-extend" step of Table 3).
    pub fn new(key: [u8; 16]) -> Self {
        AuthKey { key, cipher: Aes128::new(&key) }
    }

    /// Raw key bytes, for control-plane delivery (always sent sealed).
    pub fn to_bytes(&self) -> [u8; 16] {
        self.key
    }

    /// Computes the flyover MAC `V_K` (Eq. 7a) over the per-packet input:
    /// one AES invocation (the input of Fig. 11 is a single block),
    /// truncated to [`TAG_LEN`] bytes.
    #[inline]
    pub fn flyover_mac(&self, input: &FlyoverMacInput) -> Tag {
        truncate(&self.cipher.encrypt(&input.to_block()))
    }
}

/// Computes the flyover tags `V_K` of a whole burst in one multi-block
/// AES pass: the key `key_at(i)` authenticates `inputs[i]`.
///
/// Each packet of a burst carries its own reservation key, so this is a
/// *multi-key* sweep — `Aes128::encrypt_blocks_with` still keeps
/// 4-8 independent blocks in flight (the per-block keys change which
/// round key each lane loads, not the data-flow shape), which is how the
/// paper's DPDK router amortizes the per-packet tag computation across a
/// burst. Appends one tag per input, in order, to `out`; the result is
/// element-wise identical to calling [`AuthKey::flyover_mac`] per packet.
///
/// `key_at` resolves the per-packet key instead of a materialized slice,
/// so batch paths that already index their keys compute a whole burst's
/// tags without allocating. It must be a pure index lookup — it may be
/// called more than once per input (the interleave kernels probe each
/// group's backends first), in ascending order within each group.
///
/// `scratch` holds the intermediate MAC-input blocks so hot loops reuse
/// one allocation across bursts (it is cleared on entry).
pub fn flyover_tags_batch_with<'a>(
    key_at: impl Fn(usize) -> &'a AuthKey,
    inputs: &[FlyoverMacInput],
    scratch: &mut Vec<[u8; 16]>,
    out: &mut Vec<Tag>,
) {
    scratch.clear();
    scratch.extend(inputs.iter().map(FlyoverMacInput::to_block));
    Aes128::encrypt_blocks_with(|i| &key_at(i).cipher, scratch);
    out.reserve(inputs.len());
    out.extend(scratch.iter().map(truncate));
}

/// A cache of expanded [`AuthKey`]s, so a key's AES schedule is computed
/// once per epoch instead of once per packet.
///
/// **No engine reads it.** Every border-router family derives its
/// packet keys on the fly, runs each schedule as it is applied and tags
/// the packet in one fused pass ([`chained_flyover_tags`]), so a forged
/// packet has nothing to insert or evict. The cache remains for the
/// benchmark's replayed hit-share row (`crypto.key_cache_hit_share`).
///
/// **Keys** are hashed on std's hasher; the default is [`ResInfo`].
///
/// **Replacement** is generational (segmented LRU): entries insert into
/// a *hot* generation; when the hot generation fills, it becomes the
/// *cold* one and the previous cold generation is cleared and reused as
/// the new hot one — the two tables swap roles, so once both have held a
/// full generation a flip allocates nothing. A hit in cold promotes back
/// to hot. This keeps lookups O(1), bounds the footprint to two
/// generations, and ages out expired reservations without a sweeper.
/// The configured capacity is that bound, not an up-front reservation:
/// a new cache holds no tables, and the hot one grows with the working
/// set — never past a generation — until the first flip.
/// Hit/miss counters are exposed for reporting.
///
/// # Example
///
/// The second packet of a reservation reuses the expanded schedule — the
/// closure passed to [`get_or_derive`](AuthKeyCache::get_or_derive) runs
/// only on a miss:
///
/// ```
/// use hummingbird_crypto::{AuthKeyCache, ResInfo, SecretValue};
///
/// let sv = SecretValue::new([6; 16]);
/// let info = ResInfo {
///     ingress: 0,
///     egress: 1,
///     res_id: 7,
///     bw_encoded: 700,
///     res_start: 1_700_000_000,
///     duration: 600,
/// };
///
/// let mut cache: AuthKeyCache = AuthKeyCache::new(1024);
/// let first = cache.get_or_derive(&info, || sv.derive_key(&info)).clone();
/// let again = cache.get_or_derive(&info, || unreachable!("second lookup hits")).clone();
/// assert_eq!(first, again);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Clone, Debug)]
pub struct AuthKeyCache<K = ResInfo> {
    hot: Generation<K>,
    cold: Generation<K>,
    /// Entries per generation (total footprint ≤ 2×).
    generation_capacity: usize,
    hits: u64,
    misses: u64,
}

/// One generation of an [`AuthKeyCache`]: a small identity → slot index
/// over an arena of expanded keys in insertion order. Inserts append to
/// the arena, so a miss writes its ~200-byte schedule sequentially
/// instead of into a random bucket of a table of schedules; a cold hit
/// leaves its slot dead until the generation is cleared.
#[derive(Clone, Debug)]
struct Generation<K> {
    index: HashMap<K, u32>,
    keys: Vec<AuthKey>,
}

impl<K: Eq + Hash> Generation<K> {
    fn empty() -> Self {
        Generation { index: HashMap::new(), keys: Vec::new() }
    }

    fn take(&mut self, key: &K) -> Option<AuthKey> {
        self.index.remove(key).map(|slot| self.keys[slot as usize].clone())
    }

    /// Stores `value` under `key` (in place if `key` is resident). The
    /// arena doubles as it fills but never past `limit` slots; the caller
    /// flips generations before a new key would exceed it.
    fn insert(&mut self, key: K, value: AuthKey, limit: usize) -> &AuthKey {
        let next = self.keys.len() as u32;
        let slot = *self.index.entry(key).or_insert(next) as usize;
        if slot == self.keys.len() {
            if slot == self.keys.capacity() {
                self.keys.reserve_exact((2 * slot).max(4).min(limit) - slot);
            }
            self.keys.push(value);
        } else {
            self.keys[slot] = value;
        }
        &self.keys[slot]
    }

    fn clear(&mut self) {
        self.index.clear();
        self.keys.clear();
    }
}

impl<K: Eq + Hash + Clone> AuthKeyCache<K> {
    /// Creates a cache holding at most ~`capacity` expanded keys
    /// (internally two generations of `capacity / 2`, minimum 1).
    /// Allocates nothing until the first insert.
    pub fn new(capacity: usize) -> Self {
        let generation_capacity = (capacity / 2).max(1);
        AuthKeyCache {
            hot: Generation::empty(),
            cold: Generation::empty(),
            generation_capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// The cached key for `key`, deriving (and caching) it on a miss. A
    /// hit in the cold generation promotes the entry back to hot.
    pub fn get_or_derive(&mut self, key: &K, derive: impl FnOnce() -> AuthKey) -> &AuthKey {
        if let Some(&slot) = self.hot.index.get(key) {
            self.hits += 1;
            return &self.hot.keys[slot as usize];
        }
        let value = match self.cold.take(key) {
            Some(value) => {
                self.hits += 1;
                value
            }
            None => {
                self.misses += 1;
                derive()
            }
        };
        self.promote(key.clone(), value)
    }

    fn promote(&mut self, key: K, value: AuthKey) -> &AuthKey {
        if self.hot.keys.len() >= self.generation_capacity && !self.hot.index.contains_key(&key) {
            // Swap and clear: the dropped cold generation's tables become
            // the new hot one. `reserve` allocates only on the first flip,
            // while those tables have never held a generation.
            std::mem::swap(&mut self.hot, &mut self.cold);
            self.hot.clear();
            self.hot.index.reserve(self.generation_capacity);
            self.hot.keys.reserve(self.generation_capacity);
        }
        self.hot.insert(key, value, self.generation_capacity)
    }

    /// Cache hits since creation / the last counter reset.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses since creation / the last counter reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets the hit/miss counters (entries are kept).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// The per-packet MAC input of Fig. 11 (exactly one AES block):
///
/// ```text
///  0..4   DstISD (16-bit value in a 32-bit slot)
///  4..8   DstAS (low 32 bits)
///  8..10  PktLen          10..12 ResStartOffset
/// 12..14  MillisTimestamp 14..16 Counter
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlyoverMacInput {
    /// Destination ISD identifier.
    pub dst_isd: u16,
    /// Destination AS number (SCION ASes are 48-bit; the MAC input carries
    /// the low 32 bits so the whole input fits one AES block).
    pub dst_as: u64,
    /// Total packet length (Eq. 7d: `PayloadLen + 4·HdrLen`).
    pub pkt_len: u16,
    /// Offset of the reservation start from `BaseTimestamp` (seconds).
    pub res_start_offset: u16,
    /// Millisecond-granularity timestamp offset from `BaseTimestamp`.
    pub millis_ts: u16,
    /// Per-packet counter making `(BaseTS, MillisTS, Counter)` unique.
    pub counter: u16,
}

impl FlyoverMacInput {
    /// Serializes to the 16-byte block of Fig. 11.
    #[inline]
    pub fn to_block(&self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[2..4].copy_from_slice(&self.dst_isd.to_be_bytes());
        b[4..8].copy_from_slice(&((self.dst_as & 0xffff_ffff) as u32).to_be_bytes());
        b[8..10].copy_from_slice(&self.pkt_len.to_be_bytes());
        b[10..12].copy_from_slice(&self.res_start_offset.to_be_bytes());
        b[12..14].copy_from_slice(&self.millis_ts.to_be_bytes());
        b[14..16].copy_from_slice(&self.counter.to_be_bytes());
        b
    }
}

/// Aggregates (or strips) a flyover MAC into a hop-field MAC (Eq. 6).
///
/// XOR is an involution, so the same function both combines at the source
/// and recovers the plain hop-field MAC at the router.
pub fn aggregate_mac(hop_field_mac: &Tag, flyover_mac: &Tag) -> Tag {
    let mut out = [0u8; TAG_LEN];
    for i in 0..TAG_LEN {
        out[i] = hop_field_mac[i] ^ flyover_mac[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_info() -> ResInfo {
        ResInfo {
            ingress: 2,
            egress: 7,
            res_id: 1234,
            bw_encoded: 321,
            res_start: 1_700_000_000,
            duration: 300,
        }
    }

    #[test]
    fn debug_of_secret_types_hides_the_key() {
        let key = [0xA7u8; 16];
        let shown = [
            (format!("{:?}", SecretValue::new(key)), "SecretValue { .. }"),
            (format!("{:?}", AuthKey::new(key)), "AuthKey { .. }"),
            (format!("{:?}", Aes128::new(&key)), "Aes128 { .. }"),
            (format!("{:?}", crate::cmac::Cmac::new(&key)), "Cmac { .. }"),
        ];
        for (got, want) in shown {
            assert_eq!(got, want);
            for byte in ["a7", "A7", "167"] {
                assert!(!got.contains(byte), "{got} leaks key byte {byte}");
            }
        }
    }

    #[test]
    fn kdf_block_layout() {
        let info = ResInfo {
            ingress: 0x0102,
            egress: 0x0304,
            res_id: 0x3F_FFFF, // max 22-bit
            bw_encoded: 0x3FF, // max 10-bit
            res_start: 0xAABBCCDD,
            duration: 0x1122,
        };
        let b = info.to_kdf_block();
        assert_eq!(&b[0..2], &[0x01, 0x02]);
        assert_eq!(&b[2..4], &[0x03, 0x04]);
        // (0x3FFFFF << 10) | 0x3FF = 0xFFFFFFFF
        assert_eq!(&b[4..8], &[0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(&b[8..12], &[0xAA, 0xBB, 0xCC, 0xDD]);
        assert_eq!(&b[12..14], &[0x11, 0x22]);
        assert_eq!(&b[14..16], &[0, 0]);
    }

    #[test]
    fn derive_key_deterministic_per_sv() {
        let sv1 = SecretValue::new([1u8; 16]);
        let sv2 = SecretValue::new([2u8; 16]);
        let info = sample_info();
        assert_eq!(sv1.derive_key(&info), sv1.derive_key(&info));
        assert_ne!(sv1.derive_key(&info), sv2.derive_key(&info));
    }

    #[test]
    fn key_changes_with_any_resinfo_field() {
        let sv = SecretValue::new([3u8; 16]);
        let base = sample_info();
        let k = sv.derive_key(&base);
        let variations = [
            ResInfo { ingress: 3, ..base },
            ResInfo { egress: 8, ..base },
            ResInfo { res_id: 1235, ..base },
            ResInfo { bw_encoded: 322, ..base },
            ResInfo { res_start: base.res_start + 1, ..base },
            ResInfo { duration: 301, ..base },
        ];
        for v in variations {
            assert_ne!(sv.derive_key(&v), k, "field change must alter key: {v:?}");
        }
    }

    #[test]
    fn flyover_mac_is_6_bytes_and_input_sensitive() {
        let sv = SecretValue::new([4u8; 16]);
        let key = sv.derive_key(&sample_info());
        let input = FlyoverMacInput {
            dst_isd: 1,
            dst_as: 0xff00_0000_0110,
            pkt_len: 1500,
            res_start_offset: 60,
            millis_ts: 345,
            counter: 9,
        };
        let tag = key.flyover_mac(&input);
        assert_eq!(tag.len(), TAG_LEN);
        let tag2 = key.flyover_mac(&FlyoverMacInput { counter: 10, ..input });
        assert_ne!(tag, tag2, "counter must be authenticated");
        let tag3 = key.flyover_mac(&FlyoverMacInput { pkt_len: 1501, ..input });
        assert_ne!(tag, tag3, "packet length must be authenticated");
        let tag4 = key.flyover_mac(&FlyoverMacInput { dst_isd: 2, ..input });
        assert_ne!(tag, tag4, "destination must be authenticated (anti-stealing)");
    }

    #[test]
    fn aggregate_mac_is_involution() {
        let hf = [1, 2, 3, 4, 5, 6];
        let fly = [9, 9, 9, 9, 9, 9];
        let agg = aggregate_mac(&hf, &fly);
        assert_eq!(aggregate_mac(&agg, &fly), hf);
        assert_eq!(aggregate_mac(&agg, &hf), fly);
    }

    #[test]
    fn auth_key_roundtrips_via_bytes() {
        let sv = SecretValue::new([5u8; 16]);
        let k = sv.derive_key(&sample_info());
        let k2 = AuthKey::new(k.to_bytes());
        let input = FlyoverMacInput {
            dst_isd: 1,
            dst_as: 2,
            pkt_len: 100,
            res_start_offset: 0,
            millis_ts: 0,
            counter: 0,
        };
        assert_eq!(k.flyover_mac(&input), k2.flyover_mac(&input));
    }

    #[test]
    fn derive_keys_batch_matches_sequential() {
        let sv = SecretValue::new([6u8; 16]);
        let base = sample_info();
        let infos: Vec<ResInfo> = (0..17).map(|i| ResInfo { res_id: 100 + i, ..base }).collect();
        let mut scratch = Vec::new();
        let mut batch = Vec::new();
        sv.derive_keys_batch(&infos, &mut scratch, &mut batch);
        assert_eq!(batch.len(), infos.len());
        for (info, key) in infos.iter().zip(&batch) {
            assert_eq!(sv.derive_key(info), *key);
        }
        // Appends without clearing `out`, so bursts can be accumulated.
        sv.derive_keys_batch(&infos[..2], &mut scratch, &mut batch);
        assert_eq!(batch.len(), infos.len() + 2);
        // Empty bursts are a no-op.
        sv.derive_keys_batch(&[], &mut scratch, &mut batch);
        assert_eq!(batch.len(), infos.len() + 2);
    }

    #[test]
    fn flyover_tags_batch_matches_per_packet_macs() {
        let sv = SecretValue::new([7u8; 16]);
        let base = sample_info();
        // Distinct keys per packet — the multi-key sweep shape.
        let keys: Vec<AuthKey> =
            (0..13).map(|i| sv.derive_key(&ResInfo { res_id: 500 + i, ..base })).collect();
        let inputs: Vec<FlyoverMacInput> = (0..13)
            .map(|i| FlyoverMacInput {
                dst_isd: 1,
                dst_as: 0x20,
                pkt_len: 100 + i,
                res_start_offset: 50,
                millis_ts: i,
                counter: i,
            })
            .collect();
        let mut scratch = Vec::new();
        let mut tags = Vec::new();
        flyover_tags_batch_with(|i| &keys[i], &inputs, &mut scratch, &mut tags);
        assert_eq!(tags.len(), inputs.len());
        for ((key, input), tag) in keys.iter().zip(&inputs).zip(&tags) {
            assert_eq!(key.flyover_mac(input), *tag);
        }
        // Appends without clearing; empty bursts are a no-op.
        flyover_tags_batch_with(|i| &keys[i], &inputs[..1], &mut scratch, &mut tags);
        assert_eq!(tags.len(), 14);
        flyover_tags_batch_with(|i| &keys[i], &[], &mut scratch, &mut tags);
        assert_eq!(tags.len(), 14);
    }

    #[test]
    fn fused_flyover_tags_match_derive_then_mac() {
        let sv = SecretValue::new([11u8; 16]);
        let base = sample_info();
        // More than one stack chunk, with a remainder.
        let infos: Vec<ResInfo> = (0..75).map(|i| ResInfo { res_id: 900 + i, ..base }).collect();
        let inputs: Vec<FlyoverMacInput> = (0..75u32)
            .map(|i| FlyoverMacInput {
                dst_isd: 1,
                dst_as: 0x20 + u64::from(i),
                pkt_len: 100 + i as u16,
                res_start_offset: 50,
                millis_ts: i as u16,
                counter: 3 * i as u16,
            })
            .collect();
        let expected: Vec<Tag> =
            infos.iter().zip(&inputs).map(|(i, m)| sv.derive_key(i).flyover_mac(m)).collect();
        let chains: Vec<[[u8; 16]; 1]> = infos.iter().map(|i| [i.to_kdf_block()]).collect();
        for (chain, (input, want)) in chains.iter().zip(inputs.iter().zip(&expected)) {
            assert_eq!(chained_flyover_tag(sv.cipher(), chain, input), *want);
        }
        for n in [0, 1, 7, 8, 9, 32, 33, 75] {
            let mut tags = vec![[0xAA; TAG_LEN]];
            chained_flyover_tags(sv.cipher(), &chains[..n], &inputs[..n], &mut tags);
            assert_eq!(tags[1..], expected[..n], "burst of {n}");
        }
    }

    #[test]
    #[should_panic(expected = "one MAC input per key chain")]
    fn fused_flyover_tags_check_lengths() {
        let sv = SecretValue::new([1u8; 16]);
        chained_flyover_tags(sv.cipher(), &[[sample_info().to_kdf_block()]], &[], &mut Vec::new());
    }

    #[test]
    fn auth_key_cache_counts_and_derives_once() {
        let sv = SecretValue::new([8u8; 16]);
        let info = sample_info();
        let mut cache: AuthKeyCache = AuthKeyCache::new(64);
        let mut derivations = 0;
        for _ in 0..5 {
            let key = cache.get_or_derive(&info, || {
                derivations += 1;
                sv.derive_key(&info)
            });
            assert_eq!(*key, sv.derive_key(&info));
        }
        assert_eq!(derivations, 1, "schedule expanded once per reservation");
        assert_eq!((cache.hits(), cache.misses()), (4, 1));
        cache.reset_counters();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.hot.index.len(), 1, "entries are kept");
    }

    #[test]
    fn auth_key_cache_evicts_generationally_and_promotes() {
        let sv = SecretValue::new([9u8; 16]);
        let base = sample_info();
        let info = |i: u32| ResInfo { res_id: i, ..base };
        // Capacity 4 → generations of 2.
        let mut cache: AuthKeyCache = AuthKeyCache::new(4);
        for i in 0..2 {
            cache.get_or_derive(&info(i), || sv.derive_key(&info(i)));
        }
        let len = |cache: &AuthKeyCache| cache.hot.index.len() + cache.cold.index.len();
        // Third insert flips generations; 0 and 1 move to cold.
        cache.get_or_derive(&info(2), || sv.derive_key(&info(2)));
        assert_eq!(len(&cache), 3);
        // A cold hit promotes back to hot.
        cache.get_or_derive(&info(0), || unreachable!("cold hit"));
        // Fill until the original cold generation is dropped.
        for i in 3..7 {
            cache.get_or_derive(&info(i), || sv.derive_key(&info(i)));
        }
        assert!(len(&cache) <= 4, "footprint bounded by two generations");
        let misses_before = cache.misses();
        let mut derived = false;
        cache.get_or_derive(&info(1), || {
            derived = true;
            sv.derive_key(&info(1))
        });
        assert!(derived, "aged-out entry misses");
        assert_eq!(cache.misses(), misses_before + 1);
    }

    #[test]
    fn auth_key_cache_grows_with_the_working_set() {
        let key = AuthKey::new([10u8; 16]);
        // Capacity 10 → generations of 5: not a power of two, so doubling
        // alone would overshoot it.
        let mut cache: AuthKeyCache<u32> = AuthKeyCache::new(10);
        assert_eq!((cache.hot.keys.capacity(), cache.hot.index.capacity()), (0, 0));
        for i in 0..3 {
            cache.get_or_derive(&i, || key.clone());
        }
        assert!((3..=4).contains(&cache.hot.keys.capacity()), "{}", cache.hot.keys.capacity());
        for i in 3..5 {
            cache.get_or_derive(&i, || key.clone());
        }
        assert_eq!(cache.hot.keys.capacity(), 5, "a full generation, no more");
        // The flip reserves a generation for the fresh hot tables; the
        // next one reuses the first generation's tables.
        cache.get_or_derive(&5, || key.clone());
        assert_eq!((cache.hot.keys.capacity(), cache.cold.keys.capacity()), (5, 5));
        for i in 6..11 {
            cache.get_or_derive(&i, || key.clone());
        }
        assert_eq!((cache.hot.keys.capacity(), cache.cold.keys.capacity()), (5, 5));
    }

    #[test]
    fn activity_window_inclusive() {
        let info = sample_info();
        let start = u64::from(info.res_start);
        let end = start + u64::from(info.duration);
        assert!(!info.is_active_at(start - 1));
        assert!(info.is_active_at(start));
        assert!(info.is_active_at(end));
        assert!(!info.is_active_at(end + 1));
        // A window that ends past the 32-bit seconds of its start.
        let late = ResInfo { res_start: u32::MAX - 100, ..info };
        assert!(late.is_active_at(u64::from(u32::MAX) + 1));
        assert!(late.is_active_at(u64::from(u32::MAX) + 200));
        assert!(!late.is_active_at(u64::from(u32::MAX) + 201));
    }
}
