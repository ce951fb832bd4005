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
use std::collections::hash_map::Entry;
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

    /// Absolute expiration time (`ResStart + ResDuration`).
    pub fn expiry(&self) -> u32 {
        self.res_start.saturating_add(u32::from(self.duration))
    }

    /// Whether `now` (Unix seconds) falls within `[ResStart, ResExp]`.
    ///
    /// Per Appendix A.7, the clock skew is deliberately *not* applied here to
    /// avoid double-counting traffic across adjacent reservations that share
    /// a ResID.
    pub fn is_active_at(&self, now: u32) -> bool {
        now >= self.res_start && now <= self.expiry()
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

    /// Derives the authentication keys of a whole burst in one AES sweep.
    ///
    /// The PRF inputs are serialized first, then encrypted together via
    /// [`Aes128::encrypt_blocks`] (round-major over the batch), then
    /// key-extended — the per-burst amortization the paper's DPDK router
    /// performs when it derives every `A_i` of a packet burst back to
    /// back. Appends one key per `ResInfo`, in order, to `out`; the
    /// result is element-wise identical to calling
    /// [`derive_key`](SecretValue::derive_key) per reservation.
    ///
    /// `scratch` holds the intermediate KDF blocks so hot loops can reuse
    /// one allocation across bursts (it is cleared on entry).
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
        let full = self.cipher.encrypt(&input.to_block());
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&full[..TAG_LEN]);
        tag
    }
}

/// Computes the flyover tags `V_K` of a whole burst in one multi-block
/// AES pass: `keys[i]` authenticates `inputs[i]`.
///
/// Each packet of a burst carries its own reservation key, so this is a
/// *multi-key* sweep — [`Aes128::encrypt_blocks_per_key`] still keeps
/// 4-8 independent blocks in flight (the per-block keys change which
/// round key each lane loads, not the data-flow shape), which is how the
/// paper's DPDK router amortizes the per-packet tag computation across a
/// burst. Appends one tag per input, in order, to `out`; the result is
/// element-wise identical to calling [`AuthKey::flyover_mac`] per packet.
///
/// `scratch` holds the intermediate MAC-input blocks so hot loops reuse
/// one allocation across bursts (it is cleared on entry).
///
/// # Panics
///
/// If `keys.len() != inputs.len()`.
pub fn flyover_tags_batch(
    keys: &[&AuthKey],
    inputs: &[FlyoverMacInput],
    scratch: &mut Vec<[u8; 16]>,
    out: &mut Vec<Tag>,
) {
    assert_eq!(keys.len(), inputs.len(), "one key per MAC input");
    flyover_tags_batch_with(|i| keys[i], inputs, scratch, out);
}

/// [`flyover_tags_batch`] with the per-packet key resolved through
/// `key_at(i)` instead of a materialized slice, so batch paths that
/// already index their keys (e.g. the router's per-burst dedupe table)
/// compute a whole burst's tags without allocating. `key_at` must be a
/// pure index lookup — it may be called more than once per input (the
/// interleave kernels probe each group's backends first), in ascending
/// order within each group.
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
    out.extend(scratch.iter().map(|full| {
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&full[..TAG_LEN]);
        tag
    }));
}

/// A per-engine cache of expanded [`AuthKey`]s, so a reservation's AES
/// key schedule is computed once per epoch instead of once per packet.
///
/// The border router's per-packet budget (Table 3) charges one AES block
/// for deriving `A_i` *and* a full AES-128 key expansion for extending
/// it — but `ResInfo` is stable for a reservation's whole validity
/// period, so every packet after the first can reuse the expanded
/// schedule. Engines hold one cache each (hence per-shard under the
/// worker-ring runtime: no locking, and a reservation's entry lives
/// exactly where its packets are steered). Keys default to
/// [`ResInfo`]; the baseline engines instantiate the same cache over
/// their own key-hierarchy identifiers.
///
/// Replacement is generational (segmented LRU): entries insert into a
/// *hot* generation; when the hot generation fills, it becomes the
/// *cold* one and the previous cold generation is dropped. A hit in
/// cold promotes back to hot. This keeps lookups O(1), bounds the
/// footprint to two generations, and ages out expired reservations
/// without a sweeper. Hit/miss counters are exposed for
/// `DatapathStats`-style reporting.
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
    hot: HashMap<K, AuthKey>,
    cold: HashMap<K, AuthKey>,
    /// Entries per generation (total footprint ≤ 2×).
    generation_capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone> AuthKeyCache<K> {
    /// Creates a cache holding at most ~`capacity` expanded keys
    /// (internally two generations of `capacity / 2`, minimum 1).
    pub fn new(capacity: usize) -> Self {
        let generation_capacity = (capacity / 2).max(1);
        AuthKeyCache {
            hot: HashMap::with_capacity(generation_capacity),
            cold: HashMap::new(),
            generation_capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up, counting a hit or miss; a hit in the cold
    /// generation promotes the entry back to hot.
    pub fn lookup(&mut self, key: &K) -> Option<&AuthKey> {
        if !self.hot.contains_key(key) {
            match self.cold.remove(key) {
                Some(v) => {
                    self.hits += 1;
                    self.promote(key.clone(), v);
                }
                None => {
                    self.misses += 1;
                    return None;
                }
            }
        } else {
            self.hits += 1;
        }
        self.hot.get(key)
    }

    /// Inserts an expanded key (no counter change — pair with a failed
    /// [`lookup`](AuthKeyCache::lookup)).
    pub fn insert(&mut self, key: K, value: AuthKey) {
        self.promote(key, value);
    }

    /// The cached key for `key`, deriving (and caching) it on a miss.
    ///
    /// (Two map probes on the hot-generation fast path — `contains_key`
    /// then `get` — rather than delegating to [`lookup`] and probing a
    /// third time; the split sidesteps the NLL limitation on returning
    /// a borrow out of one arm while mutating in the other.)
    ///
    /// [`lookup`]: AuthKeyCache::lookup
    pub fn get_or_derive(&mut self, key: &K, derive: impl FnOnce() -> AuthKey) -> &AuthKey {
        if self.hot.contains_key(key) {
            self.hits += 1;
        } else {
            match self.cold.remove(key) {
                Some(value) => {
                    self.hits += 1;
                    self.promote(key.clone(), value);
                }
                None => {
                    self.misses += 1;
                    let value = derive();
                    self.promote(key.clone(), value);
                }
            }
        }
        self.hot.get(key).expect("resident after count/promote")
    }

    /// Records a hit that bypassed [`lookup`](AuthKeyCache::lookup) —
    /// used by batch paths that dedupe repeated keys within one burst
    /// (the repeat *would* have hit had the packets been processed
    /// sequentially, so counters stay comparable across paths).
    ///
    /// Counter semantics under batching: a batch path performs all of a
    /// burst's lookups against the cache state at burst start and
    /// inserts afterwards, while sequential processing interleaves
    /// inserts between lookups. The counts therefore match exactly
    /// unless a generation boundary falls *inside* the burst — a
    /// sequential mid-burst insert that flips generations can evict a
    /// key (turning a later lookup into a miss) or, conversely, a
    /// cold-resident key can survive one lookup longer under the batch
    /// order. With the default capacity a flip occurs once per
    /// thousands of distinct reservations, so the counters are exact in
    /// steady state and off by at most the burst's repeats around a
    /// flip. Counters are diagnostics; derivation is deterministic, so
    /// verdicts never depend on them.
    pub fn record_burst_hit(&mut self) {
        self.hits += 1;
    }

    fn promote(&mut self, key: K, value: AuthKey) {
        if self.hot.len() >= self.generation_capacity && !self.hot.contains_key(&key) {
            self.cold = std::mem::take(&mut self.hot);
            self.hot.reserve(self.generation_capacity);
        }
        self.hot.insert(key, value);
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

    /// Number of currently cached keys (both generations).
    pub fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// Whether the cache holds no keys.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty() && self.cold.is_empty()
    }
}

/// Per-burst key dedupe + cache resolution shared by every batched
/// engine: the scaffolding that used to be copied between
/// `BorderRouter::process_batch` and `EpicDatapath::process_batch`
/// (burst-local uniq map, the [`AuthKeyCache::record_burst_hit`]
/// counter dance, the pass-2 key iterator), generic over the cache key
/// so the counter-parity invariant lives in one place.
///
/// Protocol, per burst:
///
/// 1. [`begin`](BurstKeyResolver::begin) clears the burst-local state;
/// 2. [`visit`](BurstKeyResolver::visit) registers each keyed packet's
///    identity in burst order — the first appearance does exactly one
///    cache lookup (queueing the id for the derive sweep on a miss),
///    repeats count as burst hits;
/// 3. the engine runs its batch derive sweep over
///    [`pending`](BurstKeyResolver::pending) and hands the keys back in
///    the same order via [`fill_pending`](BurstKeyResolver::fill_pending)
///    (which also populates the cache);
/// 4. [`key_of`](BurstKeyResolver::key_of) serves pass 2 / the tag sweep
///    with the resolved key of the `i`-th visited packet.
///
/// The invariant this encodes: processed sequentially, a burst's first
/// packet on an identity would miss (derive + insert) and every repeat
/// would hit — so the batch path performs exactly one lookup and at most
/// one insert per distinct identity, counts repeats via
/// `record_burst_hit`, and hit/miss counters stay comparable across the
/// sequential and batched paths (see `record_burst_hit` for the
/// generation-boundary caveat).
#[derive(Clone, Debug)]
pub struct BurstKeyResolver<K> {
    /// The burst's distinct identities, in first-appearance order.
    uniq_ids: Vec<K>,
    /// Burst-local dedupe map: identity → index into `uniq_ids`.
    uniq_index: HashMap<K, usize>,
    /// One resolved key per entry of `uniq_ids` (`None` until resolved
    /// from the cache or the derive sweep).
    uniq_keys: Vec<Option<AuthKey>>,
    /// The `uniq_keys` slots the derive sweep fills, in miss order.
    pending_slots: Vec<usize>,
    /// Per visited packet: index into `uniq_keys`.
    key_of_pkt: Vec<usize>,
}

impl<K> Default for BurstKeyResolver<K> {
    fn default() -> Self {
        BurstKeyResolver {
            uniq_ids: Vec::new(),
            uniq_index: HashMap::new(),
            uniq_keys: Vec::new(),
            pending_slots: Vec::new(),
            key_of_pkt: Vec::new(),
        }
    }
}

impl<K: Eq + Hash + Clone> BurstKeyResolver<K> {
    /// Creates an empty resolver (reusable across bursts; steady-state
    /// bursts allocate nothing once the vectors reach burst size).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the burst-local state for a new burst.
    pub fn begin(&mut self) {
        self.uniq_ids.clear();
        self.uniq_index.clear();
        self.uniq_keys.clear();
        self.pending_slots.clear();
        self.key_of_pkt.clear();
    }

    /// Registers the identity of the next keyed packet of the burst and
    /// resolves it against `cache`: a repeat within the burst counts as
    /// a cache hit (it *would* have hit sequentially), a first
    /// appearance does one [`AuthKeyCache::lookup`] and on a miss queues
    /// the id for the engine's derive sweep.
    pub fn visit(&mut self, id: K, cache: Option<&mut AuthKeyCache<K>>) {
        let slot = match self.uniq_index.entry(id) {
            Entry::Occupied(e) => {
                if let Some(cache) = cache {
                    cache.record_burst_hit();
                }
                *e.get()
            }
            Entry::Vacant(e) => {
                let slot = self.uniq_ids.len();
                let id = e.key().clone();
                e.insert(slot);
                self.uniq_ids.push(id);
                self.uniq_keys.push(cache.and_then(|c| c.lookup(&self.uniq_ids[slot]).cloned()));
                if self.uniq_keys[slot].is_none() {
                    self.pending_slots.push(slot);
                }
                slot
            }
        };
        self.key_of_pkt.push(slot);
    }

    /// The identities that missed the cache, in miss order — the input
    /// of the engine's batch derive sweep.
    pub fn pending(&self) -> impl Iterator<Item = &K> + '_ {
        self.pending_slots.iter().map(|&slot| &self.uniq_ids[slot])
    }

    /// Installs the derive sweep's keys — one per
    /// [`pending`](BurstKeyResolver::pending) identity, same order —
    /// inserting each into `cache` (miss already counted by
    /// [`visit`](BurstKeyResolver::visit)).
    ///
    /// # Panics
    ///
    /// If `keys` yields fewer keys than there were pending identities —
    /// an engine bug the later [`key_of`](BurstKeyResolver::key_of)
    /// would otherwise surface confusingly.
    pub fn fill_pending(
        &mut self,
        keys: impl IntoIterator<Item = AuthKey>,
        mut cache: Option<&mut AuthKeyCache<K>>,
    ) {
        let mut keys = keys.into_iter();
        for &slot in &self.pending_slots {
            let key = keys.next().expect("one derived key per pending identity");
            if let Some(cache) = cache.as_deref_mut() {
                cache.insert(self.uniq_ids[slot].clone(), key.clone());
            }
            self.uniq_keys[slot] = Some(key);
        }
        self.pending_slots.clear();
    }

    /// The distinct identities of the burst, in first-appearance order
    /// (e.g. for deduplicated policer pre-touching).
    pub fn uniq_ids(&self) -> &[K] {
        &self.uniq_ids
    }

    /// The resolved key of the `i`-th visited packet.
    ///
    /// # Panics
    ///
    /// If the key is still unresolved (the engine skipped
    /// [`fill_pending`](BurstKeyResolver::fill_pending)).
    pub fn key_of(&self, i: usize) -> &AuthKey {
        self.uniq_keys[self.key_of_pkt[i]].as_ref().expect("every burst key resolved")
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
        let refs: Vec<&AuthKey> = keys.iter().collect();
        let mut scratch = Vec::new();
        let mut tags = Vec::new();
        flyover_tags_batch(&refs, &inputs, &mut scratch, &mut tags);
        assert_eq!(tags.len(), inputs.len());
        for ((key, input), tag) in refs.iter().zip(&inputs).zip(&tags) {
            assert_eq!(key.flyover_mac(input), *tag);
        }
        // Appends without clearing; empty bursts are a no-op.
        flyover_tags_batch(&refs[..1], &inputs[..1], &mut scratch, &mut tags);
        assert_eq!(tags.len(), 14);
        flyover_tags_batch(&[], &[], &mut scratch, &mut tags);
        assert_eq!(tags.len(), 14);
    }

    #[test]
    #[should_panic(expected = "one key per MAC input")]
    fn flyover_tags_batch_checks_lengths() {
        let key = AuthKey::new([1u8; 16]);
        flyover_tags_batch(&[&key], &[], &mut Vec::new(), &mut Vec::new());
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
        cache.record_burst_hit();
        assert_eq!(cache.hits(), 5);
        cache.reset_counters();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
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
        // Third insert flips generations; 0 and 1 move to cold.
        cache.get_or_derive(&info(2), || sv.derive_key(&info(2)));
        assert_eq!(cache.len(), 3);
        // A cold hit promotes back to hot.
        assert!(cache.lookup(&info(0)).is_some());
        // Fill until the original cold generation is dropped.
        for i in 3..7 {
            cache.get_or_derive(&info(i), || sv.derive_key(&info(i)));
        }
        assert!(cache.len() <= 4, "footprint bounded by two generations");
        let misses_before = cache.misses();
        assert!(cache.lookup(&info(1)).is_none(), "aged-out entry misses");
        assert_eq!(cache.misses(), misses_before + 1);
    }

    #[test]
    fn activity_window_inclusive() {
        let info = sample_info();
        assert!(!info.is_active_at(info.res_start - 1));
        assert!(info.is_active_at(info.res_start));
        assert!(info.is_active_at(info.expiry()));
        assert!(!info.is_active_at(info.expiry() + 1));
    }
}
