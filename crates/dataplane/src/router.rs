//! The border-router packet pipeline (paper §4.3, Fig. 13, Algorithms 2-4).
//!
//! Processing operates in place on raw packet bytes, exactly like the DPDK
//! implementation the paper evaluates: parse the fixed headers, locate the
//! current hop field, recompute MACs, police, and mutate the header
//! (SegID chaining, CurrHF advance, AggMAC → HopFieldMAC replacement)
//! before forwarding. No allocation on the hot path.
//!
//! The router is driven through the [`Datapath`] trait; its pipeline is
//! the explicit, individually testable [`stages`] that [`BorderRouter`]
//! runs in two passes (read-only, then stateful) around the burst's AES.
//!
//! Every engine family of the comparison is this one pipeline:
//! [`BorderRouter<F>`](BorderRouter) is generic over a small [`Family`]
//! trait that supplies the packet's key chain and its root, the freshness
//! rule and priority eligibility, and whether the duplicate filter runs.
//! [`BorderRouter`] with the default parameter is the Hummingbird router
//! ([`Hummingbird`]); the Helia, DRKey and EPIC baselines of
//! `hummingbird-baselines` are its other instances. No family keeps key
//! state: every flyover packet's key is derived through its chain, each
//! schedule computed as it is applied, and the packet tagged in one fused
//! AES pass ([`chained_flyover_tags`]), so a forged packet leaves nothing
//! behind.

use crate::datapath::{Datapath, DatapathStats, PacketBuf};
use crate::dup::DuplicateSuppressor;
use crate::policing::{FwdClass, Policer, DEFAULT_BURST_TIME_NS};
use hummingbird_crypto::aes::Aes128;
use hummingbird_crypto::{
    aggregate_mac, chained_flyover_tag, chained_flyover_tags, FlyoverMacInput, SecretValue, Tag,
};
use hummingbird_wire::scion_mac::{HopMacInput, HopMacKey};
use stages::{FlyoverInputs, HopKind, Parsed};

pub use crate::datapath::{DropReason, Verdict};

/// Router configuration.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Maximum packet age Δ, milliseconds.
    pub max_packet_age_ms: u64,
    /// Maximum clock skew δ, milliseconds (paper: e.g. 500 ms).
    pub max_clock_skew_ms: u64,
    /// Policing array bound (ResIDmax; paper evaluation: 10⁵). ResIDs at
    /// or above it are policed as best effort. The array is resident only
    /// up to the highest ResID seen so far, so 8 B × this value (800 kB at
    /// the default) is a ceiling, not what a new router allocates.
    pub policer_slots: u32,
    /// Burst budget, nanoseconds.
    pub burst_time_ns: u64,
    /// Enable the optional duplicate suppression stage.
    pub duplicate_suppression: bool,
    /// Capacity of an `AuthKeyCache` sized for this router (default
    /// 8 192). **No engine reads it**: every family derives its keys on
    /// the fly and keeps no key state. It remains for the benchmark's
    /// replayed key-cache row.
    pub auth_key_cache_slots: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_packet_age_ms: 1_000,
            max_clock_skew_ms: 500,
            policer_slots: 100_000,
            burst_time_ns: DEFAULT_BURST_TIME_NS,
            duplicate_suppression: false,
            auth_key_cache_slots: 8_192,
        }
    }
}

pub mod stages {
    //! The border-router pipeline as explicit, individually testable
    //! stages — the decomposition [`crate::BorderRouter`] runs, with the
    //! parameters of its [`crate::RouterConfig`]:
    //!
    //! 1. [`parse`] — structural validation, header extraction, hop-field
    //!    location (Algorithm 2 prologue): each header decoded once, by
    //!    its one `hummingbird_wire` decoder, from a fixed-size array at
    //!    its offset;
    //! 2. [`flyover_inputs`] + [`candidate_hop_mac`] — flyover MAC
    //!    re-derivation (Algorithm 3); the authentication key is a
    //!    parameter, and the pipeline derives it through its family's key
    //!    chain ([`super::Family`]);
    //! 3. [`freshness`] — the `now − absTS ∈ [−δ, Δ+δ]` and
    //!    reservation-activity checks (Algorithm 3 lines 12-17), which
    //!    each family's rule builds on;
    //! 4. [`verify_hop_mac`] — hop-field expiry and SCION MAC
    //!    verification (Algorithm 4);
    //! 5. `duplicate_check` — the optional §5.4 stage;
    //! 6. [`advance`] — in-place header mutation: SegID chaining, AggMAC
    //!    replacement, CurrHF/CurrINF advance (App. A.7), written at the
    //!    offsets [`parse`] recorded;
    //! 7. policing via [`crate::policing::Policer::check`] (Algorithm 1).
    //!
    //! [`Parsed`] is the only record of a packet's headers the later
    //! stages read; none of them decodes a header again. The pipeline
    //! ([`super::BorderRouter`]) runs stages 1-3 in its read-only pass 1
    //! and stages 4-7 in its stateful pass 2, with the burst's AES in
    //! between.

    use super::{DatapathStats, DropReason, RouterConfig};
    use crate::dup::{DuplicateSuppressor, Seen};
    use hummingbird_crypto::{aggregate_mac, AuthKey, FlyoverMacInput, ResInfo, Tag};
    use hummingbird_wire::common::{AddressHeader, CommonHeader};
    use hummingbird_wire::hopfield::{
        peek_flyover_bit, FlyoverHopField, HopField, InfoField, INFO_FIELD_LEN,
    };
    use hummingbird_wire::meta::{PathMetaHdr, FLYOVER_UNITS, HF_UNITS};
    use hummingbird_wire::scion_mac::{update_seg_id, HopMacInput, HopMacKey};
    use hummingbird_wire::view::{decode_prefix, PATH_OFFSET, PREFIX_LEN};

    /// The current hop field, either kind.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum HopKind {
        /// A plain SCION hop field.
        Plain(HopField),
        /// A Hummingbird flyover hop field.
        Flyover(FlyoverHopField),
    }

    impl HopKind {
        /// Expiry byte of either kind.
        pub fn exp_time(&self) -> u8 {
            match self {
                HopKind::Plain(h) => h.exp_time,
                HopKind::Flyover(f) => f.exp_time,
            }
        }

        /// Construction-direction ingress interface.
        pub fn cons_ingress(&self) -> u16 {
            match self {
                HopKind::Plain(h) => h.cons_ingress,
                HopKind::Flyover(f) => f.cons_ingress,
            }
        }

        /// Construction-direction egress interface.
        pub fn cons_egress(&self) -> u16 {
            match self {
                HopKind::Plain(h) => h.cons_egress,
                HopKind::Flyover(f) => f.cons_egress,
            }
        }
    }

    /// Everything stage 1 learns about a packet: the three fixed headers,
    /// the current info field and hop field, and the byte offsets
    /// [`advance`] writes at. In a `Parsed` from [`parse`], both fields
    /// end inside the declared header (`4·HdrLen` bytes), so
    /// `meta.curr_hf` is at most 236.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Parsed {
        /// Common header.
        pub common: CommonHeader,
        /// Address header.
        pub addr: AddressHeader,
        /// Path meta header.
        pub meta: PathMetaHdr,
        /// Info field governing the current hop.
        pub info: InfoField,
        /// Byte offset of that info field.
        pub info_off: usize,
        /// Byte offset of the current hop field.
        pub hop_off: usize,
        /// The current hop field.
        pub hop: HopKind,
    }

    impl Parsed {
        /// Whether the current hop field is a flyover.
        #[inline]
        pub fn is_flyover(&self) -> bool {
            matches!(self.hop, HopKind::Flyover(_))
        }
    }

    /// Stage 1: structural validation and header extraction.
    ///
    /// Each header is decoded once, from a fixed-size array at its
    /// offset: the 48-byte prefix (common, address and path meta header,
    /// [`decode_prefix`]) from one `first_chunk`, then the current info
    /// field and hop field from two checked slices of the declared header.
    /// Both fields must end inside that header (`4·HdrLen` bytes), which
    /// bounds CurrHF at 236, so [`advance`] cannot overflow it. A fully
    /// consumed path is `PathConsumed`; every other failure is
    /// `Malformed`.
    pub fn parse(pkt: &[u8]) -> Result<Parsed, DropReason> {
        let Some(Ok((common, addr, meta))) = pkt.first_chunk().map(decode_prefix) else {
            return Err(DropReason::Malformed);
        };
        let Some(hdr) = pkt.get(..4 * usize::from(common.hdr_len)) else {
            return Err(DropReason::Malformed);
        };
        if u16::from(meta.curr_hf) >= meta.total_hf_units() {
            return Err(DropReason::PathConsumed);
        }
        let Ok((seg_idx, _)) = meta.segment_of_curr_hf() else {
            return Err(DropReason::Malformed);
        };
        // The declared segment layout may lie about the header length —
        // take both fields with checked slices (found by the router fuzz
        // tests).
        let info_off = PREFIX_LEN + INFO_FIELD_LEN * seg_idx;
        let Some(info) = hdr.get(info_off..).and_then(<[u8]>::first_chunk) else {
            return Err(DropReason::Malformed);
        };
        let hop_off = PATH_OFFSET + meta.hop_field_offset();
        let Some(hop_bytes) = hdr.get(hop_off..) else {
            return Err(DropReason::Malformed);
        };
        let hop = if peek_flyover_bit(hop_bytes) == Ok(true) {
            hop_bytes.first_chunk().map(|b| FlyoverHopField::decode(b).map(HopKind::Flyover))
        } else {
            hop_bytes.first_chunk().map(|b| HopField::decode(b).map(HopKind::Plain))
        };
        let Some(Ok(hop)) = hop else {
            return Err(DropReason::Malformed);
        };
        Ok(Parsed { common, addr, meta, info: InfoField::decode(info), info_off, hop_off, hop })
    }

    /// The key-independent inputs of the flyover MAC (stage 2).
    #[derive(Clone, Copy, Debug)]
    pub struct FlyoverInputs {
        /// Reconstructed reservation parameters (Algorithm 3 line 2).
        pub res_info: ResInfo,
        /// The per-packet MAC input (Eq. 3 / 7a-7d).
        pub mac_input: FlyoverMacInput,
        /// Authenticated packet length.
        pub pkt_len: u16,
        /// The packet's aggregate MAC field.
        pub agg_mac: Tag,
    }

    /// Stage 2a: reconstructs the reservation and MAC inputs of a flyover
    /// hop field. Key derivation is left to the caller — Hummingbird
    /// derives `A_i = PRF_SV(ResInfo)`, the baseline families their own
    /// DRKey chains over the same inputs.
    #[inline]
    pub fn flyover_inputs(parsed: &Parsed) -> Result<FlyoverInputs, DropReason> {
        let HopKind::Flyover(fly) = parsed.hop else {
            return Err(DropReason::Malformed);
        };
        // ResStart ← BaseTimestamp − ResStartOffset (Algo 3 line 2).
        let res_start = parsed.meta.base_ts.wrapping_sub(u32::from(fly.res_start_offset));
        let res_info = ResInfo {
            ingress: fly.cons_ingress,
            egress: fly.cons_egress,
            res_id: fly.res_id,
            bw_encoded: fly.bw,
            res_start,
            duration: fly.res_duration,
        };
        // PktLen with overflow check (Eq. 7d).
        let Ok(pkt_len) = parsed.common.pkt_len() else {
            return Err(DropReason::PktLenOverflow);
        };
        let mac_input = FlyoverMacInput {
            dst_isd: parsed.addr.dst.isd,
            dst_as: parsed.addr.dst.asn,
            pkt_len,
            res_start_offset: fly.res_start_offset,
            millis_ts: parsed.meta.millis_ts,
            counter: parsed.meta.counter,
        };
        Ok(FlyoverInputs { res_info, mac_input, pkt_len, agg_mac: fly.agg_mac })
    }

    /// Stage 2b: the candidate hop-field MAC of a flyover packet
    /// (Algorithm 3 line 11): `AggMAC ⊕ MAC_{A_i}(...)`.
    pub fn candidate_hop_mac(auth_key: &AuthKey, inputs: &FlyoverInputs) -> Tag {
        let flyover_mac = auth_key.flyover_mac(&inputs.mac_input);
        aggregate_mac(&flyover_mac, &inputs.agg_mac)
    }

    /// Stage 3: freshness and reservation-activity (Algorithm 3 lines
    /// 12-17): the packet is eligible for priority iff
    /// `now − absTS ∈ [−δ, Δ+δ]` and the reservation is active (no skew on
    /// activity, App. A.7).
    #[inline]
    pub fn freshness(cfg: &RouterConfig, parsed: &Parsed, res_info: &ResInfo, now_ms: u64) -> bool {
        let abs_ts_ms = parsed.meta.abs_ts_millis();
        let delta = cfg.max_packet_age_ms;
        let skew = cfg.max_clock_skew_ms;
        let timely = now_ms + skew >= abs_ts_ms && abs_ts_ms + delta + skew >= now_ms;
        let active = res_info.is_active_at(now_ms / 1000);
        timely && active
    }

    /// The input of the current hop field's SCION MAC (Algorithm 4).
    #[inline]
    pub(crate) fn hop_mac_input(parsed: &Parsed) -> HopMacInput {
        HopMacInput {
            seg_id: parsed.info.seg_id,
            timestamp: parsed.info.timestamp,
            exp_time: parsed.hop.exp_time(),
            cons_ingress: parsed.hop.cons_ingress(),
            cons_egress: parsed.hop.cons_egress(),
        }
    }

    /// Stage 4: hop-field expiry and SCION MAC verification (Algorithm 4).
    /// On success returns the recomputed hop-field MAC (needed by
    /// [`advance`] for SegID chaining and AggMAC replacement).
    pub fn verify_hop_mac(
        hop_key: &HopMacKey,
        parsed: &Parsed,
        candidate_mac: &Tag,
        now_s: u64,
    ) -> Result<Tag, DropReason> {
        check_hop_mac(parsed, candidate_mac, &hop_key.hop_mac(&hop_mac_input(parsed)), now_s)
    }

    /// Stage 4 with the hop-field MAC already computed: expiry, then the
    /// comparison with the candidate.
    pub(super) fn check_hop_mac(
        parsed: &Parsed,
        candidate_mac: &Tag,
        hop_mac: &Tag,
        now_s: u64,
    ) -> Result<Tag, DropReason> {
        let expiry = crate::beacon::hop_field_expiry(parsed.info.timestamp, parsed.hop.exp_time());
        if now_s >= expiry {
            return Err(DropReason::ExpiredHopField);
        }
        if hop_mac != candidate_mac {
            return Err(DropReason::BadMac);
        }
        Ok(*hop_mac)
    }

    /// Stage 5 (optional, §5.4): duplicate suppression. Runs *after*
    /// authentication so attackers cannot poison the filter with
    /// unauthenticated junk. A packet the filter has no room to record
    /// passes, counted in [`DatapathStats::dup_unrecorded`].
    pub(crate) fn duplicate_check(
        dup: &mut DuplicateSuppressor,
        parsed: &Parsed,
        now_ns: u64,
        stats: &mut DatapathStats,
    ) -> Result<(), DropReason> {
        let id = (parsed.meta.base_ts, parsed.meta.millis_ts, parsed.meta.counter, parsed.addr.src);
        match dup.check_and_insert(id, now_ns) {
            Seen::Duplicate => return Err(DropReason::Duplicate),
            Seen::Unrecorded => stats.dup_unrecorded += 1,
            Seen::Fresh => {}
        }
        Ok(())
    }

    /// Stage 6: in-place header mutation — SegID chaining, AggMAC →
    /// HopFieldMAC replacement for path reversal (App. A.7), and the
    /// CurrHF/CurrINF advance. Writes exactly those fields at the offsets
    /// [`parse`] recorded: the info field's SegID, a flyover's MAC and
    /// the meta header's first word. Nothing `parse` validated is checked
    /// again.
    ///
    /// A CurrHF that would overflow (impossible after [`parse`]) or a
    /// buffer shorter than the offsets recorded in `parsed` (possible only
    /// if the two come from different buffers) is `Malformed`, never a
    /// panic.
    pub fn advance(pkt: &mut [u8], parsed: &Parsed, computed: &Tag) -> Result<(), DropReason> {
        let hop_units = if parsed.is_flyover() { FLYOVER_UNITS } else { HF_UNITS };
        let mut next = parsed.meta;
        next.curr_hf = parsed.meta.curr_hf.checked_add(hop_units).ok_or(DropReason::Malformed)?;
        if u16::from(next.curr_hf) < next.total_hf_units() {
            if let Ok((seg, _)) = next.segment_of_curr_hf() {
                next.curr_inf = seg as u8;
            }
        }
        let new_seg_id = update_seg_id(parsed.info.seg_id, computed);
        write_at(pkt, parsed.info_off + 2, &new_seg_id.to_be_bytes())?;
        if parsed.is_flyover() {
            write_at(pkt, parsed.hop_off + 6, computed)?;
        }
        write_at(pkt, PATH_OFFSET, &next.first_word().to_be_bytes())
    }

    /// Copies `bytes` into `pkt` at `at`; `Malformed` if they do not fit.
    fn write_at(pkt: &mut [u8], at: usize, bytes: &[u8]) -> Result<(), DropReason> {
        pkt.get_mut(at..at + bytes.len()).ok_or(DropReason::Malformed)?.copy_from_slice(bytes);
        Ok(())
    }
}

/// The forwarding class a flyover hop is eligible for: its family's
/// freshness rule and priority eligibility, decided in pass 1, before
/// any AES runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Forwarded with priority if the policer admits it (Algorithm 1),
    /// else demoted for overuse.
    Priority,
    /// Stale, or outside its reservation or slot: forwarded best effort
    /// and counted in [`DatapathStats::demoted_untimely`].
    Demoted,
    /// The family has no priority class (nor does a plain hop):
    /// forwarded best effort, no demotion counted.
    BestEffort,
}

/// What one engine family's border router does differently from
/// another's; everything else is the one pipeline of [`BorderRouter`].
///
/// | family | key chain (k) | freshness | priority | duplicate filter |
/// |---|---|---|---|---|
/// | [`Hummingbird`] | SV → `A_K` (1) | stale: demote | policed | from `cfg` |
/// | Helia | master → slot's epoch secret → `K_{A→B}` → slot key → packet key (4) | stale or not the current slot: demote | policed | never |
/// | DRKey | epoch secret → `K_{A→B}` → `K_{A→B:H}` (2) | none | none | never |
/// | EPIC | DRKey's chain → `K^{epic}` (3) | stale: drop `Untimely` before any AES | none | from `cfg` |
///
/// Only the priority class is policed, so the families that have one
/// police and the others never reach the policer.
pub trait Family {
    /// The engine name ([`Datapath::engine_name`]).
    const NAME: &'static str;
    /// Whether the duplicate filter runs when
    /// [`RouterConfig::duplicate_suppression`] asks for it.
    const DUPLICATE_FILTER: bool;
    /// The inputs of a flyover packet's key chain, one AES block per
    /// level, first level first (typically `[[u8; 16]; k]`).
    type Chain: AsRef<[[u8; 16]]>;
    /// The key chain of a flyover hop, from the packet's headers.
    fn key_chain(&self, parsed: &Parsed, inputs: &FlyoverInputs) -> Self::Chain;
    /// The pre-expanded cipher every chain starts under at `now_s` (Unix
    /// seconds): the AS's own secret, which no packet chooses.
    fn root(&mut self, now_s: u64) -> &Aes128;
    /// The freshness rule and priority eligibility of a flyover hop at
    /// `now_ms`: its [`Class`], or the drop it earns before any AES.
    fn class(
        &self,
        cfg: &RouterConfig,
        parsed: &Parsed,
        inputs: &FlyoverInputs,
        now_ms: u64,
    ) -> Result<Class, DropReason>;
}

/// The Hummingbird family: `A_K = PRF_SV(ResInfo)` (Eq. 2) under the
/// AS's secret value, a one-level chain; a stale packet or an inactive
/// reservation is demoted to best effort (Algorithm 3 lines 12-17).
pub struct Hummingbird {
    sv: SecretValue,
}

impl Family for Hummingbird {
    const NAME: &'static str = "hummingbird";
    const DUPLICATE_FILTER: bool = true;
    type Chain = [[u8; 16]; 1];

    #[inline]
    fn key_chain(&self, _parsed: &Parsed, inputs: &FlyoverInputs) -> Self::Chain {
        [inputs.res_info.to_kdf_block()]
    }

    #[inline]
    fn root(&mut self, _now_s: u64) -> &Aes128 {
        self.sv.cipher()
    }

    #[inline]
    fn class(
        &self,
        cfg: &RouterConfig,
        parsed: &Parsed,
        inputs: &FlyoverInputs,
        now_ms: u64,
    ) -> Result<Class, DropReason> {
        let fresh = stages::freshness(cfg, parsed, &inputs.res_info, now_ms);
        Ok(if fresh { Class::Priority } else { Class::Demoted })
    }
}

/// Reusable per-burst scratch of [`BorderRouter::process_batch`], so
/// steady-state bursts allocate nothing once the vectors reach burst
/// size.
struct BatchScratch<C> {
    /// Per-packet outcome of pass 1, and per parsed packet its class
    /// (kept apart: a wider element costs pass 1 more than a second
    /// vector does). A flyover's [`stages::FlyoverInputs`] are rebuilt
    /// from its `Parsed` in pass 2, which costs less than carrying them
    /// through the burst.
    prepared: Vec<Result<Parsed, DropReason>>,
    classes: Vec<Class>,
    /// Per flyover packet: its key chain and MAC input, the fused
    /// kernel's input.
    chains: Vec<C>,
    mac_inputs: Vec<FlyoverMacInput>,
    /// Flyover tags out of the fused kernel, in flyover-packet order.
    tags: Vec<Tag>,
    /// Per parsed packet: its hop-field MAC input, and the MAC out of
    /// the burst's single-key pass.
    hop_inputs: Vec<HopMacInput>,
    hop_macs: Vec<Tag>,
}

impl<C> Default for BatchScratch<C> {
    fn default() -> Self {
        BatchScratch {
            prepared: Vec::new(),
            classes: Vec::new(),
            chains: Vec::new(),
            mac_inputs: Vec::new(),
            tags: Vec::new(),
            hop_inputs: Vec::new(),
            hop_macs: Vec::new(),
        }
    }
}

/// What pass 2 reads and writes per packet.
struct RouterState {
    cfg: RouterConfig,
    policer: Policer,
    dup: Option<DuplicateSuppressor>,
    stats: DatapathStats,
}

impl RouterState {
    /// Pass 2 of one prepared packet whose flyover tag (if it is a
    /// flyover) and hop-field MAC are computed: the candidate MAC (stage
    /// 2b), hop-field verification, which only compares (stage 4), the
    /// optional duplicate filter (stage 5), header mutation (stage 6)
    /// and, for the priority class, policing (stage 7), with the
    /// demotions counted.
    fn complete(
        &mut self,
        pkt: &mut [u8],
        now_ns: u64,
        (parsed, class): (&Parsed, Class),
        tag: Option<Tag>,
        hop_mac: &Tag,
    ) -> Result<Verdict, DropReason> {
        // Pass 1 built these inputs once, so this cannot fail for a
        // flyover; a flyover hop without its tag fails closed.
        let flyover = match tag {
            Some(tag) => Some((stages::flyover_inputs(parsed)?, tag)),
            None => None,
        };
        let candidate = match (parsed.hop, &flyover) {
            (_, Some((inputs, tag))) => aggregate_mac(tag, &inputs.agg_mac),
            (HopKind::Plain(hf), None) => hf.mac,
            (HopKind::Flyover(_), None) => {
                debug_assert!(false, "flyover hop completed without its tag");
                return Err(DropReason::Malformed);
            }
        };
        let computed = stages::check_hop_mac(parsed, &candidate, hop_mac, now_ns / 1_000_000_000)?;
        if let Some(dup) = &mut self.dup {
            stages::duplicate_check(dup, parsed, now_ns, &mut self.stats)?;
        }
        stages::advance(pkt, parsed, &computed)?;
        let egress = parsed.hop.cons_egress();
        Ok(match (class, flyover) {
            (Class::Priority, Some((inputs, _))) => {
                let bw_kbps = hummingbird_wire::bwcls::decode(inputs.res_info.bw_encoded);
                let res_id = inputs.res_info.res_id;
                if self.policer.check(res_id, bw_kbps, inputs.pkt_len, now_ns) == FwdClass::Flyover
                {
                    Verdict::Flyover { egress }
                } else {
                    self.stats.demoted_overuse += 1;
                    Verdict::BestEffort { egress }
                }
            }
            (Class::Demoted, _) => {
                self.stats.demoted_untimely += 1;
                Verdict::BestEffort { egress }
            }
            _ => Verdict::BestEffort { egress },
        })
    }
}

/// A border router of one AS, of engine family `F` — by default the
/// Hummingbird router.
///
/// Constructed with [`BorderRouter::new`] or [`BorderRouter::with_family`]
/// from a [`RouterConfig`]; driven through the [`Datapath`] trait. It
/// keeps no key state: every flyover packet's key is derived through
/// `F`'s chain, scheduled on the fly and used in one fused AES pass, so a
/// forged packet leaves nothing behind.
pub struct BorderRouter<F: Family = Hummingbird> {
    family: F,
    hop_key: HopMacKey,
    state: RouterState,
    batch: BatchScratch<F::Chain>,
}

impl BorderRouter {
    /// Creates the Hummingbird router with the AS's data-plane secrets.
    pub fn new(sv: SecretValue, hop_key: HopMacKey, cfg: RouterConfig) -> Self {
        BorderRouter::with_family(Hummingbird { sv }, hop_key, cfg)
    }
}

impl<F: Family> BorderRouter<F> {
    /// Creates a router of `family` with the AS's SCION hop key. The
    /// duplicate filter, if `F` runs one, outlives the freshness window
    /// `Δ + 2δ`.
    pub fn with_family(family: F, hop_key: HopMacKey, cfg: RouterConfig) -> Self {
        let window_ns = (cfg.max_packet_age_ms + 2 * cfg.max_clock_skew_ms) * 1_000_000;
        BorderRouter {
            family,
            hop_key,
            state: RouterState {
                policer: Policer::new(cfg.policer_slots, cfg.burst_time_ns),
                dup: (F::DUPLICATE_FILTER && cfg.duplicate_suppression)
                    .then(|| DuplicateSuppressor::new(window_ns, 1 << 20)),
                cfg,
                stats: DatapathStats::default(),
            },
            batch: BatchScratch::default(),
        }
    }

    /// The router's configuration.
    pub fn config(&self) -> RouterConfig {
        self.state.cfg
    }
}

impl<F: Family> Datapath for BorderRouter<F> {
    /// Algorithm 2 with Algorithms 1, 3, 4 as the explicit [`stages`], on
    /// one packet in the batch path's order: stages 1-3, the flyover tag
    /// out of the single-lane fused kernel and the hop-field MAC, then
    /// pass 2.
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let now_ms = now_ns / 1_000_000;
        let BorderRouter { family, hop_key, state, batch: _ } = self;
        let verdict = stages::parse(pkt)
            .and_then(|parsed| {
                let (class, tag) = if parsed.is_flyover() {
                    let inputs = stages::flyover_inputs(&parsed)?;
                    let class = family.class(&state.cfg, &parsed, &inputs, now_ms)?;
                    let chain = family.key_chain(&parsed, &inputs);
                    let root = family.root(now_ms / 1000);
                    (class, Some(chained_flyover_tag(root, &chain, &inputs.mac_input)))
                } else {
                    (Class::BestEffort, None)
                };
                let hop_mac = hop_key.hop_mac(&stages::hop_mac_input(&parsed));
                state.complete(pkt, now_ns, (&parsed, class), tag, &hop_mac)
            })
            .unwrap_or_else(Verdict::Drop);
        state.stats.record(verdict);
        verdict
    }

    /// The batched Algorithm 2. Pass 1 runs the read-only stages 1-3 over
    /// the whole burst and prefetches the priority packets' policer
    /// slots. The burst's crypto then takes two AES passes: the **fused
    /// kernel** ([`chained_flyover_tags`]) derives every flyover packet's
    /// key through its family's chain, running each schedule round by
    /// round, and tags the packet under the last key, eight packets at a
    /// time; and **one single-key pass** ([`HopMacKey::hop_macs`])
    /// computes every packet's hop-field MAC. Pass 2 runs the stateful
    /// stages (verification, which only compares, duplicate suppression,
    /// header mutation, policing) per packet in input order, so verdicts
    /// and stats are element-wise identical to sequential
    /// [`Datapath::process`] calls (both are checked against the reference
    /// router of every family by `crates/baselines/tests/differential.rs`).
    fn process_batch(&mut self, pkts: &mut [PacketBuf], now_ns: u64, out: &mut Vec<Verdict>) {
        let BorderRouter { family, hop_key, state, batch } = self;
        let BatchScratch { prepared, classes, chains, mac_inputs, tags, hop_inputs, hop_macs } =
            batch;
        prepared.clear();
        classes.clear();
        chains.clear();
        mac_inputs.clear();
        tags.clear();
        hop_inputs.clear();
        hop_macs.clear();
        let now_ms = now_ns / 1_000_000;

        // Pass 1 (read-only): stages 1-3.
        for pkt in pkts.iter() {
            let prep = stages::parse(pkt.as_bytes()).and_then(|parsed| {
                let class = if parsed.is_flyover() {
                    let inputs = stages::flyover_inputs(&parsed)?;
                    let class = family.class(&state.cfg, &parsed, &inputs, now_ms)?;
                    if class == Class::Priority {
                        state.policer.prefetch(inputs.res_info.res_id);
                    }
                    chains.push(family.key_chain(&parsed, &inputs));
                    mac_inputs.push(inputs.mac_input);
                    class
                } else {
                    Class::BestEffort
                };
                classes.push(class);
                hop_inputs.push(stages::hop_mac_input(&parsed));
                Ok(parsed)
            });
            prepared.push(prep);
        }

        chained_flyover_tags(family.root(now_ms / 1000), chains, mac_inputs, tags);
        hop_key.hop_macs(hop_inputs, hop_macs);

        // Pass 2 (stateful, in input order).
        out.reserve(pkts.len());
        let (mut classes, mut tags, mut hop_macs) = (classes.iter(), tags.iter(), hop_macs.iter());
        for (pkt, prep) in pkts.iter_mut().zip(prepared.drain(..)) {
            let verdict = prep
                .and_then(|parsed| {
                    let tag = if parsed.is_flyover() { tags.next().copied() } else { None };
                    // One class and hop MAC per parsed packet; fail closed,
                    // not panic.
                    let class = *classes.next().ok_or(DropReason::Malformed)?;
                    let hop_mac = hop_macs.next().ok_or(DropReason::Malformed)?;
                    state.complete(pkt.bytes_mut(), now_ns, (&parsed, class), tag, hop_mac)
                })
                .unwrap_or_else(Verdict::Drop);
            state.stats.record(verdict);
            out.push(verdict);
        }
    }

    fn engine_name(&self) -> &'static str {
        F::NAME
    }

    fn stats(&self) -> DatapathStats {
        self.state.stats
    }

    fn reset_stats(&mut self) {
        self.state.stats = DatapathStats::default();
    }
}
