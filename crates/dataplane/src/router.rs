//! The border-router packet pipeline (paper §4.3, Fig. 13, Algorithms 2-4).
//!
//! Processing operates in place on raw packet bytes, exactly like the DPDK
//! implementation the paper evaluates: parse the fixed headers, locate the
//! current hop field, recompute MACs, police, and mutate the header
//! (SegID chaining, CurrHF advance, AggMAC → HopFieldMAC replacement)
//! before forwarding. No allocation on the hot path.
//!
//! The router is driven through the [`Datapath`] trait; its pipeline is
//! the explicit, individually testable [`stages`] the
//! [`crate::DatapathBuilder`] documents, which baseline engines reuse
//! with their own key-derivation rules.

use crate::datapath::{Datapath, DatapathBuilder, DatapathStats, PacketBuf};
use crate::dup::DuplicateSuppressor;
use crate::policing::{Policer, DEFAULT_BURST_TIME_NS};
use hummingbird_crypto::{
    flyover_tags_batch_with, AuthKey, AuthKeyCache, BurstKeyResolver, FlyoverMacInput, ResInfo,
    SecretValue, Tag,
};
use hummingbird_wire::scion_mac::HopMacKey;

pub use crate::datapath::{DropReason, Verdict};

/// Former name of [`DatapathStats`], kept for compatibility with
/// pre-`Datapath` call sites.
pub type RouterStats = DatapathStats;

/// Router configuration.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Maximum packet age Δ, milliseconds.
    pub max_packet_age_ms: u64,
    /// Maximum clock skew δ, milliseconds (paper: e.g. 500 ms).
    pub max_clock_skew_ms: u64,
    /// Policing array slots (ResIDmax; paper evaluation: 10⁵).
    pub policer_slots: u32,
    /// Burst budget, nanoseconds.
    pub burst_time_ns: u64,
    /// Enable the optional duplicate suppression stage.
    pub duplicate_suppression: bool,
    /// Capacity of the per-engine authentication-key cache (expanded
    /// `A_i` schedules reused across packets of one reservation);
    /// `0` disables caching and re-derives per packet.
    pub auth_key_cache_slots: u32,
}

/// Default [`RouterConfig::auth_key_cache_slots`]: comfortably above the
/// per-shard live-reservation working set of the evaluation workloads
/// while keeping the footprint (≈230 B per expanded key) under ~2 MB.
pub const DEFAULT_AUTH_KEY_CACHE_SLOTS: u32 = 8_192;

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_packet_age_ms: 1_000,
            max_clock_skew_ms: 500,
            policer_slots: 100_000,
            burst_time_ns: DEFAULT_BURST_TIME_NS,
            duplicate_suppression: false,
            auth_key_cache_slots: DEFAULT_AUTH_KEY_CACHE_SLOTS,
        }
    }
}

pub mod stages {
    //! The border-router pipeline as explicit, individually testable
    //! stages — the decomposition [`crate::DatapathBuilder`] composes:
    //!
    //! 1. [`parse`] — structural validation, header extraction, hop-field
    //!    location (Algorithm 2 prologue);
    //! 2. [`flyover_inputs`] + [`candidate_hop_mac`] — flyover MAC
    //!    re-derivation (Algorithm 3); the authentication key is a
    //!    parameter, so baseline engines (Helia/DRKey) reuse the stage
    //!    with their own key hierarchies;
    //! 3. [`freshness`] — the `now − absTS ∈ [−δ, Δ+δ]` and
    //!    reservation-activity checks (Algorithm 3 lines 12-17);
    //! 4. [`verify_hop_mac`] — hop-field expiry and SCION MAC
    //!    verification (Algorithm 4);
    //! 5. [`duplicate_check`] — the optional §5.4 stage;
    //! 6. [`advance`] — in-place header mutation: SegID chaining, AggMAC
    //!    replacement, CurrHF/CurrINF advance (App. A.7);
    //! 7. policing via [`crate::policing::Policer::check`] (Algorithm 1).

    use super::{DropReason, RouterConfig};
    use crate::dup::DuplicateSuppressor;
    use hummingbird_crypto::{aggregate_mac, AuthKey, FlyoverMacInput, ResInfo, Tag};
    use hummingbird_wire::common::{AddressHeader, CommonHeader, ADDR_HDR_LEN, COMMON_HDR_LEN};
    use hummingbird_wire::hopfield::{
        peek_flyover_bit, FlyoverHopField, HopField, InfoField, FLYOVER_FIELD_LEN, HOP_FIELD_LEN,
        INFO_FIELD_LEN,
    };
    use hummingbird_wire::meta::{PathMetaHdr, FLYOVER_UNITS, HF_UNITS, META_HDR_LEN};
    use hummingbird_wire::scion_mac::{update_seg_id, HopMacInput, HopMacKey};

    /// The current hop field, either kind.
    #[derive(Clone, Copy, Debug)]
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

    /// Everything stage 1 learns about a packet.
    #[derive(Clone, Copy, Debug)]
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
        pub fn is_flyover(&self) -> bool {
            matches!(self.hop, HopKind::Flyover(_))
        }
    }

    /// Stage 1: structural validation and header extraction.
    pub fn parse(pkt: &[u8]) -> Result<Parsed, DropReason> {
        let Ok(common) = CommonHeader::parse(pkt) else {
            return Err(DropReason::Malformed);
        };
        let Ok(addr) = AddressHeader::parse(&pkt[COMMON_HDR_LEN..]) else {
            return Err(DropReason::Malformed);
        };
        let path_start = COMMON_HDR_LEN + ADDR_HDR_LEN;
        let Ok(meta) = PathMetaHdr::parse(&pkt[path_start..]) else {
            return Err(DropReason::Malformed);
        };
        let hdr_len_bytes = 4 * usize::from(common.hdr_len);
        if pkt.len() < hdr_len_bytes {
            return Err(DropReason::Malformed);
        }
        if u16::from(meta.curr_hf) >= meta.total_hf_units() {
            return Err(DropReason::PathConsumed);
        }
        let Ok((seg_idx, _)) = meta.segment_of_curr_hf() else {
            return Err(DropReason::Malformed);
        };
        let info_off = path_start + META_HDR_LEN + INFO_FIELD_LEN * seg_idx;
        // The declared segment layout may lie about the buffer length —
        // index with a checked slice (found by the router fuzz tests).
        let Some(info_bytes) = pkt.get(info_off..) else {
            return Err(DropReason::Malformed);
        };
        let Ok(info) = InfoField::parse(info_bytes) else {
            return Err(DropReason::Malformed);
        };
        let hop_off = path_start
            + META_HDR_LEN
            + INFO_FIELD_LEN * meta.num_inf()
            + 4 * usize::from(meta.curr_hf);
        if pkt.len() < hop_off + HOP_FIELD_LEN {
            return Err(DropReason::Malformed);
        }
        let Ok(is_flyover) = peek_flyover_bit(&pkt[hop_off..]) else {
            return Err(DropReason::Malformed);
        };
        let hop = if is_flyover {
            if pkt.len() < hop_off + FLYOVER_FIELD_LEN {
                return Err(DropReason::Malformed);
            }
            let Ok(fly) = FlyoverHopField::parse(&pkt[hop_off..]) else {
                return Err(DropReason::Malformed);
            };
            HopKind::Flyover(fly)
        } else {
            let Ok(hf) = HopField::parse(&pkt[hop_off..]) else {
                return Err(DropReason::Malformed);
            };
            HopKind::Plain(hf)
        };
        Ok(Parsed { common, addr, meta, info, info_off, hop_off, hop })
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
    /// derives `A_i = PRF_SV(ResInfo)`, the baseline engines substitute
    /// their own hierarchies over the same inputs.
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
    pub fn freshness(cfg: &RouterConfig, parsed: &Parsed, res_info: &ResInfo, now_ms: u64) -> bool {
        let abs_ts_ms = parsed.meta.abs_ts_millis();
        let delta = cfg.max_packet_age_ms;
        let skew = cfg.max_clock_skew_ms;
        let timely = now_ms + skew >= abs_ts_ms && abs_ts_ms + delta + skew >= now_ms;
        let active = res_info.is_active_at((now_ms / 1000) as u32);
        timely && active
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
        let expiry = crate::beacon::hop_field_expiry(parsed.info.timestamp, parsed.hop.exp_time());
        if now_s >= expiry {
            return Err(DropReason::ExpiredHopField);
        }
        let computed = hop_key.hop_mac(&HopMacInput {
            seg_id: parsed.info.seg_id,
            timestamp: parsed.info.timestamp,
            exp_time: parsed.hop.exp_time(),
            cons_ingress: parsed.hop.cons_ingress(),
            cons_egress: parsed.hop.cons_egress(),
        });
        if computed != *candidate_mac {
            return Err(DropReason::BadMac);
        }
        Ok(computed)
    }

    /// Stage 5 (optional, §5.4): duplicate suppression. Runs *after*
    /// authentication so attackers cannot poison the filter with
    /// unauthenticated junk.
    pub fn duplicate_check(
        dup: &mut DuplicateSuppressor,
        parsed: &Parsed,
        now_ns: u64,
    ) -> Result<(), DropReason> {
        let id =
            (parsed.meta.base_ts, parsed.meta.millis_ts, parsed.meta.counter, parsed.addr.src.asn);
        if dup.check_and_insert(id, now_ns) {
            return Err(DropReason::Duplicate);
        }
        Ok(())
    }

    /// Stage 6: in-place header mutation — SegID chaining, AggMAC →
    /// HopFieldMAC replacement for path reversal (App. A.7), and
    /// CurrHF/CurrINF advance.
    ///
    /// Checked like [`parse`]: a buffer shorter than the offsets recorded
    /// in `parsed` (possible only if the two come from different buffers)
    /// is `Malformed`, never a panic.
    pub fn advance(pkt: &mut [u8], parsed: &Parsed, computed: &Tag) -> Result<(), DropReason> {
        let new_seg_id = update_seg_id(parsed.info.seg_id, computed);
        pkt.get_mut(parsed.info_off + 2..parsed.info_off + 4)
            .ok_or(DropReason::Malformed)?
            .copy_from_slice(&new_seg_id.to_be_bytes());
        if parsed.is_flyover() {
            pkt.get_mut(parsed.hop_off + 6..parsed.hop_off + 12)
                .ok_or(DropReason::Malformed)?
                .copy_from_slice(computed);
        }
        let hop_units = if parsed.is_flyover() { FLYOVER_UNITS } else { HF_UNITS };
        let mut new_meta = parsed.meta;
        new_meta.curr_hf = parsed.meta.curr_hf + hop_units;
        if u16::from(new_meta.curr_hf) < new_meta.total_hf_units() {
            if let Ok((seg, _)) = new_meta.segment_of_curr_hf() {
                new_meta.curr_inf = seg as u8;
            }
        }
        let path_start = COMMON_HDR_LEN + ADDR_HDR_LEN;
        let meta_buf = pkt.get_mut(path_start..).ok_or(DropReason::Malformed)?;
        if new_meta.emit(meta_buf).is_err() {
            return Err(DropReason::Malformed);
        }
        Ok(())
    }

    /// Outcome of [`run_pipeline`]: the verdict plus which demotion (if
    /// any) produced it, so each engine keeps its own counters.
    #[derive(Clone, Copy, Debug)]
    pub struct PipelineOutcome {
        /// The forwarding decision.
        pub verdict: super::Verdict,
        /// A policing demotion (Algorithm 1) produced the verdict.
        pub demoted_overuse: bool,
        /// A freshness/eligibility demotion produced the verdict.
        pub demoted_untimely: bool,
    }

    /// Stages 1-2a as one read-only unit: structural parsing plus, for
    /// flyover hops, reconstruction of the key-derivation and MAC inputs.
    ///
    /// This is the half of the pipeline that needs no authentication key,
    /// so batch paths run it over a whole burst first, derive every
    /// burst key in one AES sweep, and then drive [`complete`] per
    /// packet. `Ok((parsed, None))` means a plain SCION hop.
    pub fn prepare(pkt: &[u8]) -> Result<(Parsed, Option<FlyoverInputs>), DropReason> {
        let parsed = parse(pkt)?;
        let inputs = if parsed.is_flyover() { Some(flyover_inputs(&parsed)?) } else { None };
        Ok((parsed, inputs))
    }

    /// Stages 2b-7, given [`prepare`]d state and a pre-derived
    /// authentication key: candidate-MAC aggregation, eligibility,
    /// hop-field verification, optional duplicate suppression, in-place
    /// header mutation, and policing.
    ///
    /// `flyover` pairs the prepared MAC inputs with the hop's
    /// authenticator and must be `Some` exactly when [`prepare`] returned
    /// flyover inputs; `eligible` decides priority-class eligibility
    /// (called with `now_ms`; constant `false` for engines without a
    /// priority class).
    #[allow(clippy::too_many_arguments)] // the pipeline's full stage set
    pub fn complete(
        pkt: &mut [u8],
        now_ns: u64,
        hop_key: &HopMacKey,
        policer: Option<&mut crate::policing::Policer>,
        dup: Option<&mut DuplicateSuppressor>,
        parsed: &Parsed,
        flyover: Option<(&FlyoverInputs, &AuthKey)>,
        eligible: impl FnOnce(&Parsed, &FlyoverInputs, u64) -> bool,
    ) -> PipelineOutcome {
        let tagged = flyover.map(|(inputs, key)| (inputs, key.flyover_mac(&inputs.mac_input)));
        complete_with_tag(pkt, now_ns, hop_key, policer, dup, parsed, tagged, eligible)
    }

    /// [`complete`] with the per-packet flyover MAC already computed —
    /// the entry point of the batched tag sweep, where a burst's `V_K`
    /// tags come out of one multi-block AES pass
    /// (`hummingbird_crypto::flyover_tags_batch`) instead of one
    /// invocation per packet. `flyover` pairs the prepared MAC inputs
    /// with that tag; semantics are otherwise identical to [`complete`].
    #[allow(clippy::too_many_arguments)] // the pipeline's full stage set
    pub fn complete_with_tag(
        pkt: &mut [u8],
        now_ns: u64,
        hop_key: &HopMacKey,
        policer: Option<&mut crate::policing::Policer>,
        dup: Option<&mut DuplicateSuppressor>,
        parsed: &Parsed,
        flyover: Option<(&FlyoverInputs, Tag)>,
        eligible: impl FnOnce(&Parsed, &FlyoverInputs, u64) -> bool,
    ) -> PipelineOutcome {
        use super::Verdict;
        let now_ms = now_ns / 1_000_000;
        let now_s = now_ms / 1000;
        let drop = |r: DropReason| PipelineOutcome {
            verdict: Verdict::Drop(r),
            demoted_overuse: false,
            demoted_untimely: false,
        };

        // Stages 2b-3: flyover MAC aggregation + eligibility.
        let (candidate_mac, priority) = match flyover {
            Some((inputs, flyover_mac)) => {
                let candidate = aggregate_mac(&flyover_mac, &inputs.agg_mac);
                let fresh = eligible(parsed, inputs, now_ms);
                (candidate, fresh.then_some(inputs))
            }
            None => {
                // A flyover hop without its derived key breaks the
                // prepare/complete contract; fail closed rather than
                // panic on packet content.
                let HopKind::Plain(hf) = parsed.hop else {
                    debug_assert!(false, "flyover hop completed without its auth key");
                    return drop(DropReason::Malformed);
                };
                (hf.mac, None)
            }
        };

        // Stage 4: hop-field expiry + SCION MAC verification.
        let computed = match verify_hop_mac(hop_key, parsed, &candidate_mac, now_s) {
            Ok(tag) => tag,
            Err(r) => return drop(r),
        };

        // Stage 5 (optional): duplicate suppression.
        if let Some(dup) = dup {
            if let Err(r) = duplicate_check(dup, parsed, now_ns) {
                return drop(r);
            }
        }

        // Stage 6: in-place header mutation.
        if let Err(r) = advance(pkt, parsed, &computed) {
            return drop(r);
        }

        // Stage 7: bandwidth monitoring (Algorithm 1).
        let egress = parsed.hop.cons_egress();
        match priority {
            Some(inputs) => {
                let admitted = match policer {
                    Some(policer) => {
                        let bw_kbps = hummingbird_wire::bwcls::decode(inputs.res_info.bw_encoded);
                        policer.check(inputs.res_info.res_id, bw_kbps, inputs.pkt_len, now_ns)
                            == crate::policing::FwdClass::Flyover
                    }
                    None => true,
                };
                if admitted {
                    PipelineOutcome {
                        verdict: Verdict::Flyover { egress },
                        demoted_overuse: false,
                        demoted_untimely: false,
                    }
                } else {
                    PipelineOutcome {
                        verdict: Verdict::BestEffort { egress },
                        demoted_overuse: true,
                        demoted_untimely: false,
                    }
                }
            }
            None => PipelineOutcome {
                verdict: Verdict::BestEffort { egress },
                demoted_overuse: false,
                demoted_untimely: parsed.is_flyover(),
            },
        }
    }

    /// The full stage driver shared by every engine built on this
    /// pipeline (`BorderRouter` and the Helia/DRKey baselines): stages
    /// 1-7 in order — [`prepare`], per-packet key derivation, then
    /// [`complete`] — with the two engine-specific points —
    /// authentication key derivation and priority eligibility — as
    /// closures.
    ///
    /// `derive_key` maps a flyover hop to its authenticator (`A_i =
    /// PRF_SV(ResInfo)` for Hummingbird, DRKey hierarchies for the
    /// baselines); `eligible` decides priority-class eligibility (called
    /// with `now_ms`; return `false` unconditionally for engines without
    /// a priority class). `policer`/`dup` toggle the optional stages.
    pub fn run_pipeline(
        pkt: &mut [u8],
        now_ns: u64,
        hop_key: &HopMacKey,
        policer: Option<&mut crate::policing::Policer>,
        dup: Option<&mut DuplicateSuppressor>,
        derive_key: impl FnOnce(&Parsed, &FlyoverInputs) -> AuthKey,
        eligible: impl FnOnce(&Parsed, &FlyoverInputs, u64) -> bool,
    ) -> PipelineOutcome {
        let (parsed, inputs) = match prepare(pkt) {
            Ok(prep) => prep,
            Err(r) => {
                return PipelineOutcome {
                    verdict: super::Verdict::Drop(r),
                    demoted_overuse: false,
                    demoted_untimely: false,
                }
            }
        };
        let auth_key = inputs.as_ref().map(|i| derive_key(&parsed, i));
        let flyover = inputs.as_ref().zip(auth_key.as_ref());
        complete(pkt, now_ns, hop_key, policer, dup, &parsed, flyover, eligible)
    }
}

/// Reusable per-burst scratch of the batched
/// [`Datapath::process_batch`] override, so steady-state bursts allocate
/// nothing once the vectors reach burst size.
#[derive(Default)]
struct BatchScratch {
    /// Per-packet outcome of the read-only pipeline half.
    prepared: Vec<Result<(stages::Parsed, Option<stages::FlyoverInputs>), DropReason>>,
    /// Burst reservation dedupe + cache resolution (shared helper).
    resolver: BurstKeyResolver<ResInfo>,
    /// Reservations that missed the cache, awaiting the derivation sweep.
    to_derive: Vec<ResInfo>,
    /// Per flyover packet: the MAC input of the tag sweep.
    mac_inputs: Vec<FlyoverMacInput>,
    /// 16-byte block scratch shared by both AES sweeps.
    blocks: Vec<[u8; 16]>,
    /// Keys out of the derivation sweep.
    derived: Vec<AuthKey>,
    /// Flyover tags out of the tag sweep, in flyover-packet order.
    tags: Vec<Tag>,
}

/// A Hummingbird-enabled border router of one AS.
///
/// Constructed directly or through [`crate::DatapathBuilder`]; driven
/// through the [`Datapath`] trait.
pub struct BorderRouter {
    sv: SecretValue,
    hop_key: HopMacKey,
    cfg: RouterConfig,
    policer: Policer,
    dup: Option<DuplicateSuppressor>,
    /// Expanded `A_i` schedules, one entry per live reservation, so key
    /// expansion runs once per epoch rather than once per packet
    /// (`None` when `cfg.auth_key_cache_slots == 0`).
    key_cache: Option<AuthKeyCache>,
    stats: DatapathStats,
    batch: BatchScratch,
}

impl BorderRouter {
    /// Creates a router with the AS's data-plane secrets.
    pub fn new(sv: SecretValue, hop_key: HopMacKey, cfg: RouterConfig) -> Self {
        BorderRouter {
            sv,
            hop_key,
            policer: Policer::new(cfg.policer_slots, cfg.burst_time_ns),
            dup: DatapathBuilder::make_suppressor(&cfg),
            key_cache: (cfg.auth_key_cache_slots > 0)
                .then(|| AuthKeyCache::new(cfg.auth_key_cache_slots as usize)),
            cfg,
            stats: DatapathStats::default(),
            batch: BatchScratch::default(),
        }
    }

    /// The router's configuration.
    pub fn config(&self) -> RouterConfig {
        self.cfg
    }

    /// Implements Algorithm 2 with Algorithms 1, 3, 4 as the explicit
    /// [`stages`], via the shared [`stages::run_pipeline`] driver with
    /// Hummingbird's key derivation: `A_i ← PRF_SV(ResInfo)`, served
    /// from the per-engine [`AuthKeyCache`] so the AES key extension
    /// runs once per reservation epoch.
    fn process_inner(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let BorderRouter { sv, hop_key, cfg, policer, dup, key_cache, stats, batch: _ } = self;
        let out = stages::run_pipeline(
            pkt,
            now_ns,
            hop_key,
            Some(policer),
            dup.as_mut(),
            |_, inputs| match key_cache {
                Some(cache) => cache
                    .get_or_derive(&inputs.res_info, || sv.derive_key(&inputs.res_info))
                    .clone(),
                None => sv.derive_key(&inputs.res_info),
            },
            |parsed, inputs, now_ms| stages::freshness(cfg, parsed, &inputs.res_info, now_ms),
        );
        stats.demoted_overuse += u64::from(out.demoted_overuse);
        stats.demoted_untimely += u64::from(out.demoted_untimely);
        out.verdict
    }
}

impl Datapath for BorderRouter {
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let verdict = self.process_inner(pkt, now_ns);
        self.stats.record(verdict);
        verdict
    }

    /// The batched Algorithm 2: the read-only pipeline half runs over the
    /// whole burst first; the burst's reservations are **deduplicated**
    /// and resolved against the [`AuthKeyCache`] (so a single-flow burst
    /// derives its key at most once); the remaining misses are derived in
    /// **one AES sweep** ([`SecretValue::derive_keys_batch`]); every
    /// flyover tag of the burst comes out of **one multi-key AES pass**
    /// ([`flyover_tags_batch_with`]); and the (deduplicated) policer
    /// slots are pre-touched. The stateful stages (verification,
    /// duplicate suppression, header mutation, policing) then run per
    /// packet in input order — verdicts and stats stay element-wise
    /// identical to sequential [`Datapath::process`] calls (the contract
    /// `tests/prop_datapath.rs` enforces; repeats within a burst count
    /// as cache hits, exactly as they would sequentially — see
    /// [`AuthKeyCache::record_burst_hit`] for the cache-counter
    /// semantics: when a cache-generation boundary falls inside a burst,
    /// the *counters* (never the verdicts) can read slightly differently
    /// from sequential processing).
    fn process_batch(&mut self, pkts: &mut [PacketBuf], now_ns: u64, out: &mut Vec<Verdict>) {
        let BorderRouter { sv, hop_key, cfg, policer, dup, key_cache, stats, batch } = self;
        let BatchScratch { prepared, resolver, to_derive, mac_inputs, blocks, derived, tags } =
            batch;
        prepared.clear();
        resolver.begin();
        to_derive.clear();
        mac_inputs.clear();
        derived.clear();
        tags.clear();

        // Pass 1 (read-only): parse + flyover-input reconstruction, with
        // burst-local reservation dedupe resolved against the key cache.
        for pkt in pkts.iter() {
            let prep = stages::prepare(pkt.as_bytes());
            if let Ok((_, Some(inputs))) = &prep {
                resolver.visit(inputs.res_info, key_cache.as_mut());
                mac_inputs.push(inputs.mac_input);
            }
            prepared.push(prep);
        }

        // The amortized per-burst work: one AES sweep over the key
        // derivations that missed the cache, one multi-key AES pass over
        // every flyover tag, and a prefetch pass over the deduplicated
        // policing slots.
        to_derive.extend(resolver.pending().copied());
        sv.derive_keys_batch(to_derive, blocks, derived);
        resolver.fill_pending(derived.drain(..), key_cache.as_mut());
        for info in resolver.uniq_ids() {
            policer.pre_touch(info.res_id);
        }
        flyover_tags_batch_with(|i| resolver.key_of(i), mac_inputs, blocks, tags);

        // Pass 2 (stateful, in input order).
        out.reserve(pkts.len());
        let mut next_tag = tags.iter();
        for (pkt, prep) in pkts.iter_mut().zip(prepared.drain(..)) {
            let verdict = match prep {
                Err(r) => Verdict::Drop(r),
                Ok((parsed, inputs)) => {
                    let flyover = inputs
                        .as_ref()
                        .map(|i| (i, *next_tag.next().expect("one tag per flyover hop")));
                    let outcome = stages::complete_with_tag(
                        pkt.bytes_mut(),
                        now_ns,
                        hop_key,
                        Some(&mut *policer),
                        dup.as_mut(),
                        &parsed,
                        flyover,
                        |parsed, inputs, now_ms| {
                            stages::freshness(cfg, parsed, &inputs.res_info, now_ms)
                        },
                    );
                    stats.demoted_overuse += u64::from(outcome.demoted_overuse);
                    stats.demoted_untimely += u64::from(outcome.demoted_untimely);
                    outcome.verdict
                }
            };
            stats.record(verdict);
            out.push(verdict);
        }
    }

    fn engine_name(&self) -> &'static str {
        "hummingbird"
    }

    fn stats(&self) -> DatapathStats {
        let mut stats = self.stats;
        if let Some(cache) = &self.key_cache {
            stats.key_cache_hits = cache.hits();
            stats.key_cache_misses = cache.misses();
        }
        stats
    }

    fn reset_stats(&mut self) {
        self.stats = DatapathStats::default();
        if let Some(cache) = &mut self.key_cache {
            cache.reset_counters();
        }
    }
}
