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
use hummingbird_crypto::{FlyoverMacInput, ResInfo, SecretValue, Tag};
use hummingbird_wire::scion_mac::{HopMacInput, HopMacKey};

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
    /// Capacity bound of a baseline engine's key cache (EPIC's and
    /// Helia's expanded keys, reused across packets of one source or
    /// grant); `0` disables caching and re-derives per packet. The cache
    /// starts empty and grows with the identities it sees, up to this
    /// many keys. The Hummingbird router has no key cache — it derives
    /// `A_K` for every flyover packet — and ignores this field.
    pub auth_key_cache_slots: u32,
}

/// Default [`RouterConfig::auth_key_cache_slots`], and the DRKey
/// baseline's fixed cache size: comfortably above the per-shard working
/// set of the evaluation workloads while keeping a full cache (≈230 B
/// per expanded key) under ~2 MB. Bounds the baselines' caches only.
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
    //!    location (Algorithm 2 prologue): each header decoded once, by
    //!    its one `hummingbird_wire` decoder, from a fixed-size array at
    //!    its offset;
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
    //!    replacement, CurrHF/CurrINF advance (App. A.7), written at the
    //!    offsets [`parse`] recorded;
    //! 7. policing via [`crate::policing::Policer::check`] (Algorithm 1).
    //!
    //! [`Parsed`] is the only record of a packet's headers the later
    //! stages read; none of them decodes a header again.

    use super::{DropReason, RouterConfig};
    use crate::dup::DuplicateSuppressor;
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

    /// The input of the current hop field's SCION MAC (Algorithm 4).
    pub fn hop_mac_input(parsed: &Parsed) -> HopMacInput {
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
    fn check_hop_mac(
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
        let hop_mac = hop_key.hop_mac(&hop_mac_input(parsed));
        complete_with_tag(pkt, now_ns, &hop_mac, policer, dup, parsed, tagged, eligible)
    }

    /// [`complete`] with the packet's MACs already computed — the entry
    /// point of batch paths, where a burst's `V_K` tags and hop-field
    /// MACs each come out of one multi-block AES pass instead of one
    /// invocation per packet. `flyover` pairs the prepared MAC inputs
    /// with the flyover tag, and `hop_mac` is the hop field's own MAC,
    /// which stage 4 only compares; semantics are otherwise identical to
    /// [`complete`].
    #[allow(clippy::too_many_arguments)] // the pipeline's full stage set
    pub fn complete_with_tag(
        pkt: &mut [u8],
        now_ns: u64,
        hop_mac: &Tag,
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
        let computed = match check_hop_mac(parsed, &candidate_mac, hop_mac, now_s) {
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
    /// Per-packet outcome of the read-only pipeline half. A flyover's
    /// [`stages::FlyoverInputs`] are rebuilt from its `Parsed` in pass 2,
    /// which costs less than carrying them through the burst.
    prepared: Vec<Result<stages::Parsed, DropReason>>,
    /// Per flyover packet: its reservation and MAC input, the fused
    /// kernel's input.
    res_infos: Vec<ResInfo>,
    mac_inputs: Vec<FlyoverMacInput>,
    /// Flyover tags out of the fused kernel, in flyover-packet order.
    tags: Vec<Tag>,
    /// Per parsed packet: its hop-field MAC input, and the MAC out of
    /// the burst's single-key pass.
    hop_inputs: Vec<HopMacInput>,
    hop_macs: Vec<Tag>,
}

/// What stages 2b-7 read and write per packet.
struct RouterState {
    cfg: RouterConfig,
    policer: Policer,
    dup: Option<DuplicateSuppressor>,
    stats: DatapathStats,
}

impl RouterState {
    /// Stages 2b-7 of one prepared packet whose flyover tag and hop-field
    /// MAC are computed ([`stages::complete_with_tag`] with Hummingbird's
    /// eligibility rule), with the demotions counted.
    fn complete(
        &mut self,
        pkt: &mut [u8],
        now_ns: u64,
        parsed: &stages::Parsed,
        flyover: Option<(&stages::FlyoverInputs, Tag)>,
        hop_mac: &Tag,
    ) -> Verdict {
        let RouterState { cfg, policer, dup, stats } = self;
        let out = stages::complete_with_tag(
            pkt,
            now_ns,
            hop_mac,
            Some(policer),
            dup.as_mut(),
            parsed,
            flyover,
            |parsed, inputs, now_ms| stages::freshness(cfg, parsed, &inputs.res_info, now_ms),
        );
        stats.demoted_overuse += u64::from(out.demoted_overuse);
        stats.demoted_untimely += u64::from(out.demoted_untimely);
        out.verdict
    }
}

/// A Hummingbird-enabled border router of one AS.
///
/// Constructed directly or through [`crate::DatapathBuilder`]; driven
/// through the [`Datapath`] trait. It keeps no key state: every flyover
/// packet's `A_K` is derived, scheduled on the fly and used in one fused
/// AES pass ([`SecretValue::flyover_tag`], [`SecretValue::flyover_tags`]),
/// so a forged packet leaves nothing behind.
pub struct BorderRouter {
    sv: SecretValue,
    hop_key: HopMacKey,
    state: RouterState,
    batch: BatchScratch,
}

impl BorderRouter {
    /// Creates the router with the AS's data-plane secrets.
    pub fn new(sv: SecretValue, hop_key: HopMacKey, cfg: RouterConfig) -> Self {
        BorderRouter {
            sv,
            hop_key,
            state: RouterState {
                policer: Policer::new(cfg.policer_slots, cfg.burst_time_ns),
                dup: DatapathBuilder::make_suppressor(&cfg),
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

impl Datapath for BorderRouter {
    /// Algorithm 2 with Algorithms 1, 3, 4 as the explicit [`stages`]:
    /// `A_i ← PRF_SV(ResInfo)` and the flyover tag under it come out of
    /// the single-packet fused kernel, then stages 2b-7 run as in the
    /// batch path.
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let verdict = match stages::prepare(pkt) {
            Err(r) => Verdict::Drop(r),
            Ok((parsed, inputs)) => {
                let flyover =
                    inputs.as_ref().map(|i| (i, self.sv.flyover_tag(&i.res_info, &i.mac_input)));
                let hop_mac = self.hop_key.hop_mac(&stages::hop_mac_input(&parsed));
                self.state.complete(pkt, now_ns, &parsed, flyover, &hop_mac)
            }
        };
        self.state.stats.record(verdict);
        verdict
    }

    /// The batched Algorithm 2. Pass 1 runs the read-only pipeline half
    /// over the whole burst and prefetches the policer slots. The
    /// burst's crypto then takes two AES passes: the **fused kernel**
    /// ([`SecretValue::flyover_tags`]) derives every flyover packet's
    /// `A_K`, runs its schedule round by round and tags the packet under
    /// it, eight packets at a time; and **one single-key pass**
    /// ([`HopMacKey::hop_macs`]) computes every packet's hop-field MAC.
    /// Pass 2 runs the stateful stages (verification, which only
    /// compares, duplicate suppression, header mutation, policing) per
    /// packet in input order, so verdicts and stats are element-wise
    /// identical to sequential [`Datapath::process`] calls (the contract
    /// `tests/prop_datapath.rs` enforces).
    fn process_batch(&mut self, pkts: &mut [PacketBuf], now_ns: u64, out: &mut Vec<Verdict>) {
        let BorderRouter { sv, hop_key, state, batch } = self;
        let BatchScratch { prepared, res_infos, mac_inputs, tags, hop_inputs, hop_macs } = batch;
        prepared.clear();
        res_infos.clear();
        mac_inputs.clear();
        tags.clear();
        hop_inputs.clear();
        hop_macs.clear();

        // Pass 1 (read-only): parse + flyover-input reconstruction.
        for pkt in pkts.iter() {
            let prep = stages::parse(pkt.as_bytes()).and_then(|parsed| {
                if parsed.is_flyover() {
                    let inputs = stages::flyover_inputs(&parsed)?;
                    state.policer.prefetch(inputs.res_info.res_id);
                    res_infos.push(inputs.res_info);
                    mac_inputs.push(inputs.mac_input);
                }
                hop_inputs.push(stages::hop_mac_input(&parsed));
                Ok(parsed)
            });
            prepared.push(prep);
        }

        sv.flyover_tags(res_infos, mac_inputs, tags);
        hop_key.hop_macs(hop_inputs, hop_macs);

        // Pass 2 (stateful, in input order).
        out.reserve(pkts.len());
        let (mut tags, mut hop_macs) = (tags.iter(), hop_macs.iter());
        for (pkt, prep) in pkts.iter_mut().zip(prepared.drain(..)) {
            let verdict = match prep.map(|parsed| (parsed, hop_macs.next())) {
                Err(r) => Verdict::Drop(r),
                Ok((parsed, Some(hop_mac))) => {
                    // Pass 1 built these inputs once: this cannot fail
                    // for a flyover, and a plain hop has none. A flyover
                    // hop without its tag fails closed in
                    // `complete_with_tag`.
                    let inputs = stages::flyover_inputs(&parsed).ok();
                    let flyover = inputs.as_ref().and_then(|i| Some((i, *tags.next()?)));
                    state.complete(pkt.bytes_mut(), now_ns, &parsed, flyover, hop_mac)
                }
                // One hop MAC per parsed packet; fail closed, not panic.
                Ok((_, None)) => Verdict::Drop(DropReason::Malformed),
            };
            state.stats.record(verdict);
            out.push(verdict);
        }
    }

    fn engine_name(&self) -> &'static str {
        "hummingbird"
    }

    fn stats(&self) -> DatapathStats {
        self.state.stats
    }

    fn reset_stats(&mut self) {
        self.state.stats = DatapathStats::default();
    }
}
