//! A reference data plane, written rule by rule from the paper: the
//! source's header construction (§4.2) and Algorithms 1–4 at one border
//! router (§4.3–§4.4), with the optional duplicate filter of §5.4; and
//! the three baseline engine families the paper compares against (§2),
//! written from each family's own definition in
//! `crates/baselines/src/{drkey,helia,epic,engine}.rs`, since the paper
//! specifies none of them to the byte.
//!
//! It shares no code with what it checks: one packet at a time (no burst,
//! template, prefetch or shard), time in `u128` nanoseconds, every AES
//! call on the byte-oriented [`ByteAes128`]. `hummingbird_wire`'s owned
//! header types give the byte layout of App. A, and `EngineFamily`'s
//! variants name the families (none of its methods is called). Each rule
//! is one commented line citing its section or file; "impl." marks the
//! implementation's choice where the source is silent. The four families
//! share the parse, Algorithm 4 and the header update; they differ in the
//! key chain ([`flyover_key`]: Hummingbird's `A_K`, DRKey k = 2 and EPIC
//! k = 3 under the epoch secret of the router's clock, Helia k = 4 from
//! the master), the class rule (`Router::earns`: only a priority packet is
//! policed) and whether the duplicate filter runs. Their "impl." choices:
//! Helia reads its slot from ResStart and runs no filter; DRKey has no
//! freshness rule and counts a verified packet as best effort, never as
//! demoted; EPIC drops a stale packet `Untimely` before any AES, ahead of
//! the hop-field expiry check.
//!
//! Left out on purpose: the duplicate filter's fail-open bound of 2²⁰
//! identities per epoch, and everything after the verdict. The one test
//! crate with all four families in scope,
//! `crates/baselines/tests/differential.rs`, compiles this module.

use hummingbird_baselines::EngineFamily as Family;
use hummingbird_crypto::aes::bytewise::ByteAes128;
use hummingbird_crypto::{ResInfo, Tag};
use hummingbird_dataplane::{DatapathStats, DropReason, GenError, RouterConfig, Verdict};
use hummingbird_wire::common::{AddressHeader, CommonHeader, IsdAs};
use hummingbird_wire::hopfield::{FlyoverHopField, HopField, HopFlags, InfoField};
use hummingbird_wire::meta::PathMetaHdr;
use hummingbird_wire::path::{HummingbirdPath, PathField};
use hummingbird_wire::PacketBuilder;
use std::collections::HashMap;

/// Eq. 2: `A_K = PRF_SV(ResInfo)`, one AES call over Fig. 12's block
/// `ConsIngress ∥ ConsEgress ∥ ResID(22) ∥ BW(10) ∥ ResStart ∥ ResDuration ∥ 0`.
pub fn auth_key(sv: &[u8; 16], r: &ResInfo) -> [u8; 16] {
    let id_bw = r.res_id << 10 | u32::from(r.bw_encoded);
    let interfaces = u128::from(r.ingress) << 112 | u128::from(r.egress) << 96;
    let times = u128::from(r.res_start) << 32 | u128::from(r.duration) << 16;
    ByteAes128::new(sv).encrypt(&(interfaces | u128::from(id_bw) << 64 | times).to_be_bytes())
}

/// Eq. 3: `V = MAC_{A_K}(DstISD ∥ DstAS ∥ PktLen ∥ ResStartOffset ∥
/// MillisTS ∥ Counter)[..6]`, one AES call over Fig. 11's block (the low
/// 32 bits of DstAS).
pub fn flyover_mac(
    key: &[u8; 16],
    dst: IsdAs,
    pkt_len: u16,
    offset: u16,
    meta: &PathMetaHdr,
) -> Tag {
    let head = u128::from(dst.isd) << 96 | u128::from(dst.asn as u32) << 64;
    let tail = u128::from(pkt_len) << 48 | u128::from(offset) << 32;
    let ts = u128::from(meta.millis_ts) << 16 | u128::from(meta.counter);
    cut(ByteAes128::new(key).encrypt(&(head | tail | ts).to_be_bytes()))
}

fn cut(block: [u8; 16]) -> Tag {
    std::array::from_fn(|i| block[i])
}

/// §5.4 (impl.): Hummingbird and EPIC run the duplicate filter if
/// configured; Helia and DRKey never do.
pub fn filters_duplicates(family: Family) -> bool {
    matches!(family, Family::Hummingbird | Family::Epic)
}

/// drkey.rs: a DRKey epoch lasts 6 h.
const EPOCH_S: u128 = 6 * 3600;
/// helia.rs: a Helia slot lasts 16 s.
const SLOT_S: u128 = 16;

/// One AES block: `parts` back to back, zero-padded to 16 bytes.
fn block(parts: &[&[u8]]) -> [u8; 16] {
    let (mut b, bytes) = ([0; 16], parts.concat());
    b[..bytes.len()].copy_from_slice(&bytes);
    b
}

/// The flyover key of reservation `res` on a packet from host `host` of
/// AS `src`, as `family` derives it at `now_s` (Unix s) from `secret`:
/// the AS's SV for Hummingbird, its DRKey master for the baselines.
pub fn flyover_key(
    family: Family,
    secret: &[u8; 16],
    res: &ResInfo,
    src: IsdAs,
    host: [u8; 4],
    now_s: u128,
) -> [u8; 16] {
    // drkey.rs: every level is one PRF call, K' = AES_K(block), first level first.
    let chain = |root, levels: &[[u8; 16]]| {
        levels.iter().fold(root, |key, b| ByteAes128::new(&key).encrypt(b))
    };
    // drkey.rs: SV_A(e) = PRF_master("drkey-sv" ∥ e), e the 64-bit epoch index.
    let epoch_secret =
        |e: u128| chain(*secret, &[block(&[b"drkey-sv", &(e as u64).to_be_bytes()])]);
    // drkey.rs: K_{A→B} = PRF_{SV_A}(ISD ∥ AS) of the source AS B.
    let as_level = block(&[&src.isd.to_be_bytes(), &src.asn.to_be_bytes()]);
    // drkey.rs: K_{A→B:H} = PRF_{K_{A→B}}(H ∥ 0x01) of B's host H.
    let host_level = block(&[&host, &[1]]);
    // drkey.rs, engine.rs: DRKey's epoch is the router's clock's, ⌊now / 6 h⌋.
    let now_epoch = now_s / EPOCH_S;
    match family {
        // Eq. 2: A_K = PRF_SV(ResInfo).
        Family::Hummingbird => auth_key(secret, res),
        // engine.rs: DRKey authenticates the source host, k = 2.
        Family::Drkey => chain(epoch_secret(now_epoch), &[as_level, host_level]),
        // epic.rs: K^{epic} = PRF_{K_{A→B:H}}("epic-l1"), k = 3.
        Family::Epic => {
            chain(epoch_secret(now_epoch), &[as_level, host_level, block(&[b"epic-l1"])])
        }
        Family::Helia => {
            // engine.rs (impl.): the slot is ⌊ResStart / 16 s⌋, whatever the clock says.
            let slot = u128::from(res.res_start) / SLOT_S;
            // helia.rs: the slot key is PRF_{K_{A→B}}(slot ∥ "helia").
            let slot_level = block(&[&(slot as u64).to_be_bytes(), b"helia"]);
            // engine.rs: the packet key binds the AS-assigned ResID and BW: PRF(ResID ∥ BW ∥ "hpkt").
            let (id, bw) = (res.res_id.to_be_bytes(), res.bw_encoded.to_be_bytes());
            let packet_level = block(&[&id, &bw, b"hpkt"]);
            // helia.rs: under the epoch secret of the slot's start, k = 4 from the master.
            chain(epoch_secret(slot * SLOT_S / EPOCH_S), &[as_level, slot_level, packet_level])
        }
    }
}

/// Eq. 6: `AggMAC = HopFieldMAC ⊕ V`; the router strips `V` the same way.
fn xor(a: Tag, b: Tag) -> Tag {
    std::array::from_fn(|i| a[i] ^ b[i])
}

/// A hop-field key. Algorithm 4 (SCION): the hop-field MAC is AES-CMAC
/// (RFC 4493) over one complete block, `E_K(M ⊕ K1)` with
/// `K1 = dbl(E_K(0))`, cut to 6 bytes.
pub struct HopKey {
    aes: ByteAes128,
    k1: u128,
}

impl HopKey {
    pub fn new(key: [u8; 16]) -> Self {
        let aes = ByteAes128::new(&key);
        let l = u128::from_be_bytes(aes.encrypt(&[0; 16]));
        HopKey { aes, k1: (l << 1) ^ ((l >> 127) * 0x87) }
    }

    /// The MAC over SCION's block `0 ∥ SegID ∥ Timestamp ∥ 0 ∥ ExpTime ∥
    /// ConsIngress ∥ ConsEgress ∥ 0`.
    pub fn mac(&self, seg_id: u16, info_ts: u32, exp: u8, ingress: u16, egress: u16) -> Tag {
        let head = u128::from(seg_id) << 96 | u128::from(info_ts) << 64 | u128::from(exp) << 48;
        let block = head | u128::from(ingress) << 32 | u128::from(egress) << 16;
        cut(self.aes.encrypt(&(block ^ self.k1).to_be_bytes()))
    }
}

/// The source of §4.2 on one path.
pub struct Source {
    builder: PacketBuilder,
    dst: IsdAs,
    path: HummingbirdPath,
    reservations: Vec<Option<(ResInfo, [u8; 16])>>,
    counter: u16,
    last_ms: u64,
}

impl Source {
    pub fn new(src: IsdAs, dst: IsdAs, path: HummingbirdPath) -> Self {
        let (builder, reservations) = (PacketBuilder::new(src, dst), vec![None; path.hops.len()]);
        Source { builder, dst, path, reservations, counter: 0, last_ms: 0 }
    }

    pub fn attach(&mut self, i: usize, res: ResInfo, key: [u8; 16]) -> Result<(), GenError> {
        // impl.: a hop the path does not have is refused.
        let hop = self.path.hops.get(i).ok_or(GenError::NoSuchHop)?;
        // §4.1: a reservation is for its hop's (ingress, egress) pair.
        if (hop.cons_ingress(), hop.cons_egress()) != (res.ingress, res.egress) {
            return Err(GenError::InterfaceMismatch);
        }
        self.reservations[i] = Some((res, key));
        Ok(())
    }

    pub fn detach(&mut self, i: usize) {
        if let Some(slot) = self.reservations.get_mut(i) {
            *slot = None;
        }
    }

    /// One packet carrying `payload`, sent at `now_ms` (Unix ms).
    pub fn generate(&mut self, payload: &[u8], now_ms: u64) -> Result<Vec<u8>, GenError> {
        // A.1: (BaseTS, MillisTS, Counter) is unique per source (impl.: Counter 0 in each new ms).
        self.counter = if now_ms == self.last_ms { self.counter.wrapping_add(1) } else { 0 };
        self.last_ms = now_ms;
        let mut path = self.path.clone();
        // A.1: BaseTimestamp is 32-bit Unix s (impl.: wraps after 2106), MillisTimestamp the ms.
        let base_ts = (now_ms / 1000) as u32;
        (path.meta.base_ts, path.meta.millis_ts, path.meta.counter) =
            (base_ts, (now_ms % 1000) as u16, self.counter);
        let (mut seg, mut units) = (0, 0);
        for (hop, slot) in path.hops.iter_mut().zip(&self.reservations) {
            while units >= self.path.meta.seg_len[seg] {
                (units, seg) = (units - self.path.meta.seg_len[seg], seg + 1);
            }
            units += hop.units();
            // impl.: a flyover field the path already carries keeps its fields, offset included.
            let (Some((r, _)), PathField::Hop(hf)) = (slot, *hop) else { continue };
            // §4.2: ResStartOffset = BaseTimestamp − ResStart, in 16 bits (≈ 18 h).
            let offset = u16::try_from(i64::from(base_ts) - i64::from(r.res_start))
                .map_err(|_| GenError::StartOffsetOutOfRange)?;
            // A.4: a reserved hop travels as a 20-byte flyover field, 2 units more in its segment.
            *hop = PathField::Flyover(FlyoverHopField {
                flags: HopFlags { flyover: true, ..hf.flags },
                exp_time: hf.exp_time,
                cons_ingress: hf.cons_ingress,
                cons_egress: hf.cons_egress,
                agg_mac: hf.mac,
                res_id: r.res_id,
                bw: r.bw_encoded,
                res_start_offset: offset,
                res_duration: r.duration,
            });
            // impl.: the 7-bit SegLen saturates here and fails when the packet is built.
            path.meta.seg_len[seg] = path.meta.seg_len[seg].saturating_add(2);
        }
        // App. A (impl.: checked first): HdrLen, PayloadLen and SegLen fit 8, 16 and 7 bits.
        let mut pkt = self.builder.build(path, payload.to_vec())?;
        // Eq. 7d: PktLen = PayloadLen + 4·HdrLen fits 16 bits.
        let pkt_len = pkt.pkt_len()?;
        for (hop, slot) in pkt.path.hops.iter_mut().zip(&self.reservations) {
            // Eqs. 3 and 6: each reserved hop's V is XORed into its hop-field MAC.
            if let (Some((_, key)), PathField::Flyover(f)) = (slot, hop) {
                let v = flyover_mac(key, self.dst, pkt_len, f.res_start_offset, &pkt.path.meta);
                f.agg_mac = xor(f.agg_mac, v);
            }
        }
        // A.4: ResID and BW fit 22 and 10 bits (impl.: checked as the header is written).
        Ok(pkt.to_bytes()?)
    }
}

/// Algorithms 1–4 at one border router of `family`.
pub struct Router {
    family: Family,
    secret: [u8; 16],
    hop_key: HopKey,
    cfg: RouterConfig,
    /// Algorithm 1's TSArray: a deadline per ResID, each 0 at start.
    deadlines: HashMap<u32, u128>,
    /// §5.4: the epoch each identity was filed under, and the newest epoch.
    seen: HashMap<(u32, u16, u16, IsdAs), u128>,
    epoch: u128,
    pub stats: DatapathStats,
}

/// A drop and the rule that decided it.
type Drop = (DropReason, &'static str);

/// What a flyover hop that verifies earns, decided before any AES, and
/// the rule that decided it.
enum Earns {
    Priority,
    Demoted(&'static str),
    BestEffort(&'static str),
}

impl Router {
    /// A router of `family` under `secret` (its SV, or its DRKey master).
    pub fn new(family: Family, secret: [u8; 16], hop_key: [u8; 16], cfg: RouterConfig) -> Self {
        let (hop_key, stats) = (HopKey::new(hop_key), DatapathStats::default());
        Router {
            family,
            secret,
            hop_key,
            cfg,
            deadlines: HashMap::new(),
            seen: HashMap::new(),
            epoch: 0,
            stats,
        }
    }

    /// One packet at `now_ns`: its verdict, and the rule that decided it.
    pub fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> (Verdict, &'static str) {
        let decided = self.forward(pkt, now_ns.into());
        let (verdict, rule) = decided.unwrap_or_else(|(why, rule)| (Verdict::Drop(why), rule));
        let s = &mut self.stats;
        s.processed += 1;
        match verdict {
            Verdict::Drop(why) => {
                s.dropped += 1;
                s.drops[why as usize] += 1;
            }
            Verdict::Flyover { .. } => s.flyover += 1,
            Verdict::BestEffort { .. } => s.best_effort += 1,
        }
        (verdict, rule)
    }

    fn forward(&mut self, pkt: &mut [u8], now: u128) -> Result<(Verdict, &'static str), Drop> {
        use DropReason::*;
        let (bad, now_ms, now_s) = (|rule| (Malformed, rule), now / 1_000_000, now / 1_000_000_000);
        // App. A: a packet opens with the common, address and path meta headers (48 B).
        let prefix = pkt.get(..48).ok_or(bad("A: 48-byte prefix"))?;
        let (common, addr) = (CommonHeader::parse(prefix), AddressHeader::parse(&prefix[12..]));
        // A.1: CurrINF ≤ 2, and no SegLen follows an empty one.
        let (Ok(common), Ok(addr), Ok(meta)) = (common, addr, PathMetaHdr::parse(&prefix[36..]))
        else {
            return Err(bad("A.1: meta header"));
        };
        // App. A: the router reads the 4·HdrLen bytes declared, which the buffer must hold.
        let hdr = pkt.get(..4 * usize::from(common.hdr_len)).ok_or(bad("A: 4·HdrLen"))?;
        // A.7: a CurrHF at or past ΣSegLen has no hop field left.
        let [l0, l1, l2] = meta.seg_len.map(u16::from);
        let segment_of = |hf: u16| [l0, l0 + l1, l0 + l1 + l2].iter().position(|&end| hf < end);
        let hf = u16::from(meta.curr_hf);
        let seg = segment_of(hf).ok_or((PathConsumed, "A.7: path consumed"))?;
        // Eq. 5a (impl.: CurrINF is not read): the info field of the segment holding CurrHF.
        let info_at = 48 + 8 * seg;
        // Eq. 5b: the hop field sits at 48 + 8·NumINF + 4·CurrHF, 20 B if F is set, else 12.
        let hop_at = 48 + 8 * meta.seg_len.iter().filter(|&&l| l > 0).count() + 4 * usize::from(hf);
        let hop_len = if hdr.get(hop_at).is_some_and(|&b| b & 0x80 != 0) { 20 } else { 12 };
        // The header bound (impl.): both fields end within 4·HdrLen, so CurrHF + 5 fits 8 bits.
        let (Some(info), Some(hop)) =
            (hdr.get(info_at..info_at + 8), hdr.get(hop_at..hop_at + hop_len))
        else {
            return Err(bad("A: field past 4·HdrLen"));
        };
        let info = InfoField::parse(info).map_err(|_| bad("A.2: info field"))?;
        let (candidate, exp, ingress, egress, flyover) = if hop_len == 20 {
            let f = FlyoverHopField::parse(hop).map_err(|_| bad("A.4: flyover field"))?;
            // Eq. 7d: PktLen = PayloadLen + 4·HdrLen; a 16-bit overflow drops.
            let pkt_len = u16::try_from(usize::from(common.payload_len) + hdr.len())
                .map_err(|_| (PktLenOverflow, "Eq. 7d: PktLen overflow"))?;
            // Algorithm 3 l.2: ResStart = BaseTimestamp − ResStartOffset, mod 2³² as in Fig. 12.
            let res_start = meta.base_ts.wrapping_sub(f.res_start_offset.into());
            let (ingress, egress, res_id, bw_encoded) =
                (f.cons_ingress, f.cons_egress, f.res_id, f.bw);
            let res = ResInfo {
                ingress,
                egress,
                res_id,
                bw_encoded,
                res_start,
                duration: f.res_duration,
            };
            // Algorithm 3 l.12-17 (impl.: in whole ms): fresh iff now − absTS ∈ [−δ, Δ + δ].
            let abs_ms = u128::from(meta.base_ts) * 1000 + u128::from(meta.millis_ts);
            let (age, skew) =
                (self.cfg.max_packet_age_ms as u128, self.cfg.max_clock_skew_ms as u128);
            let fresh = now_ms + skew >= abs_ms && now_ms <= abs_ms + age + skew;
            // A.7: active iff ResStart ≤ now ≤ ResStart + ResDuration, no skew (impl.: whole s).
            let end = u128::from(res_start) + u128::from(res.duration);
            let active = (u128::from(res_start)..=end).contains(&now_s);
            let earns = self.earns(&res, fresh && active, now_s)?;
            // Eqs. 3 and 6: the candidate hop-field MAC is AggMAC ⊕ V under the family's key.
            let key = flyover_key(self.family, &self.secret, &res, addr.src, addr.src_host, now_s);
            let v = flyover_mac(&key, addr.dst, pkt_len, f.res_start_offset, &meta);
            (xor(f.agg_mac, v), f.exp_time, ingress, egress, Some((res, pkt_len, earns)))
        } else {
            let h = HopField::parse(hop).map_err(|_| bad("A.3: hop field"))?;
            (h.mac, h.exp_time, h.cons_ingress, h.cons_egress, None)
        };
        // Algorithm 4 l.2: expired ⌊(1 + ExpTime)·337.5⌋ s after Timestamp (impl.: whole s).
        if now_s >= u128::from(info.timestamp) + (1 + u128::from(exp)) * 1350 / 4 {
            return Err((ExpiredHopField, "Algo 4: hop field expired"));
        }
        // Algorithm 4: the hop field verifies iff its MAC is the candidate.
        let mac = self.hop_key.mac(info.seg_id, info.timestamp, exp, ingress, egress);
        if mac != candidate {
            return Err((BadMac, "Algo 4: MAC mismatch"));
        }
        if self.cfg.duplicate_suppression && filters_duplicates(self.family) {
            self.suppress_duplicate((meta.base_ts, meta.millis_ts, meta.counter, addr.src), now)?;
        }
        // A.7: SegID ← SegID ⊕ MAC[0..2]; a flyover's AggMAC ← HopFieldMAC, for reversal (A.8).
        let seg_id = info.seg_id ^ u16::from_be_bytes([mac[0], mac[1]]);
        pkt[info_at + 2..info_at + 4].copy_from_slice(&seg_id.to_be_bytes());
        if flyover.is_some() {
            pkt[hop_at + 6..hop_at + 12].copy_from_slice(&mac);
        }
        // A.7: CurrHF passes the field; CurrINF follows while a segment is left (impl.: else kept).
        let next_hf = hf + hop_len as u16 / 4;
        let next_inf = segment_of(next_hf).map_or(meta.curr_inf.into(), |s| s as u32);
        // impl.: the meta word's r bit is written 0.
        let lens = u32::from(l0) << 14 | u32::from(l1) << 7 | u32::from(l2);
        pkt[36..40]
            .copy_from_slice(&(next_inf << 30 | u32::from(next_hf) << 22 | lens).to_be_bytes());
        // impl.: the egress is ConsEgress; ConsDir is not read.
        let (priority, best_effort) = (Verdict::Flyover { egress }, Verdict::BestEffort { egress });
        Ok(match flyover {
            None => (best_effort, "Algo 2: plain hop, best effort"),
            Some((_, _, Earns::BestEffort(rule))) => (best_effort, rule),
            Some((_, _, Earns::Demoted(rule))) => {
                self.stats.demoted_untimely += 1;
                (best_effort, rule)
            }
            // Algorithm 1 polices only a priority packet.
            Some((res, pkt_len, Earns::Priority)) if self.police(&res, pkt_len, now) => {
                (priority, "Algo 1: within the burst budget")
            }
            Some(_) => {
                self.stats.demoted_overuse += 1;
                (best_effort, "Algo 1: over the burst budget, demoted")
            }
        })
    }

    /// The class a flyover hop is eligible for under its family's rule,
    /// given whether it is `fresh` and active at `now_s`.
    fn earns(&self, res: &ResInfo, fresh: bool, now_s: u128) -> Result<Earns, Drop> {
        // helia.rs: the current slot is ⌊now / 16 s⌋; engine.rs: the packet's is ⌊ResStart / 16 s⌋.
        let current_slot = u128::from(res.res_start) / SLOT_S == now_s / SLOT_S;
        Ok(match self.family {
            // Algorithm 3 l.12-17: a stale packet or an inactive reservation is demoted.
            Family::Hummingbird if fresh => Earns::Priority,
            Family::Hummingbird => Earns::Demoted("Algo 3: stale or inactive, demoted"),
            // engine.rs: Helia grants priority only within the current slot, else demotes.
            Family::Helia if fresh && current_slot => Earns::Priority,
            Family::Helia => Earns::Demoted("Helia: stale, inactive or past its slot, demoted"),
            // engine.rs: DRKey has no freshness rule and no priority class.
            Family::Drkey => Earns::BestEffort("DRKey: authenticated, best effort"),
            // epic.rs: EPIC has no priority class, and drops a stale packet before any AES.
            Family::Epic if fresh => Earns::BestEffort("EPIC: validated, best effort"),
            Family::Epic => return Err((DropReason::Untimely, "EPIC: stale or inactive, dropped")),
        })
    }

    /// §5.4's optional duplicate filter, after authentication, on the
    /// identity (BaseTS, MillisTS, Counter, SrcISD-AS).
    fn suppress_duplicate(&mut self, id: (u32, u16, u16, IsdAs), now: u128) -> Result<(), Drop> {
        // impl.: identities are filed in epochs of Δ + 2δ from time 0, under the newest one seen.
        let window_ms = u128::from(self.cfg.max_packet_age_ms + 2 * self.cfg.max_clock_skew_ms);
        self.epoch = self.epoch.max(now / (window_ms * 1_000_000).max(1));
        // impl.: an identity filed in the newest epoch or the one before is a duplicate.
        if self.seen.get(&id).is_some_and(|&filed| filed + 1 >= self.epoch) {
            return Err((DropReason::Duplicate, "§5.4: duplicate"));
        }
        self.seen.insert(id, self.epoch);
        Ok(())
    }

    /// Algorithm 1: whether a fresh flyover packet fits its reservation.
    fn police(&mut self, res: &ResInfo, pkt_len: u16, now: u128) -> bool {
        // §4.4: ResIDs at or past ResIDmax are never assigned.
        if res.res_id >= self.cfg.policer_slots {
            return false;
        }
        // A.4: BW is a 10-bit float of kbps, s if e = 0, else (32 + s)·2^(e−1).
        let (e, s) = (res.bw_encoded >> 5, u128::from(res.bw_encoded & 31));
        let bw_kbps = if e == 0 { s } else { (32 + s) << (e - 1) };
        // l.3: ts = max(TSArray[ResID], now) + PktLen/BW (impl.: in whole ns); 0 kbps fits nothing.
        let Some(tx) = (u128::from(pkt_len) * 8_000_000).checked_div(bw_kbps) else { return false };
        let deadline = self.deadlines.entry(res.res_id).or_insert(0);
        let ts = now.max(*deadline) + tx;
        // l.4-7: within the reservation iff ts ≤ now + BurstTime; then TSArray ← ts.
        let within = ts <= now + u128::from(self.cfg.burst_time_ns);
        if within {
            *deadline = ts;
        }
        within
    }
}
