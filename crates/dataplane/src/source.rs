//! Source-side traffic generation (paper §7, Appendix B.3).
//!
//! The source holds a beaconed path plus the reservation keys obtained on
//! the control plane, and stamps every outgoing packet with fresh
//! timestamps, a unique counter, and one flyover MAC per reserved hop
//! (Eq. 3 / Fig. 11). This is the workload of Table 4 and Figs. 14-15:
//! unlike a border router, the source computes the authentication tags for
//! *all* on-path ASes.

use hummingbird_crypto::{
    flyover_tags_batch_with, AuthKey, FlyoverMacInput, ResInfo, Tag, TAG_LEN,
};
use hummingbird_wire::common::{IsdAs, ADDR_HDR_LEN, COMMON_HDR_LEN};
use hummingbird_wire::hopfield::{FlyoverHopField, HopFlags, INFO_FIELD_LEN};
use hummingbird_wire::meta::META_HDR_LEN;
use hummingbird_wire::packet::PacketBuilder;
use hummingbird_wire::path::{HummingbirdPath, PathField};
use hummingbird_wire::WireError;

/// A reservation attached to one hop of the source's path.
#[derive(Clone, Debug)]
pub struct SourceReservation {
    /// Data-plane reservation parameters (must match the hop's
    /// interfaces).
    pub res_info: ResInfo,
    /// The authentication key obtained through the control plane.
    pub key: AuthKey,
}

/// Errors from packet generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenError {
    /// Reservation interfaces do not match the path hop.
    InterfaceMismatch,
    /// The packet is sent before the reservation start or more than the
    /// 16-bit offset range after it.
    StartOffsetOutOfRange,
    /// Wire-format error.
    Wire(WireError),
    /// Hop index out of range.
    NoSuchHop,
}

impl From<WireError> for GenError {
    fn from(e: WireError) -> Self {
        GenError::Wire(e)
    }
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::InterfaceMismatch => f.write_str("reservation/hop interface mismatch"),
            GenError::StartOffsetOutOfRange => f.write_str("ResStartOffset out of range"),
            GenError::Wire(e) => write!(f, "wire error: {e}"),
            GenError::NoSuchHop => f.write_str("hop index out of range"),
        }
    }
}

impl std::error::Error for GenError {}

/// A Hummingbird traffic source for one path.
///
/// Everything in a packet but its timestamps, its counter, its
/// reservations' start offsets and its flyover MACs is fixed by the
/// path, the attached reservations and the payload length. The
/// generator therefore caches the header bytes for the current
/// reservation layout and payload length, encoded once through
/// [`PacketBuilder::build`] and
/// [`Packet::to_bytes`](hummingbird_wire::packet::Packet::to_bytes) with the plain
/// hop-field MACs in the flyover fields' aggregate-MAC slots. The cache
/// is dropped by [`attach_reservation`](Self::attach_reservation) and
/// [`detach_reservation`](Self::detach_reservation) and rebuilt on the
/// next [`generate`](Self::generate), and rebuilt whenever the payload
/// length differs from the cached one. Per packet, the one generator
/// body (behind `generate` and [`generate_into`](Self::generate_into))
/// copies the header and the payload into the caller's buffer, patches
/// BaseTimestamp, MillisTimestamp, Counter and each flyover's
/// ResStartOffset, and XORs in the flyover MACs of all
/// reserved hops, computed in one multi-key AES pass
/// ([`flyover_tags_batch_with`]).
pub struct SourceGenerator {
    builder: PacketBuilder,
    base_path: HummingbirdPath,
    reservations: Vec<Option<SourceReservation>>,
    sequence: Sequence,
    dst: IsdAs,
    /// The cached header; `None` after the reservations changed.
    template: Option<Template>,
    /// Per-packet scratch: one MAC input, AES block and tag per flyover.
    mac_inputs: Vec<FlyoverMacInput>,
    mac_blocks: Vec<[u8; 16]>,
    tags: Vec<Tag>,
}

/// A sender's packet-identity sequence: the counter restarts every
/// millisecond, so each packet stamped from one sequence carries a
/// unique `(BaseTimestamp, MillisTimestamp, Counter)` (App. A.1).
#[derive(Default)]
pub(crate) struct Sequence {
    last_ms: u64,
    counter: u16,
}

impl Sequence {
    /// The counter of the next packet stamped at `now_ms`.
    pub(crate) fn next(&mut self, now_ms: u64) -> u16 {
        if now_ms != self.last_ms {
            self.last_ms = now_ms;
            self.counter = 0;
        } else {
            self.counter = self.counter.wrapping_add(1);
        }
        self.counter
    }
}

/// The header every packet of one reservation layout and payload length
/// starts from.
struct Template {
    payload_len: usize,
    /// The flyover hop fields carrying a reservation, in path order.
    flyovers: Vec<TemplateFlyover>,
    /// The encoded header and its authenticated `PktLen`, or the wire
    /// error every packet of this shape fails with.
    header: Result<(Vec<u8>, u16), WireError>,
}

/// A reserved flyover hop field of a [`Template`].
struct TemplateFlyover {
    /// Byte offset of the field in the header.
    at: usize,
    start: StartOffset,
    key: AuthKey,
}

/// Where a flyover field's ResStartOffset comes from.
enum StartOffset {
    /// Derived per packet from this reservation start: a plain hop the
    /// reservation turned into a flyover field.
    Since(u32),
    /// Fixed: a flyover field the base path already carried.
    Fixed(u16),
}

/// Offset of the meta header's BaseTimestamp in a packet; MillisTimestamp
/// and Counter follow it.
const BASE_TS_AT: usize = COMMON_HDR_LEN + ADDR_HDR_LEN + 4;
/// Offsets of the aggregate MAC and of ResStartOffset in a flyover field.
const AGG_MAC_AT: usize = 6;
const RES_START_OFFSET_AT: usize = 16;

impl SourceGenerator {
    /// Creates a generator over a beaconed `path` (plain hop fields, e.g.
    /// from [`crate::beacon::forge_path`]).
    pub fn new(src: IsdAs, dst: IsdAs, path: HummingbirdPath) -> Self {
        let n = path.hops.len();
        SourceGenerator {
            builder: PacketBuilder::new(src, dst),
            base_path: path,
            reservations: vec![None; n],
            sequence: Sequence::default(),
            dst,
            template: None,
            mac_inputs: Vec::new(),
            mac_blocks: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// Attaches a reservation to hop `index`. The reservation's interfaces
    /// must match the hop's.
    pub fn attach_reservation(
        &mut self,
        index: usize,
        res: SourceReservation,
    ) -> Result<(), GenError> {
        let hop = self.base_path.hops.get(index).ok_or(GenError::NoSuchHop)?;
        if hop.cons_ingress() != res.res_info.ingress || hop.cons_egress() != res.res_info.egress {
            return Err(GenError::InterfaceMismatch);
        }
        self.reservations[index] = Some(res);
        self.template = None;
        Ok(())
    }

    /// Removes the reservation on hop `index`.
    pub fn detach_reservation(&mut self, index: usize) {
        if let Some(slot) = self.reservations.get_mut(index) {
            *slot = None;
            self.template = None;
        }
    }

    /// Generates one packet with `payload` at time `now_ms` (Unix ms),
    /// returning the serialized bytes. Each call stamps a unique
    /// `(BaseTimestamp, MillisTimestamp, Counter)` triple. A wrapper over
    /// [`generate_into`](Self::generate_into) with a new buffer, so the
    /// packet costs one allocation of exactly its length.
    pub fn generate(&mut self, payload: &[u8], now_ms: u64) -> Result<Vec<u8>, GenError> {
        let mut pkt = Vec::new();
        self.generate_into(payload, now_ms, &mut pkt)?;
        Ok(pkt)
    }

    /// Generates one packet like [`generate`](Self::generate), writing
    /// its bytes over whatever `out` held: `out` is cleared first and
    /// reserves the packet's length, so a buffer reused from an earlier
    /// packet of this size allocates nothing. On `Err`, `out` is empty
    /// and still owns its capacity — a caller recycling buffers can take
    /// it back.
    pub fn generate_into(
        &mut self,
        payload: &[u8],
        now_ms: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), GenError> {
        let counter = self.sequence.next(now_ms);
        self.stamp(counter, payload, now_ms, out)
    }

    /// The one generator body: writes the packet stamped with `counter`
    /// at `now_ms` over `out`. Generators that stamp one source address
    /// (the [`Gateway`](crate::Gateway)'s reserved and best-effort pair)
    /// draw `counter` from one [`Sequence`], or a duplicate filter would
    /// take the second packet of a millisecond for a replay.
    pub(crate) fn stamp(
        &mut self,
        counter: u16,
        payload: &[u8],
        now_ms: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), GenError> {
        out.clear();
        let base_ts = (now_ms / 1000) as u32;
        let millis_ts = (now_ms % 1000) as u16;

        let template = match &mut self.template {
            Some(t) if t.payload_len == payload.len() => t,
            slot => slot.insert(Template::build(
                &self.builder,
                &self.base_path,
                &self.reservations,
                payload.len(),
            )),
        };

        // Start offsets are checked before the header's own wire errors.
        let pkt_len = template.header.as_ref().map_or(0, |(_, pkt_len)| *pkt_len);
        self.mac_inputs.clear();
        for fly in &template.flyovers {
            let res_start_offset = match fly.start {
                StartOffset::Since(res_start) => compute_start_offset(base_ts, res_start)?,
                StartOffset::Fixed(offset) => offset,
            };
            self.mac_inputs.push(FlyoverMacInput {
                dst_isd: self.dst.isd,
                dst_as: self.dst.asn,
                pkt_len,
                res_start_offset,
                millis_ts,
                counter,
            });
        }
        let (header, _) = template.header.as_ref().map_err(|&e| GenError::Wire(e))?;

        out.reserve_exact(header.len() + payload.len());
        out.extend_from_slice(header);
        out.extend_from_slice(payload);
        out[BASE_TS_AT..BASE_TS_AT + 4].copy_from_slice(&base_ts.to_be_bytes());
        out[BASE_TS_AT + 4..BASE_TS_AT + 6].copy_from_slice(&millis_ts.to_be_bytes());
        out[BASE_TS_AT + 6..BASE_TS_AT + 8].copy_from_slice(&counter.to_be_bytes());
        if template.flyovers.is_empty() {
            return Ok(());
        }

        // Flyover MACs for all on-path ASes (Table 4), over the
        // authenticated PktLen (Eq. 7d), aggregated into the hop-field
        // MACs (Eq. 6).
        let flyovers = &template.flyovers;
        for (fly, input) in flyovers.iter().zip(&self.mac_inputs) {
            let field = &mut out[fly.at + RES_START_OFFSET_AT..fly.at + RES_START_OFFSET_AT + 2];
            field.copy_from_slice(&input.res_start_offset.to_be_bytes());
        }
        self.tags.clear();
        flyover_tags_batch_with(
            |i| &flyovers[i].key,
            &self.mac_inputs,
            &mut self.mac_blocks,
            &mut self.tags,
        );
        for (fly, tag) in flyovers.iter().zip(&self.tags) {
            let mac = &mut out[fly.at + AGG_MAC_AT..fly.at + AGG_MAC_AT + TAG_LEN];
            mac.iter_mut().zip(tag).for_each(|(b, t)| *b ^= t);
        }
        Ok(())
    }
}

impl Template {
    /// Encodes the header of every packet with `payload_len` bytes of
    /// payload: plain hops stay as they are, reserved hops become
    /// flyover hop fields whose aggregate-MAC slot holds the plain
    /// hop-field MAC, and each segment grows by the flyover fields'
    /// extra 8 bytes.
    fn build(
        builder: &PacketBuilder,
        base_path: &HummingbirdPath,
        reservations: &[Option<SourceReservation>],
        payload_len: usize,
    ) -> Template {
        let mut path = base_path.clone();
        let mut flyovers = Vec::new();
        let mut at =
            COMMON_HDR_LEN + ADDR_HDR_LEN + META_HDR_LEN + INFO_FIELD_LEN * path.info.len();
        let mut seg_len_delta = [0u16; 3];
        let mut seg = 0usize;
        let mut consumed = 0u16;
        for (hop, slot) in path.hops.iter_mut().zip(reservations) {
            // Which segment the hop belongs to (for SegLen adjustment).
            while consumed >= u16::from(base_path.meta.seg_len[seg]) {
                consumed -= u16::from(base_path.meta.seg_len[seg]);
                seg += 1;
            }
            consumed += u16::from(hop.units());
            if let Some(res) = slot {
                let start = match *hop {
                    PathField::Hop(hf) => {
                        *hop = PathField::Flyover(FlyoverHopField {
                            flags: HopFlags { flyover: true, ..hf.flags },
                            exp_time: hf.exp_time,
                            cons_ingress: hf.cons_ingress,
                            cons_egress: hf.cons_egress,
                            agg_mac: hf.mac, // the flyover MAC is XORed in per packet
                            res_id: res.res_info.res_id,
                            bw: res.res_info.bw_encoded,
                            res_start_offset: 0,
                            res_duration: res.res_info.duration,
                        });
                        seg_len_delta[seg] += 2; // 20 B vs 12 B = +2 units
                        StartOffset::Since(res.res_info.res_start)
                    }
                    PathField::Flyover(f) => StartOffset::Fixed(f.res_start_offset),
                };
                flyovers.push(TemplateFlyover { at, start, key: res.key.clone() });
            }
            at += hop.byte_len();
        }
        for (len, delta) in path.meta.seg_len.iter_mut().zip(seg_len_delta) {
            *len = len.saturating_add(delta as u8);
        }

        let header = builder.build(path, vec![0; payload_len]).and_then(|pkt| {
            let pkt_len = pkt.pkt_len()?;
            let mut bytes = pkt.to_bytes()?;
            bytes.truncate(pkt.header_len());
            Ok((bytes, pkt_len))
        });
        Template { payload_len, flyovers, header }
    }
}

/// `ResStartOffset = BaseTimestamp − ResStart`, checked to the 16-bit
/// field range (≈18 h, App. A.4).
fn compute_start_offset(base_ts: u32, res_start: u32) -> Result<u16, GenError> {
    if base_ts < res_start {
        return Err(GenError::StartOffsetOutOfRange);
    }
    u16::try_from(base_ts - res_start).map_err(|_| GenError::StartOffsetOutOfRange)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{forge_path, BeaconHop};
    use hummingbird_crypto::SecretValue;
    use hummingbird_wire::packet::Packet;
    use hummingbird_wire::scion_mac::HopMacKey;

    fn make_gen(n_hops: usize) -> (SourceGenerator, Vec<SecretValue>) {
        let hops: Vec<BeaconHop> = (0..n_hops)
            .map(|i| BeaconHop {
                key: HopMacKey::new([i as u8 + 1; 16]),
                cons_ingress: if i == 0 { 0 } else { 2 * i as u16 },
                cons_egress: if i == n_hops - 1 { 0 } else { 2 * i as u16 + 1 },
            })
            .collect();
        let path = forge_path(&hops, 1_700_000_000, 7);
        let svs: Vec<SecretValue> =
            (0..n_hops).map(|i| SecretValue::new([0x40 + i as u8; 16])).collect();
        let src = IsdAs::new(1, 0x10);
        let dst = IsdAs::new(2, 0x20);
        (SourceGenerator::new(src, dst, path), svs)
    }

    fn reservation_for(
        sv: &SecretValue,
        ingress: u16,
        egress: u16,
        res_start: u32,
    ) -> SourceReservation {
        let res_info =
            ResInfo { ingress, egress, res_id: 5, bw_encoded: 200, res_start, duration: 600 };
        let key = sv.derive_key(&res_info);
        SourceReservation { res_info, key }
    }

    #[test]
    fn generates_parseable_packets() {
        let (mut g, svs) = make_gen(4);
        let now_ms = 1_700_000_100_000;
        g.attach_reservation(1, reservation_for(&svs[1], 2, 3, 1_700_000_050)).unwrap();
        let bytes = g.generate(&[0xab; 500], now_ms).unwrap();
        let pkt = Packet::parse(&bytes).unwrap();
        assert_eq!(pkt.path.hops.len(), 4);
        assert!(pkt.path.hops[1].is_flyover());
        assert_eq!(pkt.payload.len(), 500);
    }

    #[test]
    fn counters_make_packets_unique() {
        let (mut g, _) = make_gen(2);
        let now_ms = 1_700_000_100_000;
        let a = g.generate(&[1], now_ms).unwrap();
        let b = g.generate(&[1], now_ms).unwrap();
        let pa = Packet::parse(&a).unwrap();
        let pb = Packet::parse(&b).unwrap();
        assert_ne!(pa.path.meta.counter, pb.path.meta.counter);
        // New millisecond resets the counter.
        let c = g.generate(&[1], now_ms + 1).unwrap();
        let pc = Packet::parse(&c).unwrap();
        assert_eq!(pc.path.meta.counter, 0);
        assert_eq!(pc.path.meta.millis_ts, pa.path.meta.millis_ts + 1);
    }

    #[test]
    fn interface_mismatch_rejected() {
        let (mut g, svs) = make_gen(3);
        let bad = reservation_for(&svs[1], 99, 98, 1_700_000_000);
        assert_eq!(g.attach_reservation(1, bad), Err(GenError::InterfaceMismatch));
    }

    #[test]
    fn start_offset_range_enforced() {
        let (mut g, svs) = make_gen(2);
        // Reservation starting in the future relative to send time.
        g.attach_reservation(0, reservation_for(&svs[0], 0, 1, 1_700_000_000)).unwrap();
        let too_early = 1_699_999_000_000; // 1000 s before start
        assert_eq!(g.generate(&[0], too_early), Err(GenError::StartOffsetOutOfRange));
        // More than 18 h after start is unencodable.
        let too_late = (1_700_000_000 + 70_000) * 1000;
        assert_eq!(g.generate(&[0], too_late), Err(GenError::StartOffsetOutOfRange));
    }

    #[test]
    fn seg_len_accounts_for_flyover_fields() {
        let (mut g, svs) = make_gen(3);
        g.attach_reservation(0, reservation_for(&svs[0], 0, 1, 1_700_000_000)).unwrap();
        g.attach_reservation(2, reservation_for(&svs[2], 4, 0, 1_700_000_000)).unwrap();
        let bytes = g.generate(&[0; 10], 1_700_000_001_000).unwrap();
        let pkt = Packet::parse(&bytes).unwrap();
        // 2 flyovers (5 units) + 1 hop (3 units) = 13.
        assert_eq!(pkt.path.meta.seg_len[0], 13);
    }

    #[test]
    fn full_hop_count_of_flyovers() {
        let (mut g, svs) = make_gen(5);
        for (i, sv) in svs.iter().enumerate() {
            let hop = g.base_path.hops[i];
            g.attach_reservation(
                i,
                reservation_for(sv, hop.cons_ingress(), hop.cons_egress(), 1_700_000_000),
            )
            .unwrap();
        }
        let bytes = g.generate(&[0; 100], 1_700_000_001_000).unwrap();
        let pkt = Packet::parse(&bytes).unwrap();
        assert!(pkt.path.hops.iter().all(|h| h.is_flyover()));
    }
}
