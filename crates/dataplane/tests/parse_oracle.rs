//! Differential oracle for the border router's header stages.
//!
//! `reference` holds a verbatim copy of `stages::parse` and
//! `stages::advance` as they were before the header decoders moved to
//! fixed-size arrays. Every generated packet — plain, flyover and
//! multi-segment, at every hop position — is fed to both, together with
//! every truncation of it and copies with random bytes written into the
//! fixed 48-byte prefix, the meta word, the info fields and the hop
//! fields. The two parsers must return identical `Result<Parsed,
//! DropReason>`, and on every packet that parses the two `advance`s must
//! return the same result and leave the same bytes. That covers every
//! packet that verifies, since a verified packet is advanced with its own
//! hop-field MAC, which is what the check passes.

use hummingbird_crypto::{RES_ID_MAX, TAG_LEN};
use hummingbird_dataplane::router::stages;
use hummingbird_wire::hopfield::{FlyoverHopField, HopField, HopFlags, InfoField};
use hummingbird_wire::meta::PathMetaHdr;
use hummingbird_wire::path::{HummingbirdPath, PathField};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::{IsdAs, PacketBuilder};
use proptest::prelude::*;

/// The parser and header mutation the decoders replaced, kept verbatim.
mod reference {
    use hummingbird_crypto::Tag;
    use hummingbird_dataplane::router::stages::{HopKind, Parsed};
    use hummingbird_dataplane::DropReason;
    use hummingbird_wire::common::{AddressHeader, CommonHeader, ADDR_HDR_LEN, COMMON_HDR_LEN};
    use hummingbird_wire::hopfield::{
        peek_flyover_bit, FlyoverHopField, HopField, InfoField, FLYOVER_FIELD_LEN, HOP_FIELD_LEN,
        INFO_FIELD_LEN,
    };
    use hummingbird_wire::meta::{PathMetaHdr, FLYOVER_UNITS, HF_UNITS, META_HDR_LEN};
    use hummingbird_wire::scion_mac::update_seg_id;

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
        // Not in the original: both fields must also end inside the
        // declared header, the rule that keeps CurrHF from wrapping in
        // `advance` (tests/hop_past_header.rs). The reference takes it too
        // so that this rule is the only difference the oracle allows.
        if info_off + INFO_FIELD_LEN > hdr_len_bytes || hop_off + HOP_FIELD_LEN > hdr_len_bytes {
            return Err(DropReason::Malformed);
        }
        let Ok(is_flyover) = peek_flyover_bit(&pkt[hop_off..]) else {
            return Err(DropReason::Malformed);
        };
        let hop = if is_flyover {
            if pkt.len() < hop_off + FLYOVER_FIELD_LEN
                || hop_off + FLYOVER_FIELD_LEN > hdr_len_bytes
            {
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
}

/// Byte offsets of the path header's parts.
const META_OFF: usize = 36;
const INFO_OFF: usize = 48;

/// A small deterministic generator, seeded per case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        // SplitMix64.
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }

    fn tag(&mut self) -> [u8; TAG_LEN] {
        std::array::from_fn(|_| self.byte())
    }
}

fn hop_field(rng: &mut Mix, flyover: bool) -> PathField {
    let flags = HopFlags { flyover, ingress_alert: rng.byte() & 1 == 1, egress_alert: false };
    let (exp_time, cons_ingress, cons_egress) = (rng.byte(), rng.next() as u16, rng.next() as u16);
    if flyover {
        PathField::Flyover(FlyoverHopField {
            flags,
            exp_time,
            cons_ingress,
            cons_egress,
            agg_mac: rng.tag(),
            res_id: rng.next() as u32 & RES_ID_MAX,
            bw: rng.next() as u16 & 0x3ff,
            res_start_offset: rng.next() as u16,
            res_duration: rng.next() as u16,
        })
    } else {
        PathField::Hop(HopField { flags, exp_time, cons_ingress, cons_egress, mac: rng.tag() })
    }
}

/// A well-formed packet of `segments` segments (1-3), each of 1-4 hop
/// fields; `flyover_share` in 0..=4 quarters picks how many hops are
/// flyovers. The current hop is a random one of them.
fn packet(rng: &mut Mix, segments: usize, flyover_share: usize) -> Vec<u8> {
    let mut meta = PathMetaHdr {
        base_ts: rng.next() as u32,
        millis_ts: rng.next() as u16 % 1000,
        counter: rng.next() as u16,
        ..Default::default()
    };
    let (mut info, mut hops, mut boundaries) = (Vec::new(), Vec::new(), Vec::new());
    let mut units = 0u8;
    for seg in 0..segments {
        info.push(InfoField {
            peering: rng.byte() & 1 == 1,
            cons_dir: rng.byte() & 1 == 1,
            seg_id: rng.next() as u16,
            timestamp: rng.next() as u32,
        });
        let mut seg_units = 0u8;
        for _ in 0..1 + rng.below(4) {
            let flyover = rng.below(4) < flyover_share;
            let hop = hop_field(rng, flyover);
            boundaries.push((seg as u8, units + seg_units));
            seg_units += hop.units();
            hops.push(hop);
        }
        meta.seg_len[seg] = seg_units;
        units += seg_units;
    }
    let (curr_inf, curr_hf) = boundaries[rng.below(boundaries.len())];
    meta.curr_inf = curr_inf;
    meta.curr_hf = curr_hf;
    let payload = vec![rng.byte(); rng.below(200)];
    PacketBuilder::new(IsdAs::new(1, rng.next()), IsdAs::new(2, rng.next()))
        .build(HummingbirdPath { meta, info, hops }, payload)
        .and_then(|p| p.to_bytes())
        .expect("generated paths are well formed")
}

/// Writes `count` random bytes at random offsets of `pkt[range]`.
fn scribble(rng: &mut Mix, pkt: &mut [u8], range: std::ops::Range<usize>, count: usize) {
    let range = range.start.min(pkt.len())..range.end.min(pkt.len());
    if range.is_empty() {
        return;
    }
    for _ in 0..count {
        let i = range.start + rng.below(range.len());
        pkt[i] = rng.byte();
    }
}

/// Parses `pkt` with both parsers, and advances both copies of every
/// packet that parses. Returns whether it parsed.
fn agree(pkt: &[u8]) -> bool {
    let parsed = stages::parse(pkt);
    assert_eq!(parsed, reference::parse(pkt), "parse disagrees on {pkt:02x?}");
    if let Ok(parsed) = &parsed {
        let computed = HopMacKey::new([0x17; 16]).hop_mac(&stages::hop_mac_input(parsed));
        let (mut ours, mut theirs) = (pkt.to_vec(), pkt.to_vec());
        assert_eq!(
            stages::advance(&mut ours, parsed, &computed),
            reference::advance(&mut theirs, parsed, &computed),
            "advance result disagrees on {pkt:02x?}"
        );
        assert_eq!(ours, theirs, "advance bytes disagree on {pkt:02x?}");
    }
    parsed.is_ok()
}

/// [`agree`] on `pkt` and on every truncation of it.
fn agree_truncated(pkt: &[u8]) {
    for len in 0..=pkt.len() {
        agree(&pkt[..len]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Generated packets and every truncation of them.
    #[test]
    fn parse_matches_reference_on_generated_packets(
        seed: u64,
        segments in 1usize..=3,
        flyover_share in 0usize..=4,
    ) {
        let mut rng = Mix(seed);
        let pkt = packet(&mut rng, segments, flyover_share);
        prop_assert!(agree(&pkt), "a generated packet must parse");
        agree_truncated(&pkt);
    }

    /// Random bytes in one region of a generated packet: the fixed
    /// prefix, the meta word, the hop pointers alone (any CurrINF and
    /// CurrHF over valid segment lengths), the info fields or the hop
    /// fields.
    #[test]
    fn parse_matches_reference_on_scribbled_packets(
        seed: u64,
        segments in 1usize..=3,
        flyover_share in 0usize..=4,
        region in 0usize..5,
        count in 1usize..6,
    ) {
        let mut rng = Mix(seed);
        let mut pkt = packet(&mut rng, segments, flyover_share);
        let hops_off = INFO_OFF + 8 * segments;
        match region {
            0 => scribble(&mut rng, &mut pkt, 0..INFO_OFF, count),
            1 => {
                let word = rng.next() as u32;
                pkt[META_OFF..META_OFF + 4].copy_from_slice(&word.to_be_bytes());
            }
            2 => {
                let pointers = (rng.next() as u32) << 22;
                let word = u32::from_be_bytes([pkt[META_OFF], pkt[META_OFF + 1], pkt[META_OFF + 2], pkt[META_OFF + 3]]);
                let word = (word & 0x003f_ffff) | pointers;
                pkt[META_OFF..META_OFF + 4].copy_from_slice(&word.to_be_bytes());
            }
            3 => scribble(&mut rng, &mut pkt, INFO_OFF..hops_off, count),
            _ => {
                let hdr_end = 4 * usize::from(pkt[5]);
                scribble(&mut rng, &mut pkt, hops_off..hdr_end, count);
            }
        }
        agree_truncated(&pkt);
    }

    /// Uniformly random buffers.
    #[test]
    fn parse_matches_reference_on_random_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
    ) {
        agree(&bytes);
    }
}
