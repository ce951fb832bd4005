//! A hop field must end inside the header its packet declares.
//!
//! Two segments of 127 units each let CurrHF point up to unit 253, but
//! `4·HdrLen` caps the header at 1020 bytes, so a hop field that far
//! along lies past the declared header — in the payload. With a valid
//! MAC on such a hop field, advancing CurrHF by 3 (plain) or 5
//! (flyover) used to overflow its 8-bit field: a panic in debug builds,
//! and in release a best-effort verdict with CurrHF wrapped to 0, which
//! sends the packet back to the start of its path. Both entry points
//! must drop it as `Malformed` and leave its bytes alone, and `advance`
//! itself must refuse a CurrHF that does not fit.

use hummingbird_crypto::{aggregate_mac, FlyoverMacInput, ResInfo, SecretValue};
use hummingbird_dataplane::router::stages::{self, HopKind, Parsed};
use hummingbird_dataplane::{BorderRouter, Datapath, DropReason, PacketBuf, RouterConfig, Verdict};
use hummingbird_wire::common::{AddressHeader, CommonHeader, PATH_TYPE_HUMMINGBIRD};
use hummingbird_wire::hopfield::{FlyoverHopField, HopField, HopFlags, InfoField};
use hummingbird_wire::meta::PathMetaHdr;
use hummingbird_wire::scion_mac::{HopMacInput, HopMacKey};
use hummingbird_wire::IsdAs;

const NOW_S: u32 = 1_700_000_096;
const NOW_NS: u64 = NOW_S as u64 * 1_000_000_000;
const HDR_LEN: u8 = 255;
/// Where the current hop field ends: past `4·HDR_LEN` = 1020.
const PKT_LEN: usize = 1088;

fn sv() -> SecretValue {
    SecretValue::new([0x42; 16])
}

fn hop_key() -> HopMacKey {
    HopMacKey::new([0x17; 16])
}

fn router() -> BorderRouter {
    BorderRouter::new(sv(), hop_key(), RouterConfig::default())
}

/// A packet whose current hop field (plain or flyover) sits at the end
/// of a 127 + 127-unit path, past the declared header, with a MAC that
/// verifies; and what a parser that ignores the header bound makes of it.
fn packet(flyover: bool) -> (Vec<u8>, Parsed) {
    let mut pkt = vec![0u8; PKT_LEN];
    let payload_len = (PKT_LEN - 4 * usize::from(HDR_LEN)) as u16;
    let common = CommonHeader {
        version: 0,
        traffic_class: 0,
        flow_id: 1,
        next_hdr: 17,
        hdr_len: HDR_LEN,
        payload_len,
        path_type: PATH_TYPE_HUMMINGBIRD,
    };
    let dst = IsdAs::new(2, 0x20);
    let addr =
        AddressHeader { dst, src: IsdAs::new(1, 0x10), dst_host: [0, 0, 0, 2], src_host: [0; 4] };
    let curr_hf = if flyover { 251 } else { 253 };
    let meta = PathMetaHdr {
        curr_inf: 1,
        curr_hf,
        seg_len: [127, 127, 0],
        base_ts: NOW_S,
        millis_ts: 0,
        counter: 0,
    };
    let info = InfoField { peering: false, cons_dir: true, seg_id: 0x1234, timestamp: NOW_S - 100 };
    common.emit(&mut pkt).unwrap();
    addr.emit(&mut pkt[12..]).unwrap();
    meta.emit(&mut pkt[36..]).unwrap();
    info.emit(&mut pkt[56..]).unwrap();

    let hop_off = 36 + 12 + 16 + 4 * usize::from(curr_hf);
    let hop_mac = hop_key().hop_mac(&HopMacInput {
        seg_id: info.seg_id,
        timestamp: info.timestamp,
        exp_time: 63,
        cons_ingress: 0,
        cons_egress: 1,
    });
    let hop = if flyover {
        let res_info = ResInfo {
            ingress: 0,
            egress: 1,
            res_id: 7,
            bw_encoded: 400,
            res_start: NOW_S - 50,
            duration: 600,
        };
        let tag = sv().derive_key(&res_info).flyover_mac(&FlyoverMacInput {
            dst_isd: dst.isd,
            dst_as: dst.asn,
            pkt_len: common.pkt_len().unwrap(),
            res_start_offset: 50,
            millis_ts: 0,
            counter: 0,
        });
        let fly = FlyoverHopField {
            flags: HopFlags { flyover: true, ..Default::default() },
            exp_time: 63,
            cons_ingress: 0,
            cons_egress: 1,
            agg_mac: aggregate_mac(&hop_mac, &tag),
            res_id: res_info.res_id,
            bw: res_info.bw_encoded,
            res_start_offset: 50,
            res_duration: res_info.duration,
        };
        fly.emit(&mut pkt[hop_off..]).unwrap();
        HopKind::Flyover(fly)
    } else {
        let hf = HopField {
            flags: HopFlags::default(),
            exp_time: 63,
            cons_ingress: 0,
            cons_egress: 1,
            mac: hop_mac,
        };
        hf.emit(&mut pkt[hop_off..]).unwrap();
        HopKind::Plain(hf)
    };
    (pkt, Parsed { common, addr, meta, info, info_off: 56, hop_off, hop })
}

#[test]
fn process_drops_a_hop_field_past_the_header() {
    for flyover in [false, true] {
        let (original, _) = packet(flyover);
        let mut pkt = original.clone();
        let verdict = router().process(&mut pkt, NOW_NS);
        assert_eq!(verdict, Verdict::Drop(DropReason::Malformed), "flyover {flyover}");
        assert_eq!(pkt, original, "flyover {flyover}: bytes moved");
    }
}

#[test]
fn process_batch_drops_a_hop_field_past_the_header() {
    let originals = [packet(false).0, packet(true).0];
    let mut burst: Vec<PacketBuf> = originals.iter().map(|p| PacketBuf::new(p.clone())).collect();
    let mut out = Vec::new();
    router().process_batch(&mut burst, NOW_NS, &mut out);
    assert_eq!(out, [Verdict::Drop(DropReason::Malformed); 2]);
    for (pkt, original) in burst.iter().zip(&originals) {
        assert_eq!(pkt.as_bytes(), &original[..]);
    }
}

#[test]
fn advance_refuses_a_curr_hf_that_does_not_fit() {
    for flyover in [false, true] {
        let (mut pkt, parsed) = packet(flyover);
        let computed = [0u8; 6];
        assert_eq!(stages::advance(&mut pkt, &parsed, &computed), Err(DropReason::Malformed));
    }
}
