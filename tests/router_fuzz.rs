//! Fuzz-style property tests: the border router must never panic, no
//! matter what bytes arrive — malformed, truncated, bit-flipped, or
//! adversarially crafted. A router that panics on a crafted packet is a
//! remote-DoS vector far worse than anything in the paper's threat model.
//!
//! The second half extends this to every engine family and to the batch
//! path: a hostile packet inside a burst of valid ones must neither panic
//! `process_batch` nor make it disagree with per-packet `process`.

use hummingbird::dataplane::{
    forge_path, BeaconHop, BorderRouter, PacketBuf, RouterConfig, SourceGenerator,
    SourceReservation,
};
use hummingbird::{Datapath, IsdAs, ResInfo, SecretValue};
use hummingbird_baselines::EngineFamily;
use hummingbird_wire::scion_mac::HopMacKey;
use proptest::prelude::*;

const NOW_MS: u64 = 1_700_000_100_000;
const NOW_NS: u64 = NOW_MS * 1_000_000;

fn make_router() -> BorderRouter {
    BorderRouter::new(
        SecretValue::new([0x60; 16]),
        HopMacKey::new([0x10; 16]),
        RouterConfig::default(),
    )
}

fn valid_packet(n_hops: usize, payload: usize) -> Vec<u8> {
    let hop_keys: Vec<HopMacKey> =
        (0..n_hops).map(|i| HopMacKey::new([0x10 + i as u8; 16])).collect();
    let svs: Vec<SecretValue> =
        (0..n_hops).map(|i| SecretValue::new([0x60 + i as u8; 16])).collect();
    let hops: Vec<BeaconHop> = (0..n_hops)
        .map(|i| BeaconHop {
            key: hop_keys[i].clone(),
            cons_ingress: if i == 0 { 0 } else { 2 * i as u16 },
            cons_egress: if i == n_hops - 1 { 0 } else { 2 * i as u16 + 1 },
        })
        .collect();
    let path = forge_path(&hops, (NOW_MS / 1000) as u32 - 100, 0x1234);
    let mut generator = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
    for (i, sv) in svs.iter().enumerate() {
        let (ingress, egress) = (
            if i == 0 { 0 } else { 2 * i as u16 },
            if i == n_hops - 1 { 0 } else { 2 * i as u16 + 1 },
        );
        let res_info = ResInfo {
            ingress,
            egress,
            res_id: i as u32,
            bw_encoded: 400,
            res_start: (NOW_MS / 1000) as u32 - 50,
            duration: 600,
        };
        let key = sv.derive_key(&res_info);
        generator.attach_reservation(i, SourceReservation { res_info, key }).unwrap();
    }
    generator.generate(&vec![0u8; payload], NOW_MS).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Completely random bytes never panic the router.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let mut router = make_router();
        let mut pkt = bytes;
        let _ = router.process(&mut pkt, NOW_NS);
    }

    /// A valid packet with any single byte corrupted never panics, and a
    /// corrupted *header* never yields priority forwarding unless the
    /// corruption is outside the authenticated region.
    #[test]
    fn bitflipped_packets_never_panic(
        n_hops in 1usize..6,
        payload in 0usize..600,
        idx: usize,
        bit in 0u8..8,
    ) {
        let mut pkt = valid_packet(n_hops, payload);
        let i = idx % pkt.len();
        pkt[i] ^= 1 << bit;
        let mut router = make_router();
        let _ = router.process(&mut pkt, NOW_NS);
    }

    /// Truncations never panic.
    #[test]
    fn truncations_never_panic(n_hops in 1usize..6, cut: usize) {
        let pkt = valid_packet(n_hops, 200);
        let keep = cut % (pkt.len() + 1);
        let mut truncated = pkt[..keep].to_vec();
        let mut router = make_router();
        let _ = router.process(&mut truncated, NOW_NS);
    }

    /// Flipping any bit in the flyover hop field of a valid packet makes
    /// the first router drop it or demote it — never forward it as a
    /// *different* valid reservation (the MAC covers every field).
    #[test]
    fn flyover_field_corruption_never_passes(idx in 1usize..20, bit in 0u8..8) {
        let mut pkt = valid_packet(1, 100);
        // The single flyover hop field starts right after common (12) +
        // addr (24) + meta (12) + info (8) = byte 56. Byte 0 is skipped:
        // its router-alert bits are deliberately unauthenticated, exactly
        // as in standard SCION.
        let off = 56 + idx;
        pkt[off] ^= 1 << bit;
        let mut router = make_router();
        let verdict = router.process(&mut pkt, NOW_NS);
        prop_assert!(
            !verdict.is_flyover(),
            "corrupted flyover byte {idx} bit {bit} still forwarded with priority"
        );
    }

    /// Random arrival times never panic (clock skew, far past/future).
    #[test]
    fn arbitrary_clocks_never_panic(now_ns: u64, n_hops in 1usize..4) {
        let mut pkt = valid_packet(n_hops, 64);
        let mut router = make_router();
        let _ = router.process(&mut pkt, now_ns);
    }
}

/// The verifying AS's DRKey master (what the baseline families key on).
const MASTER: [u8; 16] = [0xB5; 16];

/// A hop-0 engine of `family` over the verifying AS's secrets.
fn family_engine(family: EngineFamily) -> Box<dyn Datapath + Send> {
    let (sv, hop_key) = (SecretValue::new([0x60; 16]), HopMacKey::new([0x10; 16]));
    family.engine(&sv, &hop_key, &MASTER, RouterConfig::default())
}

/// `family`'s valid hop-0 packets over a two-hop path, the `k`-th
/// stamped `k` ms after `NOW_MS` so no two share a replay identity.
fn family_packets(family: EngineFamily, n: u64) -> Vec<Vec<u8>> {
    let hops: Vec<BeaconHop> = (0..2u16)
        .map(|i| BeaconHop {
            key: HopMacKey::new([0x10 + i as u8; 16]),
            cons_ingress: 2 * i,
            cons_egress: if i == 1 { 0 } else { 1 },
        })
        .collect();
    let path = forge_path(&hops, (NOW_MS / 1000) as u32 - 100, 0x1234);
    let src = IsdAs::new(1, 0x10);
    let mut sender = SourceGenerator::new(src, IsdAs::new(2, 0x20), path);
    let sv = SecretValue::new([0x60; 16]);
    let credential = family.credential(&sv, &MASTER, 0, 1, &mut 1, src, 1_000_000, NOW_MS / 1000);
    sender.attach_reservation(0, credential).unwrap();
    (0..n).map(|k| sender.generate(&[0u8; 120], NOW_MS + k).unwrap()).collect()
}

/// Puts `hostile` in the middle of a burst of `family`'s valid packets
/// and checks, on fresh engines, that `process_batch` reaches the
/// verdicts and counters of per-packet `process` — neither may panic.
fn hostile_in_burst(family: EngineFamily, hostile: Vec<u8>) -> Result<(), String> {
    let mut burst = family_packets(family, 4);
    burst.insert(2, hostile);
    let mut sequential = family_engine(family);
    let want: Vec<_> = burst.iter().map(|p| sequential.process(&mut p.clone(), NOW_NS)).collect();
    prop_assert!(!want[0].is_drop(), "{:?}: the valid packets must validate", family);
    let mut batched = family_engine(family);
    let mut bufs: Vec<PacketBuf> = burst.into_iter().map(PacketBuf::new).collect();
    let mut got = Vec::new();
    batched.process_batch(&mut bufs, NOW_NS, &mut got);
    prop_assert_eq!(&got, &want, "{:?}: batch verdicts diverge from sequential", family);
    prop_assert_eq!(batched.stats(), sequential.stats(), "{:?}: stats diverge", family);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes in a burst never panic any family's engine.
    #[test]
    fn every_family_survives_random_bytes_in_a_burst(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        for family in EngineFamily::ALL {
            hostile_in_burst(family, bytes.clone())?;
        }
    }

    /// One flipped bit anywhere in a family's own valid packet.
    #[test]
    fn every_family_survives_a_bit_flip_in_a_burst(idx: usize, bit in 0u8..8) {
        for family in EngineFamily::ALL {
            let mut pkt = family_packets(family, 5).pop().unwrap();
            let i = idx % pkt.len();
            pkt[i] ^= 1 << bit;
            hostile_in_burst(family, pkt)?;
        }
    }

    /// A family's own valid packet cut at any length.
    #[test]
    fn every_family_survives_truncation_in_a_burst(cut: usize) {
        for family in EngineFamily::ALL {
            let mut pkt = family_packets(family, 5).pop().unwrap();
            pkt.truncate(cut % (pkt.len() + 1));
            hostile_in_burst(family, pkt)?;
        }
    }
}
