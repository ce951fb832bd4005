//! Property test for the unified `Datapath` API: **owned ≡ zero-copy** —
//! a `BorderRouter` reaches the same verdict whether a packet's bytes are
//! used directly, round-tripped through the owned `Packet` repr, or
//! wrapped in a checked zero-copy `PacketView` first.
//!
//! Every engine family's router is checked against a reference, through
//! `process`, `process_batch` and a sharded router, by
//! `crates/baselines/tests/differential.rs`.

use hummingbird::dataplane::{
    forge_path, BeaconHop, BorderRouter, Datapath, RouterConfig, SourceGenerator, SourceReservation,
};
use hummingbird::{IsdAs, ResInfo, SecretValue};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::{HummingbirdPath, Packet, PacketView};
use proptest::prelude::*;

const NOW_S: u64 = 1_700_000_096;
const NOW_MS: u64 = NOW_S * 1000;
const NOW_NS: u64 = NOW_S * 1_000_000_000;

fn hop_key(i: usize) -> HopMacKey {
    HopMacKey::new([0x10 + i as u8; 16])
}

fn sv(i: usize) -> SecretValue {
    SecretValue::new([0x60 + i as u8; 16])
}

fn interfaces(n: usize, i: usize) -> (u16, u16) {
    (if i == 0 { 0 } else { 2 * i as u16 }, if i == n - 1 { 0 } else { 2 * i as u16 + 1 })
}

fn beaconed_path(n_hops: usize) -> HummingbirdPath {
    let hops: Vec<BeaconHop> = (0..n_hops)
        .map(|i| {
            let (cons_ingress, cons_egress) = interfaces(n_hops, i);
            BeaconHop { key: hop_key(i), cons_ingress, cons_egress }
        })
        .collect();
    forge_path(&hops, NOW_S as u32 - 100, 0x1234)
}

/// An `n_hops`-hop packet with `payload` bytes, hop 0 reserved if
/// `with_res`, one byte of its path corrupted if `corrupt`, so the
/// verdicts span Flyover, BestEffort and Drop.
fn packet(n_hops: usize, payload: u16, with_res: bool, corrupt: bool) -> Vec<u8> {
    let (ingress, egress) = interfaces(n_hops, 0);
    let (res_id, bw_encoded, res_start, duration) = (9, 700, NOW_S as u32 - 50, 600);
    let res_info = ResInfo { ingress, egress, res_id, bw_encoded, res_start, duration };
    let mut generator =
        SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), beaconed_path(n_hops));
    if with_res {
        let key = sv(0).derive_key(&res_info);
        generator.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
    }
    let mut bytes = generator.generate(&vec![0u8; usize::from(payload)], NOW_MS).unwrap();
    bytes[56] ^= u8::from(corrupt) << 6;
    bytes
}

fn router() -> BorderRouter {
    BorderRouter::new(sv(0), hop_key(0), RouterConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A `BorderRouter` verdict is identical whether the packet bytes are
    /// processed directly, reconstructed through the owned `Packet` repr,
    /// or passed through a checked zero-copy `PacketView`.
    #[test]
    fn owned_and_view_paths_agree(
        n_hops in 1usize..5,
        payload in 0u16..600,
        with_res in any::<bool>(),
        corrupt in any::<bool>(),
    ) {
        let direct_bytes = packet(n_hops, payload, with_res, corrupt);

        // Owned path: parse into the Repr types and re-serialize.
        let owned_bytes = match Packet::parse(&direct_bytes) {
            Ok(pkt) => pkt.to_bytes().unwrap(),
            Err(_) => direct_bytes.clone(), // unparseable stays as-is
        };
        // Zero-copy path: checked view over the same buffer.
        let view_bytes = match PacketView::new_checked(direct_bytes.clone()) {
            Ok(view) => view.into_inner(),
            Err(_) => direct_bytes.clone(),
        };

        let mut verdicts = Vec::new();
        for bytes in [direct_bytes, owned_bytes, view_bytes] {
            let mut engine = router();
            verdicts.push(engine.process(&mut bytes.clone(), NOW_NS));
        }
        prop_assert_eq!(verdicts[0], verdicts[1], "owned Packet path diverged");
        prop_assert_eq!(verdicts[0], verdicts[2], "PacketView path diverged");
    }
}
