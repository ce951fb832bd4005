//! Forged traffic must not move router state. A legitimate workload runs
//! through a Hummingbird router twice — alone, and with three forged
//! flyover packets after each legitimate one — through `process` and
//! through `process_batch`. The forgeries are:
//!
//! - keyed under a wrong secret value, each on a fresh `ResInfo`;
//! - a copy of the legitimate packet with its aggregate MAC corrupted
//!   (same duplicate-filter identity as the original);
//! - keyed under a wrong secret value, on a fresh `ResInfo`, stamped 10 s
//!   in the past.
//!
//! Every forgery is dropped as `BadMac`. The legitimate verdicts and
//! packet bytes, the policer's slots (probed after the run) and every
//! counter but `processed` and `dropped` must come out identical.

use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::router::stages;
use hummingbird_dataplane::{
    forge_path, BeaconHop, BorderRouter, Datapath, DatapathStats, DropReason, PacketBuf,
    RouterConfig, SourceGenerator, SourceReservation, Verdict, BATCH_SIZE,
};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;

const NOW_S: u64 = 1_700_000_096;
const NOW_MS: u64 = NOW_S * 1000;
const NOW_NS: u64 = NOW_S * 1_000_000_000;
/// The probes run this much later, when each slot has partly refilled.
const PROBE_DELAY_MS: u64 = 25;
/// Legitimate reservations, and packets on each.
const RESERVATIONS: u32 = 6;
const PER_RESERVATION: usize = 8;
/// 240 kbps: two 500-byte packets fill a reservation's 50 ms burst
/// budget, so the workload trips the policer.
const BW_TINY: u16 = 124;

fn sv() -> SecretValue {
    SecretValue::new([0x42; 16])
}

fn hop_key() -> HopMacKey {
    HopMacKey::new([0x17; 16])
}

fn generator() -> SourceGenerator {
    let hops = [BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 1 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 7);
    SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path)
}

fn res_info(res_id: u32, bw_encoded: u16, res_start: u32) -> ResInfo {
    ResInfo { ingress: 0, egress: 1, res_id, bw_encoded, res_start, duration: 600 }
}

/// One packet on `info`, tagged under the key `key_sv` derives for it.
fn packet(
    generator: &mut SourceGenerator,
    key_sv: &SecretValue,
    info: ResInfo,
    at_ms: u64,
) -> Vec<u8> {
    let key = key_sv.derive_key(&info);
    generator.attach_reservation(0, SourceReservation { res_info: info, key }).unwrap();
    generator.generate(&[0u8; 500], at_ms).unwrap()
}

/// The legitimate workload, round-robin over the reservations, and one
/// probe packet per reservation stamped for the probe time.
fn legitimate() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut generator = generator();
    let mut on = |res_id: u32, at_ms: u64| {
        packet(&mut generator, &sv(), res_info(res_id, BW_TINY, NOW_S as u32 - 50), at_ms)
    };
    let workload = (0..PER_RESERVATION)
        .flat_map(|_| 1..=RESERVATIONS)
        .map(|res_id| on(res_id, NOW_MS))
        .collect::<Vec<_>>();
    let probes = (1..=RESERVATIONS).map(|res_id| on(res_id, NOW_MS + PROBE_DELAY_MS)).collect();
    (workload, probes)
}

/// The workload with three forgeries after each legitimate packet. The
/// forging generator's counters restart, so its packets share their
/// duplicate-filter identities with the legitimate ones.
fn with_forgeries(workload: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let wrong_sv = SecretValue::new([0xEE; 16]);
    let mut forger = generator();
    let mut out = Vec::with_capacity(4 * workload.len());
    for (j, legit) in workload.iter().enumerate() {
        let j = j as u32;
        out.push(legit.clone());
        let fresh = res_info(1_000 + j, 1 + (j % 1_000) as u16, NOW_S as u32 - 50 - j);
        out.push(packet(&mut forger, &wrong_sv, fresh, NOW_MS));
        let mut corrupted = legit.clone();
        let hop_off = stages::parse(&corrupted).unwrap().hop_off;
        corrupted[hop_off + 6] ^= 0x40; // first aggregate-MAC byte
        out.push(corrupted);
        let stale = res_info(50_000 + j, 700, NOW_S as u32 - 50);
        out.push(packet(&mut forger, &wrong_sv, stale, NOW_MS - 10_000));
    }
    out
}

/// What a run leaves that forged packets must not touch.
struct Outcome {
    /// Legitimate verdicts, then the probes'.
    verdicts: Vec<Verdict>,
    /// The legitimate packets as the router left them.
    bytes: Vec<Vec<u8>>,
    /// Every counter except `processed` and `dropped`.
    stats: DatapathStats,
}

/// Runs `packets` (legitimate where `legit(i)`), then `probes`, through
/// one router, per packet or in bursts.
fn run(
    packets: &[Vec<u8>],
    legit: impl Fn(usize) -> bool,
    probes: &[Vec<u8>],
    batched: bool,
) -> Outcome {
    let cfg = RouterConfig { duplicate_suppression: true, ..RouterConfig::default() };
    let mut router = BorderRouter::new(sv(), hop_key(), cfg);
    let mut through = |packets: &[Vec<u8>], now_ns: u64| -> Vec<(Verdict, Vec<u8>)> {
        let mut bufs: Vec<PacketBuf> = packets.iter().cloned().map(PacketBuf::new).collect();
        let mut verdicts = Vec::new();
        if batched {
            for burst in bufs.chunks_mut(BATCH_SIZE) {
                router.process_batch(burst, now_ns, &mut verdicts);
            }
        } else {
            verdicts.extend(bufs.iter_mut().map(|b| router.process(b.bytes_mut(), now_ns)));
        }
        verdicts.into_iter().zip(bufs.into_iter().map(PacketBuf::into_inner)).collect()
    };
    let mut verdicts = Vec::new();
    let mut bytes = Vec::new();
    for (i, (verdict, pkt)) in through(packets, NOW_NS).into_iter().enumerate() {
        if legit(i) {
            verdicts.push(verdict);
            bytes.push(pkt);
        } else {
            assert_eq!(verdict, Verdict::Drop(DropReason::BadMac), "forged packet {i}");
        }
    }
    verdicts.extend(through(probes, NOW_NS + PROBE_DELAY_MS * 1_000_000).into_iter().map(|r| r.0));
    let stats = DatapathStats { processed: 0, dropped: 0, ..router.stats() };
    Outcome { verdicts, bytes, stats }
}

#[test]
fn forged_flyovers_do_not_move_router_state() {
    let (workload, probes) = legitimate();
    let mixed = with_forgeries(&workload);
    for batched in [false, true] {
        let alone = run(&workload, |_| true, &probes, batched);
        let probed = &alone.verdicts[workload.len()..];
        assert!(alone.stats.demoted_overuse > 0, "the workload trips the policer");
        assert!(probed.iter().any(|v| v.is_flyover()), "probes see refilled slots");
        let flooded = run(&mixed, |i| i % 4 == 0, &probes, batched);
        assert_eq!(flooded.verdicts, alone.verdicts, "legitimate verdicts (batched: {batched})");
        assert!(flooded.bytes == alone.bytes, "legitimate packet bytes (batched: {batched})");
        assert_eq!(flooded.stats, alone.stats, "counters (batched: {batched})");
    }
}
