//! Forged traffic must not move router state, in any engine family. A
//! legitimate workload runs through one engine of each family twice —
//! alone, and with four forged flyover packets after each legitimate
//! one — through `process` and through `process_batch`. The forgeries
//! are:
//!
//! - keyed under a wrong secret (SV or DRKey master), on a fresh
//!   reservation, from the legitimate source;
//! - a copy of the legitimate packet with its aggregate MAC corrupted
//!   (same duplicate-filter identity as the original);
//! - keyed under a wrong secret, on a fresh reservation, from a fresh
//!   source AS and host;
//! - keyed under a wrong secret, on a fresh reservation, stamped 10 s in
//!   the past.
//!
//! Every forgery is dropped: as `BadMac`, or as `Untimely` where the
//! family drops stale packets before any AES (EPIC). The legitimate
//! verdicts and packet bytes, the policer's slots (probed after the run),
//! the duplicate filter (on in the configuration; EPIC and Hummingbird
//! run it) and every counter but `processed` and `dropped` must come out
//! identical.

use hummingbird_baselines::EngineFamily;
use hummingbird_crypto::SecretValue;
use hummingbird_dataplane::router::stages;
use hummingbird_dataplane::{
    forge_path, BeaconHop, Datapath, DatapathStats, DropReason, PacketBuf, RouterConfig,
    SourceGenerator, Verdict, BATCH_SIZE,
};
use hummingbird_wire::common::COMMON_HDR_LEN;
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;

const NOW_S: u64 = 1_700_000_096; // slot-aligned (divisible by 16)
const NOW_MS: u64 = NOW_S * 1000;
const NOW_NS: u64 = NOW_S * 1_000_000_000;
/// The probes run this much later, when each slot has partly refilled.
const PROBE_DELAY_MS: u64 = 25;
/// Legitimate reservations, and packets on each.
const RESERVATIONS: u32 = 6;
const PER_RESERVATION: usize = 8;
/// Two 500-byte packets fill a reservation's 50 ms burst budget, so the
/// workload trips the policer of the families that police.
const BW_KBPS: u64 = 240;
/// The legitimate source.
const SRC: IsdAs = IsdAs::new(1, 0x10);
/// The verifying AS's DRKey master, and the forger's guess at it.
const MASTER: [u8; 16] = [0x77; 16];
const WRONG_MASTER: [u8; 16] = [0xEE; 16];

fn sv() -> SecretValue {
    SecretValue::new([0x42; 16])
}

fn wrong_sv() -> SecretValue {
    SecretValue::new([0xEE; 16])
}

fn hop_key() -> HopMacKey {
    HopMacKey::new([0x17; 16])
}

fn generator(src: IsdAs) -> SourceGenerator {
    let hops = [BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 1 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 7);
    SourceGenerator::new(src, IsdAs::new(2, 0x20), path)
}

/// The keys a packet is stamped under.
struct Secrets {
    sv: SecretValue,
    master: [u8; 16],
}

/// One packet from `generator` (sending as `src`) stamped `at_ms`,
/// carrying `family`'s credential for reservation `res_id`, issued under
/// `secrets` at the stamp time.
fn packet(
    family: EngineFamily,
    generator: &mut SourceGenerator,
    secrets: &Secrets,
    src: IsdAs,
    res_id: u32,
    at_ms: u64,
) -> Vec<u8> {
    let (sv, master, issued_s) = (&secrets.sv, &secrets.master, at_ms / 1000);
    let credential = family.credential(sv, master, 0, 1, &mut { res_id }, src, BW_KBPS, issued_s);
    generator.attach_reservation(0, credential).unwrap();
    generator.generate(&[0u8; 500], at_ms).unwrap()
}

/// The legitimate workload, round-robin over the reservations, and one
/// probe packet per reservation stamped for the probe time.
fn legitimate(family: EngineFamily) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let secrets = Secrets { sv: sv(), master: MASTER };
    let mut generator = generator(SRC);
    let mut on =
        |res_id: u32, at_ms: u64| packet(family, &mut generator, &secrets, SRC, res_id, at_ms);
    let workload = (0..PER_RESERVATION)
        .flat_map(|_| 1..=RESERVATIONS)
        .map(|res_id| on(res_id, NOW_MS))
        .collect::<Vec<_>>();
    let probes = (1..=RESERVATIONS).map(|res_id| on(res_id, NOW_MS + PROBE_DELAY_MS)).collect();
    (workload, probes)
}

/// The workload with four forgeries after each legitimate packet. The
/// forging generator's counters restart, so its packets share their
/// duplicate-filter identities with the legitimate ones.
fn with_forgeries(family: EngineFamily, workload: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let wrong = Secrets { sv: wrong_sv(), master: WRONG_MASTER };
    let mut forger = generator(SRC);
    let mut out = Vec::with_capacity(5 * workload.len());
    for (j, legit) in workload.iter().enumerate() {
        let j = j as u32;
        out.push(legit.clone());
        out.push(packet(family, &mut forger, &wrong, SRC, 1_000 + j, NOW_MS));
        let mut corrupted = legit.clone();
        let hop_off = stages::parse(&corrupted).unwrap().hop_off;
        corrupted[hop_off + 6] ^= 0x40; // first aggregate-MAC byte
        out.push(corrupted);
        let src = IsdAs::new(1, 0x1000 + u64::from(j));
        let mut fresh = packet(family, &mut generator(src), &wrong, src, 2_000 + j, NOW_MS);
        let mut addr = stages::parse(&fresh).unwrap().addr;
        addr.src_host = (0x0A00_0000 + j).to_be_bytes();
        addr.emit(&mut fresh[COMMON_HDR_LEN..]).unwrap();
        out.push(fresh);
        out.push(packet(family, &mut forger, &wrong, SRC, 3_000 + j, NOW_MS - 10_000));
    }
    out
}

/// What a run leaves that forged packets must not touch.
struct Outcome {
    /// Legitimate verdicts, then the probes'.
    verdicts: Vec<Verdict>,
    /// The legitimate packets as the engine left them.
    bytes: Vec<Vec<u8>>,
    /// Every counter except `processed`, `dropped` and the per-reason
    /// `drops`, which count the forged packets themselves.
    stats: DatapathStats,
}

/// Runs `packets` (legitimate where `legit(i)`), then `probes`, through
/// one engine of `family`, per packet or in bursts.
fn run(
    family: EngineFamily,
    packets: &[Vec<u8>],
    legit: impl Fn(usize) -> bool,
    probes: &[Vec<u8>],
    batched: bool,
) -> Outcome {
    let cfg = RouterConfig { duplicate_suppression: true, ..RouterConfig::default() };
    let mut engine = family.engine(&sv(), &hop_key(), &MASTER, cfg);
    let mut through = |packets: &[Vec<u8>], now_ns: u64| -> Vec<(Verdict, Vec<u8>)> {
        let mut bufs: Vec<PacketBuf> = packets.iter().cloned().map(PacketBuf::new).collect();
        let mut verdicts = Vec::new();
        if batched {
            for burst in bufs.chunks_mut(BATCH_SIZE) {
                engine.process_batch(burst, now_ns, &mut verdicts);
            }
        } else {
            verdicts.extend(bufs.iter_mut().map(|b| engine.process(b.bytes_mut(), now_ns)));
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
            let stale_drop = family == EngineFamily::Epic && i % 5 == 4;
            let want = if stale_drop { DropReason::Untimely } else { DropReason::BadMac };
            assert_eq!(verdict, Verdict::Drop(want), "{family:?}: forged packet {i}");
        }
    }
    verdicts.extend(through(probes, NOW_NS + PROBE_DELAY_MS * 1_000_000).into_iter().map(|r| r.0));
    let (processed, dropped, drops) = (0, 0, Default::default());
    let stats = DatapathStats { processed, dropped, drops, ..engine.stats() };
    Outcome { verdicts, bytes, stats }
}

#[test]
fn forged_flyovers_do_not_move_router_state() {
    for family in EngineFamily::ALL {
        let (workload, probes) = legitimate(family);
        let mixed = with_forgeries(family, &workload);
        for batched in [false, true] {
            let alone = run(family, &workload, |_| true, &probes, batched);
            if family.has_priority_class() {
                let probed = &alone.verdicts[workload.len()..];
                assert!(
                    alone.stats.demoted_overuse > 0,
                    "{family:?}: the workload trips the policer"
                );
                assert!(
                    probed.iter().any(|v| v.is_flyover()),
                    "{family:?}: probes see refilled slots"
                );
            }
            let flooded = run(family, &mixed, |i| i % 5 == 0, &probes, batched);
            let label = format!("{family:?}, batched: {batched}");
            assert_eq!(flooded.verdicts, alone.verdicts, "legitimate verdicts ({label})");
            assert!(flooded.bytes == alone.bytes, "legitimate packet bytes ({label})");
            assert_eq!(flooded.stats, alone.stats, "counters ({label})");
        }
    }
}
