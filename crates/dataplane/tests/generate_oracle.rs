//! Differential oracle for the source's packet generator.
//!
//! `reference` holds a verbatim copy of `SourceGenerator::generate` as it
//! was before the generator cached its header bytes: it rebuilds the
//! `Packet` object model for every packet (`generate_packet`) and
//! serializes it with `Packet::to_bytes`. Both generators are driven
//! through the same random call sequences — 1-3 segments of 1-8 hops,
//! now and then one the path already carries as a flyover field,
//! reservations on any subset of the hops, payloads of 0-2000 B plus ones
//! whose `PktLen` or `PayloadLen` overflows, send times before the
//! reservation start and more than 18 h after it, same-millisecond
//! bursts, and attach, detach and payload-length changes between calls.
//! Every call must return the identical `Result<Vec<u8>, GenError>`; the
//! new generator alternates between `generate` and `generate_into` over
//! one reused buffer that starts with random length, capacity and
//! contents.

use hummingbird_crypto::{AuthKey, ResInfo, BW_ENC_MAX, RES_ID_MAX};
use hummingbird_dataplane::{GenError, SourceGenerator, SourceReservation};
use hummingbird_wire::hopfield::{FlyoverHopField, HopField, HopFlags, InfoField};
use hummingbird_wire::meta::PathMetaHdr;
use hummingbird_wire::path::{HummingbirdPath, PathField};
use hummingbird_wire::IsdAs;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The generator the header cache replaced, kept verbatim.
mod reference {
    use hummingbird_crypto::{aggregate_mac, FlyoverMacInput};
    use hummingbird_dataplane::{GenError, SourceReservation};
    use hummingbird_wire::common::IsdAs;
    use hummingbird_wire::hopfield::{FlyoverHopField, HopFlags};
    use hummingbird_wire::packet::{Packet, PacketBuilder};
    use hummingbird_wire::path::{HummingbirdPath, PathField};

    pub struct SourceGenerator {
        builder: PacketBuilder,
        base_path: HummingbirdPath,
        reservations: Vec<Option<SourceReservation>>,
        counter: u16,
        last_ms: u64,
        dst: IsdAs,
    }

    impl SourceGenerator {
        pub fn new(src: IsdAs, dst: IsdAs, path: HummingbirdPath) -> Self {
            let n = path.hops.len();
            SourceGenerator {
                builder: PacketBuilder::new(src, dst),
                base_path: path,
                reservations: vec![None; n],
                counter: 0,
                last_ms: 0,
                dst,
            }
        }

        pub fn attach_reservation(
            &mut self,
            index: usize,
            res: SourceReservation,
        ) -> Result<(), GenError> {
            let hop = self.base_path.hops.get(index).ok_or(GenError::NoSuchHop)?;
            if hop.cons_ingress() != res.res_info.ingress
                || hop.cons_egress() != res.res_info.egress
            {
                return Err(GenError::InterfaceMismatch);
            }
            self.reservations[index] = Some(res);
            Ok(())
        }

        pub fn detach_reservation(&mut self, index: usize) {
            if let Some(slot) = self.reservations.get_mut(index) {
                *slot = None;
            }
        }

        pub fn generate(&mut self, payload: &[u8], now_ms: u64) -> Result<Vec<u8>, GenError> {
            let pkt = self.generate_packet(payload, now_ms)?;
            Ok(pkt.to_bytes()?)
        }

        pub fn generate_packet(&mut self, payload: &[u8], now_ms: u64) -> Result<Packet, GenError> {
            // Unique (BaseTS, MillisTS, Counter) per packet (App. A.1).
            if now_ms != self.last_ms {
                self.last_ms = now_ms;
                self.counter = 0;
            } else {
                self.counter = self.counter.wrapping_add(1);
            }
            let base_ts = (now_ms / 1000) as u32;
            let millis_ts = (now_ms % 1000) as u16;

            // Build the path: plain hops stay as-is; reserved hops become
            // flyover hop fields. MACs are filled in after the packet length
            // is known (PktLen is authenticated, Eq. 7d).
            let mut path = self.base_path.clone();
            path.meta.base_ts = base_ts;
            path.meta.millis_ts = millis_ts;
            path.meta.counter = self.counter;

            let mut seg_len_delta = [0u16; 3];
            let mut hop_segments = Vec::with_capacity(path.hops.len());
            {
                // Which segment each hop belongs to (for SegLen adjustment).
                let mut seg = 0usize;
                let mut consumed = 0u16;
                for hop in &self.base_path.hops {
                    while consumed >= u16::from(self.base_path.meta.seg_len[seg]) {
                        consumed -= u16::from(self.base_path.meta.seg_len[seg]);
                        seg += 1;
                    }
                    hop_segments.push(seg);
                    consumed += u16::from(hop.units());
                }
            }

            for (i, slot) in self.reservations.iter().enumerate() {
                let Some(res) = slot else { continue };
                let PathField::Hop(hf) = path.hops[i] else {
                    continue; // base path always carries plain hop fields
                };
                let offset = compute_start_offset(base_ts, res.res_info.res_start)?;
                path.hops[i] = PathField::Flyover(FlyoverHopField {
                    flags: HopFlags { flyover: true, ..hf.flags },
                    exp_time: hf.exp_time,
                    cons_ingress: hf.cons_ingress,
                    cons_egress: hf.cons_egress,
                    agg_mac: hf.mac, // placeholder; XORed below
                    res_id: res.res_info.res_id,
                    bw: res.res_info.bw_encoded,
                    res_start_offset: offset,
                    res_duration: res.res_info.duration,
                });
                seg_len_delta[hop_segments[i]] += 2; // 20 B vs 12 B = +2 units
            }
            for (i, delta) in seg_len_delta.iter().enumerate() {
                path.meta.seg_len[i] = path.meta.seg_len[i].saturating_add(*delta as u8);
            }

            // Assemble to learn PktLen, then compute flyover MACs (Table 4:
            // "Compute flyover MACs" happens per packet for all on-path ASes).
            let mut pkt = self.builder.build(path, payload.to_vec())?;
            let pkt_len = pkt.pkt_len()?;
            for (i, slot) in self.reservations.iter().enumerate() {
                let Some(res) = slot else { continue };
                let PathField::Flyover(ref mut fly) = pkt.path.hops[i] else { continue };
                let input = FlyoverMacInput {
                    dst_isd: self.dst.isd,
                    dst_as: self.dst.asn,
                    pkt_len,
                    res_start_offset: fly.res_start_offset,
                    millis_ts,
                    counter: pkt.path.meta.counter,
                };
                let fly_mac = res.key.flyover_mac(&input);
                fly.agg_mac = aggregate_mac(&fly.agg_mac, &fly_mac);
            }
            Ok(pkt)
        }
    }

    fn compute_start_offset(base_ts: u32, res_start: u32) -> Result<u16, GenError> {
        if base_ts < res_start {
            return Err(GenError::StartOffsetOutOfRange);
        }
        u16::try_from(base_ts - res_start).map_err(|_| GenError::StartOffsetOutOfRange)
    }
}

/// SplitMix64: the oracle draws its call sequences from one seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// Unix seconds around which every call sequence sends.
const EPOCH_S: u64 = 1_700_000_000;

const SRC: IsdAs = IsdAs::new(1, 0x10);
const DST: IsdAs = IsdAs::new(2, 0xffff_0000_0020);

/// A base path over `hops_per_segment`: plain hop fields and, if
/// `carried_flyovers`, now and then a flyover field the path already
/// carries.
fn base_path(rng: &mut Mix, hops_per_segment: &[usize], carried_flyovers: bool) -> HummingbirdPath {
    let mut seg_len = [0u8; 3];
    let mut info = Vec::new();
    let mut hops = Vec::new();
    for (s, &n) in hops_per_segment.iter().enumerate() {
        info.push(InfoField {
            peering: rng.chance(4),
            cons_dir: rng.chance(2),
            seg_id: rng.next() as u16,
            timestamp: rng.next() as u32,
        });
        for _ in 0..n {
            let mac = rng.next().to_be_bytes();
            let hop = HopField {
                flags: HopFlags {
                    flyover: false,
                    ingress_alert: rng.chance(4),
                    egress_alert: rng.chance(4),
                },
                exp_time: rng.next() as u8,
                cons_ingress: rng.next() as u16,
                cons_egress: rng.next() as u16,
                mac: [mac[0], mac[1], mac[2], mac[3], mac[4], mac[5]],
            };
            let field = if carried_flyovers && rng.chance(8) {
                PathField::Flyover(FlyoverHopField {
                    flags: HopFlags { flyover: true, ..hop.flags },
                    exp_time: hop.exp_time,
                    cons_ingress: hop.cons_ingress,
                    cons_egress: hop.cons_egress,
                    agg_mac: hop.mac,
                    res_id: rng.below(u64::from(RES_ID_MAX) + 1) as u32,
                    bw: rng.below(u64::from(BW_ENC_MAX) + 1) as u16,
                    res_start_offset: rng.next() as u16,
                    res_duration: rng.next() as u16,
                })
            } else {
                PathField::Hop(hop)
            };
            seg_len[s] += field.units();
            hops.push(field);
        }
    }
    HummingbirdPath {
        meta: PathMetaHdr {
            curr_inf: 0,
            curr_hf: 0,
            seg_len,
            base_ts: 0,
            millis_ts: 0,
            counter: 0,
        },
        info,
        hops,
    }
}

/// A reservation for `hop`, mostly starting in the hour before the epoch.
/// Rarely it carries out-of-range wire fields or mismatched interfaces,
/// so the oracle also compares the error paths.
fn reservation(rng: &mut Mix, hop: &PathField) -> SourceReservation {
    let mut ingress = hop.cons_ingress();
    let egress = hop.cons_egress();
    if rng.chance(16) {
        ingress = ingress.wrapping_add(1);
    }
    let res_id = if rng.chance(24) { RES_ID_MAX + 1 } else { rng.below(1 << 22) as u32 };
    let bw_encoded = if rng.chance(24) { BW_ENC_MAX + 1 } else { rng.below(1 << 10) as u16 };
    let res_start = if rng.chance(8) {
        EPOCH_S + rng.below(3 * 3600)
    } else {
        EPOCH_S - 3600 + rng.below(3600)
    } as u32;
    let res_info =
        ResInfo { ingress, egress, res_id, bw_encoded, res_start, duration: rng.next() as u16 };
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&rng.next().to_be_bytes());
    key[8..].copy_from_slice(&rng.next().to_be_bytes());
    SourceReservation { res_info, key: AuthKey::new(key) }
}

/// A payload length: mostly 0-2000 B, sometimes one that overflows
/// `PktLen` (`PayloadLen + 4·HdrLen > u16::MAX`) or `PayloadLen` itself.
fn payload_len(rng: &mut Mix) -> usize {
    match rng.below(32) {
        0 => usize::from(u16::MAX) + 1 + rng.below(5000) as usize,
        1 => usize::from(u16::MAX) - rng.below(400) as usize,
        _ => rng.below(2001) as usize,
    }
}

/// A send time: mostly within a few hours of the epoch, sometimes before
/// every reservation or more than 18 h after it.
fn send_ms(rng: &mut Mix) -> u64 {
    let s = match rng.below(16) {
        0 => EPOCH_S - 2 * 3600 - rng.below(3600),
        1 => EPOCH_S + 20 * 3600 + rng.below(3600),
        _ => EPOCH_S + rng.below(3 * 3600),
    };
    s * 1000 + rng.below(1000)
}

/// Runs one random call sequence through both generators, comparing
/// every result; tallies each outcome by its `Debug` name into `seen`.
fn run_sequence(seed: u64, seen: &mut BTreeMap<String, u64>) -> Result<(), String> {
    let mut rng = Mix(seed);
    let segments = 1 + rng.below(3) as usize;
    let shape: Vec<usize> = (0..segments).map(|_| 1 + rng.below(8) as usize).collect();
    let path = base_path(&mut rng, &shape, true);
    let n = path.hops.len();
    let mut new = SourceGenerator::new(SRC, DST, path.clone());
    let mut old = reference::SourceGenerator::new(SRC, DST, path.clone());

    // Start from a random subset of reserved hops.
    let mask = rng.next();
    for (i, hop) in path.hops.iter().enumerate() {
        if mask >> i & 1 == 1 {
            let res = reservation(&mut rng, hop);
            let (a, b) = (new.attach_reservation(i, res.clone()), old.attach_reservation(i, res));
            if a != b {
                return Err(format!("seed {seed}: attach {i}: {a:?} vs {b:?}"));
            }
        }
    }

    let mut payload = vec![0u8; payload_len(&mut rng)];
    let mut now_ms = send_ms(&mut rng);
    // `generate_into`'s buffer starts dirty: random length, spare
    // capacity and contents.
    let mut buf = Vec::with_capacity(rng.below(4096) as usize);
    buf.extend((0..rng.below(3000)).map(|_| rng.next() as u8));
    for call in 0..48 {
        match rng.below(16) {
            0 => {
                let i = rng.below(n as u64 + 1) as usize;
                let hop = path.hops.get(i).unwrap_or(&path.hops[0]);
                let res = reservation(&mut rng, hop);
                let (a, b) =
                    (new.attach_reservation(i, res.clone()), old.attach_reservation(i, res));
                if a != b {
                    return Err(format!("seed {seed} call {call}: attach {i}: {a:?} vs {b:?}"));
                }
            }
            1 => {
                let i = rng.below(n as u64 + 1) as usize;
                new.detach_reservation(i);
                old.detach_reservation(i);
            }
            2 | 3 => payload = vec![0u8; payload_len(&mut rng)],
            _ => {}
        }
        // Same-millisecond bursts, small steps and jumps.
        now_ms = match rng.below(8) {
            0..=2 => now_ms,
            3..=5 => now_ms + 1 + rng.below(1500),
            _ => send_ms(&mut rng),
        };
        let fill = rng.next() as u8;
        payload.iter_mut().enumerate().for_each(|(k, b)| *b = fill ^ k as u8);
        // Calls alternate between `generate` and `generate_into` on the
        // one reused buffer, which must come out empty on an error.
        let got: Result<Vec<u8>, GenError> = if call % 2 == 0 {
            new.generate(&payload, now_ms)
        } else {
            let got = new.generate_into(&payload, now_ms, &mut buf).map(|()| buf.clone());
            if got.is_err() && !buf.is_empty() {
                return Err(format!("seed {seed} call {call}: {} B left after {got:?}", buf.len()));
            }
            got
        };
        let want = old.generate(&payload, now_ms);
        let outcome = match &want {
            Ok(_) => "Ok".to_string(),
            Err(e) => format!("{e:?}"),
        };
        *seen.entry(outcome).or_default() += 1;
        if got != want {
            return Err(format!(
                "seed {seed} call {call}: shape {shape:?}, payload {} B, now {now_ms} ms:\n \
                 got  {:?}\n want {:?}",
                payload.len(),
                got.as_ref().map(|b| b.len()),
                want.as_ref().map(|b| b.len()),
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generate_matches_the_reference(seed: u64) {
        run_sequence(seed, &mut BTreeMap::new())?;
    }
}

/// The random sequences reach every outcome the generator has: packets,
/// start offsets out of range, and the wire errors of an out-of-range
/// field and of an overflowing `PktLen`.
#[test]
fn sequences_reach_every_outcome() {
    let mut seen = BTreeMap::new();
    for seed in 0..64 {
        run_sequence(seed, &mut seen).unwrap();
    }
    for outcome in ["Ok", "StartOffsetOutOfRange", "Wire(FieldRange)", "Wire(PktLenOverflow)"] {
        assert!(seen.get(outcome).is_some_and(|&n| n > 0), "{outcome} never reached: {seen:?}");
    }
}

/// Every subset of reserved hops on a 3-segment path, each in a short
/// same-millisecond burst, then again after a jump past the 16-bit
/// start-offset range.
#[test]
fn every_reserved_hop_subset_matches_the_reference() {
    let mut rng = Mix(7);
    let path = base_path(&mut rng, &[3, 2, 3], false);
    let n = path.hops.len();
    let reservations: Vec<SourceReservation> = path
        .hops
        .iter()
        .map(|hop| {
            let mut res = reservation(&mut rng, hop);
            res.res_info.ingress = hop.cons_ingress();
            res.res_info.res_id %= RES_ID_MAX + 1;
            res.res_info.bw_encoded %= BW_ENC_MAX + 1;
            res.res_info.res_start = (EPOCH_S - 3600) as u32;
            res
        })
        .collect();
    for mask in 0u32..1 << n {
        let mut new = SourceGenerator::new(SRC, DST, path.clone());
        let mut old = reference::SourceGenerator::new(SRC, DST, path.clone());
        for (i, res) in reservations.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1) {
            new.attach_reservation(i, res.clone()).unwrap();
            old.attach_reservation(i, res.clone()).unwrap();
        }
        let payload = vec![0x5a; 200 + mask as usize];
        for now_ms in
            [EPOCH_S * 1000, EPOCH_S * 1000, EPOCH_S * 1000 + 1, (EPOCH_S + 70_000) * 1000]
        {
            let got = new.generate(&payload, now_ms);
            assert_eq!(got, old.generate(&payload, now_ms), "mask {mask:#b} at {now_ms}");
            assert_eq!(got.is_ok(), mask == 0 || now_ms < (EPOCH_S + 60_000) * 1000, "{mask:#b}");
        }
    }
}
