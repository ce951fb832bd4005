//! One differential suite for the data plane: [`reference`], written from
//! the paper and from each baseline family's definition, against the
//! implementation on the same inputs.
//!
//! * The source: `SourceGenerator::generate` and `generate_into` (in
//!   turn, over one reused buffer that starts dirty) must return the
//!   reference source's bytes or `GenError`.
//! * The border router of every [`EngineFamily`]: `process` per packet,
//!   `process_batch` on bursts cut at random points, and a
//!   `ShardedRouter` of 1–5 shards under the family's own steering
//!   through both must each give, after every burst, the reference
//!   router's verdicts, output bytes and `DatapathStats`. A traffic case
//!   ends with one probe per ResID it touched, which reads that ResID's
//!   policer state.
//!
//! It lives in the lowest crate with all four families in scope. A
//! failure prints the family, the first packet that diverges, both
//! results and the reference rule that fired. Cases run from fixed seeds
//! (the proptest shim does not shrink either), so the seed in a message
//! reproduces one.

#[path = "../../dataplane/tests/reference/mod.rs"]
mod reference;

use hummingbird_baselines::{EngineFamily, SLOT_SECS};
use hummingbird_crypto::{AuthKey, ResInfo, SecretValue, BW_ENC_MAX, RES_ID_MAX};
use hummingbird_dataplane::router::stages::{self, HopKind, Parsed};
use hummingbird_dataplane::{
    forge_path, BeaconHop, Datapath, DropReason, GenError, PacketBuf, RouterConfig,
    SourceGenerator, SourceReservation,
};
use hummingbird_wire::common::{AddressHeader, CommonHeader, PATH_TYPE_HUMMINGBIRD};
use hummingbird_wire::hopfield::{FlyoverHopField, HopField, HopFlags, InfoField};
use hummingbird_wire::meta::PathMetaHdr;
use hummingbird_wire::path::{HummingbirdPath, PathField};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::{bwcls, IsdAs, PacketBuilder};
use std::collections::BTreeMap;

/// SplitMix64: every case draws its inputs from one seed.
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

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }

    fn bytes<const N: usize>(&mut self) -> [u8; N] {
        std::array::from_fn(|_| self.byte())
    }
}

/// A random hop field, a flyover one if `flyover`, its reserved flag bits
/// clear.
fn hop_field(rng: &mut Mix, flyover: bool) -> PathField {
    let mut b: [u8; 20] = rng.bytes();
    b[0] = b[0] & 0x03 | u8::from(flyover) << 7;
    let field = match b.first_chunk() {
        Some(plain) if !flyover => HopField::decode(plain).map(PathField::Hop),
        _ => FlyoverHopField::decode(&b).map(PathField::Flyover),
    };
    field.expect("the flyover bit matches the kind")
}

// The source.

/// Unix seconds around which every source sequence sends.
const EPOCH_S: u64 = 1_700_000_000;

/// The implementation's source and the reference source, driven through
/// the same calls.
struct Sources {
    new: SourceGenerator,
    reference: reference::Source,
    buf: Vec<u8>,
    calls: usize,
}

impl Sources {
    /// Sources over `path`; `generate_into`'s buffer starts with random
    /// length, spare capacity and contents.
    fn new(rng: &mut Mix, src: IsdAs, dst: IsdAs, path: HummingbirdPath) -> Self {
        let mut buf = Vec::with_capacity(rng.below(4096) as usize);
        buf.extend((0..rng.below(3000)).map(|_| rng.byte()));
        let reference = reference::Source::new(src, dst, path.clone());
        Sources { new: SourceGenerator::new(src, dst, path), reference, buf, calls: 0 }
    }

    fn attach(&mut self, i: usize, res: SourceReservation) -> Result<(), String> {
        let want = self.reference.attach(i, res.res_info, res.key.to_bytes());
        let got = self.new.attach_reservation(i, res);
        (got == want).then_some(()).ok_or(format!("attach {i}: {got:?}, want {want:?}"))
    }

    fn detach(&mut self, i: usize) {
        self.new.detach_reservation(i);
        self.reference.detach(i);
    }

    /// One packet from both; calls alternate between `generate` and
    /// `generate_into`, whose buffer must come out empty on an error.
    fn generate(
        &mut self,
        payload: &[u8],
        at_ms: u64,
    ) -> Result<Result<Vec<u8>, GenError>, String> {
        self.calls += 1;
        let got = if self.calls.is_multiple_of(2) {
            self.new.generate(payload, at_ms)
        } else {
            let got = self.new.generate_into(payload, at_ms, &mut self.buf);
            if got.is_err() && !self.buf.is_empty() {
                return Err(format!("{} B left in the buffer after {got:?}", self.buf.len()));
            }
            got.map(|()| self.buf.clone())
        };
        let want = self.reference.generate(payload, at_ms);
        let call = format!("call {}: payload {} B at {at_ms} ms", self.calls, payload.len());
        if got != want {
            return Err(format!("{call}:\n  got  {got:02x?}\n  want {want:02x?}"));
        }
        Ok(want)
    }
}

/// A base path over `hops_per_segment`: plain hop fields and, if
/// `carried_flyovers`, now and then a flyover field the path already
/// carries.
fn base_path(rng: &mut Mix, hops_per_segment: &[usize], carried_flyovers: bool) -> HummingbirdPath {
    let (mut meta, mut info, mut hops) = (PathMetaHdr::default(), Vec::new(), Vec::new());
    for (s, &n) in hops_per_segment.iter().enumerate() {
        info.push(InfoField::decode(&rng.bytes()));
        for _ in 0..n {
            let flyover = carried_flyovers && rng.chance(8);
            let field = hop_field(rng, flyover);
            meta.seg_len[s] += field.units();
            hops.push(field);
        }
    }
    HummingbirdPath { meta, info, hops }
}

/// A reservation for `hop`, mostly starting in the hour before the epoch.
/// Rarely it carries out-of-range wire fields or mismatched interfaces,
/// so the error paths are compared too.
fn reservation(rng: &mut Mix, hop: &PathField) -> SourceReservation {
    let ingress = hop.cons_ingress().wrapping_add(u16::from(rng.chance(16)));
    let res_id = if rng.chance(24) { RES_ID_MAX + 1 } else { rng.below(1 << 22) as u32 };
    let bw_encoded = if rng.chance(24) { BW_ENC_MAX + 1 } else { rng.below(1 << 10) as u16 };
    let start = if rng.chance(8) {
        EPOCH_S + rng.below(3 * 3600)
    } else {
        EPOCH_S - 3600 + rng.below(3600)
    };
    let (egress, res_start, duration) = (hop.cons_egress(), start as u32, rng.next() as u16);
    let res_info = ResInfo { ingress, egress, res_id, bw_encoded, res_start, duration };
    SourceReservation { res_info, key: AuthKey::new(rng.bytes()) }
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

/// One random call sequence through both sources: 1-3 segments of 1-8
/// hops, now and then one the path already carries as a flyover field,
/// reservations on any subset of them, attach, detach and payload changes
/// between calls, same-millisecond bursts, small steps and jumps. Tallies
/// each outcome by its `Debug` name into `seen`.
fn run_sequence(seed: u64, seen: &mut BTreeMap<String, u64>) -> Result<(), String> {
    let mut rng = Mix(seed);
    let shape: Vec<usize> = (0..1 + rng.below(3)).map(|_| 1 + rng.below(8) as usize).collect();
    let path = base_path(&mut rng, &shape, true);
    let (n, dst) = (path.hops.len() as u64, IsdAs::new(2, 0xffff_0000_0020));
    let mut sources = Sources::new(&mut rng, IsdAs::new(1, 0x10), dst, path.clone());
    let mask = rng.next();
    for (i, hop) in path.hops.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1) {
        sources.attach(i, reservation(&mut rng, hop))?;
    }
    let (mut payload, mut at_ms) = (vec![0u8; payload_len(&mut rng)], send_ms(&mut rng));
    for _ in 0..48 {
        match rng.below(16) {
            0 => {
                let i = rng.below(n + 1) as usize;
                sources
                    .attach(i, reservation(&mut rng, path.hops.get(i).unwrap_or(&path.hops[0])))?;
            }
            1 => sources.detach(rng.below(n + 1) as usize),
            2 | 3 => payload = vec![0u8; payload_len(&mut rng)],
            _ => {}
        }
        at_ms = match rng.below(8) {
            0..=2 => at_ms,
            3..=5 => at_ms + 1 + rng.below(1500),
            _ => send_ms(&mut rng),
        };
        let fill = rng.byte();
        payload.iter_mut().enumerate().for_each(|(k, b)| *b = fill ^ k as u8);
        let outcome = sources.generate(&payload, at_ms).map_err(|e| format!("seed {seed}: {e}"))?;
        *seen.entry(outcome.map_or_else(|e| format!("{e:?}"), |_| "Ok".into())).or_default() += 1;
    }
    Ok(())
}

/// The sources agree on random call sequences, which reach every outcome:
/// packets, start offsets out of range, and the wire errors of an
/// out-of-range field and of an overflowing `PktLen`.
#[test]
fn source_matches_the_reference() {
    let mut seen = BTreeMap::new();
    for seed in 0..192 {
        run_sequence(seed, &mut seen).unwrap_or_else(|e| panic!("{e}"));
    }
    for outcome in ["Ok", "StartOffsetOutOfRange", "Wire(FieldRange)", "Wire(PktLenOverflow)"] {
        assert!(seen.get(outcome).is_some_and(|&n| n > 0), "{outcome} never reached: {seen:?}");
    }
}

// The border router.

/// The router's engine family and AS secrets: its SV (Hummingbird) or
/// DRKey master (the baselines), and its hop-field key.
#[derive(Clone, Copy)]
struct Keys {
    family: EngineFamily,
    secret: [u8; 16],
    hop: [u8; 16],
}

impl Keys {
    /// The key a sender from `src` holds for `res` at `now_s`: the one the
    /// reference router derives.
    fn key(self, res: &ResInfo, src: IsdAs, now_s: u64) -> AuthKey {
        let (family, now_s) = (self.family, now_s.into());
        AuthKey::new(reference::flyover_key(family, &self.secret, res, src, SRC_HOST, now_s))
    }

    /// `res` as a sender holds it after asking at `now_s`: a Helia grant
    /// covers the 16 s slot of `now_s`; any other reservation stays.
    fn grant(self, res: ResInfo, now_s: u64) -> ResInfo {
        let res_start = (now_s / SLOT_SECS * SLOT_SECS) as u32;
        match self.family {
            EngineFamily::Helia => ResInfo { res_start, duration: SLOT_SECS as u16, ..res },
            _ => res,
        }
    }

    /// The period a credential issued at `s` (Unix s) is good for: a Helia
    /// grant its slot, a DRKey or EPIC key its epoch, a Hummingbird
    /// reservation one period forever.
    fn period(self, s: u64) -> u64 {
        match self.family {
            EngineFamily::Hummingbird => 0,
            EngineFamily::Helia => s / SLOT_SECS,
            EngineFamily::Drkey | EngineFamily::Epic => s / DRKEY_EPOCH_SECS,
        }
    }
}

/// The reference router and the four entry points under test, all of one
/// family, fed the same bursts; tallies the reference rule behind every
/// verdict, and whether a router of two or more shards was compared on it.
///
/// Each shard's duplicate filter advances its epochs with the traffic it
/// sees, so once the clock steps back below the newest epoch, a sharded
/// router may still hold a replay's identity that one router's filter has
/// let go (see `ShardedRouter`). From there on, a run with the filter on
/// compares only the unsharded entry points.
struct Run {
    reference: reference::Router,
    engines: Vec<(&'static str, Box<dyn Datapath + Send>)>,
    shards: usize,
    cuts: Mix,
    rules: BTreeMap<(&'static str, bool), u64>,
    /// The duplicate filter's epoch length, if it is on, and the newest
    /// epoch seen.
    epochs: Option<(u64, u64)>,
}

impl Run {
    fn new(keys: Keys, cfg: RouterConfig, shards: usize, seed: u64) -> Self {
        let (family, sv) = (keys.family, SecretValue::new(keys.secret));
        let hop_key = HopMacKey::new(keys.hop);
        let engine = || family.engine(&sv, &hop_key, &keys.secret, cfg);
        let sharded = || Box::new(family.sharded_engine(shards, &sv, &hop_key, &keys.secret, cfg));
        let engines: Vec<(_, Box<dyn Datapath + Send>)> = vec![
            ("process", engine()),
            ("process_batch", engine()),
            ("sharded process", sharded()),
            ("sharded process_batch", sharded()),
        ];
        let reference = reference::Router::new(family, keys.secret, keys.hop, cfg);
        let window_ns = (cfg.max_packet_age_ms + 2 * cfg.max_clock_skew_ms) * 1_000_000;
        let filter = cfg.duplicate_suppression && reference::filters_duplicates(family);
        let epochs = filter.then_some((window_ns, 0));
        Run { reference, engines, shards, cuts: Mix(seed), rules: BTreeMap::new(), epochs }
    }

    /// One burst at `now_ns`; the batch entry points take it in pieces cut
    /// at random points.
    fn burst(&mut self, pkts: &[Vec<u8>], now_ns: u64) -> Result<(), String> {
        if let Some((window_ns, newest)) = &mut self.epochs {
            if now_ns / *window_ns < *newest {
                self.engines.retain(|(name, _)| !name.starts_with("sharded"));
            }
            *newest = (*newest).max(now_ns / *window_ns);
        }
        let across_shards = self.shards > 1 && self.engines.len() == 4;
        let mut want = Vec::new();
        for pkt in pkts {
            let mut out = pkt.clone();
            let (verdict, rule) = self.reference.process(&mut out, now_ns);
            *self.rules.entry((rule, across_shards)).or_default() += 1;
            want.push((verdict, out, rule));
        }
        for (k, (name, engine)) in self.engines.iter_mut().enumerate() {
            let mut bufs: Vec<PacketBuf> = pkts.iter().cloned().map(PacketBuf::new).collect();
            let (mut got, mut rest) = (Vec::new(), &mut bufs[..]);
            while !rest.is_empty() {
                let cut =
                    if k % 2 == 0 { 1 } else { 1 + self.cuts.below(rest.len() as u64) as usize };
                let (piece, tail) = rest.split_at_mut(cut);
                match piece {
                    [one] if k % 2 == 0 => got.push(engine.process(one.bytes_mut(), now_ns)),
                    _ => engine.process_batch(piece, now_ns, &mut got),
                }
                rest = tail;
            }
            if got.len() != pkts.len() {
                return Err(format!("{name}: {} verdicts for {} packets", got.len(), pkts.len()));
            }
            let outs = bufs.into_iter().map(PacketBuf::into_inner);
            for (i, ((v, out), (w, want, rule))) in got.into_iter().zip(outs).zip(&want).enumerate()
            {
                if (&v, &out) != (w, want) {
                    return Err(format!(
                        "{name}: packet {i} of {} at {now_ns} ns:\n  in   {:02x?}\n  got  {v:?} \
                         {out:02x?}\n  want {w:?} {want:02x?}\n  rule {rule}",
                        pkts.len(),
                        pkts[i],
                    ));
                }
            }
            let (got, want) = (engine.stats(), self.reference.stats);
            if got != want {
                return Err(format!("{name}: at {now_ns} ns:\n  got  {got:?}\n  want {want:?}"));
            }
        }
        Ok(())
    }
}

/// Byte offsets of the path header's parts.
const META_OFF: usize = 36;
const INFO_OFF: usize = 48;

/// A well-formed packet of `segments` segments (1-3), each of 1-4 hop
/// fields; `flyover_share` in 0..=4 quarters picks how many hops are
/// flyovers. The current hop is a random one of them.
fn packet(rng: &mut Mix, segments: usize, flyover_share: u64) -> Vec<u8> {
    let (base_ts, millis_ts, counter) =
        (rng.next() as u32, rng.next() as u16 % 1000, rng.next() as u16);
    let mut meta = PathMetaHdr { base_ts, millis_ts, counter, ..Default::default() };
    let (mut info, mut hops, mut boundaries, mut units) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for seg in 0..segments {
        info.push(InfoField::decode(&rng.bytes()));
        for _ in 0..1 + rng.below(4) {
            let flyover = rng.below(4) < flyover_share;
            let hop = hop_field(rng, flyover);
            boundaries.push((seg as u8, units));
            (units, meta.seg_len[seg]) = (units + hop.units(), meta.seg_len[seg] + hop.units());
            hops.push(hop);
        }
    }
    (meta.curr_inf, meta.curr_hf) = boundaries[rng.below(boundaries.len() as u64) as usize];
    let payload = vec![rng.byte(); rng.below(200) as usize];
    PacketBuilder::new(IsdAs::new(1, rng.next()), IsdAs::new(2, rng.next()))
        .build(HummingbirdPath { meta, info, hops }, payload)
        .and_then(|p| p.to_bytes())
        .expect("generated paths are well formed")
}

/// Writes `count` random bytes at random offsets of `pkt[range]`.
fn scribble(rng: &mut Mix, pkt: &mut [u8], range: std::ops::Range<usize>, count: u64) {
    let range = range.start.min(pkt.len())..range.end.min(pkt.len());
    for _ in 0..count.min(range.len() as u64) {
        pkt[range.start + rng.below(range.len() as u64) as usize] = rng.byte();
    }
}

/// A packet whose current hop field, plain or flyover, sits at the end of
/// a 127 + 127-unit path, past the 1 020 bytes `4·HdrLen` can declare,
/// with a MAC that verifies; and what a parser that ignored the header
/// bound would make of it. Advancing CurrHF there would overflow it.
fn past_header(keys: Keys, now_s: u32, flyover: bool) -> (Vec<u8>, Parsed) {
    let mut pkt = vec![0u8; 1088];
    // HdrLen 255 units, PayloadLen 68 bytes; source and destination 0-0.
    (pkt[5], pkt[7], pkt[8]) = (255, 68, PATH_TYPE_HUMMINGBIRD);
    let curr_hf = if flyover { 251 } else { 253 };
    let seg_len = [127, 127, 0];
    let meta = PathMetaHdr { curr_inf: 1, curr_hf, seg_len, base_ts: now_s, ..Default::default() };
    let info = InfoField { peering: false, cons_dir: true, seg_id: 0x1234, timestamp: now_s - 100 };
    meta.emit(&mut pkt[META_OFF..]).unwrap();
    info.emit(&mut pkt[INFO_OFF + 8..]).unwrap();
    let mac = reference::HopKey::new(keys.hop).mac(info.seg_id, info.timestamp, 63, 0, 1);
    let hf =
        HopField { flags: HopFlags::default(), exp_time: 63, cons_ingress: 0, cons_egress: 1, mac };
    let hop_off = INFO_OFF + 16 + 4 * usize::from(curr_hf);
    let hop = if flyover {
        let (res_id, bw, duration, res_start) = (7, 400, 600, now_s - 50);
        let res = ResInfo { ingress: 0, egress: 1, res_id, bw_encoded: bw, res_start, duration };
        let key = reference::auth_key(&keys.secret, &res);
        let v = reference::flyover_mac(&key, IsdAs::default(), 1088, 50, &meta);
        let f = FlyoverHopField {
            flags: HopFlags { flyover: true, ..hf.flags },
            exp_time: 63,
            cons_ingress: 0,
            cons_egress: 1,
            agg_mac: std::array::from_fn(|i| mac[i] ^ v[i]),
            res_id,
            bw,
            res_start_offset: 50,
            res_duration: duration,
        };
        f.emit(&mut pkt[hop_off..]).unwrap();
        HopKind::Flyover(f)
    } else {
        hf.emit(&mut pkt[hop_off..]).unwrap();
        HopKind::Plain(hf)
    };
    let (common, addr) =
        (CommonHeader::parse(&pkt).unwrap(), AddressHeader::parse(&pkt[12..]).unwrap());
    (pkt, Parsed { common, addr, meta, info, info_off: INFO_OFF + 8, hop_off, hop })
}

/// `advance` itself refuses a CurrHF that would not fit, whatever
/// `parse` let through.
#[test]
fn advance_refuses_a_curr_hf_that_does_not_fit() {
    let keys = Keys { family: EngineFamily::Hummingbird, secret: [1; 16], hop: [2; 16] };
    for flyover in [false, true] {
        let (mut pkt, parsed) = past_header(keys, 1_700_000_096, flyover);
        assert_eq!(stages::advance(&mut pkt, &parsed, &[0; 6]), Err(DropReason::Malformed));
    }
}

/// Header edges, at a router of each family in turn: a generated packet,
/// plain, flyover or multi-segment, at any hop position, with random bytes
/// in one region of it (the fixed prefix, the meta word, the hop pointers
/// alone, the info fields or the hop fields) or none; then every
/// truncation of it, and the two packets whose hop field lies past the
/// declared header. Or random bytes.
#[test]
fn router_matches_the_reference_on_header_edges() {
    const NOW_S: u32 = 1_700_000_096;
    for seed in 0..160 {
        let (mut rng, family) = (Mix(seed), EngineFamily::ALL[seed as usize % 4]);
        let keys = Keys { family, secret: rng.bytes(), hop: rng.bytes() };
        let cfg = RouterConfig { duplicate_suppression: rng.chance(2), ..RouterConfig::default() };
        let mut run = Run::new(keys, cfg, 1 + rng.below(5) as usize, seed);
        let (segments, flyover_share) = (1 + rng.below(3) as usize, rng.below(5));
        let mut pkt = packet(&mut rng, segments, flyover_share);
        let (hops_off, hdr_end, count) =
            (INFO_OFF + 8 * segments, 4 * usize::from(pkt[5]), 1 + rng.below(5));
        let word = u32::from_be_bytes(pkt[META_OFF..META_OFF + 4].try_into().unwrap());
        let pointers = word & 0x003f_ffff | (rng.next() as u32) << 22;
        match rng.below(7) {
            0 => scribble(&mut rng, &mut pkt, 0..INFO_OFF, count),
            1 => pkt[META_OFF..META_OFF + 4].copy_from_slice(&rng.bytes::<4>()),
            2 => pkt[META_OFF..META_OFF + 4].copy_from_slice(&pointers.to_be_bytes()),
            3 => scribble(&mut rng, &mut pkt, INFO_OFF..hops_off, count),
            4 => scribble(&mut rng, &mut pkt, hops_off..hdr_end, count),
            5 => {}
            _ => pkt = (0..rng.below(160)).map(|_| rng.byte()).collect(),
        }
        let mut burst: Vec<Vec<u8>> =
            (0..=pkt.len()).rev().map(|len| pkt[..len].to_vec()).collect();
        burst.extend([false, true].map(|flyover| past_header(keys, NOW_S, flyover).0));
        let now_ns = u64::from(NOW_S) * 1_000_000_000 + rng.below(2_000_000_000);
        run.burst(&burst, now_ns).unwrap_or_else(|e| panic!("{family:?}, seed {seed}: {e}"));
    }
}

/// A traffic flow: one source AS, with its own path whose current hop is
/// the router's, and its credential there if it has one.
struct Flow {
    sources: Sources,
    src: IsdAs,
    /// The router's hop on the path.
    at: usize,
    /// The reservation on that hop, whether its key is forged, and when
    /// the sender was last issued a credential for it (Unix s).
    res: Option<ResInfo>,
    forged: bool,
    issued_s: u64,
    hdr_len: usize,
}

impl Flow {
    /// Attaches `res` at the router's hop with the key a sender holds for
    /// it at `now_s`, or a random one if the flow is forged.
    fn issue(&mut self, rng: &mut Mix, keys: Keys, res: ResInfo, now_s: u64) {
        let key =
            if self.forged { AuthKey::new(rng.bytes()) } else { keys.key(&res, self.src, now_s) };
        self.sources.attach(self.at, SourceReservation { res_info: res, key }).unwrap();
        (self.res, self.issued_s) = (Some(res), now_s);
    }
}

/// Reservation rates in kbps: 240 kbps spends the default 50 ms burst
/// budget on exactly one 1 500-byte packet, the slower ones run out after
/// a packet or two, 0 admits nothing and the fastest never runs out.
const RATES_KBPS: [u64; 6] = [240, 100, 300, 1_000, 0, 1 << 35];

/// The source host `PacketBuilder` stamps, which DRKey and EPIC keys bind.
const SRC_HOST: [u8; 4] = [0, 0, 0, 1];

/// A DRKey epoch, in seconds.
const DRKEY_EPOCH_SECS: u64 = 6 * 3600;

/// A flow from source AS `n` whose path, 1-3 segments of 1-4 hops, has the
/// router's hop at a random position, with CurrINF wrong one time in
/// eight and each hop field about to expire one time in eight. With
/// `res_id`, that hop carries a reservation on it, active from `now_s` (a
/// Helia grant for the current slot seven times in eight), its key forged
/// one time in eight, and perhaps a later hop another.
fn flow(rng: &mut Mix, keys: Keys, n: u64, now_s: u64, res_id: Option<u32>) -> Flow {
    let shape: Vec<usize> = (0..1 + rng.below(3)).map(|_| 1 + rng.below(4) as usize).collect();
    let mut path = base_path(rng, &shape, false);
    for info in &mut path.info {
        info.timestamp = (now_s as u32).wrapping_sub(rng.below(3600) as u32);
    }
    let (hop_key, mut hops_at, mut seg) = (reference::HopKey::new(keys.hop), Vec::new(), 0);
    for (i, hop) in path.hops.iter_mut().enumerate() {
        let units = 3 * i as u8;
        seg += usize::from(units == path.meta.seg_len[..=seg].iter().sum::<u8>());
        let (info, PathField::Hop(h)) = (path.info[seg], hop) else { unreachable!("plain hops") };
        h.exp_time = if rng.chance(8) { rng.below(4) as u8 } else { 63 };
        h.mac = hop_key.mac(info.seg_id, info.timestamp, h.exp_time, h.cons_ingress, h.cons_egress);
        hops_at.push((i, seg, units));
    }
    let (at, seg, curr_hf) = hops_at[rng.below(hops_at.len() as u64) as usize];
    path.meta.curr_hf = curr_hf;
    path.meta.curr_inf = if rng.chance(8) { rng.below(3) as u8 } else { seg as u8 };
    let (hops, dst, src) = (path.hops.clone(), IsdAs::new(2, rng.next()), IsdAs::new(1, 0x100 + n));
    let sources = Sources::new(rng, src, dst, path);
    let forged = rng.chance(8);
    let mut flow = Flow { sources, src, at, res: None, forged, issued_s: now_s, hdr_len: 0 };
    let mut reserved = 0;
    if let Some(res_id) = res_id {
        let (ingress, egress) = (hops[at].cons_ingress(), hops[at].cons_egress());
        let bw_encoded = bwcls::encode_floor(RATES_KBPS[rng.below(6) as usize]).unwrap();
        let res_start = (now_s as u32).wrapping_sub(rng.below(600) as u32);
        let duration =
            if rng.chance(4) { rng.below(30) as u16 } else { 600 + rng.below(60_000) as u16 };
        let res = ResInfo { ingress, egress, res_id, bw_encoded, res_start, duration };
        let res = if rng.chance(8) { res } else { keys.grant(res, now_s) };
        flow.issue(rng, keys, res, now_s);
        reserved += 1;
        let later = at + 1 + rng.below(hops.len() as u64) as usize;
        if let Some(hop) = hops.get(later) {
            let extra = ResInfo { ingress: hop.cons_ingress(), egress: hop.cons_egress(), ..res };
            let key = AuthKey::new(rng.bytes());
            flow.sources.attach(later, SourceReservation { res_info: extra, key }).unwrap();
            reserved += 1;
        }
    }
    flow.hdr_len = INFO_OFF + 8 * shape.len() + 12 * hops.len() + 8 * reserved;
    flow
}

/// A valid packet on `res_id` at 300 kbps, fresh and active at `at_ms`:
/// whether the ResID has budget left for it decides its class.
fn probe(rng: &mut Mix, keys: Keys, res_id: u32, at_ms: u64) -> Result<Vec<u8>, String> {
    let now_s = (at_ms / 1000) as u32;
    let hop = BeaconHop { key: HopMacKey::new(keys.hop), cons_ingress: 1, cons_egress: 2 };
    let (src, dst) = (IsdAs::new(3, (1 << 32) + u64::from(res_id)), IsdAs::new(2, 0x20));
    let mut sources = Sources::new(rng, src, dst, forge_path(&[hop], now_s - 100, 7));
    let bw_encoded = bwcls::encode_floor(300).unwrap();
    let res =
        ResInfo { ingress: 1, egress: 2, res_id, bw_encoded, res_start: now_s - 5, duration: 600 };
    let res_info = keys.grant(res, now_s.into());
    let key = keys.key(&res_info, src, now_s.into());
    sources.attach(0, SourceReservation { res_info, key })?;
    sources.generate(&[0; 300], at_ms)?.map_err(|e| format!("probe on ResID {res_id}: {e:?}"))
}

/// One traffic case at a router of `family`: flows with and without
/// reservations (valid, forged, slow, over their rate, some reserving a
/// later hop too), sent in bursts with replays and corrupted packets mixed
/// in, while the clocks move: the router close behind the senders, far
/// behind or ahead of them, back, an hour or more forward with them, onto
/// the last second of a reservation or the first after it, past 2³² s, or
/// to the end of `u64` time. Mid-burst, the senders cross a Helia slot or
/// a DRKey epoch (and ask for new credentials, one time in four keeping
/// the old ones), or a packet's freshness window ends or starts at the
/// router's clock. ResIDs come from a small pool, or each burst opens on a
/// ResID above every earlier one, so the policer's array grows mid-burst
/// up to its 10⁵ slots; now and then one is past them. Tallies the
/// reference rule behind every verdict into `rules`.
fn run_traffic(
    family: EngineFamily,
    seed: u64,
    rules: &mut BTreeMap<(&'static str, &'static str, bool), u64>,
) -> Result<(), String> {
    let mut rng = Mix(seed);
    let keys = Keys { family, secret: rng.bytes(), hop: rng.bytes() };
    let burst_time_ns = [50_000_000, 100_000_000, 0, u64::MAX][rng.below(4) as usize];
    let cfg =
        RouterConfig { duplicate_suppression: rng.chance(2), burst_time_ns, ..Default::default() };
    let shards = 1 + rng.below(5) as usize;
    let (mut run, climbing) = (Run::new(keys, cfg, shards, seed), rng.chance(2));
    // The senders' clock, in ms: 2023, or just before 2³² s.
    let mut send_ms =
        if rng.chance(4) { (1 << 32) * 1000 - 1 - rng.below(400) } else { EPOCH_S * 1000 };
    let (mut flows, mut sent, mut used) = (Vec::<Flow>::new(), Vec::<Vec<u8>>::new(), Vec::new());
    let (mut now_ns, bursts) = (send_ms * 1_000_000, 2 + rng.below(5));
    for b in 0..bursts {
        let step = rng.below(14);
        let mut ends = flows
            .iter()
            .filter_map(|f| f.res)
            .map(|r| u64::from(r.res_start) + u64::from(r.duration));
        let mut boundary_ms = 0;
        match (step, ends.nth(rng.below(flows.len() as u64) as usize)) {
            // Every clock jumps up to 2 h forward.
            (3, _) => send_ms += 1000 * rng.below(7200),
            // Onto the last second of a reservation, or the first after it.
            (4, Some(end)) => send_ms = (end + rng.below(2)) * 1000 + rng.below(700),
            // The senders to within 20 ms of the next slot or epoch, which the burst crosses.
            (6, _) => {
                let period_s = if rng.chance(2) { SLOT_SECS } else { DRKEY_EPOCH_SECS };
                boundary_ms = (send_ms / 1000 / period_s + 1) * period_s * 1000;
                send_ms = boundary_ms - 1 - rng.below(20);
            }
            _ => {}
        }
        if rng.chance(3) {
            flows.push(flow(&mut rng, keys, flows.len() as u64, send_ms / 1000, None));
        }
        if climbing || flows.is_empty() || rng.chance(2) {
            let res_id = if rng.chance(16) {
                100_000 + rng.below(u64::from(RES_ID_MAX) - 99_999) as u32
            } else if climbing {
                let free = used.iter().filter(|&&r| r < 100_000).max().map_or(0, |&r| r + 1);
                free + rng.below(u64::from(100_000 - free) / (bursts - b)) as u32
            } else {
                rng.below(8) as u32
            };
            used.push(res_id);
            flows.push(flow(&mut rng, keys, flows.len() as u64, send_ms / 1000, Some(res_id)));
        }
        let (mut burst, mut stamps) = (Vec::new(), Vec::new());
        for k in 0..1 + rng.below(40) {
            if k > 0 && rng.chance(8) && !sent.is_empty() {
                burst.push(sent[rng.below(sent.len() as u64) as usize].clone());
                continue;
            }
            send_ms += if rng.chance(32) { 1000 + rng.below(2000) } else { rng.below(3) };
            // The newest flow opens the burst.
            let f = if k == 0 { flows.len() - 1 } else { rng.below(flows.len() as u64) as usize };
            let flow = &mut flows[f];
            // A sender whose credential's period is over asks for a new one, or keeps the old.
            let send_s = send_ms / 1000;
            let over = keys.period(send_s) != keys.period(flow.issued_s);
            if let (Some(res), true) = (flow.res, over) {
                flow.issued_s = send_s;
                if !rng.chance(4) {
                    flow.issue(&mut rng, keys, keys.grant(res, send_s), send_s);
                }
            }
            // One time in four, the payload that makes PktLen 1 500 bytes.
            let edge = 1500usize.checked_sub(flow.hdr_len).filter(|_| rng.chance(4));
            let payload = vec![rng.byte(); edge.unwrap_or(rng.below(600) as usize)];
            let generated = flow.sources.generate(&payload, send_ms);
            let Ok(mut pkt) = generated.map_err(|e| format!("seed {seed}, burst {b}: {e}"))? else {
                continue;
            };
            match rng.below(10) {
                0 => scribble(&mut rng, &mut pkt, INFO_OFF..flow.hdr_len, 1),
                1 => pkt[6..8].copy_from_slice(&[0xff, 0xf0 | rng.byte()]),
                _ => {}
            }
            stamps.push(send_ms);
            sent.push(pkt.clone());
            burst.push(pkt);
        }
        let lag_ns = rng.below(1_000_000_000);
        let (age_ms, skew_ms) = (cfg.max_packet_age_ms, cfg.max_clock_skew_ms);
        now_ns = match step {
            // The router behind the senders by more than δ, or ahead by more than Δ + δ.
            0 => send_ms * 1_000_000 - 600_000_000 - lag_ns,
            1 => send_ms * 1_000_000 + 1_600_000_000 + 5 * lag_ns,
            // Its clock steps back, or to the end of `u64` time.
            2 => now_ns.saturating_sub(5 * lag_ns),
            5 => u64::MAX - lag_ns,
            // Within a second of the slot or epoch boundary the senders crossed.
            6 => boundary_ms * 1_000_000 + 2 * lag_ns - 1_000_000_000,
            // On the last or first ms of the middle packet's window [absTS − δ, absTS + Δ + δ].
            7 if !stamps.is_empty() => {
                let abs_ms = stamps[stamps.len() / 2];
                let edge_ms = if rng.chance(2) {
                    abs_ms + age_ms + skew_ms + rng.below(2)
                } else {
                    abs_ms - skew_ms - rng.below(2)
                };
                edge_ms * 1_000_000 + lag_ns % 1_000_000
            }
            // Up to 300 ms behind the senders.
            _ => send_ms * 1_000_000 + lag_ns * 3 / 10,
        };
        run.burst(&burst, now_ns).map_err(|e| format!("seed {seed}, burst {b}: {e}"))?;
    }
    used.sort_unstable();
    used.dedup();
    // Probes need their 100 s of hop-field history inside 32-bit time.
    let probe_ms = send_ms.clamp(100_000_000, (1 << 32) * 1000 - 2000);
    let probes: Result<Vec<_>, _> =
        used.iter().map(|&id| probe(&mut rng, keys, id, probe_ms)).collect();
    let probes = probes.map_err(|e| format!("seed {seed}: {e}"))?;
    run.burst(&probes, probe_ms * 1_000_000 + 1)
        .map_err(|e| format!("seed {seed}, probes: {e}"))?;
    for ((rule, across_shards), n) in run.rules {
        *rules.entry((family.name(), rule, across_shards)).or_default() += n;
    }
    Ok(())
}

/// Traffic cases at a router of every family, which together reach every
/// rule of each family's reference pipeline, and the duplicate filter at
/// a router of two or more shards for the families that run it.
#[test]
fn router_matches_the_reference_on_traffic() {
    let mut rules = BTreeMap::new();
    for family in EngineFamily::ALL {
        for seed in 0..96 {
            run_traffic(family, seed, &mut rules).unwrap_or_else(|e| panic!("{family:?}: {e}"));
        }
    }
    let shared = [
        "Algo 2: plain hop, best effort",
        "Algo 4: MAC mismatch",
        "Algo 4: hop field expired",
        "Eq. 7d: PktLen overflow",
    ];
    let policed = ["Algo 1: within the burst budget", "Algo 1: over the burst budget, demoted"];
    let dup = "§5.4: duplicate";
    for family in EngineFamily::ALL {
        let own: &[&str] = match family {
            EngineFamily::Hummingbird => {
                &[policed[0], policed[1], "Algo 3: stale or inactive, demoted", dup]
            }
            EngineFamily::Helia => {
                &[policed[0], policed[1], "Helia: stale, inactive or past its slot, demoted"]
            }
            EngineFamily::Drkey => &["DRKey: authenticated, best effort"],
            EngineFamily::Epic => {
                &["EPIC: validated, best effort", "EPIC: stale or inactive, dropped", dup]
            }
        };
        for &rule in shared.iter().chain(own) {
            // A replay must have met the duplicate filter at a router of two or more shards.
            let fired = |across| rules.get(&(family.name(), rule, across)).is_some_and(|&n| n > 0);
            let fired = fired(true) || rule != dup && fired(false);
            assert!(fired, "{family:?}: {rule} never fired: {rules:?}");
        }
    }
}
