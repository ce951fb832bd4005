//! The two in-process router workloads: the same `BorderRouter` engine
//! used two ways.
//!
//! * `router_flyover_min` — one engine, one thread, `process_batch`
//!   bursts of 32 over 32 768 reservations (4× the key cache, so every
//!   packet derives `A_K`): crypto, wire, `router::stages` and policing
//!   do all the work.
//! * `router_sharded_mix` — `run_to_completion(Sharded, MultiQueue,
//!   Threaded)` with egress on over a 45/45/10 flyover / best-effort /
//!   adversarial template mix on 512 cache-resident reservations: key
//!   derivation almost vanishes, rings, steering, egress and the
//!   drop/demote paths carry a visible share.

use crate::host;
use crate::json::Value;
use crate::layers;
use crate::metrics::Layers;
use crate::trace::Recorder;
use crate::workload::{Rep, Workload, EPOCH_MS, EPOCH_NS, EPOCH_S};
use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::{
    forge_path, run_to_completion, BackpressurePolicy, BeaconHop, BorderRouter, Datapath,
    DatapathStats, EgressConfig, ExecMode, PacketBuf, RouterConfig, RuntimeConfig, RuntimeMode,
    RxMode, SourceGenerator, SourceReservation, Verdict, BATCH_SIZE,
};
use hummingbird_wire::{HopMacKey, IsdAs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Hops on the source path (the paper measures with a reservation at
/// every on-path AS; the router under test is hop 0).
const HOPS: usize = 4;
/// Bandwidth class so large that policing never demotes (tx time
/// rounds to 0 ns).
const BW_HUGE: u16 = 1000;
/// 240 kbps: one full-size packet fills the 50 ms burst budget.
const BW_TINY: u16 = 124;

/// Seeded key material and paths of one 4-hop source route.
pub struct RouterWorld {
    hop_keys: Vec<HopMacKey>,
    svs: Vec<SecretValue>,
    beta0: u16,
}

impl RouterWorld {
    pub fn new(rng: &mut StdRng) -> Self {
        RouterWorld {
            hop_keys: (0..HOPS).map(|_| HopMacKey::new(rng.gen())).collect(),
            svs: (0..HOPS).map(|_| SecretValue::new(rng.gen())).collect(),
            beta0: rng.gen(),
        }
    }

    fn interfaces(i: usize) -> (u16, u16) {
        let ingress = if i == 0 { 0 } else { 2 * i as u16 };
        let egress = if i == HOPS - 1 { 0 } else { 2 * i as u16 + 1 };
        (ingress, egress)
    }

    /// A generator over a path beaconed at `info_ts`, without
    /// reservations.
    fn plain_generator(&self, info_ts: u32) -> SourceGenerator {
        let hops: Vec<BeaconHop> = (0..HOPS)
            .map(|i| {
                let (cons_ingress, cons_egress) = Self::interfaces(i);
                BeaconHop { key: self.hop_keys[i].clone(), cons_ingress, cons_egress }
            })
            .collect();
        let path = forge_path(&hops, info_ts, self.beta0);
        SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path)
    }

    fn res_info(hop: usize, res_id: u32, bw_encoded: u16) -> ResInfo {
        let (ingress, egress) = Self::interfaces(hop);
        ResInfo {
            ingress,
            egress,
            res_id,
            bw_encoded,
            res_start: EPOCH_S as u32 - 50,
            duration: 36_000,
        }
    }

    /// A generator with a flyover on every hop; hop 0's is replaced per
    /// packet through [`RouterWorld::set_hop0`].
    fn reserved_generator(&self) -> SourceGenerator {
        let mut generator = self.plain_generator(EPOCH_S as u32 - 100);
        for hop in 1..HOPS {
            let res_info = Self::res_info(hop, hop as u32 + 1, BW_HUGE);
            let key = self.svs[hop].derive_key(&res_info);
            generator
                .attach_reservation(hop, SourceReservation { res_info, key })
                .expect("interfaces match the forged path");
        }
        generator
    }

    /// Points hop 0 of `generator` at reservation `res_id`, keyed under
    /// `sv` (the router's own secret for a valid flyover, any other for
    /// a forged one).
    fn set_hop0(generator: &mut SourceGenerator, sv: &SecretValue, res_id: u32, bw: u16) {
        let res_info = Self::res_info(0, res_id, bw);
        let key = sv.derive_key(&res_info);
        generator
            .attach_reservation(0, SourceReservation { res_info, key })
            .expect("interfaces match the forged path");
    }

    /// The hop-0 border router the workloads drive.
    pub fn router(&self) -> BorderRouter {
        BorderRouter::new(self.svs[0].clone(), self.hop_keys[0].clone(), RouterConfig::default())
    }

    pub fn sv0(&self) -> &SecretValue {
        &self.svs[0]
    }

    pub fn hop_key0(&self) -> &HopMacKey {
        &self.hop_keys[0]
    }
}

/// `n` distinct ResIDs in `[1, slots)`, in seeded random order.
fn distinct_res_ids(rng: &mut StdRng, n: usize, slots: u32) -> Vec<u32> {
    let mut ids: Vec<u32> = (1..slots).collect();
    for i in 0..n {
        let j = rng.gen_range(i..ids.len());
        ids.swap(i, j);
    }
    ids.truncate(n);
    ids
}

fn random_payload(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

// ---------------------------------------------------------------------
// router_flyover_min
// ---------------------------------------------------------------------

/// Reservations visited round-robin: 4× the default 8 192-slot key
/// cache, so no packet ever finds its key cached.
const MIN_RESERVATIONS: usize = 32_768;
const MIN_PAYLOAD: usize = 100;
/// Bursts per second of requested repetition: 2.0 Mpps, what the
/// reference host sustains when nothing disturbs it. (Every workload is
/// sized by count, so that all runs do the same work and a slower host
/// or a slower program takes longer instead of doing less.)
const MIN_BURSTS_PER_S: f64 = 62_500.0;

pub struct FlyoverMin {
    world: RouterWorld,
    router: BorderRouter,
    bufs: Vec<PacketBuf>,
    verdicts: Vec<Verdict>,
    /// Next burst to process (the round-robin position survives across
    /// repetitions).
    cursor: usize,
    processed: u64,
}

impl FlyoverMin {
    pub fn build(seed: u64, _quick: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let world = RouterWorld::new(&mut rng);
        let payload = random_payload(&mut rng, MIN_PAYLOAD);
        let slots = RouterConfig::default().policer_slots;
        let mut generator = world.reserved_generator();
        let bufs: Vec<PacketBuf> = distinct_res_ids(&mut rng, MIN_RESERVATIONS, slots)
            .into_iter()
            .map(|res_id| {
                RouterWorld::set_hop0(&mut generator, world.sv0(), res_id, BW_HUGE);
                PacketBuf::new(generator.generate(&payload, EPOCH_MS).expect("generation"))
            })
            .collect();
        let mut w = FlyoverMin {
            router: world.router(),
            world,
            bufs,
            verdicts: Vec::with_capacity(BATCH_SIZE),
            cursor: 0,
            processed: 0,
        };
        // Warm-up: one pass over every reservation.
        let bursts = w.bufs.len() / BATCH_SIZE;
        let mut rec = Recorder::off();
        let warm = w.run_bursts(bursts, &mut rec);
        assert_eq!(warm.failed, 0, "warm-up verdicts: {:?}", warm.failures);
        w
    }

    /// Processes `bursts` bursts.
    fn run_bursts(&mut self, bursts: usize, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        rep.latencies_us.reserve(bursts);
        let n_bursts = self.bufs.len() / BATCH_SIZE;
        let mut flyover = 0u64;
        let start = Instant::now();
        for _ in 0..bursts {
            let lo = self.cursor * BATCH_SIZE;
            let burst = &mut self.bufs[lo..lo + BATCH_SIZE];
            for buf in burst.iter_mut() {
                buf.reset();
            }
            self.verdicts.clear();
            let span = rec.begin("router.process_batch", rep.latencies_us.len() as u64);
            let t0 = Instant::now();
            self.router.process_batch(burst, EPOCH_NS, &mut self.verdicts);
            let t1 = Instant::now();
            rec.end(span, BATCH_SIZE as u64);
            rep.latencies_us.push((t1 - t0).as_nanos() as f64 / 1e3);
            flyover += self.verdicts.iter().filter(|v| v.is_flyover()).count() as u64;
            self.cursor = (self.cursor + 1) % n_bursts;
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.ops = (rep.latencies_us.len() * BATCH_SIZE) as u64;
        rep.attempted = rep.ops;
        self.processed += rep.ops;
        if flyover != rep.ops {
            rep.fail(
                rep.ops - flyover,
                format!("{} of {} packets not flyover", rep.ops - flyover, rep.ops),
            );
        }
        rep
    }
}

impl Workload for FlyoverMin {
    fn repetition(&mut self, seconds: f64, rec: &mut Recorder) -> Rep {
        self.run_bursts((MIN_BURSTS_PER_S * seconds).round().max(1.0) as usize, rec)
    }

    fn verify(&mut self, failures: &mut Vec<String>) -> (u64, u64) {
        // The engine's own counters must agree with what the loop saw.
        let s = self.router.stats();
        let ok = s.processed == self.processed && s.flyover == self.processed && s.dropped == 0;
        if !ok {
            failures.push(format!("router stats {s:?} disagree with {} processed", self.processed));
        }
        (1, u64::from(!ok))
    }

    fn layers(&mut self, _traced: &Rep, rec: &mut Recorder, out: &mut Layers) {
        let pkts: Vec<Vec<u8>> = self
            .bufs
            .iter_mut()
            .map(|b| {
                b.reset();
                b.as_bytes().to_vec()
            })
            .collect();
        layers::engine_sweeps(&self.world, &pkts, 4, rec, out);
        layers::baseline_sweeps(rec, out);
    }

    fn labels(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("threads", Value::Num(1.0)),
            ("shards", Value::Num(1.0)),
            ("exec", Value::Str("single thread, process_batch".into())),
            ("loop", Value::Str("closed".into())),
            ("reservations", Value::Num(MIN_RESERVATIONS as f64)),
        ]
    }
}

// ---------------------------------------------------------------------
// router_sharded_mix
// ---------------------------------------------------------------------

const MIX_PAYLOAD: usize = 500;
const MIX_FLYOVER: usize = 512;
const MIX_PLAIN: usize = 512;
const MIX_BAD_MAC: usize = 38;
const MIX_STALE: usize = 38;
const MIX_EXPIRED: usize = 37;
/// Plus one over-rate reservation: 1 138 templates, 10.0 % adversarial.
const MIX_TEMPLATES: usize = MIX_FLYOVER + MIX_PLAIN + MIX_BAD_MAC + MIX_STALE + MIX_EXPIRED + 1;

pub struct ShardedMix {
    world: RouterWorld,
    templates: Vec<Vec<u8>>,
    cfg: RuntimeConfig,
    /// Packets per unit: every template exactly `rounds` times, so the
    /// verdict counts of a unit are a constant the reference fixes.
    unit_pkts: u64,
    /// Verdict counts of a single engine fed one unit's multiset
    /// sequentially.
    reference: DatapathStats,
    /// Units per second of requested repetition.
    units_per_s: f64,
    units: u64,
}

/// The verdict-relevant part of engine counters (cache counters depend
/// on how work is split and are not part of the equivalence).
fn verdict_counts(s: &DatapathStats) -> [u64; 6] {
    [s.processed, s.flyover, s.best_effort, s.dropped, s.demoted_overuse, s.demoted_untimely]
}

impl ShardedMix {
    pub fn build(seed: u64, quick: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let world = RouterWorld::new(&mut rng);
        let payload = random_payload(&mut rng, MIX_PAYLOAD);
        let slots = RouterConfig::default().policer_slots;
        let n_res = MIX_FLYOVER + MIX_BAD_MAC + MIX_STALE + 1;
        // Reservation IDs spread evenly over the policing array (so
        // every shard's range gets its share) with a seeded jitter.
        let stride = (slots - 1) / n_res as u32;
        let mut res_ids: Vec<u32> =
            (0..n_res as u32).map(|k| 1 + k * stride + rng.gen_range(0..stride)).collect();
        for i in 0..res_ids.len() {
            let j = rng.gen_range(i..res_ids.len());
            res_ids.swap(i, j);
        }
        let mut next_id = res_ids.into_iter();
        let mut templates = Vec::with_capacity(MIX_TEMPLATES);

        let mut reserved = world.reserved_generator();
        for _ in 0..MIX_FLYOVER {
            let id = next_id.next().expect("enough ids");
            RouterWorld::set_hop0(&mut reserved, world.sv0(), id, BW_HUGE);
            templates.push(reserved.generate(&payload, EPOCH_MS).expect("generation"));
        }
        // Distinct (timestamp, counter) pairs spread the plain flows
        // over the shards' flow hash.
        let mut plain = world.plain_generator(EPOCH_S as u32 - 100);
        for _ in 0..MIX_PLAIN {
            templates.push(plain.generate(&payload, EPOCH_MS).expect("generation"));
        }
        // Adversarial tenth. Forged flyover: keyed under a secret the
        // router does not hold.
        let wrong_sv = SecretValue::new(rng.gen());
        for _ in 0..MIX_BAD_MAC {
            let id = next_id.next().expect("enough ids");
            RouterWorld::set_hop0(&mut reserved, &wrong_sv, id, BW_HUGE);
            templates.push(reserved.generate(&payload, EPOCH_MS).expect("generation"));
        }
        // Stale: stamped 10 s before the router's clock.
        for _ in 0..MIX_STALE {
            let id = next_id.next().expect("enough ids");
            RouterWorld::set_hop0(&mut reserved, world.sv0(), id, BW_HUGE);
            templates.push(reserved.generate(&payload, EPOCH_MS - 10_000).expect("generation"));
        }
        // Expired hop field: beaconed more than 6 h ago.
        let mut expired = world.plain_generator(EPOCH_S as u32 - 30_000);
        for _ in 0..MIX_EXPIRED {
            templates.push(expired.generate(&payload, EPOCH_MS).expect("generation"));
        }
        // One reservation far over its rate: demoted after its budget.
        let id = next_id.next().expect("enough ids");
        RouterWorld::set_hop0(&mut reserved, world.sv0(), id, BW_TINY);
        templates.push(reserved.generate(&payload, EPOCH_MS).expect("generation"));
        assert_eq!(templates.len(), MIX_TEMPLATES);
        for i in 0..templates.len() {
            let j = rng.gen_range(i..templates.len());
            templates.swap(i, j);
        }

        let shards = host::nproc().min(2);
        let mut cfg = RuntimeConfig::new(shards);
        cfg.exec = ExecMode::Threaded;
        cfg.rx_mode = RxMode::MultiQueue;
        cfg.egress = Some(EgressConfig::default());
        // Closed loop: a worker whose tx queue is over the watermark
        // waits for the wire instead of shedding offered packets. (With
        // both classes queued, `TxScheduler` serves best effort only
        // once the priority queue is empty at poll time, so the
        // best-effort queue does reach the watermark; under the default
        // `Drop` policy this mix loses packets at rx.)
        cfg.backpressure.policy = BackpressurePolicy::Block;
        // A full-size unit (582 656 packets) takes ≈ 135 ms on two
        // undisturbed threads of the reference host, ≈ 13 ms of it the
        // call's own set-up (buffer pools, threads).
        let (rounds, units_per_s): (u64, f64) = if quick { (32, 120.0) } else { (512, 7.5) };
        let unit_pkts = rounds * MIX_TEMPLATES as u64;

        // Reference: one engine, sequential `process`, the generator's
        // round-robin order over the same multiset.
        let mut single = world.router();
        let mut scratch: Vec<Vec<u8>> = templates.clone();
        for _ in 0..rounds {
            for (buf, template) in scratch.iter_mut().zip(&templates) {
                buf.copy_from_slice(template);
                single.process(buf, EPOCH_NS);
            }
        }
        let reference = single.stats();

        let mut w =
            ShardedMix { world, templates, cfg, unit_pkts, reference, units_per_s, units: 0 };
        // Warm-up: one unit.
        let mut rec = Recorder::off();
        let mut warm = Rep::default();
        w.unit(&mut warm, &mut rec);
        assert_eq!(warm.failed, 0, "warm-up unit: {:?}", warm.failures);
        w
    }

    /// One unit: a complete `run_to_completion` over the unit multiset
    /// on fresh engines, checked against the reference.
    fn unit(&mut self, rep: &mut Rep, rec: &mut Recorder) {
        let world = &self.world;
        let span = rec.begin("runtime.run_to_completion", self.units);
        let t0 = Instant::now();
        let report = run_to_completion(
            &self.cfg,
            RuntimeMode::Sharded,
            |_| world.router(),
            &self.templates,
            self.unit_pkts,
            EPOCH_NS,
        );
        let elapsed = t0.elapsed();
        rec.end(span, self.unit_pkts);
        self.units += 1;
        rep.ops += self.unit_pkts;
        rep.wall_s += elapsed.as_secs_f64();
        rep.latencies_us.push(elapsed.as_nanos() as f64 / 1e3);
        rep.attempted += self.unit_pkts;

        let mut got = [0u64; 6];
        for shard in &report.per_shard {
            for (sum, count) in got.iter_mut().zip(verdict_counts(&shard.stats)) {
                *sum += count;
            }
        }
        let want = verdict_counts(&self.reference);
        if got != want {
            let off: u64 = got.iter().zip(want).map(|(g, w)| g.abs_diff(w)).sum();
            rep.fail(
                off.min(self.unit_pkts),
                format!("sharded verdicts {got:?} != single-engine {want:?}"),
            );
        }
        let egress = report.egress.expect("egress is on");
        let lost = report.rx_backpressure_drops + egress.tx_queue_full;
        if report.packets != self.unit_pkts || lost != 0 {
            rep.fail(
                lost.max(self.unit_pkts.abs_diff(report.packets)),
                format!(
                    "offered {} processed {} rx drops {} tx-queue drops {}",
                    self.unit_pkts,
                    report.packets,
                    report.rx_backpressure_drops,
                    egress.tx_queue_full
                ),
            );
        }
        if egress.forwarded() + egress.dropped != report.packets {
            rep.fail(1, format!("egress lost packets: {egress:?} vs {}", report.packets));
        }
    }
}

impl Workload for ShardedMix {
    fn repetition(&mut self, seconds: f64, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        for _ in 0..(self.units_per_s * seconds).round().max(1.0) as u64 {
            self.unit(&mut rep, rec);
        }
        rep
    }

    fn layers(&mut self, _traced: &Rep, rec: &mut Recorder, out: &mut Layers) {
        layers::engine_sweeps(&self.world, &self.templates, 32, rec, out);
        layers::runtime_sweeps(&self.world, &self.templates, &self.cfg, self.unit_pkts, rec, out);
    }

    fn labels(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("threads", Value::Num(self.cfg.shards as f64)),
            ("shards", Value::Num(self.cfg.shards as f64)),
            ("exec", Value::Str("ExecMode::Threaded, RxMode::MultiQueue, egress on".into())),
            ("loop", Value::Str("closed".into())),
            ("templates", Value::Num(MIX_TEMPLATES as f64)),
            ("unit_pkts", Value::Num(self.unit_pkts as f64)),
        ]
    }
}
