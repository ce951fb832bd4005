//! The sharded worker-ring datapath runtime: a software model of the
//! NIC-fed multi-core router the paper evaluates (§7.1, Figs. 5/14).
//!
//! # The model vs. the paper's DPDK testbed
//!
//! The paper drives a DPDK implementation with a Spirent generator over
//! 4×40 Gbps links: the NIC hashes each packet onto an rx queue (RSS),
//! one core polls each queue in bursts, and per-core state is never
//! shared — policing works because the flow hash pins every reservation
//! to one queue. This module reproduces that architecture with portable
//! pieces:
//!
//! * [`ring::SpscRing`] — bounded SPSC *burst* rings of [`PacketBuf`]
//!   stand in for NIC descriptor rings (capacity = queue depth, full
//!   ring = backpressure). One head/tail update moves a whole burst; no
//!   per-packet lock (see the ring module's invariant note).
//! * [`shard::ShardMap`] — the RSS function: flyover packets steer by
//!   **per-shard ResID ranges** so each reservation's token bucket
//!   (Algorithm 1) lives on exactly one core, plain packets steer by the
//!   duplicate-filter key, and a [`shard::Steering::BySource`] mode
//!   covers sender-keyed engines like the gateway;
//! * [`ShardedRouter`] — a facade that *itself implements* [`Datapath`],
//!   so the simulator, testbed and every benchmark binary can drive a
//!   multi-shard router exactly where they drove a single engine;
//! * [`run_to_completion`] — the harness, in the paper's one rx layout:
//!   per-shard rx queues that share nothing. Steering happens at
//!   *injection time* — the ShardMap partitions the template workload
//!   into per-shard plans up front (exactly what RSS hardware does per
//!   packet, hoisted to the producer side), and each shard then runs a
//!   self-fed loop: re-arm a burst of recycled buffers, push it through
//!   its own rx ring, pop it back, process it via the engine's batch
//!   path, recycle. No dispatcher thread exists and no ring is shared
//!   between threads, so N shards approach N× one core.
//! * [`egress::TxScheduler`] — the tx path: processed packets travel
//!   per-shard egress rings of [`TxPacket`] into per-interface FIFO +
//!   priority-class queues over a modeled link rate, recording
//!   per-packet residence times ([`EgressStats`] on the report). Each
//!   *worker drains its own egress ring* into a shard-local scheduler
//!   (its model of a per-core NIC tx queue), asserting the per-shard
//!   sequence numbers on the way, and the per-shard stats are merged.
//!   Enabled by [`RuntimeConfig::egress`].
//!
//! A self-fed shard drains its own rings every iteration, so the only
//! place a worker ever waits is the [`BackpressurePolicy::Block`] stall
//! (tx queue over the watermark): it backs off exponentially, then
//! yields. How workers map onto host threads is governed by
//! [`RuntimeConfig::exec`] ([`ExecMode`]) — see its docs for the honest
//! accounting of what "sequential" measures.
//!
//! What the model deliberately simplifies: "line rate" on the rx side
//! is a cap applied in reporting, the tx link is modeled in virtual
//! time (the scheduler computes departures, it does not pace the wire),
//! and classification is hoisted to plan time — a software stand-in for
//! hashing hardware, which also classifies before the packet reaches a
//! core. Cross-shard duplicate detection holds for exact replays
//! (bit-identical packets steer identically) but not for distinct
//! packets that collide on the duplicate-filter key while carrying
//! different ResIDs — the same property a per-queue dup filter has on
//! real RSS hardware.

pub mod egress;
pub mod ring;
pub mod shard;

pub use egress::{
    BackpressureConfig, BackpressurePolicy, EgressClassStats, EgressConfig, EgressStats,
    LatencyHistogram, TxPacket, TxScheduler,
};
pub use ring::SpscRing;
pub use shard::{FlowClass, ShardMap, Steering};

use crate::datapath::{Datapath, DatapathStats, PacketBuf, Verdict};
use crate::multicore::{Throughput, BATCH_SIZE};
use std::sync::Barrier;
use std::time::Instant;

/// One logical router spread across per-shard engines, behind the
/// [`Datapath`] trait.
///
/// Every packet is steered by the [`ShardMap`] to the shard that owns
/// its flow, so per-reservation policing state never splits across
/// engines; verdicts and aggregate [`stats`](Datapath::stats) are
/// element-wise identical to a single engine over the same traffic (the
/// contract `tests/prop_sharded.rs` enforces).
/// [`process_batch`](Datapath::process_batch) forwards maximal same-shard
/// runs to the
/// owning engine's batch path, so per-burst amortizations (batch key
/// derivation, policer pre-touch) survive sharding.
///
/// This synchronous facade is the drop-in form — harnesses that want
/// real parallelism drive the same engines through
/// [`run_to_completion`]. Cost model: steering parses the header a
/// second time (hardware RSS gets this for free), a deliberate trade —
/// sharing the engine's own `stages::parse` keeps the steering decision
/// bit-exact with what the engine will see, which is what the ResID-
/// ownership invariant rests on; the `runtime` criterion bench group
/// measures the overhead against a single engine. (The threaded runtime
/// avoids it in steady state by classifying once per template at plan
/// time and re-arming recycled buffers.)
pub struct ShardedRouter {
    shards: Vec<Box<dyn Datapath + Send>>,
    map: ShardMap,
    /// Per-call scratch: the shard of each packet in the current burst.
    steer_scratch: Vec<usize>,
}

impl ShardedRouter {
    /// Builds a facade over `engines` (one per shard) with
    /// reservation-aware steering across a ResID space of `slots` —
    /// `slots` should match the engines' policer capacity.
    pub fn new(engines: Vec<Box<dyn Datapath + Send>>, slots: u32, steering: Steering) -> Self {
        assert!(!engines.is_empty(), "a sharded router needs at least one shard");
        let map = ShardMap::new(engines.len(), slots, steering);
        ShardedRouter { shards: engines, map, steer_scratch: Vec::new() }
    }

    /// Builds `shards` engines with `make` (called with the shard index)
    /// under default reservation-aware steering.
    pub fn from_fn(
        shards: usize,
        slots: u32,
        mut make: impl FnMut(usize) -> Box<dyn Datapath + Send>,
    ) -> Self {
        Self::new((0..shards.max(1)).map(&mut make).collect(), slots, Steering::ByReservation)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The steering map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Per-shard counter snapshots (the aggregate is
    /// [`Datapath::stats`]).
    pub fn shard_stats(&self) -> Vec<DatapathStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }
}

impl Datapath for ShardedRouter {
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let shard = self.map.shard_of(pkt);
        self.shards[shard].process(pkt, now_ns)
    }

    fn process_batch(&mut self, pkts: &mut [PacketBuf], now_ns: u64, out: &mut Vec<Verdict>) {
        self.steer_scratch.clear();
        self.steer_scratch.extend(pkts.iter().map(|p| self.map.shard_of(p.as_bytes())));
        // Hand maximal same-shard runs to the owning engine's batch path;
        // verdict order is input order because runs are processed in
        // sequence.
        let mut start = 0;
        while start < pkts.len() {
            let shard = self.steer_scratch[start];
            let mut end = start + 1;
            while end < pkts.len() && self.steer_scratch[end] == shard {
                end += 1;
            }
            self.shards[shard].process_batch(&mut pkts[start..end], now_ns, out);
            start = end;
        }
    }

    /// The underlying engine's name — the facade is transparent, so
    /// harness output keeps labeling the engine, not the wrapper.
    fn engine_name(&self) -> &'static str {
        self.shards[0].engine_name()
    }

    fn stats(&self) -> DatapathStats {
        let mut total = DatapathStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.processed += st.processed;
            total.flyover += st.flyover;
            total.best_effort += st.best_effort;
            total.dropped += st.dropped;
            total.demoted_overuse += st.demoted_overuse;
            total.demoted_untimely += st.demoted_untimely;
            // Per-shard key caches sum exactly to a single engine's
            // counters: every reservation steers to one shard, so the
            // set of first-contact misses is partitioned, not repeated.
            total.key_cache_hits += st.key_cache_hits;
            total.key_cache_misses += st.key_cache_misses;
        }
        total
    }

    fn reset_stats(&mut self) {
        for s in &mut self.shards {
            s.reset_stats();
        }
    }
}

/// How [`run_to_completion`] lays work onto cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeMode {
    /// Each worker owns an independent engine and self-feeds its own
    /// ring — the historical `multicore` harness, now expressed as a
    /// runtime configuration. Measures pure per-core engine scaling; no
    /// cross-core policing semantics.
    PerCoreClone,
    /// One logical router with correct cross-core policing: every
    /// packet is processed by the shard the [`ShardMap`] assigns it to,
    /// the assignment made at injection time
    /// ([`ShardMap::partition_templates`]).
    Sharded,
}

/// Exponential-backoff waiter for the one place a self-fed worker
/// waits, the [`BackpressurePolicy::Block`] stall: call
/// [`wait`](Waiter::wait) on every miss, [`reset`](Waiter::reset) on
/// progress. Spins 1, 2, 4, … on consecutive misses, then yields —
/// short stalls stay on-core, long stalls surrender the timeslice.
#[derive(Debug, Default)]
struct Waiter {
    misses: u32,
}

impl Waiter {
    #[inline]
    fn wait(&mut self) {
        // 2^6 = 64 spins is the largest burst; past that the stall is
        // long enough that the timeslice is better spent by whoever we
        // are waiting on.
        const MAX_SPIN_EXP: u32 = 6;
        if self.misses <= MAX_SPIN_EXP {
            for _ in 0..(1u32 << self.misses) {
                std::hint::spin_loop();
            }
            self.misses += 1;
        } else {
            std::thread::yield_now();
        }
    }

    #[inline]
    fn reset(&mut self) {
        self.misses = 0;
    }
}

/// The rx layout of [`RuntimeMode::Sharded`]
/// ([`RuntimeConfig::rx_mode`]). The runtime has exactly one, so this
/// selects nothing: the type and the field exist only because the
/// frozen `benchmark/src/router.rs` writes
/// `cfg.rx_mode = RxMode::MultiQueue`. Delete both in the next PR that
/// may edit `benchmark/`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RxMode {
    /// Per-shard rx queues filled by RSS-style hashing at injection
    /// time: the workload is partitioned into per-shard plans up front
    /// via [`ShardMap::partition_templates`], each shard self-feeds its
    /// own ring, and shards share nothing.
    #[default]
    MultiQueue,
}

/// How shard workers map onto host threads ([`RuntimeConfig::exec`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// [`Threaded`](ExecMode::Threaded) when the host has at least as
    /// many hardware threads as shards, otherwise
    /// [`Sequential`](ExecMode::Sequential). The benchmark setting: use
    /// real parallelism when it exists, fall back to the dedicated-core
    /// estimate instead of measuring timeslice ping-pong when it
    /// doesn't.
    Auto,
    /// One OS thread per shard, started together behind a barrier; the
    /// run's `seconds` is the slowest worker's wall clock, so scheduler
    /// contention on oversubscribed hosts shows up in the measurement.
    /// The default. Each worker's rings stay private to its thread (no
    /// self-fed shard shares a ring), so what threading adds over
    /// [`Sequential`](ExecMode::Sequential) is concurrency between
    /// shards, not on a ring.
    #[default]
    Threaded,
    /// Run each shard's worker loop to completion on the calling
    /// thread, one after another, timing each independently; `seconds`
    /// is the *maximum* per-shard elapsed time. Because shards share no
    /// state whatsoever, this is a faithful critical-path estimate of N
    /// dedicated cores — what the run *would* take if each worker had
    /// its own core — and the only honest way to measure N-shard
    /// scaling on a host with fewer than N hardware threads.
    Sequential,
}

/// Tuning of the worker-ring runtime.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker shard count (cores devoted to packet processing).
    pub shards: usize,
    /// Per-shard ring depth in *bursts* (NIC descriptor-ring model;
    /// rounded up to a power of two by the ring).
    pub ring_capacity: usize,
    /// Burst size per `process_batch` call.
    pub batch_size: usize,
    /// ResID slot count the steering ranges partition (should match the
    /// engines' policer capacity).
    pub policer_slots: u32,
    /// Flow steering policy (ignored in [`RuntimeMode::PerCoreClone`]).
    pub steering: Steering,
    /// Tx-path model: `Some` routes every processed packet through
    /// per-shard egress rings into the two-class [`TxScheduler`] and
    /// reports [`EgressStats`]; `None` (the default) recycles buffers
    /// directly, the historical rx-only harness. Only
    /// [`RuntimeMode::Sharded`] has a tx port (the clone mode measures
    /// independent engines, not one logical router), so the model is
    /// ignored under [`RuntimeMode::PerCoreClone`].
    pub egress: Option<EgressConfig>,
    /// Bounded-queue and backpressure tuning of the tx path (only
    /// meaningful when [`egress`](RuntimeConfig::egress) is `Some`):
    /// per-port per-class queue bound, the high-watermark past which a
    /// worker stops draining its rx ring, and what the rx side does
    /// while stalled ([`BackpressurePolicy::Block`] holds producers,
    /// [`BackpressurePolicy::Drop`] sheds offered packets into
    /// [`ShardReport::rx_backpressure_drops`]).
    pub backpressure: BackpressureConfig,
    /// Selects nothing (see [`RxMode`]); kept for the frozen
    /// `benchmark/` package, which assigns it.
    pub rx_mode: RxMode,
    /// How shard workers map onto host threads. Default
    /// [`ExecMode::Threaded`]; benchmarks pass [`ExecMode::Auto`].
    pub exec: ExecMode,
}

impl RuntimeConfig {
    /// A sensible default: `shards` workers, 256-burst rings,
    /// [`BATCH_SIZE`]-packet bursts, the paper's 10⁵ ResID slots,
    /// reservation-aware steering, no tx path, threaded execution.
    pub fn new(shards: usize) -> Self {
        RuntimeConfig {
            shards: shards.max(1),
            ring_capacity: 256,
            batch_size: BATCH_SIZE,
            policer_slots: 100_000,
            steering: Steering::ByReservation,
            egress: None,
            backpressure: BackpressureConfig::default(),
            rx_mode: RxMode::default(),
            exec: ExecMode::default(),
        }
    }
}

/// What one worker shard did during a [`run_to_completion`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardReport {
    /// Packets this shard processed.
    pub processed: u64,
    /// Packets forwarded (flyover or best effort).
    pub forwarded: u64,
    /// Packets dropped by the engine.
    pub dropped: u64,
    /// Offered packets shed at the rx ring while this shard's tx queue
    /// was over the high-watermark under [`BackpressurePolicy::Drop`]
    /// (never counted in `processed` — they were refused before the
    /// engine saw them).
    pub rx_backpressure_drops: u64,
    /// The shard engine's counters.
    pub stats: DatapathStats,
}

/// The outcome of a [`run_to_completion`].
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Packets processed across all shards.
    pub packets: u64,
    /// Bits moved (wire size × packets).
    pub bits: u64,
    /// Run duration in seconds: the slowest worker's wall clock,
    /// threaded or sequential (see [`ExecMode`]).
    pub seconds: f64,
    /// Offered packets shed at rx rings under backpressure, summed
    /// across shards. Conservation: `packets + rx_backpressure_drops`
    /// equals the offered total in every mode and policy.
    pub rx_backpressure_drops: u64,
    /// Per-shard breakdown (reveals steering skew).
    pub per_shard: Vec<ShardReport>,
    /// Tx-path statistics, when [`RuntimeConfig::egress`] enabled it:
    /// per-class packet/byte counts and residence times, merged across
    /// shards.
    pub egress: Option<EgressStats>,
}

impl RuntimeReport {
    /// The run as a [`Throughput`] measurement.
    pub fn throughput(&self) -> Throughput {
        Throughput { packets: self.packets, bits: self.bits, seconds: self.seconds }
    }
}

/// What a worker counts per burst it puts through the engine.
#[derive(Default)]
struct WorkerTally {
    processed: u64,
    bits: u64,
    forwarded: u64,
    dropped: u64,
}

fn tally_burst(tally: &mut WorkerTally, burst: &[PacketBuf], verdicts: &[Verdict]) {
    tally.processed += burst.len() as u64;
    tally.bits += burst.iter().map(|p| p.wire_len() as u64 * 8).sum::<u64>();
    for v in verdicts {
        if v.is_drop() {
            tally.dropped += 1;
        } else {
            tally.forwarded += 1;
        }
    }
}

/// Runs `total_pkts` packets (cycling over `templates`) through
/// `cfg.shards` worker threads and reports aggregate and per-shard
/// throughput.
///
/// In [`RuntimeMode::Sharded`] one logical router with correct policing
/// runs across the workers, each fed the share of the workload the
/// [`ShardMap`] steers to it. In [`RuntimeMode::PerCoreClone`] each
/// worker self-feeds its own ring with an even share of the total — the
/// classic per-core-clone measurement. Engines are constructed inside
/// their worker (no `Send` bound on `D`); construction stays out of the
/// timed region.
///
/// Packet accounting is deterministic: template `j` of `T` contributes
/// exactly `total_pkts / T` packets plus one more when
/// `j < total_pkts % T`, in both modes — which is what makes sharded
/// runs byte-comparable against a single engine fed the same multiset.
pub fn run_to_completion<D, F>(
    cfg: &RuntimeConfig,
    mode: RuntimeMode,
    make_engine: F,
    templates: &[Vec<u8>],
    total_pkts: u64,
    now_ns: u64,
) -> RuntimeReport
where
    D: Datapath,
    F: Fn(usize) -> D + Sync,
{
    assert!(!templates.is_empty(), "need at least one packet template");
    let shards = cfg.shards.max(1);

    match mode {
        RuntimeMode::PerCoreClone => {
            let plans = clone_plans(templates.len(), shards, total_pkts);
            run_multi_queue(cfg, plans, make_engine, templates, now_ns, None)
        }
        RuntimeMode::Sharded => {
            let map = ShardMap::new(shards, cfg.policer_slots, cfg.steering);
            let plans = map.partition_templates(templates, total_pkts);
            run_multi_queue(cfg, plans, make_engine, templates, now_ns, cfg.egress)
        }
    }
}

/// The per-worker plan of [`RuntimeMode::PerCoreClone`]: every worker
/// drives all templates, worker `i` taking `total / shards` packets
/// (+1 for the first `total % shards` workers), spread over the
/// templates with the same largest-remainder rule.
fn clone_plans(templates: usize, shards: usize, total: u64) -> Vec<Vec<(usize, u64)>> {
    let n = templates.max(1) as u64;
    (0..shards)
        .map(|i| {
            let target = total / shards as u64 + u64::from((i as u64) < total % shards as u64);
            (0..templates).map(|j| (j, target / n + u64::from((j as u64) < target % n))).collect()
        })
        .collect()
}

/// What one self-fed shard worker returns.
struct SelfFedOutcome {
    report: ShardReport,
    bits: u64,
    seconds: f64,
    egress: Option<EgressStats>,
}

/// The self-fed shard loop shared by [`RuntimeMode::PerCoreClone`] and
/// [`RuntimeMode::Sharded`]: fill a burst of re-armed buffers from the
/// shard's plan, push it through the shard's own rx ring (the NIC-model
/// hop — one `push_burst`/`pop_burst` pair, no per-packet ring
/// traffic), process it through the engine's batch path, tally,
/// recycle. With egress enabled, processed packets take one more burst
/// hop through the shard's egress ring and the worker drains it into
/// its *own* [`TxScheduler`] (the per-core NIC tx queue), asserting the
/// per-shard sequence numbers.
///
/// Backpressure: each iteration first gives the scheduler a wire-paced
/// [`transmit`](TxScheduler::transmit) tick; while the tx queue is over
/// [`BackpressureConfig::high_watermark`] the worker refuses to drain
/// its rx ring — under [`BackpressurePolicy::Block`] it waits for the
/// wire (no loss, the closed-loop shape), under
/// [`BackpressurePolicy::Drop`] the offered packets that would have
/// arrived are shed at the rx ring and counted in
/// [`ShardReport::rx_backpressure_drops`] (the open-loop shape). The
/// run's offered total is conserved either way:
/// `processed + rx_backpressure_drops = target`, and a final
/// [`flush`](TxScheduler::flush) serializes the queued residue so the
/// egress side conserves too.
///
/// `plan` lists `(template index, packet count)`; buffers are pooled
/// per template (a buffer's bytes *are* its template, `reset()` only
/// restores the header), at most one burst's worth each, so steady
/// state allocates nothing.
fn run_self_fed_shard<D: Datapath>(
    engine: &mut D,
    templates: &[Vec<u8>],
    plan: &[(usize, u64)],
    batch: usize,
    cap: usize,
    now_ns: u64,
    egress: Option<(EgressConfig, BackpressureConfig, Instant)>,
) -> SelfFedOutcome {
    let target: u64 = plan.iter().map(|&(_, c)| c).sum();
    // (template index, packets remaining, buffer pool) per feed.
    let mut feeds: Vec<(usize, u64, Vec<PacketBuf>)> = plan
        .iter()
        .filter(|&&(_, c)| c > 0)
        .map(|&(t, c)| {
            let pool =
                (0..c.min(batch as u64)).map(|_| PacketBuf::new(templates[t].clone())).collect();
            (t, c, pool)
        })
        .collect();
    let rx: SpscRing<PacketBuf> = SpscRing::new(cap);
    let bp = egress.map(|(_, bp, _)| bp).unwrap_or_default();
    let mut tx_state = egress.map(|(ecfg, bp, epoch)| {
        (
            SpscRing::<TxPacket>::new(cap),
            TxScheduler::with_backpressure(&ecfg, &bp),
            epoch,
            0u64,
            0u64,
        )
    });
    let mut tally = WorkerTally::default();
    let mut rx_backpressure_drops = 0u64;
    let mut staging: Vec<PacketBuf> = Vec::with_capacity(batch);
    let mut staged_feeds: Vec<usize> = Vec::with_capacity(batch);
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(batch);
    let mut tx_staging: Vec<TxPacket> = Vec::new();
    let mut tx_popped: Vec<TxPacket> = Vec::new();
    let mut waiter = Waiter::default();

    let start = Instant::now();
    while tally.processed + rx_backpressure_drops < target {
        // Give the wire its paced tick, then honor the high-watermark:
        // a worker whose tx queue is over it stops draining rx — the
        // backpressure edge producers feel.
        if let Some((_, sched, epoch, ..)) = &mut tx_state {
            sched.transmit(epoch.elapsed().as_nanos() as u64);
            if sched.queued_pkts() > bp.high_watermark {
                match bp.policy {
                    BackpressurePolicy::Block => {
                        // Closed loop: hold the producers; wall time
                        // advances and the next tick drains the wire.
                        waiter.wait();
                    }
                    BackpressurePolicy::Drop => {
                        // Open loop: the offered packets that arrived
                        // during the stall are refused at the rx ring,
                        // round-robin across feeds like the fill loop.
                        let mut shed = 0usize;
                        'shed: loop {
                            let mut progress = false;
                            for feed in feeds.iter_mut() {
                                if shed >= batch {
                                    break 'shed;
                                }
                                if feed.1 == 0 {
                                    continue;
                                }
                                feed.1 -= 1;
                                shed += 1;
                                progress = true;
                            }
                            if !progress {
                                break;
                            }
                        }
                        rx_backpressure_drops += shed as u64;
                    }
                }
                continue;
            }
        }
        // Fill: round-robin across the feeds with work left, one buffer
        // each per pass, until the burst is full. Every buffer is home
        // between iterations, so a feed with `remaining > 0` always
        // progresses eventually.
        staged_feeds.clear();
        'fill: loop {
            let mut progress = false;
            for (fi, feed) in feeds.iter_mut().enumerate() {
                if staging.len() >= batch {
                    break 'fill;
                }
                if feed.1 == 0 {
                    continue;
                }
                let Some(mut buf) = feed.2.pop() else { continue };
                buf.reset();
                staging.push(buf);
                staged_feeds.push(fi);
                feed.1 -= 1;
                progress = true;
            }
            if !progress {
                break;
            }
        }
        if staging.is_empty() {
            break;
        }
        // The NIC-model ring hop: one slot claim in, one out. The ring
        // is drained every iteration, so the push only backpressures if
        // the configured depth is pathological (cap rounds up to ≥ 1).
        while !rx.push_burst(&mut staging) {
            waiter.wait();
        }
        rx.pop_burst(&mut staging);
        waiter.reset();

        verdicts.clear();
        engine.process_batch(&mut staging, now_ns, &mut verdicts);
        tally_burst(&mut tally, &staging, &verdicts);

        match &mut tx_state {
            None => {
                for (k, buf) in staging.drain(..).enumerate() {
                    feeds[staged_feeds[k]].2.push(buf);
                }
            }
            Some((etx, sched, epoch, next_seq, expected_seq)) => {
                // Worker-drained egress: stamp, burst through the
                // egress ring, drain into the shard-local scheduler.
                for (buf, &verdict) in staging.drain(..).zip(verdicts.iter()) {
                    let enqueued_ns = epoch.elapsed().as_nanos() as u64;
                    tx_staging.push(TxPacket { buf, verdict, enqueued_ns, seq: *next_seq });
                    *next_seq += 1;
                }
                while !etx.push_burst(&mut tx_staging) {
                    waiter.wait();
                }
                waiter.reset();
                tx_popped.clear();
                etx.pop_burst(&mut tx_popped);
                for (k, tx) in tx_popped.drain(..).enumerate() {
                    assert_eq!(
                        tx.seq, *expected_seq,
                        "egress ring leaked, duplicated or reordered a packet"
                    );
                    *expected_seq += 1;
                    // Tail drops are counted inside the scheduler
                    // (`tx_queue_full`); the buffer recycles either way.
                    let _ = sched.stage(tx.verdict, tx.buf.wire_len(), tx.enqueued_ns);
                    feeds[staged_feeds[k]].2.push(tx.buf);
                }
                sched.transmit(epoch.elapsed().as_nanos() as u64);
            }
        }
    }
    // End-of-run residue drain, in virtual time: after this the egress
    // conservation identity is exact.
    if let Some((_, sched, ..)) = &mut tx_state {
        sched.flush();
    }
    let seconds = start.elapsed().as_secs_f64();

    SelfFedOutcome {
        report: ShardReport {
            processed: tally.processed,
            forwarded: tally.forwarded,
            dropped: tally.dropped,
            rx_backpressure_drops,
            stats: engine.stats(),
        },
        bits: tally.bits,
        seconds,
        egress: tx_state.map(|(_, sched, ..)| sched.stats()),
    }
}

/// Drives one [`run_self_fed_shard`] per plan, threaded or sequentially
/// per [`RuntimeConfig::exec`], and aggregates the outcomes.
fn run_multi_queue<D, F>(
    cfg: &RuntimeConfig,
    plans: Vec<Vec<(usize, u64)>>,
    make_engine: F,
    templates: &[Vec<u8>],
    now_ns: u64,
    egress: Option<EgressConfig>,
) -> RuntimeReport
where
    D: Datapath,
    F: Fn(usize) -> D + Sync,
{
    let shards = plans.len();
    let batch = cfg.batch_size.max(1);
    let cap = cfg.ring_capacity.max(1);
    let bp = cfg.backpressure;
    // One clock for all egress stamps, started before any worker.
    let epoch = Instant::now();
    let threaded = shards > 1
        && match cfg.exec {
            ExecMode::Threaded => true,
            ExecMode::Sequential => false,
            ExecMode::Auto => {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) >= shards
            }
        };
    // Threaded workers start together; a sequential worker has nobody
    // to wait for. Engine construction stays ahead of the barrier, out
    // of the timed region.
    let ready = Barrier::new(if threaded { shards } else { 1 });
    let run_shard = |(i, plan): (usize, &Vec<(usize, u64)>)| {
        let mut engine = make_engine(i);
        ready.wait();
        let egress = egress.map(|e| (e, bp, epoch));
        run_self_fed_shard(&mut engine, templates, plan, batch, cap, now_ns, egress)
    };

    let outcomes: Vec<SelfFedOutcome> = if threaded {
        let run_shard = &run_shard;
        std::thread::scope(|s| {
            let handles: Vec<_> =
                plans.iter().enumerate().map(|job| s.spawn(move || run_shard(job))).collect();
            handles.into_iter().map(|h| h.join().expect("runtime worker panicked")).collect()
        })
    } else {
        plans.iter().enumerate().map(run_shard).collect()
    };

    let seconds = outcomes.iter().fold(0.0f64, |m, o| m.max(o.seconds));
    let egress_total = egress.map(|_| {
        let mut total = EgressStats::default();
        for o in &outcomes {
            total.merge(&o.egress.expect("egress was enabled for every shard"));
        }
        total
    });
    RuntimeReport {
        packets: outcomes.iter().map(|o| o.report.processed).sum(),
        bits: outcomes.iter().map(|o| o.bits).sum(),
        seconds,
        rx_backpressure_drops: outcomes.iter().map(|o| o.report.rx_backpressure_drops).sum(),
        per_shard: outcomes.into_iter().map(|o| o.report).collect(),
        egress: egress_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{forge_path, BeaconHop};
    use crate::datapath::DatapathBuilder;
    use crate::router::RouterConfig;
    use crate::source::{SourceGenerator, SourceReservation};
    use hummingbird_crypto::{ResInfo, SecretValue};
    use hummingbird_wire::scion_mac::HopMacKey;
    use hummingbird_wire::IsdAs;

    const NOW_MS: u64 = 1_700_000_100_000;
    const NOW_NS: u64 = NOW_MS * 1_000_000;

    fn reserved_packet(res_id: u32) -> Vec<u8> {
        let hops =
            vec![BeaconHop { key: HopMacKey::new([0x10; 16]), cons_ingress: 0, cons_egress: 0 }];
        let path = forge_path(&hops, (NOW_MS / 1000) as u32 - 100, 0x1234);
        let mut generator = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
        let res_info = ResInfo {
            ingress: 0,
            egress: 0,
            res_id,
            bw_encoded: 900,
            res_start: (NOW_MS / 1000) as u32 - 50,
            duration: 600,
        };
        let key = SecretValue::new([0x60; 16]).derive_key(&res_info);
        generator.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
        generator.generate(&[0u8; 200], NOW_MS).unwrap()
    }

    fn hop_engine() -> Box<dyn Datapath + Send> {
        DatapathBuilder::new(SecretValue::new([0x60; 16]), HopMacKey::new([0x10; 16])).build_boxed()
    }

    #[test]
    fn facade_matches_single_engine_on_reserved_traffic() {
        let cfg = RouterConfig::default();
        let templates: Vec<Vec<u8>> =
            [1u32, 30_000, 60_000, 99_999].iter().map(|&r| reserved_packet(r)).collect();
        let mut single = hop_engine();
        let mut sharded = ShardedRouter::from_fn(4, cfg.policer_slots, |_| hop_engine());
        for t in &templates {
            let a = single.process(&mut t.clone(), NOW_NS);
            let b = sharded.process(&mut t.clone(), NOW_NS);
            assert_eq!(a, b);
            assert!(b.is_flyover(), "{b:?}");
        }
        assert_eq!(single.stats(), sharded.stats());
        // Traffic actually spread: more than one shard saw packets.
        let active = sharded.shard_stats().iter().filter(|s| s.processed > 0).count();
        assert!(active > 1, "expected ResID spread across shards");
    }

    #[test]
    fn facade_batch_preserves_verdict_order() {
        let cfg = RouterConfig::default();
        let templates: Vec<Vec<u8>> =
            [99_999u32, 1, 50_000, 1, 99_999].iter().map(|&r| reserved_packet(r)).collect();
        let mut single = hop_engine();
        let expected: Vec<Verdict> =
            templates.iter().map(|t| single.process(&mut t.clone(), NOW_NS)).collect();
        let mut sharded = ShardedRouter::from_fn(3, cfg.policer_slots, |_| hop_engine());
        let mut bufs: Vec<PacketBuf> =
            templates.iter().map(|t| PacketBuf::new(t.clone())).collect();
        let mut got = Vec::new();
        sharded.process_batch(&mut bufs, NOW_NS, &mut got);
        assert_eq!(got, expected);
        assert_eq!(sharded.stats().processed, templates.len() as u64);
    }

    #[test]
    fn threaded_runtime_processes_every_packet_in_both_modes() {
        let templates: Vec<Vec<u8>> =
            [5u32, 40_000, 77_000].iter().map(|&r| reserved_packet(r)).collect();
        for mode in [RuntimeMode::PerCoreClone, RuntimeMode::Sharded] {
            let mut cfg = RuntimeConfig::new(3);
            cfg.ring_capacity = 8;
            let report = run_to_completion(&cfg, mode, |_| hop_engine(), &templates, 1_000, NOW_NS);
            assert_eq!(report.packets, 1_000, "{mode:?}");
            assert_eq!(
                report.per_shard.iter().map(|r| r.processed).sum::<u64>(),
                1_000,
                "{mode:?}"
            );
            assert!(report.bits > 0 && report.seconds > 0.0, "{mode:?}");
            let forwarded: u64 = report.per_shard.iter().map(|r| r.forwarded).sum();
            assert_eq!(forwarded, 1_000, "valid reserved packets all forward ({mode:?})");
        }
    }

    #[test]
    fn sequential_exec_matches_threaded_results() {
        let templates: Vec<Vec<u8>> =
            [9u32, 55_000, 91_000].iter().map(|&r| reserved_packet(r)).collect();
        let mut threaded_cfg = RuntimeConfig::new(4);
        threaded_cfg.exec = ExecMode::Threaded;
        let mut sequential_cfg = threaded_cfg;
        sequential_cfg.exec = ExecMode::Sequential;
        let a = run_to_completion(
            &threaded_cfg,
            RuntimeMode::Sharded,
            |_| hop_engine(),
            &templates,
            600,
            NOW_NS,
        );
        let b = run_to_completion(
            &sequential_cfg,
            RuntimeMode::Sharded,
            |_| hop_engine(),
            &templates,
            600,
            NOW_NS,
        );
        assert_eq!(a.packets, b.packets);
        for (ra, rb) in a.per_shard.iter().zip(b.per_shard.iter()) {
            assert_eq!(ra.processed, rb.processed, "per-shard split is deterministic");
            assert_eq!(ra.stats, rb.stats);
        }
        // Auto resolves to one of the two and conserves as well.
        let mut auto_cfg = threaded_cfg;
        auto_cfg.exec = ExecMode::Auto;
        let c = run_to_completion(
            &auto_cfg,
            RuntimeMode::Sharded,
            |_| hop_engine(),
            &templates,
            600,
            NOW_NS,
        );
        assert_eq!(c.packets, 600);
    }

    #[test]
    fn shallow_ring_run_completes() {
        let templates = vec![reserved_packet(42), reserved_packet(88_000)];
        let mut cfg = RuntimeConfig::new(2);
        cfg.ring_capacity = 4;
        let report = run_to_completion(
            &cfg,
            RuntimeMode::Sharded,
            |_| hop_engine(),
            &templates,
            200,
            NOW_NS,
        );
        assert_eq!(report.packets, 200);
    }

    #[test]
    fn sharded_runtime_egress_reports_residence_times() {
        let templates: Vec<Vec<u8>> =
            [7u32, 33_000, 88_000].iter().map(|&r| reserved_packet(r)).collect();
        let mut cfg = RuntimeConfig::new(3);
        cfg.ring_capacity = 8;
        cfg.egress = Some(EgressConfig::default());
        let report = run_to_completion(
            &cfg,
            RuntimeMode::Sharded,
            |_| hop_engine(),
            &templates,
            1_000,
            NOW_NS,
        );
        assert_eq!(report.packets, 1_000);
        let e = report.egress.expect("tx path enabled");
        // Packet conservation through the tx path: everything
        // processed either serialized or was a verdict drop.
        assert_eq!(e.forwarded() + e.dropped, 1_000);
        // Valid reserved traffic rides the priority class exclusively.
        assert_eq!(e.priority.pkts, 1_000);
        assert_eq!(e.best_effort.pkts, 0);
        assert!(e.priority.bytes > 0);
        assert!(e.priority.residence_ns_sum >= e.priority.pkts, "residence accrues");
        assert!(e.priority.residence_ns_max > 0);
        // Tiny and zero-packet runs drain the tx path cleanly too.
        let mut cfg2 = RuntimeConfig::new(2);
        cfg2.egress = Some(EgressConfig::default());
        let report =
            run_to_completion(&cfg2, RuntimeMode::Sharded, |_| hop_engine(), &templates, 3, NOW_NS);
        assert_eq!(report.packets, 3);
        assert_eq!(report.egress.expect("enabled").forwarded(), 3);
        let report =
            run_to_completion(&cfg2, RuntimeMode::Sharded, |_| hop_engine(), &templates, 0, NOW_NS);
        assert_eq!(report.egress.expect("enabled").forwarded(), 0);
    }

    #[test]
    fn sharded_runtime_handles_tiny_runs_and_single_shard() {
        let templates = vec![reserved_packet(42)];
        let cfg = RuntimeConfig::new(1);
        let report =
            run_to_completion(&cfg, RuntimeMode::Sharded, |_| hop_engine(), &templates, 3, NOW_NS);
        assert_eq!(report.packets, 3);
        // Zero-packet runs terminate cleanly too.
        let report =
            run_to_completion(&cfg, RuntimeMode::Sharded, |_| hop_engine(), &templates, 0, NOW_NS);
        assert_eq!(report.packets, 0);
    }

    #[test]
    fn clone_plans_split_evenly() {
        let plans = clone_plans(3, 4, 1_001);
        assert_eq!(plans.len(), 4);
        let total: u64 = plans.iter().flatten().map(|&(_, c)| c).sum();
        assert_eq!(total, 1_001);
        // Worker targets differ by at most one packet.
        let targets: Vec<u64> = plans.iter().map(|p| p.iter().map(|&(_, c)| c).sum()).collect();
        assert_eq!(targets.iter().max().unwrap() - targets.iter().min().unwrap(), 1);
    }
}
