//! The sharded multi-queue datapath runtime: a software model of the
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
//!   self-fed loop: re-arm a burst of recycled [`PacketBuf`]s from its
//!   plan, process it via the engine's batch path, recycle. Shards share
//!   nothing and no dispatcher thread exists, so N shards approach N×
//!   one core.
//! * [`egress::TxScheduler`] — the tx path: each worker stages its
//!   processed bursts into its own per-interface FIFO + priority-class
//!   queues over a modeled link rate (its model of a per-core NIC tx
//!   queue), recording per-packet residence times; the per-shard
//!   [`EgressStats`] are merged onto the report. Enabled by
//!   [`RuntimeConfig::egress`].
//!
//! The only place a worker ever waits is the
//! [`BackpressurePolicy::Block`] stall (tx queue over the watermark): it
//! backs off exponentially, then yields. How workers map onto host
//! threads is governed by [`RuntimeConfig::exec`] ([`ExecMode`]) — see
//! its docs for the honest accounting of what "sequential" measures.
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
//! real RSS hardware. Each shard's filter also rotates its epochs with
//! the traffic it sees, so once the clock steps back below the newest
//! epoch, a shard may still hold a replay's identity that one engine's
//! filter has let go, and drop that replay.

mod egress;
mod ring;
mod shard;

pub use egress::{
    BackpressureConfig, BackpressurePolicy, EgressClassStats, EgressConfig, EgressStats,
    LatencyHistogram, TxScheduler,
};
// The runtime itself queues nothing; the one type in `ring` stays
// reachable at its old path for callers that measure a burst hop.
pub use ring::*;
pub use shard::{FlowClass, ShardMap, Steering};

use crate::datapath::{Datapath, DatapathStats, PacketBuf, Verdict};
use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::Instant;

/// Packets per [`Datapath::process_batch`] burst in the hot loop (a
/// DPDK-ish burst size): [`RuntimeConfig::new`]'s `batch_size`.
pub const BATCH_SIZE: usize = 32;

/// One logical router spread across per-shard engines, behind the
/// [`Datapath`] trait.
///
/// Every packet is steered by the [`ShardMap`] to the shard that owns
/// its flow, so per-reservation policing state never splits across
/// engines; verdicts and aggregate [`stats`](Datapath::stats) are
/// element-wise identical to a single engine over the same traffic (the
/// contract `crates/baselines/tests/differential.rs` checks against the
/// reference router of every family, with the two exceptions the module
/// doc names).
/// [`process_batch`](Datapath::process_batch) forwards maximal same-shard
/// runs to the
/// owning engine's batch path, so per-burst amortizations (batch key
/// derivation, policer prefetch) survive sharding.
///
/// This synchronous facade is the drop-in form — harnesses that want
/// real parallelism drive the same engines through
/// [`run_to_completion`]. Cost model: steering parses the header a
/// second time (hardware RSS gets this for free), a deliberate trade —
/// sharing the engine's own `stages::parse` keeps the steering decision
/// bit-exact with what the engine will see, which is what the ResID-
/// ownership invariant rests on; the benchmark's
/// `runtime.sharded_ns_per_pkt` and `shard.shard_of_ns` rows measure the
/// overhead against a single engine. (The threaded runtime
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
        self.shards.iter().map(|s| s.stats()).sum()
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
    /// Each worker owns an independent engine and feeds itself an even
    /// share of the workload. Measures pure per-core engine scaling; no
    /// cross-core policing semantics.
    PerCoreClone,
    /// One logical router with correct cross-core policing: every
    /// packet is processed by the shard the [`ShardMap`] assigns it to,
    /// the assignment made at injection time
    /// (`ShardMap::partition_templates`).
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
    /// via `ShardMap::partition_templates`, each shard feeds itself
    /// its plan, and shards share nothing.
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
    /// The default. Workers share no state, so what threading adds over
    /// [`Sequential`](ExecMode::Sequential) is only that the shards run
    /// at the same time.
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

impl ExecMode {
    /// Whether a run of `shards` workers is timed on concurrently
    /// running threads — `false` exactly when it is the sequential
    /// dedicated-core estimate. A single shard runs on the calling
    /// thread and is a plain measurement either way.
    pub fn is_concurrent(self, shards: usize) -> bool {
        shards <= 1
            || match self {
                ExecMode::Threaded => true,
                ExecMode::Sequential => false,
                ExecMode::Auto => {
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) >= shards
                }
            }
    }
}

/// Tuning of the multi-queue runtime.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker shard count (cores devoted to packet processing).
    pub shards: usize,
    /// Selects nothing: a shard hands each burst straight from its fill
    /// to the engine, so the runtime has no ring for this to size. Kept
    /// for the frozen `benchmark/` package, which reads it to size the
    /// queue in `ring` whose burst hop it measures.
    pub ring_capacity: usize,
    /// Burst size per `process_batch` call.
    pub batch_size: usize,
    /// ResID slot count the steering ranges partition (should match the
    /// engines' policer capacity).
    pub policer_slots: u32,
    /// Flow steering policy (ignored in [`RuntimeMode::PerCoreClone`]).
    pub steering: Steering,
    /// Tx-path model: `Some` stages every processed packet into its
    /// shard's two-class [`TxScheduler`] and reports [`EgressStats`];
    /// `None` (the default) recycles buffers straight after the engine,
    /// the historical rx-only harness. Only
    /// [`RuntimeMode::Sharded`] has a tx port (the clone mode measures
    /// independent engines, not one logical router), so the model is
    /// ignored under [`RuntimeMode::PerCoreClone`].
    pub egress: Option<EgressConfig>,
    /// Bounded-queue and backpressure tuning of the tx path (only
    /// meaningful when [`egress`](RuntimeConfig::egress) is `Some`):
    /// per-port per-class queue bound, the high-watermark past which a
    /// worker stops taking in bursts, and what the rx side does
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
    /// A sensible default: `shards` workers, a `ring_capacity` of 256,
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
    /// Packets forwarded: the engine's `flyover + best_effort`.
    pub forwarded: u64,
    /// Packets dropped: the engine's `dropped`.
    pub dropped: u64,
    /// Offered packets shed at rx while this shard's tx queue was over
    /// the high-watermark under [`BackpressurePolicy::Drop`]
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
    /// Offered packets shed at rx under backpressure, summed
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

/// Runs `total_pkts` packets (cycling over `templates`) through
/// `cfg.shards` worker threads and reports aggregate and per-shard
/// throughput.
///
/// In [`RuntimeMode::Sharded`] one logical router with correct policing
/// runs across the workers, each fed the share of the workload the
/// [`ShardMap`] steers to it. In [`RuntimeMode::PerCoreClone`] each
/// worker feeds itself an even share of the total — the classic
/// per-core-clone measurement. Engines are constructed inside their
/// worker (no `Send` bound on `D`); construction stays out of the timed
/// region.
///
/// Packet accounting is deterministic, by one rule: `n` split `k` ways
/// gives part `i` `n / k` packets, plus one when `i < n % k`. In
/// [`RuntimeMode::Sharded`] template `j` of `T` contributes its part of
/// `total_pkts`, whole on the shard that owns it, so the shards are
/// comparable against one engine fed the same multiset; in
/// [`RuntimeMode::PerCoreClone`] worker `i` spreads its part of
/// `total_pkts` over the templates by the same rule.
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

/// Takes up to `n` packets from `rotation` — the feeds with packets
/// left, `(feed, remaining)` in plan order — one per feed per pass,
/// each pass from the front (the order that keeps a burst's templates
/// cache-resident), calling `take` with each packet's feed; returns how
/// many it took. Exhausted feeds leave the rotation, so a call costs
/// O(`n`) however many feeds the plan has.
fn draw(rotation: &mut VecDeque<(usize, u64)>, n: usize, mut take: impl FnMut(usize)) -> usize {
    let mut pos = 0;
    for drawn in 0..n {
        if rotation.is_empty() {
            return drawn;
        }
        if pos == rotation.len() {
            pos = 0;
        }
        let (feed, left) = &mut rotation[pos];
        take(*feed);
        *left -= 1;
        if *left == 0 {
            rotation.remove(pos);
        } else {
            pos += 1;
        }
    }
    n
}

/// The self-fed shard loop shared by [`RuntimeMode::PerCoreClone`] and
/// [`RuntimeMode::Sharded`]: draw a burst of re-armed buffers from the
/// shard's plan, process it through the engine's batch path, count,
/// recycle. With egress enabled, the worker stages the processed burst
/// into its *own* [`TxScheduler`] (the per-core NIC tx queue) before
/// recycling it; one clock read stamps every packet of the burst and
/// times the [`transmit`](TxScheduler::transmit) that follows.
///
/// Backpressure: while the tx queue is over
/// [`BackpressureConfig::high_watermark`] the worker gives the wire a
/// fresh [`transmit`](TxScheduler::transmit) tick per iteration and
/// draws no burst — under [`BackpressurePolicy::Block`] it waits for
/// the wire (no loss, the closed-loop shape), under
/// [`BackpressurePolicy::Drop`] the offered packets that would have
/// arrived are shed and counted in [`ShardReport::rx_backpressure_drops`]
/// (the open-loop shape). The
/// scheduler is work-conserving, so this happens only when the wire
/// really is the bottleneck. The plan's total is conserved either way:
/// it equals `processed + rx_backpressure_drops`, and a final
/// [`flush`](TxScheduler::flush) serializes the queued residue so the
/// egress side conserves too.
///
/// `plan` lists `(template index, packet count)`, one feed each; the
/// fill [`draw`]s from the feeds still in rotation in O(burst). Buffers
/// are pooled per feed (a buffer's bytes *are* its template, `reset()`
/// only restores the header) and created on demand: a pool grows only
/// when one burst takes more from its feed than it holds, so a call
/// allocates O(templates) buffers and steady state nothing.
fn run_self_fed_shard<D: Datapath>(
    engine: &mut D,
    templates: &[Vec<u8>],
    plan: &[(usize, u64)],
    batch: usize,
    now_ns: u64,
    egress: Option<(EgressConfig, BackpressureConfig, Instant)>,
) -> SelfFedOutcome {
    let mut rotation: VecDeque<(usize, u64)> =
        plan.iter().enumerate().filter(|(_, &(_, c))| c > 0).map(|(f, &(_, c))| (f, c)).collect();
    // Every pool's vector is allocated here, ahead of any buffer, with
    // room for the one buffer a feed holds when each burst takes one
    // packet from it. Allocated at the first recycle instead, between the
    // buffers, the loop measured ≈ 7 ns per packet slower.
    let mut pools: Vec<Vec<PacketBuf>> = plan.iter().map(|_| Vec::with_capacity(1)).collect();
    let bp = egress.map(|(_, bp, _)| bp).unwrap_or_default();
    let mut tx_state =
        egress.map(|(ecfg, bp, epoch)| (TxScheduler::with_backpressure(&ecfg, &bp), epoch));
    let (mut processed, mut bits) = (0u64, 0u64);
    let mut rx_backpressure_drops = 0u64;
    let mut staging: Vec<PacketBuf> = Vec::with_capacity(batch);
    let mut staged_feeds: Vec<usize> = Vec::with_capacity(batch);
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(batch);
    let mut waiter = Waiter::default();

    let start = Instant::now();
    while !rotation.is_empty() {
        // Honor the high-watermark: a worker whose tx queue is over it
        // gives the wire a fresh tick and, if still over, draws no
        // burst — the backpressure edge producers feel.
        if let Some((sched, epoch)) = &mut tx_state {
            if sched.queued_pkts() > bp.high_watermark {
                sched.transmit(epoch.elapsed().as_nanos() as u64);
                if sched.queued_pkts() > bp.high_watermark {
                    match bp.policy {
                        // Closed loop: hold the producers; wall time
                        // advances and the next tick drains the wire.
                        BackpressurePolicy::Block => waiter.wait(),
                        // Open loop: the offered packets that arrived
                        // during the stall are refused, drawn from the
                        // feeds like a burst.
                        BackpressurePolicy::Drop => {
                            rx_backpressure_drops += draw(&mut rotation, batch, |_| {}) as u64;
                        }
                    }
                    continue;
                }
            }
        }
        waiter.reset();
        staged_feeds.clear();
        draw(&mut rotation, batch, |feed| {
            let buf = match pools[feed].pop() {
                Some(mut buf) => {
                    buf.reset();
                    buf
                }
                None => PacketBuf::new(templates[plan[feed].0].clone()),
            };
            staging.push(buf);
            staged_feeds.push(feed);
        });

        verdicts.clear();
        engine.process_batch(&mut staging, now_ns, &mut verdicts);
        processed += staging.len() as u64;
        bits += staging.iter().map(|p| p.wire_len() as u64 * 8).sum::<u64>();

        if let Some((sched, epoch)) = &mut tx_state {
            // One stamp for the whole burst. Tail drops are counted
            // inside the scheduler (`tx_queue_full`); the buffer
            // recycles either way.
            let now = epoch.elapsed().as_nanos() as u64;
            for (buf, &verdict) in staging.iter().zip(&verdicts) {
                let _ = sched.stage(verdict, buf.wire_len(), now);
            }
            sched.transmit(now);
        }
        for (buf, &feed) in staging.drain(..).zip(&staged_feeds) {
            pools[feed].push(buf);
        }
    }
    // End-of-run residue drain, in virtual time: after this the egress
    // conservation identity is exact.
    if let Some((sched, _)) = &mut tx_state {
        sched.flush();
    }
    let seconds = start.elapsed().as_secs_f64();
    // The engine counted every verdict; the worker does not count again.
    let stats = engine.stats();
    SelfFedOutcome {
        report: ShardReport {
            processed,
            forwarded: stats.flyover + stats.best_effort,
            dropped: stats.dropped,
            rx_backpressure_drops,
            stats,
        },
        bits,
        seconds,
        egress: tx_state.map(|(sched, _)| sched.stats()),
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
    let bp = cfg.backpressure;
    // One clock for all egress stamps, started before any worker.
    let epoch = Instant::now();
    let threaded = shards > 1 && cfg.exec.is_concurrent(shards);
    // Threaded workers start together; a sequential worker has nobody
    // to wait for. Engine construction stays ahead of the barrier, out
    // of the timed region.
    let ready = Barrier::new(if threaded { shards } else { 1 });
    let run_shard = |(i, plan): (usize, &Vec<(usize, u64)>)| {
        let mut engine = make_engine(i);
        ready.wait();
        let egress = egress.map(|e| (e, bp, epoch));
        run_self_fed_shard(&mut engine, templates, plan, batch, now_ns, egress)
    };

    let outcomes: Vec<SelfFedOutcome> = if threaded {
        let run_shard = &run_shard;
        std::thread::scope(|s| {
            let handles: Vec<_> =
                plans.iter().enumerate().map(|job| s.spawn(move || run_shard(job))).collect();
            // A worker's panic is the caller's: re-raise it unchanged.
            let joined = handles.into_iter().map(|h| h.join());
            joined.map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic))).collect()
        })
    } else {
        plans.iter().enumerate().map(run_shard).collect()
    };

    let seconds = outcomes.iter().fold(0.0f64, |m, o| m.max(o.seconds));
    // Every shard runs egress or none does, and there is at least one
    // shard: the total exists exactly when egress was enabled.
    let egress_total = outcomes.iter().filter_map(|o| o.egress).reduce(|mut total, shard| {
        total.merge(&shard);
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
    use crate::router::{BorderRouter, RouterConfig};
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
        Box::new(BorderRouter::new(
            SecretValue::new([0x60; 16]),
            HopMacKey::new([0x10; 16]),
            RouterConfig::default(),
        ))
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
            let cfg = RuntimeConfig::new(3);
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
    fn drop_heavy_engines_are_measurable() {
        // Junk through a real router: every packet drops, and the run
        // still counts every offered packet on the shard that dropped it.
        let junk = vec![vec![0u8; 128]];
        let report = run_to_completion(
            &RuntimeConfig::new(2),
            RuntimeMode::PerCoreClone,
            |_| hop_engine(),
            &junk,
            1_000,
            NOW_NS,
        );
        assert_eq!(report.packets, 1_000);
        for shard in &report.per_shard {
            assert!(shard.processed > 0);
            assert_eq!(shard.dropped, shard.processed, "{shard:?}");
        }
    }

    #[test]
    fn sharded_runtime_egress_reports_residence_times() {
        let templates: Vec<Vec<u8>> =
            [7u32, 33_000, 88_000].iter().map(|&r| reserved_packet(r)).collect();
        let mut cfg = RuntimeConfig::new(3);
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
