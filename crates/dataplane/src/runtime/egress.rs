//! The tx half of the worker-ring runtime: per-interface egress queues
//! with the paper's two-class strict-priority forwarding, bounded queue
//! depth, and the backpressure contract the rx side honors.
//!
//! The rx half ([`super::run_to_completion`]) models the NIC-to-core
//! path; until this module existed, verdicts were tallied and the buffer
//! recycled — there was no egress, so the runtime could measure
//! throughput but never *latency*. The tx path closes that gap:
//!
//! * workers push every processed packet as a [`TxPacket`] — the buffer,
//!   its verdict, an enqueue stamp and a per-shard sequence number —
//!   into a per-shard egress [`super::SpscRing`] (the SPSC discipline of
//!   the rx side, reversed);
//! * each processed packet lands in a [`TxScheduler`], which models one
//!   egress port per interface as a *bounded* FIFO pair of
//!   priority-class queues — flyover traffic is serialized ahead of best
//!   effort, exactly the two-class forwarding of the paper's routers
//!   (and of the netsim [`Link`](../../hummingbird_netsim) model) — over
//!   a configurable link rate in virtual time;
//! * per-packet **residence time** (worker enqueue → modeled wire
//!   departure) is folded into [`EgressStats`], the
//!   [`RuntimeReport`](super::RuntimeReport) extension the latency
//!   harnesses read, including a log₂ [`LatencyHistogram`] for tail
//!   (p99) queries.
//!
//! # Overload semantics
//!
//! The port queues are bounded ([`BackpressureConfig::tx_queue_pkts`]
//! per port per class) and [`transmit`](TxScheduler::transmit) is
//! *wire-paced*: a call serializes only the packets the modeled link can
//! start by `now_ns`. When verdicts arrive faster than the wire drains,
//! the queues fill; a packet staged against a full class queue is
//! tail-dropped under [`DropReason::TxQueueFull`] and counted in
//! [`EgressStats::tx_queue_full`] — never silently lost. Upstream, the
//! worker loop watches [`queued_pkts`](TxScheduler::queued_pkts) against
//! [`BackpressureConfig::high_watermark`] and stops draining its rx ring
//! while the tx queue is over it, so producers see a full ring and
//! either block ([`BackpressurePolicy::Block`], the closed-loop
//! netsim/testbed shape) or shed load into
//! `rx_backpressure_drops` ([`BackpressurePolicy::Drop`], the open-loop
//! bench shape). At end of run [`flush`](TxScheduler::flush) drains the
//! residue in virtual time so packet conservation is exact:
//! `processed = forwarded + dropped + tx_queue_full`.
//!
//! Within one `(shard, class)` the egress path is provably FIFO — the
//! SPSC ring preserves worker order and the scheduler serves each class
//! queue front-to-back — and the drain side asserts the per-shard
//! sequence numbers to catch any leak, duplication or reorder (the
//! property `tests/prop_sharded.rs` exercises end to end).

use crate::datapath::{DropReason, PacketBuf, Verdict};
use std::collections::{HashMap, VecDeque};

/// Tuning of the tx path.
#[derive(Clone, Copy, Debug)]
pub struct EgressConfig {
    /// Serialization rate of each egress interface, bits per second.
    pub bandwidth_bps: u64,
}

impl Default for EgressConfig {
    /// 40 Gbps — one port of the paper's 4×40 Gbps testbed.
    fn default() -> Self {
        EgressConfig { bandwidth_bps: 40_000_000_000 }
    }
}

/// What the rx side does while the tx queue is over the high-watermark
/// ([`BackpressureConfig::policy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Open-loop producers keep arriving and are shed at the rx ring:
    /// each refused packet counts into the shard's
    /// `rx_backpressure_drops`. The bench shape — offered load is a
    /// workload parameter, so loss is the observable.
    #[default]
    Drop,
    /// Producers hold until the wire drains below the watermark — the
    /// closed-loop netsim/testbed shape, where upstream senders feel the
    /// stall and slow down. The worker backs off (exponential spin,
    /// then yield) until the wire catches up; no packet is lost at rx.
    Block,
}

/// Bounded-queue and backpressure tuning of the tx path
/// ([`RuntimeConfig::backpressure`](super::RuntimeConfig::backpressure)).
#[derive(Clone, Copy, Debug)]
pub struct BackpressureConfig {
    /// Per-port, per-class tx queue bound in packets (clamped to ≥ 1).
    /// A packet staged against a full class queue is tail-dropped under
    /// [`DropReason::TxQueueFull`].
    pub tx_queue_pkts: usize,
    /// Total queued packets (across all ports of one shard's scheduler)
    /// past which the worker stops draining its rx ring. Keep it below
    /// `tx_queue_pkts` so [`BackpressurePolicy::Block`] stalls before
    /// tail drop sets in.
    pub high_watermark: usize,
    /// What the rx side does while over the watermark.
    pub policy: BackpressurePolicy,
}

impl Default for BackpressureConfig {
    /// 2048-packet class queues, a 1536-packet watermark (¾ of the
    /// bound), open-loop [`BackpressurePolicy::Drop`]. At the default
    /// 40 Gbps [`EgressConfig`] the wire outruns every engine and the
    /// watermark never trips — the bounds only bite when a scenario
    /// narrows the link.
    fn default() -> Self {
        BackpressureConfig {
            tx_queue_pkts: 2048,
            high_watermark: 1536,
            policy: BackpressurePolicy::Drop,
        }
    }
}

/// One processed packet traveling an egress ring: the recycled buffer,
/// its verdict, the worker's enqueue stamp (ns since run start) and the
/// worker's per-shard sequence number (FIFO audit).
#[derive(Debug)]
pub struct TxPacket {
    /// The processed buffer (recycled by the worker after staging).
    pub buf: PacketBuf,
    /// The engine's verdict (class + egress interface).
    pub verdict: Verdict,
    /// Worker-side enqueue time, ns since run start.
    pub enqueued_ns: u64,
    /// Per-shard monotone sequence number.
    pub seq: u64,
}

/// A log₂-bucketed latency histogram: [`Self::BUCKETS`] power-of-two
/// buckets cover the full `u64` nanosecond range — real-socket runs see
/// multi-second scheduler stalls, which a 32-bucket (~2.1 s cap)
/// histogram used to silently flatten — in 520 bytes of `Copy` state.
///
/// The percentile query answers with the *upper bound* of the bucket the
/// rank falls in (resolution ±2×) — the honest precision of a fixed-size
/// histogram, and exactly what the overload acceptance needs: "p99
/// stays bounded" is a factor-of-two claim, not a nanosecond one. The
/// top bucket has no finite upper bound and answers `u64::MAX`.
/// Empty populations answer `0`, never panic or `NaN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    count: u64,
    buckets: [u64; Self::BUCKETS],
}

impl Default for LatencyHistogram {
    // Manual: std derives `Default` for arrays only up to 32 elements.
    fn default() -> Self {
        LatencyHistogram { count: 0, buckets: [0; Self::BUCKETS] }
    }
}

impl LatencyHistogram {
    /// Bucket count: one per bit of a `u64` sample, so `bucket_of` never
    /// clamps a representable latency into a smaller bucket.
    pub const BUCKETS: usize = 64;

    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            ((64 - ns.leading_zeros()) as usize).min(Self::BUCKETS - 1)
        }
    }

    /// Upper bound of bucket `i`, derived from the bucket count: the
    /// shift is guarded so the top bucket (and anything past it) answers
    /// `u64::MAX` instead of overflowing `1u64 << 64` or inventing a
    /// spurious cap.
    fn bucket_upper_ns(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= Self::BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample. Saturating: counts never wrap.
    pub fn record(&mut self, ns: u64) {
        self.count = self.count.saturating_add(1);
        let b = Self::bucket_of(ns);
        self.buckets[b] = self.buckets[b].saturating_add(1);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`), answered as the upper
    /// bound of the bucket the rank lands in. `0` on an empty
    /// population.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return Self::bucket_upper_ns(i);
            }
        }
        Self::bucket_upper_ns(Self::BUCKETS - 1)
    }

    /// Folds another histogram into this one (saturating).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.count = self.count.saturating_add(other.count);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// The samples recorded *since* an `earlier` snapshot of the same
    /// histogram (bucket-wise saturating subtraction) — how windowed
    /// phase statistics carve a percentile out of cumulative counters.
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut out = *self;
        out.count = out.count.saturating_sub(earlier.count);
        for (b, e) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(*e);
        }
        out
    }
}

/// Per-class egress counters and residence times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EgressClassStats {
    /// Packets serialized in this class.
    pub pkts: u64,
    /// Bytes serialized in this class.
    pub bytes: u64,
    /// Sum of per-packet residence times (worker enqueue → modeled wire
    /// departure), ns. Saturating — a pathological residence sum pins at
    /// `u64::MAX` instead of panicking.
    pub residence_ns_sum: u64,
    /// Maximum per-packet residence time, ns.
    pub residence_ns_max: u64,
    /// Residence-time distribution (for p99-under-overload queries).
    pub residence: LatencyHistogram,
}

impl EgressClassStats {
    /// Mean residence time in ns (0 when no packets were serialized).
    pub fn mean_residence_ns(&self) -> f64 {
        if self.pkts == 0 {
            return 0.0;
        }
        self.residence_ns_sum as f64 / self.pkts as f64
    }

    /// p99 residence time in ns — `0` when nothing was serialized, with
    /// the ±2× bucket resolution of [`LatencyHistogram`].
    pub fn residence_p99_ns(&self) -> u64 {
        self.residence.percentile_ns(0.99)
    }

    fn fold_residence(&mut self, residence: u64) {
        self.residence_ns_sum = self.residence_ns_sum.saturating_add(residence);
        self.residence_ns_max = self.residence_ns_max.max(residence);
        self.residence.record(residence);
    }

    /// Folds another shard's class counters into this one: counts and
    /// residence sums add (saturating), the max residence is the max of
    /// maxes.
    pub fn merge(&mut self, other: &EgressClassStats) {
        self.pkts += other.pkts;
        self.bytes += other.bytes;
        self.residence_ns_sum = self.residence_ns_sum.saturating_add(other.residence_ns_sum);
        self.residence_ns_max = self.residence_ns_max.max(other.residence_ns_max);
        self.residence.merge(&other.residence);
    }
}

/// What the tx path did during one run — the latency face of
/// [`super::RuntimeReport`].
///
/// The per-class packet/byte counts are deterministic (each is a pure
/// function of the verdicts) when the queues never fill; under overload
/// the `tx_queue_full` count depends on worker/tx interleaving, but the
/// conservation identity `forwarded() + dropped + tx_queue_full =
/// processed` is exact in every schedule. Residence times are
/// diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EgressStats {
    /// Flyover (priority-class) traffic.
    pub priority: EgressClassStats,
    /// Best-effort traffic.
    pub best_effort: EgressClassStats,
    /// Packets whose verdict was a drop: recycled without touching an
    /// egress queue.
    pub dropped: u64,
    /// Packets tail-dropped at a full bounded tx queue
    /// ([`DropReason::TxQueueFull`]).
    pub tx_queue_full: u64,
}

impl EgressStats {
    /// Total packets serialized onto the wire.
    pub fn forwarded(&self) -> u64 {
        self.priority.pkts + self.best_effort.pkts
    }

    /// Folds another shard's egress statistics into this one — how the
    /// multi-queue runtime aggregates its per-worker [`TxScheduler`]s
    /// into the single [`EgressStats`] the report carries.
    pub fn merge(&mut self, other: &EgressStats) {
        self.priority.merge(&other.priority);
        self.best_effort.merge(&other.best_effort);
        self.dropped += other.dropped;
        self.tx_queue_full += other.tx_queue_full;
    }
}

/// Per-interface egress port state: one virtual-time serialization
/// horizon plus the bounded two-class queue.
#[derive(Debug, Default)]
struct Port {
    /// When the wire frees up, ns since run start (virtual: may run
    /// ahead of the wall clock).
    busy_until_ns: u64,
    /// Queued priority-class packets `(wire_len, enqueued_ns)`.
    prio: VecDeque<(usize, u64)>,
    /// Queued best-effort packets.
    best_effort: VecDeque<(usize, u64)>,
}

impl Port {
    /// Pops the next packet to serialize, priority first (strict
    /// priority scheduling).
    fn pop_next(&mut self) -> Option<(usize, u64)> {
        self.prio.pop_front().or_else(|| self.best_effort.pop_front())
    }
}

/// Wire-serialization time of `bytes` at `bandwidth_bps`, ns — the one
/// formula both [`TxScheduler::tx_time_ns`] and the transmit loop use.
#[inline]
fn wire_ns(bandwidth_bps: u64, bytes: usize) -> u64 {
    (bytes as u64 * 8).saturating_mul(1_000_000_000) / bandwidth_bps
}

/// The tx scheduler: bounded per-interface FIFO + priority-class egress
/// queues over a modeled link rate.
///
/// Driven in cycles by the worker: [`stage`](TxScheduler::stage) every
/// packet popped off its egress ring, then
/// [`transmit`](TxScheduler::transmit) once per cycle — each interface
/// serializes whatever the wire can start by
/// `now_ns`, staged priority packets front-to-back before any staged
/// best-effort packet, so flyover traffic overtakes best effort at
/// exactly the granularity a strict-priority port would enforce. At the
/// end of a run, [`flush`](TxScheduler::flush) drains the residue in
/// virtual time.
#[derive(Debug)]
pub struct TxScheduler {
    bandwidth_bps: u64,
    /// Per-port, per-class queue bound, packets.
    queue_bound: usize,
    ports: HashMap<u16, Port>,
    /// Total packets currently queued across all ports and classes.
    queued: usize,
    stats: EgressStats,
}

impl TxScheduler {
    /// Creates a scheduler over `cfg`'s link rate with the default
    /// [`BackpressureConfig`] queue bound.
    pub fn new(cfg: &EgressConfig) -> Self {
        Self::with_backpressure(cfg, &BackpressureConfig::default())
    }

    /// Creates a scheduler over `cfg`'s link rate with `bp`'s per-class
    /// queue bound.
    pub fn with_backpressure(cfg: &EgressConfig, bp: &BackpressureConfig) -> Self {
        TxScheduler {
            bandwidth_bps: cfg.bandwidth_bps.max(1),
            queue_bound: bp.tx_queue_pkts.max(1),
            ports: HashMap::new(),
            queued: 0,
            stats: EgressStats::default(),
        }
    }

    /// Wire-serialization time of `bytes` at the configured rate, ns.
    pub fn tx_time_ns(&self, bytes: usize) -> u64 {
        wire_ns(self.bandwidth_bps, bytes)
    }

    /// Packets currently queued across all ports — what the worker
    /// compares against [`BackpressureConfig::high_watermark`].
    pub fn queued_pkts(&self) -> usize {
        self.queued
    }

    /// Queues one packet for its verdict's port; dropped verdicts are
    /// counted and never queued. Returns the drop reason if the packet
    /// did not reach a queue: the verdict's own reason, or
    /// [`DropReason::TxQueueFull`] when the class queue is at its bound
    /// (counted in [`EgressStats::tx_queue_full`]).
    pub fn stage(
        &mut self,
        verdict: Verdict,
        wire_len: usize,
        enqueued_ns: u64,
    ) -> Result<(), DropReason> {
        match verdict {
            Verdict::Drop(reason) => {
                self.stats.dropped += 1;
                Err(reason)
            }
            Verdict::Flyover { egress } | Verdict::BestEffort { egress } => {
                let port = self.ports.entry(egress).or_default();
                let queue =
                    if verdict.is_flyover() { &mut port.prio } else { &mut port.best_effort };
                if queue.len() >= self.queue_bound {
                    self.stats.tx_queue_full += 1;
                    return Err(DropReason::TxQueueFull);
                }
                queue.push_back((wire_len, enqueued_ns));
                self.queued += 1;
                Ok(())
            }
        }
    }

    /// Serializes one queued packet on `port`, folding its residence
    /// into the stats. The packet starts when the wire frees up or when
    /// it was staged, whichever is later — never before it existed, but
    /// also never idling a free wire just because the owner polls
    /// coarsely.
    fn serialize_next(port: &mut Port, bandwidth_bps: u64, stats: &mut EgressStats) -> bool {
        let from_prio = !port.prio.is_empty();
        let Some((wire_len, enqueued_ns)) = port.pop_next() else {
            return false;
        };
        let start = port.busy_until_ns.max(enqueued_ns);
        let departure = start + wire_ns(bandwidth_bps, wire_len);
        port.busy_until_ns = departure;
        let class = if from_prio { &mut stats.priority } else { &mut stats.best_effort };
        class.pkts += 1;
        class.bytes += wire_len as u64;
        class.fold_residence(departure.saturating_sub(enqueued_ns));
        true
    }

    /// Serializes what the wire can *start* by `now_ns`: per interface,
    /// packets leave the bounded queues (priority class first) while the
    /// port's serialization horizon has not passed `now_ns`. The wire is
    /// modeled as continuously busy between polls — each packet starts
    /// at `max(previous departure, its stage time)`, so a coarse polling
    /// cadence costs nothing and the drain rate is the configured
    /// bandwidth, not the poll rate. A producer genuinely outrunning the
    /// wire still sees its queues fill: `busy_until` runs ahead of
    /// `now_ns` and the loop stops until the wall clock catches up.
    pub fn transmit(&mut self, now_ns: u64) {
        let bandwidth_bps = self.bandwidth_bps;
        for port in self.ports.values_mut() {
            while port.busy_until_ns <= now_ns {
                if !Self::serialize_next(port, bandwidth_bps, &mut self.stats) {
                    break;
                }
                self.queued -= 1;
            }
        }
    }

    /// Drains every queued packet in virtual time (departures may run
    /// past the wall clock; each packet still starts no earlier than its
    /// stage time) — the end-of-run residue drain that makes packet
    /// conservation exact: after `flush`,
    /// `forwarded() + dropped + tx_queue_full` equals every packet ever
    /// staged.
    pub fn flush(&mut self) {
        let bandwidth_bps = self.bandwidth_bps;
        for port in self.ports.values_mut() {
            while Self::serialize_next(port, bandwidth_bps, &mut self.stats) {
                self.queued -= 1;
            }
        }
    }

    /// The accumulated egress statistics.
    pub fn stats(&self) -> EgressStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fly(egress: u16) -> Verdict {
        Verdict::Flyover { egress }
    }
    fn be(egress: u16) -> Verdict {
        Verdict::BestEffort { egress }
    }

    #[test]
    fn priority_serializes_ahead_of_best_effort() {
        // 8 bits/ns link: a 1000-byte packet takes 1000 ns.
        let mut tx = TxScheduler::new(&EgressConfig { bandwidth_bps: 8_000_000_000 });
        // Best effort staged first, priority second — priority still
        // leaves the wire first.
        assert!(tx.stage(be(1), 1000, 0).is_ok());
        assert!(tx.stage(fly(1), 1000, 0).is_ok());
        assert_eq!(tx.queued_pkts(), 2);
        tx.flush();
        assert_eq!(tx.queued_pkts(), 0);
        let s = tx.stats();
        assert_eq!(s.priority.pkts, 1);
        assert_eq!(s.best_effort.pkts, 1);
        // Priority departed at 1000 ns, best effort queued behind it.
        assert_eq!(s.priority.residence_ns_max, 1000);
        assert_eq!(s.best_effort.residence_ns_max, 2000);
    }

    #[test]
    fn classes_are_fifo_and_interfaces_independent() {
        let mut tx = TxScheduler::new(&EgressConfig { bandwidth_bps: 8_000_000_000 });
        for i in 0..3u64 {
            tx.stage(fly(1), 500, i).unwrap();
            tx.stage(fly(2), 500, i).unwrap();
        }
        tx.flush();
        let s = tx.stats();
        assert_eq!(s.priority.pkts, 6);
        // Each interface serialized its three packets back to back
        // (500 B = 500 ns each): FIFO departures at 500/1000/1500, so the
        // max residence is 1500 − 2.
        assert_eq!(s.priority.residence_ns_max, 1500 - 2);
    }

    #[test]
    fn transmit_is_wire_paced_and_flush_drains() {
        // 1000 ns per 1000-byte packet; stage three, clock at 0.
        let mut tx = TxScheduler::new(&EgressConfig { bandwidth_bps: 8_000_000_000 });
        for _ in 0..3 {
            tx.stage(fly(1), 1000, 0).unwrap();
        }
        // The wire can start exactly one packet at t = 0.
        tx.transmit(0);
        assert_eq!(tx.stats().forwarded(), 1);
        assert_eq!(tx.queued_pkts(), 2);
        // By t = 1000 the wire is free again: one more starts.
        tx.transmit(1_000);
        assert_eq!(tx.stats().forwarded(), 2);
        // The end-of-run flush takes the residue in virtual time.
        tx.flush();
        assert_eq!(tx.stats().forwarded(), 3);
        assert_eq!(tx.queued_pkts(), 0);
        assert_eq!(tx.stats().priority.residence_ns_max, 3_000);
    }

    #[test]
    fn full_class_queue_tail_drops_with_named_reason() {
        let bp = BackpressureConfig { tx_queue_pkts: 2, ..Default::default() };
        let mut tx = TxScheduler::with_backpressure(&EgressConfig::default(), &bp);
        assert!(tx.stage(fly(1), 100, 0).is_ok());
        assert!(tx.stage(fly(1), 100, 0).is_ok());
        assert_eq!(tx.stage(fly(1), 100, 0), Err(DropReason::TxQueueFull));
        // The classes are bounded independently: best effort still fits.
        assert!(tx.stage(be(1), 100, 0).is_ok());
        assert!(tx.stage(be(1), 100, 1).is_ok());
        assert_eq!(tx.stage(be(1), 100, 2), Err(DropReason::TxQueueFull));
        tx.flush();
        let s = tx.stats();
        assert_eq!(s.tx_queue_full, 2);
        // Conservation: everything staged either serialized or was
        // tail-dropped under the named counter.
        assert_eq!(s.forwarded() + s.dropped + s.tx_queue_full, 6);
    }

    #[test]
    fn drops_never_touch_a_queue() {
        let mut tx = TxScheduler::new(&EgressConfig::default());
        assert_eq!(tx.stage(Verdict::Drop(DropReason::BadMac), 1000, 0), Err(DropReason::BadMac));
        tx.flush();
        let s = tx.stats();
        assert_eq!(s.dropped, 1);
        assert_eq!(s.forwarded(), 0);
    }

    #[test]
    fn merge_adds_counts_and_maxes_residence() {
        let mut a = EgressStats {
            priority: EgressClassStats {
                pkts: 3,
                bytes: 1500,
                residence_ns_sum: 900,
                residence_ns_max: 400,
                residence: LatencyHistogram::default(),
            },
            best_effort: EgressClassStats::default(),
            dropped: 1,
            tx_queue_full: 2,
        };
        let b = EgressStats {
            priority: EgressClassStats {
                pkts: 2,
                bytes: 1000,
                residence_ns_sum: 1_000,
                residence_ns_max: 700,
                residence: LatencyHistogram::default(),
            },
            best_effort: EgressClassStats {
                pkts: 5,
                bytes: 250,
                residence_ns_sum: 50,
                residence_ns_max: 20,
                residence: LatencyHistogram::default(),
            },
            dropped: 4,
            tx_queue_full: 3,
        };
        a.merge(&b);
        assert_eq!(a.priority.pkts, 5);
        assert_eq!(a.priority.bytes, 2500);
        assert_eq!(a.priority.residence_ns_sum, 1_900);
        assert_eq!(a.priority.residence_ns_max, 700);
        assert_eq!(a.best_effort.pkts, 5);
        assert_eq!(a.dropped, 5);
        assert_eq!(a.tx_queue_full, 5);
        assert_eq!(a.forwarded(), 10);
        // Merging a default is the identity.
        let before = a;
        a.merge(&EgressStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn wire_starts_at_stage_time_or_when_free() {
        let mut tx = TxScheduler::new(&EgressConfig { bandwidth_bps: 8_000_000_000 });
        tx.stage(fly(1), 1000, 0).unwrap();
        // Polled late: the wire was free the whole time, so the packet
        // departed at 1 µs (stage + serialization), not at the poll —
        // a coarse polling cadence must not masquerade as a slow wire.
        tx.transmit(5_000);
        assert_eq!(tx.stats().priority.residence_ns_max, 1_000);
        // A packet staged while the wire is free starts at its own
        // stage time (departure 6.5 µs); the one staged behind it waits
        // for the busy wire, not the clock (departure 7.5 µs).
        tx.stage(fly(1), 1000, 5_500).unwrap();
        tx.stage(fly(1), 1000, 5_600).unwrap();
        tx.flush();
        assert_eq!(tx.stats().priority.residence_ns_sum, 1_000 + 1_000 + 1_900);
    }

    #[test]
    fn residence_accumulation_saturates_instead_of_panicking() {
        let mut c = EgressClassStats::default();
        c.fold_residence(u64::MAX);
        c.fold_residence(u64::MAX);
        assert_eq!(c.residence_ns_sum, u64::MAX);
        assert_eq!(c.residence_ns_max, u64::MAX);
        // Merging two saturated halves saturates too.
        let mut a = c;
        a.merge(&c);
        assert_eq!(a.residence_ns_sum, u64::MAX);
        assert_eq!(a.residence.count(), 4);
    }

    #[test]
    fn histogram_percentiles_are_zero_on_empty_and_log2_bounded() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile_ns(0.99), 0);
        assert_eq!(h.count(), 0);
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(900); // bucket [512, 1024)
        }
        h.record(1_000_000); // one outlier in [2^19, 2^20)
        assert_eq!(h.count(), 100);
        // p50 answers the dense bucket's upper bound.
        assert_eq!(h.percentile_ns(0.50), 1023);
        // p99+ reaches the outlier's bucket.
        assert_eq!(h.percentile_ns(1.0), (1u64 << 20) - 1);
        // Zero samples land in the zero bucket; huge ones land in the
        // unbounded top bucket, which answers u64::MAX.
        let mut h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.percentile_ns(0.5), 0);
        h.record(u64::MAX);
        assert_eq!(h.percentile_ns(1.0), u64::MAX);
        // Windowed subtraction removes the earlier samples.
        let mut later = h;
        later.record(900);
        let delta = later.since(&h);
        assert_eq!(delta.count(), 1);
        assert_eq!(delta.percentile_ns(0.5), 1023);
    }

    #[test]
    fn histogram_resolves_multi_second_tails() {
        // A 5 s scheduler stall (real sockets under load) must not be
        // silently capped at the ~2.1 s of a 32-bucket histogram.
        let mut h = LatencyHistogram::default();
        h.record(5_000_000_000);
        let p100 = h.percentile_ns(1.0);
        assert!(p100 >= 5_000_000_000, "5 s sample answered {p100} ns");
        // The top bucket is unbounded above: it answers u64::MAX rather
        // than pretending a ~2.1 s upper bound.
        let mut h = LatencyHistogram::default();
        h.record(u64::MAX);
        assert_eq!(h.percentile_ns(1.0), u64::MAX);
    }

    #[test]
    fn egress_stats_p99_reads_the_histogram() {
        let mut tx = TxScheduler::new(&EgressConfig { bandwidth_bps: 8_000_000_000 });
        assert_eq!(tx.stats().priority.residence_p99_ns(), 0, "empty population reads 0");
        for _ in 0..10 {
            tx.stage(fly(1), 1000, 0).unwrap();
        }
        tx.flush();
        // Residences 1000..=10_000; p99 lands in the 10_000 bucket.
        let p99 = tx.stats().priority.residence_p99_ns();
        assert!((10_000..20_000).contains(&p99), "{p99}");
    }
}
