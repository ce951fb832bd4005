//! The unified, batch-oriented packet-processing API every engine in this
//! workspace implements.
//!
//! # The `Datapath` trait
//!
//! Historically each engine exposed an ad-hoc entry point
//! (`BorderRouter::process`, `Gateway::send`, the baseline services), so
//! the testbed, the network simulator and every benchmark binary
//! hard-coded one engine. [`Datapath`] replaces all of them with one
//! zero-copy, batch-first interface:
//!
//! * [`Datapath::process`] — one packet, in place, no allocation;
//! * [`Datapath::process_batch`] — a burst of [`PacketBuf`]s, overridable
//!   so engines can amortize per-packet work (key derivation, prefetch)
//!   across the batch;
//! * [`Datapath::stats`] — the shared [`DatapathStats`] counters.
//!
//! The [`Verdict`]/[`DropReason`] vocabulary lives here (moved out of
//! `router`) so that routers, gateways and baseline engines all speak the
//! same language and any harness can drive any engine.
//!
//! # Example
//!
//! Engines are constructed directly — here the Hummingbird router from
//! the AS's secrets and a [`RouterConfig`](crate::RouterConfig), whose
//! fields set each pipeline stage's parameters — and are driven through
//! the trait.
//!
//! ```
//! use hummingbird_dataplane::{BorderRouter, Datapath, PacketBuf, RouterConfig, Verdict};
//! use hummingbird_crypto::SecretValue;
//! use hummingbird_wire::scion_mac::HopMacKey;
//!
//! let cfg = RouterConfig {
//!     policer_slots: 100_000,
//!     burst_time_ns: 50_000_000,
//!     duplicate_suppression: false,
//!     ..RouterConfig::default()
//! };
//! let mut router = BorderRouter::new(SecretValue::new([6; 16]), HopMacKey::new([1; 16]), cfg);
//! let mut junk = PacketBuf::new(vec![0u8; 64]);
//! let mut verdicts = Vec::new();
//! router.process_batch(std::slice::from_mut(&mut junk), 1_700_000_000_000_000_000, &mut verdicts);
//! assert!(matches!(verdicts[0], Verdict::Drop(_)));
//! ```

use std::fmt;

/// Why a packet was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Header shorter than declared or structurally broken.
    Malformed,
    /// The current hop field has expired (Algorithm 4 line 2).
    ExpiredHopField,
    /// Hop-field MAC (or aggregate MAC) verification failed.
    BadMac,
    /// `PayloadLen + 4·HdrLen` overflowed (Eq. 7d).
    PktLenOverflow,
    /// Duplicate packet (only with duplicate suppression enabled).
    Duplicate,
    /// The path has already been fully traversed.
    PathConsumed,
    /// Packet timestamp outside the engine's per-packet validation
    /// window. Only engines with *strict* freshness emit this (the EPIC
    /// baseline, whose replay suppression covers exactly that window);
    /// Hummingbird demotes stale packets to best effort instead.
    Untimely,
    /// Tail-dropped at a full bounded tx queue. Engines never return
    /// this — it is the egress path's drop vocabulary: a forwarded
    /// verdict that arrives at a
    /// [`TxScheduler`](crate::runtime::TxScheduler) whose per-port class
    /// queue is at its [`BackpressureConfig`](crate::runtime::BackpressureConfig)
    /// bound is dropped under this reason and counted in
    /// [`EgressStats::tx_queue_full`](crate::runtime::EgressStats::tx_queue_full).
    TxQueueFull,
}

impl DropReason {
    /// Every reason; `reason as usize` indexes it here and in
    /// [`DatapathStats::drops`].
    pub const ALL: [DropReason; 8] = [
        DropReason::Malformed,
        DropReason::ExpiredHopField,
        DropReason::BadMac,
        DropReason::PktLenOverflow,
        DropReason::Duplicate,
        DropReason::PathConsumed,
        DropReason::Untimely,
        DropReason::TxQueueFull,
    ];
}

const _: () = {
    let mut i = 0;
    while i < DropReason::ALL.len() {
        assert!(DropReason::ALL[i] as usize == i);
        i += 1;
    }
};

/// An engine's forwarding decision for one packet.
///
/// `Flyover` means "forward with reservation priority" for Hummingbird and
/// the Helia baseline; engines without a priority class (plain SCION,
/// DRKey-only source authentication) only ever return `BestEffort` or
/// `Drop`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Drop the packet.
    Drop(DropReason),
    /// Forward with reservation priority through `egress`.
    Flyover {
        /// Egress interface.
        egress: u16,
    },
    /// Forward best-effort through `egress`.
    BestEffort {
        /// Egress interface.
        egress: u16,
    },
}

impl Verdict {
    /// The egress interface, if the packet is forwarded.
    pub fn egress(&self) -> Option<u16> {
        match self {
            Verdict::Flyover { egress } | Verdict::BestEffort { egress } => Some(*egress),
            Verdict::Drop(_) => None,
        }
    }

    /// Whether the packet is forwarded with priority.
    pub fn is_flyover(&self) -> bool {
        matches!(self, Verdict::Flyover { .. })
    }

    /// Whether the packet is dropped.
    pub fn is_drop(&self) -> bool {
        matches!(self, Verdict::Drop(_))
    }
}

/// Shared per-engine counters: every [`Datapath`] engine reports the
/// same vocabulary.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct DatapathStats {
    /// Packets processed.
    pub processed: u64,
    /// Packets forwarded with priority.
    pub flyover: u64,
    /// Packets forwarded best-effort.
    pub best_effort: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// `dropped` per reason, indexed by `reason as usize`.
    pub drops: [u64; DropReason::ALL.len()],
    /// Flyover packets demoted by the policer (overuse).
    pub demoted_overuse: u64,
    /// Flyover packets demoted for staleness / inactive reservation.
    pub demoted_untimely: u64,
    /// Packets the full §5.4 filter passed without recording them, so
    /// a replay of one passes too (it fails open, as the paper allows).
    pub dup_unrecorded: u64,
}

impl DatapathStats {
    /// Records `verdict` into the counters (one packet processed).
    #[inline]
    pub fn record(&mut self, verdict: Verdict) {
        self.processed += 1;
        match verdict {
            Verdict::Drop(reason) => {
                self.dropped += 1;
                self.drops[reason as usize] += 1;
            }
            Verdict::Flyover { .. } => self.flyover += 1,
            Verdict::BestEffort { .. } => self.best_effort += 1,
        }
    }
}

/// Counter-wise sum, e.g. of the shards of one logical router.
impl std::iter::Sum for DatapathStats {
    fn sum<I: Iterator<Item = Self>>(stats: I) -> Self {
        stats.fold(DatapathStats::default(), |mut total, s| {
            total.processed += s.processed;
            total.flyover += s.flyover;
            total.best_effort += s.best_effort;
            total.dropped += s.dropped;
            for (sum, n) in total.drops.iter_mut().zip(s.drops) {
                *sum += n;
            }
            total.demoted_overuse += s.demoted_overuse;
            total.demoted_untimely += s.demoted_untimely;
            total.dup_unrecorded += s.dup_unrecorded;
            total
        })
    }
}

/// Lists only the drop reasons that occurred, and `dup_unrecorded`
/// only once the filter has overflowed.
impl fmt::Debug for DatapathStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct("DatapathStats");
        out.field("processed", &self.processed)
            .field("flyover", &self.flyover)
            .field("best_effort", &self.best_effort)
            .field("dropped", &self.dropped);
        let drops: Vec<(DropReason, u64)> =
            DropReason::ALL.into_iter().zip(self.drops).filter(|&(_, n)| n > 0).collect();
        if !drops.is_empty() {
            out.field("drops", &drops);
        }
        out.field("demoted_overuse", &self.demoted_overuse)
            .field("demoted_untimely", &self.demoted_untimely);
        if self.dup_unrecorded > 0 {
            out.field("dup_unrecorded", &self.dup_unrecorded);
        }
        out.finish()
    }
}

/// A reusable owned packet buffer for the batch path.
///
/// Wraps serialized wire bytes and snapshots the header so the buffer can
/// be cheaply [`reset`](PacketBuf::reset) after an engine mutates it in
/// place (SegID chaining, CurrHF advance, MAC replacement) — the batch
/// loops measure engine work rather than packet construction.
#[derive(Clone, Debug)]
pub struct PacketBuf {
    bytes: Vec<u8>,
    header_copy: Vec<u8>,
    header_len: usize,
}

impl PacketBuf {
    /// Wraps serialized packet bytes; the declared header is snapshotted
    /// for [`reset`](PacketBuf::reset).
    pub fn new(bytes: Vec<u8>) -> Self {
        // hdr_len is at byte 5, in 4-byte units.
        let header_len = if bytes.len() > 5 {
            (4 * usize::from(bytes[5])).min(bytes.len())
        } else {
            bytes.len()
        };
        let header_copy = bytes[..header_len].to_vec();
        PacketBuf { bytes, header_copy, header_len }
    }

    /// Read-only view of the packet bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable view of the packet bytes.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Restores the pristine header snapshot.
    #[inline]
    pub fn reset(&mut self) {
        self.bytes[..self.header_len].copy_from_slice(&self.header_copy);
    }

    /// Wire length in bytes.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// Releases the underlying bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.bytes
    }
}

impl From<Vec<u8>> for PacketBuf {
    fn from(bytes: Vec<u8>) -> Self {
        PacketBuf::new(bytes)
    }
}

/// The unified packet-processing interface.
///
/// Implemented by [`BorderRouter`](crate::BorderRouter) — for every
/// engine family: the Hummingbird router and, in `hummingbird-baselines`, its Helia, DRKey
/// and EPIC instances (`HeliaDatapath`, `DrKeyDatapath`,
/// `EpicDatapath`) — and by [`crate::Gateway`]. Harnesses — the network simulator, the end-to-end
/// testbed, the multi-queue runtime, every benchmark binary — drive
/// engines exclusively through this trait, so any experiment can swap
/// engines with a flag.
///
/// # Example
///
/// Build a Hummingbird border router, stamp one reserved packet with the
/// matching key material, process it, and read the counters:
///
/// ```
/// use hummingbird_dataplane::{
///     forge_path, BeaconHop, BorderRouter, Datapath, RouterConfig, SourceGenerator,
///     SourceReservation,
/// };
/// use hummingbird_crypto::{ResInfo, SecretValue};
/// use hummingbird_wire::scion_mac::HopMacKey;
/// use hummingbird_wire::IsdAs;
///
/// let now_s = 1_700_000_000u64;
/// let (sv, hop_key) = (SecretValue::new([6; 16]), HopMacKey::new([1; 16]));
///
/// // The AS's border router, with the default stage parameters.
/// let mut router = BorderRouter::new(sv.clone(), hop_key.clone(), RouterConfig::default());
///
/// // A source holding a beaconed one-hop path and a reservation key.
/// let hops = [BeaconHop { key: hop_key, cons_ingress: 0, cons_egress: 0 }];
/// let mut source = SourceGenerator::new(
///     IsdAs::new(1, 0x10),
///     IsdAs::new(2, 0x20),
///     forge_path(&hops, now_s as u32 - 100, 0x7777),
/// );
/// let res_info = ResInfo {
///     ingress: 0,
///     egress: 0,
///     res_id: 7,
///     bw_encoded: 700,
///     res_start: now_s as u32 - 50,
///     duration: 600,
/// };
/// let key = sv.derive_key(&res_info); // granted on the control plane
/// source.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
///
/// // One packet through the engine: verified and forwarded with priority.
/// let mut pkt = source.generate(&[0u8; 200], now_s * 1000).unwrap();
/// let verdict = router.process(&mut pkt, now_s * 1_000_000_000);
/// assert!(verdict.is_flyover());
///
/// let stats = router.stats();
/// assert_eq!((stats.processed, stats.flyover, stats.dropped), (1, 1, 0));
/// ```
pub trait Datapath {
    /// Processes one packet in place at time `now_ns` (Unix nanoseconds).
    ///
    /// The engine may mutate the header (Hummingbird routers chain the
    /// SegID, advance `CurrHF` and replace the aggregate MAC) but never
    /// reallocates: zero-copy, allocation-free on the hot path.
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict;

    /// Processes a burst of packets, appending one verdict per packet (in
    /// order) to `out`.
    ///
    /// The default implementation is element-wise equivalent to calling
    /// [`process`](Datapath::process) sequentially — a property
    /// `crates/baselines/tests/differential.rs` checks for the router of
    /// every engine family against a reference.
    /// Engines may override it to amortize per-packet work across the
    /// burst (e.g. batching reservation-key derivations), as long as the
    /// verdicts stay element-wise identical.
    fn process_batch(&mut self, pkts: &mut [PacketBuf], now_ns: u64, out: &mut Vec<Verdict>) {
        out.reserve(pkts.len());
        for pkt in pkts {
            out.push(self.process(pkt.bytes_mut(), now_ns));
        }
    }

    /// A short, stable engine identifier (used by benchmark output and the
    /// `--engine` flag plumbing).
    fn engine_name(&self) -> &'static str;

    /// Counter snapshot.
    fn stats(&self) -> DatapathStats;

    /// Resets the counters.
    fn reset_stats(&mut self);
}

impl<D: Datapath + ?Sized> Datapath for Box<D> {
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        (**self).process(pkt, now_ns)
    }
    fn process_batch(&mut self, pkts: &mut [PacketBuf], now_ns: u64, out: &mut Vec<Verdict>) {
        (**self).process_batch(pkts, now_ns, out)
    }
    fn engine_name(&self) -> &'static str {
        (**self).engine_name()
    }
    fn stats(&self) -> DatapathStats {
        (**self).stats()
    }
    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }
}

/// A best-effort pass-through engine: no parsing, no verification, no
/// policing — every packet is forwarded best-effort through egress 0.
///
/// Useful as the zero of the engine lattice: driving a harness (the
/// multi-queue runtime, a figure binary) with
/// `--engine null` measures the harness's own overhead — burst fill,
/// batch bookkeeping, buffer resets — so every other engine's cost can
/// be read as "minus the null baseline". Stats are still tallied, so
/// sharded/batched drivers can verify packet conservation.
#[derive(Clone, Debug, Default)]
pub struct NullEngine {
    stats: DatapathStats,
}

impl NullEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        NullEngine::default()
    }
}

impl Datapath for NullEngine {
    fn process(&mut self, _pkt: &mut [u8], _now_ns: u64) -> Verdict {
        let verdict = Verdict::BestEffort { egress: 0 };
        self.stats.record(verdict);
        verdict
    }

    fn engine_name(&self) -> &'static str {
        "null"
    }

    fn stats(&self) -> DatapathStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DatapathStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{BorderRouter, RouterConfig};
    use hummingbird_crypto::SecretValue;
    use hummingbird_wire::scion_mac::HopMacKey;

    #[test]
    fn packet_buf_resets_header_only() {
        // hdr_len (byte 5) = 2 units = 8 bytes of header.
        let mut bytes = vec![0u8; 16];
        bytes[5] = 2;
        bytes[7] = 0xAA;
        bytes[12] = 0xBB; // payload byte
        let mut buf = PacketBuf::new(bytes);
        buf.bytes_mut()[7] = 0x11;
        buf.bytes_mut()[12] = 0x22;
        buf.reset();
        assert_eq!(buf.as_bytes()[7], 0xAA, "header restored");
        assert_eq!(buf.as_bytes()[12], 0x22, "payload untouched by reset");
        assert_eq!(buf.wire_len(), 16);
    }

    #[test]
    fn packet_buf_tolerates_tiny_buffers() {
        for n in 0..6 {
            let mut buf = PacketBuf::new(vec![0u8; n]);
            buf.reset();
            assert_eq!(buf.wire_len(), n);
        }
    }

    #[test]
    fn null_engine_forwards_everything_best_effort() {
        let mut null = NullEngine::new();
        let v = null.process(&mut [0u8; 8], 0);
        assert_eq!(v, Verdict::BestEffort { egress: 0 });
        let mut batch: Vec<PacketBuf> = (0..5).map(|_| PacketBuf::new(vec![0u8; 64])).collect();
        let mut out = Vec::new();
        null.process_batch(&mut batch, 0, &mut out);
        assert!(out.iter().all(|v| matches!(v, Verdict::BestEffort { egress: 0 })));
        assert_eq!(null.stats().processed, 6);
        assert_eq!(null.stats().best_effort, 6);
        null.reset_stats();
        assert_eq!(null.stats(), DatapathStats::default());
    }

    #[test]
    fn default_batch_is_sequential() {
        let mut router: Box<dyn Datapath> = Box::new(BorderRouter::new(
            SecretValue::new([6; 16]),
            HopMacKey::new([1; 16]),
            RouterConfig::default(),
        ));
        let mut batch: Vec<PacketBuf> = (0..4).map(|i| PacketBuf::new(vec![i as u8; 32])).collect();
        let mut out = Vec::new();
        router.process_batch(&mut batch, 1, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|v| v.is_drop()), "garbage never forwards");
        assert_eq!(router.stats().processed, 4);
    }
}
