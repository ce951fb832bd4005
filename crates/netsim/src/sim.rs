//! The discrete-event engine: AS nodes with real Hummingbird border
//! routers, links with two-class strict-priority queues, hosts with
//! constant-bit-rate flows, and adversarial packet injection.
//!
//! This is the testbed substitute for the paper's QoS claims (property D2,
//! §5.4): reservation traffic is prioritized over best effort at every
//! contested link, so congestion and flooding cannot degrade it, while
//! overuse is demoted by deterministic policing.

use crate::flow::{FlowEvent, FlowEventKind, Outstanding, ReactiveFlow, ReactiveState};
use hummingbird_dataplane::{Datapath, DatapathStats, LatencyHistogram, SourceGenerator, Verdict};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Node identifier.
pub(crate) type NodeId = usize;
/// Link identifier.
pub(crate) type LinkId = usize;
/// Flow identifier.
pub type FlowId = usize;

/// Traffic class on a link (decided by the border router's verdict).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Reservation-protected: strict priority.
    Priority,
    /// Best effort.
    BestEffort,
}

/// A packet in flight, with bookkeeping for statistics.
#[derive(Clone, Debug)]
pub(crate) struct SimPacket {
    /// Serialized wire bytes (mutated by routers en route).
    pub bytes: Vec<u8>,
    /// Originating flow.
    pub flow: FlowId,
    /// Send timestamp (ns).
    pub sent_at: u64,
    /// Flow-level sequence number (reactive flows ack by it; always 0
    /// for CBR flows, which have no acknowledgment channel).
    pub seq: u64,
}

/// A unidirectional link between two nodes.
pub(crate) struct Link {
    /// Destination node.
    pub to: NodeId,
    /// Serialization rate, bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay, ns.
    pub propagation_ns: u64,
    /// Per-class queue capacity in bytes (tail drop beyond).
    pub queue_cap_bytes: usize,
    prio: VecDeque<SimPacket>,
    best_effort: VecDeque<SimPacket>,
    prio_bytes: usize,
    be_bytes: usize,
    busy: bool,
    /// Whether the link is up (churn: [`Simulator::set_link_up`]).
    up: bool,
}

impl Link {
    fn new(to: NodeId, bandwidth_bps: u64, propagation_ns: u64, queue_cap_bytes: usize) -> Self {
        Link {
            to,
            bandwidth_bps,
            propagation_ns,
            queue_cap_bytes,
            prio: VecDeque::new(),
            best_effort: VecDeque::new(),
            prio_bytes: 0,
            be_bytes: 0,
            busy: false,
            up: true,
        }
    }

    fn tx_time_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps.max(1)
    }

    /// Pops the next packet, priority first (strict priority scheduling).
    fn pop_next(&mut self) -> Option<SimPacket> {
        if let Some(p) = self.prio.pop_front() {
            self.prio_bytes -= p.bytes.len();
            return Some(p);
        }
        if let Some(p) = self.best_effort.pop_front() {
            self.be_bytes -= p.bytes.len();
            return Some(p);
        }
        None
    }
}

/// What happens to packets arriving at a node. `Router` holds any boxed
/// [`Datapath`] engine, so simulations can mix Hummingbird routers,
/// gateways and baseline engines in one topology.
pub(crate) enum Node {
    /// An AS border router: verifies, polices and forwards by interface.
    Router {
        /// The packet-processing engine (owns its keys and policer).
        router: Box<dyn Datapath + Send>,
        /// Egress interface → link, indexed by interface number (`None`
        /// for an unwired one): a forwarded packet's lookup is one bounds
        /// check, not a hash probe. Interface 0 delivers to `local`.
        interfaces: Vec<Option<LinkId>>,
        /// Node receiving locally-delivered packets (the destination
        /// host), if any.
        local: Option<NodeId>,
    },
    /// An end host: records deliveries.
    Host,
}

/// Per-flow statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets sent by the source.
    pub sent_pkts: u64,
    /// Bytes sent.
    pub sent_bytes: u64,
    /// Packets delivered to the destination host.
    pub delivered_pkts: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Packets dropped by routers (bad MAC, expiry, …).
    pub router_drops: u64,
    /// Packets tail-dropped at link queues.
    pub queue_drops: u64,
    /// Sum of end-to-end latencies (ns) over delivered packets.
    pub latency_sum_ns: u64,
    /// Maximum end-to-end latency (ns).
    pub latency_max_ns: u64,
    /// Deliveries that arrived out of send order (a packet sent *after*
    /// an already-delivered one landing *before* it). Zero whenever the
    /// flow rides one class over one path: strict-priority links and the
    /// router service model are both FIFO within a class.
    pub reordered_pkts: u64,
    /// Packets lost to a downed link (churn): packets handed to a link
    /// while it was down, plus packets drained from its queues at the
    /// moment it went down. A stranded reservation shows up here — the
    /// flow keeps sending onto a dead path until it is rerouted.
    pub link_down_drops: u64,
    /// Path reconfigurations applied to this flow
    /// (`Simulator::set_flow_route`): each reroute after a link
    /// failure increments this once.
    pub reroutes: u64,
    /// Retransmissions sent (reactive flows only): copies of a sequence
    /// number beyond its original send. Each is also counted in
    /// `sent_pkts`/`sent_bytes` — it is a real packet on the wire.
    pub retransmits: u64,
    /// Retransmission timers fired (reactive flows only). A timeout
    /// whose packet is out of budget abandons it instead of resending,
    /// so `timeouts ≥ retransmits + abandoned`.
    pub timeouts: u64,
    /// Send opportunities that found the window full (reactive flows
    /// only) — the sender-side face of backpressure: the network is
    /// holding acks, so the source stops offering load.
    pub backpressure_stalls: u64,
    /// Packets tail-dropped at a router's bounded service queue
    /// ([`ServiceModel::queue_pkts`]) — the netsim face of the
    /// runtime's `TxQueueFull`.
    pub service_queue_drops: u64,
    /// Sends the source generator refused (e.g. before its reservation
    /// starts, or once the 16-bit start offset runs out): each is
    /// counted in `sent_pkts` but never reached the wire. A closed
    /// loop's refused send still occupies its window and arms its
    /// timer, so its retries can count here again.
    pub generation_failures: u64,
    /// End-to-end latency distribution over delivered packets
    /// (log₂-bucketed; [`FlowStats::p99_latency_ms`] reads it).
    pub latency: LatencyHistogram,
}

impl FlowStats {
    /// Mean end-to-end latency in milliseconds; `0.0` when nothing was
    /// delivered (a starved flow reads as zero, never `NaN`).
    pub fn mean_latency_ms(&self) -> f64 {
        if self.delivered_pkts == 0 {
            return 0.0;
        }
        self.latency_sum_ns as f64 / self.delivered_pkts as f64 / 1e6
    }

    /// Delivered goodput over `window_s` seconds, in kbps; `0.0` when
    /// nothing was delivered or the window is empty (never `inf`/`NaN`).
    pub fn goodput_kbps(&self, window_s: f64) -> f64 {
        if self.delivered_bytes == 0 || window_s <= 0.0 {
            return 0.0;
        }
        self.delivered_bytes as f64 * 8.0 / window_s / 1e3
    }

    /// Delivery ratio; `0.0` when nothing was sent (never `NaN`).
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent_pkts == 0 {
            return 0.0;
        }
        self.delivered_pkts as f64 / self.sent_pkts as f64
    }

    /// p99 end-to-end latency in milliseconds, from the log₂ histogram
    /// (±2× bucket resolution); `0.0` when nothing was delivered —
    /// empty populations never panic or read `NaN`.
    pub fn p99_latency_ms(&self) -> f64 {
        self.latency.percentile_ns(0.99) as f64 / 1e6
    }

    /// Sends neither delivered nor in a named counter: `sent −
    /// delivered − router − queue − link_down − service_queue` drops
    /// `− generation_failures`. The conservation identity is that this is
    /// 0 once the run has drained — every loss attributable, retries
    /// included; negative means a copy was counted twice.
    pub fn unattributed(&self) -> i64 {
        let accounted = self.delivered_pkts
            + self.router_drops
            + self.queue_drops
            + self.link_down_drops
            + self.service_queue_drops
            + self.generation_failures;
        self.sent_pkts as i64 - accounted as i64
    }

    /// The stats accrued *since* an `earlier` snapshot of the same flow
    /// — how churn experiments isolate a phase (base window, outage,
    /// post-reroute recovery) out of the cumulative counters. All sums
    /// and counts subtract; `latency_max_ns` and `reroutes` are
    /// cumulative high-water marks and carry the later value.
    pub fn since(&self, earlier: &FlowStats) -> FlowStats {
        FlowStats {
            sent_pkts: self.sent_pkts - earlier.sent_pkts,
            sent_bytes: self.sent_bytes - earlier.sent_bytes,
            delivered_pkts: self.delivered_pkts - earlier.delivered_pkts,
            delivered_bytes: self.delivered_bytes - earlier.delivered_bytes,
            router_drops: self.router_drops - earlier.router_drops,
            queue_drops: self.queue_drops - earlier.queue_drops,
            latency_sum_ns: self.latency_sum_ns - earlier.latency_sum_ns,
            latency_max_ns: self.latency_max_ns,
            reordered_pkts: self.reordered_pkts - earlier.reordered_pkts,
            link_down_drops: self.link_down_drops - earlier.link_down_drops,
            reroutes: self.reroutes,
            retransmits: self.retransmits - earlier.retransmits,
            timeouts: self.timeouts - earlier.timeouts,
            backpressure_stalls: self.backpressure_stalls - earlier.backpressure_stalls,
            service_queue_drops: self.service_queue_drops - earlier.service_queue_drops,
            generation_failures: self.generation_failures - earlier.generation_failures,
            latency: self.latency.since(&earlier.latency),
        }
    }
}

/// A constant-bit-rate flow.
pub struct Flow {
    /// Source generator (holds path + reservations).
    pub generator: SourceGenerator,
    /// Node the first packet enters (the first on-path AS).
    pub entry: NodeId,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Packet interval, ns.
    pub interval_ns: u64,
    /// First send time, ns.
    pub start_ns: u64,
    /// Last send time (exclusive), ns.
    pub stop_ns: u64,
}

/// How a registered flow drives traffic: the open-loop CBR injector,
/// the closed-loop reactive state machine, or a replay tap's pseudo-flow
/// (which only accrues statistics). One slot per [`FlowId`], so flow ids
/// and stats ids are the same index space no matter in which order flows
/// and taps are registered.
enum FlowSlot {
    Cbr(Box<Flow>),
    Reactive(Box<ReactiveState>),
    Tap,
}

enum Event {
    FlowSend {
        flow: FlowId,
    },
    /// A reactive flow's next send opportunity (pacing tick).
    ReactiveSend {
        flow: FlowId,
    },
    /// The sender of a reactive flow sees the ack for `seq` (scheduled
    /// `ack_delay_ns` after delivery — the modeled reverse path).
    FlowAck {
        flow: FlowId,
        seq: u64,
    },
    /// A reactive flow's retransmission timer for `seq` fires. Carries
    /// the attempt it armed for: a timer made stale by a newer
    /// retransmission of the same seq is ignored.
    FlowRto {
        flow: FlowId,
        seq: u64,
        attempt: u32,
    },
    Arrival {
        node: NodeId,
        pkt: SimPacket,
    },
    LinkDone {
        link: LinkId,
    },
    /// A router finished serving a packet: hand it to its egress target.
    Egress {
        target: EgressTarget,
        pkt: SimPacket,
        class: Class,
    },
}

/// What a flow's events write besides the flow itself: the event
/// queue, the flow's stats and the buffer pool, at the current time.
struct Outbox<'a> {
    queue: &'a mut EventQueue<Event>,
    stats: &'a mut FlowStats,
    free_bufs: &'a mut Vec<Vec<u8>>,
    zeros: &'a [u8],
    flow: FlowId,
    now: u64,
}

impl Outbox<'_> {
    /// Sends packet `seq` through `generator` with a zero payload of
    /// `payload_len` bytes into a recycled buffer, and schedules its
    /// arrival at `entry` now. A send the generator refuses (e.g.
    /// before its reservation starts) counts as sent and as a
    /// generation failure, and never leaves the host.
    fn send(
        &mut self,
        generator: &mut SourceGenerator,
        payload_len: usize,
        entry: NodeId,
        seq: u64,
    ) {
        self.stats.sent_pkts += 1;
        let mut bytes = self.free_bufs.pop().unwrap_or_default();
        let payload = &self.zeros[..payload_len];
        match generator.generate_into(payload, self.now / 1_000_000, &mut bytes) {
            Ok(()) => {
                self.stats.sent_bytes += bytes.len() as u64;
                let pkt = SimPacket { bytes, flow: self.flow, sent_at: self.now, seq };
                self.queue.push(self.now, Event::Arrival { node: entry, pkt });
            }
            Err(_) => {
                self.stats.generation_failures += 1;
                self.free_bufs.push(bytes);
            }
        }
    }

    /// Common tail of ack and abandon: check completion, and restart the
    /// send chain if it stalled on the window this retirement just
    /// opened (respecting the pacing floor).
    fn after_retire(&mut self, st: &mut ReactiveState) {
        if st.complete() {
            st.done = true;
            st.events.push(FlowEvent { at_ns: self.now, kind: FlowEventKind::Completed });
            return;
        }
        if !st.send_scheduled && st.next_seq < st.cfg.total_pkts {
            st.send_scheduled = true;
            let at = self.now.max(st.last_send_ns + st.cfg.pacing_ns.max(1));
            self.queue.push(at, Event::ReactiveSend { flow: self.flow });
        }
    }
}

/// Where a router's verdict sends a forwarded packet.
#[derive(Clone, Copy, Debug)]
enum EgressTarget {
    /// Local delivery to the attached host.
    Local(NodeId),
    /// Onto an inter-AS link.
    Link(LinkId),
}

/// The per-router packet-service model: how long the router's datapath
/// holds a packet before it reaches the egress queue, and across how
/// many parallel cores.
///
/// Every router has one (`Simulator::set_router_service`): every
/// forwarded packet is served by the earliest-free of `shards` cores for
/// `per_pkt_ns` — the M/D/c shape of the multi-queue runtime, where a
/// [`hummingbird_dataplane::ShardedRouter`] with `c` shards drains its
/// ingress `c` packets at a time. Feeding the measured per-packet engine
/// cost in here (the bench sweeps measure each family's one-core ns/pkt
/// just before they run) is what lets the Fig. 3/4-style latency sweeps
/// run on the real multi-core datapath numbers instead of zero-cost
/// routers. `ServiceModel::new(0, 1)`, every router's model until one is
/// installed, is instantaneous forwarding: each packet departs when it
/// arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceModel {
    /// Per-packet service time, ns (one core's datapath cost).
    pub per_pkt_ns: u64,
    /// Parallel cores (≥ 1): the shard count of the deployed engine.
    pub shards: usize,
    /// Bound on packets held by the router (in service + waiting), in
    /// packets; `0` keeps the queue unbounded (the historical shape). A
    /// packet arriving at a full router is tail-dropped into
    /// [`FlowStats::service_queue_drops`] — the netsim counterpart of
    /// the runtime's bounded tx queues, and what turns queueing collapse
    /// into observable loss instead of unbounded delay.
    pub queue_pkts: usize,
}

impl ServiceModel {
    /// An unbounded model: `per_pkt_ns` service across `shards` cores,
    /// no queue bound — the pre-overload-control shape.
    pub fn new(per_pkt_ns: u64, shards: usize) -> Self {
        ServiceModel { per_pkt_ns, shards, queue_pkts: 0 }
    }
}

/// Run-time state of a [`ServiceModel`] on one router node.
struct RouterService {
    per_pkt_ns: u64,
    /// Bound on packets held (in service + waiting); 0 = unbounded.
    queue_pkts: usize,
    /// Per-core busy horizon, ns.
    busy_until: Vec<u64>,
}

impl From<ServiceModel> for RouterService {
    /// Idle cores: every horizon at 0.
    fn from(m: ServiceModel) -> Self {
        RouterService {
            per_pkt_ns: m.per_pkt_ns,
            queue_pkts: m.queue_pkts,
            busy_until: vec![0; m.shards.max(1)],
        }
    }
}

impl RouterService {
    /// Packets currently held (in service + waiting) at `now`, derived
    /// from the busy horizons: each core holds
    /// `ceil(remaining_busy / per_pkt_ns)` packets. Stateless, so churn
    /// (engine swaps, reroutes) can never desynchronize an occupancy
    /// counter from the horizons.
    fn occupancy(&self, now: u64) -> usize {
        let per = self.per_pkt_ns.max(1);
        self.busy_until.iter().map(|&b| (b.saturating_sub(now)).div_ceil(per) as usize).sum()
    }

    /// Serves one packet arriving at `now`: the earliest-free core takes
    /// it (first index on ties, so the choice is deterministic) and the
    /// departure time comes back — or `None` when the router is at its
    /// queue bound (the caller tail-drops). Equal service times keep
    /// departures in arrival order — the FIFO-within-class property the
    /// latency tests pin.
    fn try_serve(&mut self, now: u64) -> Option<u64> {
        if self.queue_pkts > 0 && self.occupancy(now) >= self.queue_pkts {
            return None;
        }
        let core = (0..self.busy_until.len())
            .min_by_key(|&i| self.busy_until[i])
            .expect("at least one core");
        let depart = self.busy_until[core].max(now) + self.per_pkt_ns;
        self.busy_until[core] = depart;
        Some(depart)
    }
}

/// An on-path / on-reservation-set duplicating adversary (Fig. 3, §5.4):
/// it observes the victim's packets as they arrive at `inject_at` (an AS
/// the adversary sits in front of) and injects `copies` duplicates there.
/// Duplicates carry valid authentication tags, so without duplicate
/// suppression they pass verification and consume the reservation budget.
pub(crate) struct ReplayTap {
    /// The flow being observed.
    pub victim: FlowId,
    /// Node at whose ingress the duplicates appear.
    pub inject_at: NodeId,
    /// Duplicates injected per observed packet.
    pub copies: u32,
    /// Injection delay after observing the packet, ns.
    pub delay_ns: u64,
    /// The adversary's own pseudo-flow id for accounting.
    pub attacker_flow: FlowId,
}

/// How far past the last dispatched instant an event may be due and
/// still go into [`EventQueue::near`] instead of the heap, ns. Wider than
/// a router's service time plus its queueing (up to ≈ 2 µs in
/// `netsim_churn`) and narrower than the next band of push deltas (from
/// ≈ 33 µs on), so the near tier stays a handful of events long.
const NEAR_HORIZON_NS: u64 = 4_096;

/// The scheduled events, dispatched in `(time, schedule order)`.
///
/// Each event waits in a slot of `pending` and is ordered by one
/// [`QueueEntry`] keyed by `(time << 64) | seq`, with `seq` strictly
/// increasing per push, so one integer comparison orders events by time
/// and, at equal times, in push order. The entry goes into one of two
/// tiers:
///
/// - `near`, a `VecDeque` kept sorted by key, if the event is due within
///   [`NEAR_HORIZON_NS`] of the last dispatched instant. Most pushes are
///   such events (a packet arriving at `now`, a router's egress a
///   service time later) and most are due no earlier than anything
///   queued, so the insertion point, searched from the back, is the back.
/// - `heap`, a binary heap, for everything later.
///
/// [`pop_due`](Self::pop_due) takes whichever front has the smaller key,
/// so the split only decides the cost of a push and a pop, never the
/// order: an event stays in the tier it was pushed into. Dispatched
/// slots are reused, so `pending` stays as long as the most events ever
/// queued at once.
struct EventQueue<E> {
    near: VecDeque<QueueEntry>,
    heap: BinaryHeap<Reverse<QueueEntry>>,
    pending: Vec<Option<E>>,
    free_slots: Vec<usize>,
    seq: u64,
    /// The time of the last dispatched event: where the near tier's
    /// horizon starts.
    last_ns: u64,
}

/// A queue entry: the event's order key and its slot in
/// [`EventQueue::pending`]. Ordered by the key alone: keys are unique,
/// so the slot never influences the order.
struct QueueEntry {
    key: u128,
    slot: usize,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            near: VecDeque::new(),
            heap: BinaryHeap::new(),
            pending: Vec::new(),
            free_slots: Vec::new(),
            seq: 0,
            last_ns: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Schedules `event` at `at_ns`, after every event already
    /// scheduled at that time.
    ///
    /// Equal-timestamp determinism contract: events at the same instant
    /// dispatch in exactly the order they were scheduled — FIFO, never
    /// heap-arbitrary. This is what makes reruns bit-identical, and what
    /// gives churn a stable tie-break:
    /// [`Simulator::run_until`] drains every event at `t` before
    /// returning, so an externally applied churn action at `t` (link
    /// down, reboot, reroute) always acts *after* the packet events of
    /// that instant.
    fn push(&mut self, at_ns: u64, event: E) {
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.pending[slot] = Some(event);
                slot
            }
            None => {
                self.pending.push(Some(event));
                self.pending.len() - 1
            }
        };
        let key = (u128::from(at_ns) << 64) | u128::from(self.seq);
        self.seq += 1;
        let entry = QueueEntry { key, slot };
        if at_ns <= self.last_ns.saturating_add(NEAR_HORIZON_NS) {
            let at = self.near.iter().rposition(|e| e.key < key).map_or(0, |i| i + 1);
            self.near.insert(at, entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Removes and returns the first event, with its time, if it is due
    /// at or before `end_ns`.
    fn pop_due(&mut self, end_ns: u64) -> Option<(u64, E)> {
        let from_near = match (self.near.front(), self.heap.peek()) {
            (Some(near), Some(Reverse(far))) => near.key < far.key,
            (near, _) => near.is_some(),
        };
        let front = if from_near { self.near.front() } else { self.heap.peek().map(|e| &e.0) };
        let at_ns = (front?.key >> 64) as u64;
        if at_ns > end_ns {
            return None;
        }
        let entry = if from_near { self.near.pop_front() } else { self.heap.pop().map(|e| e.0) };
        let slot = entry?.slot;
        let event = self.pending[slot].take().expect("event consumed twice");
        self.free_slots.push(slot);
        self.last_ns = at_ns;
        Some((at_ns, event))
    }
}

/// The simulator: nodes, links and flows driven by one event queue in
/// `(time, schedule order)`.
///
/// Per event it does as little bookkeeping as it can without changing
/// which events run or in what order: events due within a few µs of the
/// last dispatched one skip the queue's heap, every send writes its
/// packet through [`SourceGenerator::generate_into`] into a byte buffer
/// from a free list that delivered and dropped packets refill, and a
/// router node finds its egress link by indexing `Node::Router`'s
/// interface table.
pub struct Simulator {
    nodes: Vec<Node>,
    links: Vec<Link>,
    flows: Vec<FlowSlot>,
    stats: Vec<FlowStats>,
    /// Per flow: latest `sent_at` delivered so far (reorder detection).
    newest_delivered: Vec<u64>,
    taps: Vec<ReplayTap>,
    /// Per node: the installed service model.
    services: Vec<RouterService>,
    queue: EventQueue<Event>,
    /// Zeros as long as the longest flow payload: every send's payload.
    zeros: Vec<u8>,
    /// Byte buffers of delivered and dropped packets, and of sends the
    /// generator refused: every send and replay copy writes into one of
    /// these before it allocates. Only packets that left the network
    /// and refused sends return here, so the list never holds more
    /// buffers than the most packets ever in flight at once, plus one.
    free_bufs: Vec<Vec<u8>>,
    now_ns: u64,
    events_processed: u64,
}

impl Simulator {
    /// Creates an empty simulator starting at time `start_ns`.
    pub fn new(start_ns: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            links: Vec::new(),
            flows: Vec::new(),
            stats: Vec::new(),
            newest_delivered: Vec::new(),
            taps: Vec::new(),
            services: Vec::new(),
            queue: EventQueue::default(),
            zeros: Vec::new(),
            free_bufs: Vec::new(),
            now_ns: start_ns,
            events_processed: 0,
        }
    }

    /// Adds a node, returning its ID.
    pub(crate) fn add_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.services.push(ServiceModel::new(0, 1).into());
        self.nodes.len() - 1
    }

    /// Installs the packet-service model of a router node, with idle
    /// cores: forwarded packets reach their egress queue only after the
    /// earliest-free of `model.shards` cores has spent `model.per_pkt_ns`
    /// on them.
    pub(crate) fn set_router_service(&mut self, node: NodeId, model: ServiceModel) {
        self.services[node] = model.into();
    }

    /// Adds a link, returning its ID.
    pub(crate) fn add_link(
        &mut self,
        to: NodeId,
        bandwidth_bps: u64,
        propagation_ns: u64,
        queue_cap_bytes: usize,
    ) -> LinkId {
        self.links.push(Link::new(to, bandwidth_bps, propagation_ns, queue_cap_bytes));
        self.links.len() - 1
    }

    /// Wires egress `interface` of router `node` onto `link`.
    pub(crate) fn connect_interface(&mut self, node: NodeId, interface: u16, link: LinkId) {
        if let Node::Router { interfaces, .. } = &mut self.nodes[node] {
            let at = usize::from(interface);
            if interfaces.len() <= at {
                interfaces.resize(at + 1, None);
            }
            interfaces[at] = Some(link);
        }
    }

    /// Re-rates a link (e.g. to narrow one hop of a uniform topology
    /// into the bottleneck). Packets already being serialized keep their
    /// scheduled completion; everything queued serializes at the new
    /// rate.
    pub(crate) fn set_link_bandwidth(&mut self, link: LinkId, bandwidth_bps: u64) {
        self.links[link].bandwidth_bps = bandwidth_bps.max(1);
    }

    /// Takes a link down (`up = false`) or restores it (`up = true`) —
    /// the churn primitive behind scheduled link failures.
    ///
    /// Going down drains both class queues immediately (those packets
    /// were committed to a cable that just died; each counts into its
    /// flow's [`FlowStats::link_down_drops`]) and every packet handed to
    /// the link while it is down is dropped the same way. A packet whose
    /// serialization already started keeps its scheduled arrival — it
    /// was on the wire when the link was cut. Restoring the link leaves
    /// the queues empty; traffic flows again from the next enqueue.
    ///
    /// Returns how many queued packets were drained.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) -> u64 {
        let l = &mut self.links[link];
        let was_up = l.up;
        l.up = up;
        if up || !was_up {
            return 0;
        }
        let mut drained = 0;
        while let Some(pkt) = l.pop_next() {
            self.stats[pkt.flow].link_down_drops += 1;
            self.free_bufs.push(pkt.bytes);
            drained += 1;
        }
        drained
    }

    /// Whether a link is currently up.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.links[link].up
    }

    /// Wires local delivery of a router node to `host` — packets the
    /// router forwards on egress interface 0 arrive there. No-op on
    /// non-router nodes.
    pub(crate) fn set_local_delivery(&mut self, node: NodeId, host: NodeId) {
        if let Node::Router { local, .. } = &mut self.nodes[node] {
            *local = Some(host);
        }
    }

    /// Registers a CBR (open-loop) flow, returning its ID. Send events
    /// are scheduled lazily, one at a time.
    pub fn add_flow(&mut self, flow: Flow) -> FlowId {
        let id = self.flows.len();
        let start = flow.start_ns.max(self.now_ns);
        self.grow_zeros(flow.payload_len);
        self.flows.push(FlowSlot::Cbr(Box::new(flow)));
        self.stats.push(FlowStats::default());
        self.newest_delivered.push(0);
        self.queue.push(start, Event::FlowSend { flow: id });
        id
    }

    /// Registers a closed-loop [`ReactiveFlow`], returning its ID. The
    /// flow drives itself: sends are paced and window-limited, delivery
    /// acks open the window, timeouts retransmit with backoff until the
    /// per-packet budget runs out, and the flow completes when every
    /// sequence number is acked or abandoned
    /// ([`reactive_done`](Simulator::reactive_done)).
    pub(crate) fn add_reactive_flow(&mut self, flow: ReactiveFlow) -> FlowId {
        let id = self.flows.len();
        let start = flow.start_ns.max(self.now_ns);
        self.grow_zeros(flow.payload_len);
        let mut state = ReactiveState::new(flow);
        state.send_scheduled = true;
        self.flows.push(FlowSlot::Reactive(Box::new(state)));
        self.stats.push(FlowStats::default());
        self.newest_delivered.push(0);
        self.queue.push(start, Event::ReactiveSend { flow: id });
        id
    }

    /// Makes the shared zero payload at least `payload_len` bytes long.
    fn grow_zeros(&mut self, payload_len: usize) {
        if self.zeros.len() < payload_len {
            self.zeros.resize(payload_len, 0);
        }
    }

    /// Registers an on-reservation-set replay adversary. The attacker's
    /// pseudo-flow gets its own stats slot, which is returned.
    pub fn add_replay_tap(
        &mut self,
        victim: FlowId,
        inject_at: NodeId,
        copies: u32,
        delay_ns: u64,
    ) -> FlowId {
        let attacker_flow = self.flows.len();
        self.flows.push(FlowSlot::Tap);
        self.stats.push(FlowStats::default());
        self.newest_delivered.push(0);
        self.taps.push(ReplayTap { victim, inject_at, copies, delay_ns, attacker_flow });
        attacker_flow
    }

    /// Statistics of `flow`.
    pub fn stats(&self, flow: FlowId) -> FlowStats {
        self.stats[flow]
    }

    /// Current simulation time, ns.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Events dispatched so far — the operations the `netsim_churn`
    /// benchmark workload counts (events per wall-clock second).
    pub(crate) fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Whether `flow` still has sends ahead of the current sim time:
    /// a CBR flow before its stop time, or a reactive flow that has not
    /// completed. Taps are never active (they have no sends of their
    /// own).
    pub(crate) fn flow_is_active(&self, flow: FlowId) -> bool {
        self.flows.get(flow).is_some_and(|f| match f {
            FlowSlot::Cbr(f) => f.stop_ns > self.now_ns,
            FlowSlot::Reactive(st) => !st.done,
            FlowSlot::Tap => false,
        })
    }

    /// Whether a reactive flow has terminated — every sequence number
    /// acked or abandoned. `true` for CBR flows and taps (they have no
    /// open-ended retry state to wait on); useful as a blanket
    /// "nothing is livelocked" check over all flow ids.
    pub fn reactive_done(&self, flow: FlowId) -> bool {
        self.flows.get(flow).is_none_or(|f| match f {
            FlowSlot::Reactive(st) => st.done,
            FlowSlot::Cbr(_) | FlowSlot::Tap => true,
        })
    }

    /// The event timeline of a reactive flow (empty for CBR flows and
    /// taps): every send, retransmit, ack, timeout, stall, abandonment
    /// and the completion marker, in simulation order.
    pub fn flow_events(&self, flow: FlowId) -> &[FlowEvent] {
        match self.flows.get(flow) {
            Some(FlowSlot::Reactive(st)) => &st.events,
            _ => &[],
        }
    }

    /// Reconfigures a flow's path mid-run (churn: reroute after a link
    /// failure): future sends use `generator` — carrying the new path
    /// and its freshly attached credentials — and enter at `entry`.
    /// Packets already in flight finish on the old path. Bumps the
    /// flow's [`FlowStats::reroutes`].
    ///
    /// Panics if `flow` is a replay tap's pseudo-flow (taps observe a
    /// victim; they have no path of their own).
    pub(crate) fn set_flow_route(
        &mut self,
        flow: FlowId,
        generator: SourceGenerator,
        entry: NodeId,
    ) {
        match self.flows.get_mut(flow).expect("set_flow_route: unknown flow") {
            FlowSlot::Cbr(f) => {
                f.generator = generator;
                f.entry = entry;
            }
            FlowSlot::Reactive(st) => {
                // Future sends *and retransmissions* regenerate through
                // the new generator — retransmit-driven recovery.
                st.cfg.generator = generator;
                st.cfg.entry = entry;
            }
            FlowSlot::Tap => panic!("set_flow_route: not a real flow"),
        }
        self.stats[flow].reroutes += 1;
    }

    /// Engine statistics of a node, if it is a router.
    pub fn router_stats(&self, node: NodeId) -> Option<DatapathStats> {
        match &self.nodes[node] {
            Node::Router { router, .. } => Some(router.stats()),
            _ => None,
        }
    }

    /// Swaps the packet-processing engine of a router node (e.g. to rerun
    /// a scenario with a baseline engine): `Ok(previous_engine)` on a
    /// router node, `Err(engine)` — handing the argument back — if the
    /// node is not a router.
    #[allow(clippy::result_large_err)]
    pub(crate) fn replace_engine(
        &mut self,
        node: NodeId,
        engine: Box<dyn Datapath + Send>,
    ) -> Result<Box<dyn Datapath + Send>, Box<dyn Datapath + Send>> {
        match &mut self.nodes[node] {
            Node::Router { router, .. } => Ok(std::mem::replace(router, engine)),
            _ => Err(engine),
        }
    }

    /// Processes one packet synchronously through a node's engine, outside
    /// the event loop (used by tests and examples to probe verdicts
    /// without scheduling flows).
    pub fn process_at_router(
        &mut self,
        node: NodeId,
        pkt: &mut [u8],
        now_ns: u64,
    ) -> Option<Verdict> {
        match &mut self.nodes[node] {
            Node::Router { router, .. } => Some(router.process(pkt, now_ns)),
            _ => None,
        }
    }

    /// Runs until `end_ns` inclusive (or until no events remain): every
    /// event with timestamp `<= end_ns` — including ones scheduled
    /// during the run — has been dispatched when this returns, in
    /// `(time, schedule-order)` order.
    pub fn run_until(&mut self, end_ns: u64) {
        while let Some((t, event)) = self.queue.pop_due(end_ns) {
            self.now_ns = t;
            self.events_processed += 1;
            self.dispatch(event);
        }
        self.now_ns = self.now_ns.max(end_ns);
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::FlowSend { flow } => self.handle_flow_send(flow),
            Event::ReactiveSend { flow } => self.handle_reactive_send(flow),
            Event::FlowAck { flow, seq } => self.handle_flow_ack(flow, seq),
            Event::FlowRto { flow, seq, attempt } => self.handle_flow_rto(flow, seq, attempt),
            Event::Arrival { node, pkt } => self.handle_arrival(node, pkt),
            Event::LinkDone { link } => self.handle_link_done(link),
            Event::Egress { target, pkt, class } => self.handle_egress(target, pkt, class),
        }
    }

    /// Flow `flow`'s slot, and apart from it what its events write.
    fn flow_and_outbox(&mut self, flow: FlowId) -> (&mut FlowSlot, Outbox<'_>) {
        let Simulator { flows, stats, queue, zeros, free_bufs, now_ns, .. } = self;
        let outbox =
            Outbox { queue, stats: &mut stats[flow], free_bufs, zeros, flow, now: *now_ns };
        (&mut flows[flow], outbox)
    }

    fn handle_flow_send(&mut self, flow_id: FlowId) {
        let (slot, mut out) = self.flow_and_outbox(flow_id);
        let FlowSlot::Cbr(flow) = slot else {
            return;
        };
        if out.now >= flow.stop_ns {
            return;
        }
        out.send(&mut flow.generator, flow.payload_len, flow.entry, 0);
        let next = out.now + flow.interval_ns;
        if next < flow.stop_ns {
            out.queue.push(next, Event::FlowSend { flow: flow_id });
        }
    }

    /// A reactive flow's pacing tick: send the next new sequence number
    /// if the window has room, else stall (the next ack restarts the
    /// chain). The chain self-perpetuates — each successful new send
    /// schedules the next opportunity one `pacing_ns` later.
    fn handle_reactive_send(&mut self, flow_id: FlowId) {
        let (slot, mut out) = self.flow_and_outbox(flow_id);
        let FlowSlot::Reactive(st) = slot else {
            return;
        };
        let now = out.now;
        st.send_scheduled = false;
        if st.done || st.next_seq >= st.cfg.total_pkts {
            return;
        }
        if st.outstanding.len() >= st.cfg.window.max(1) {
            // Ack-blocked: the closed loop is doing its job. No
            // reschedule — handle_flow_ack restarts the chain.
            out.stats.backpressure_stalls += 1;
            st.events.push(FlowEvent { at_ns: now, kind: FlowEventKind::Stalled });
            return;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.last_send_ns = now;
        // A refused send still occupies the window and arms its timer —
        // the retry path handles it like any loss (by then the
        // reservation may have become active).
        out.send(&mut st.cfg.generator, st.cfg.payload_len, st.cfg.entry, seq);
        st.outstanding.insert(seq, Outstanding { attempt: 0, rto_ns: st.cfg.rto_ns });
        st.events.push(FlowEvent { at_ns: now, kind: FlowEventKind::Sent { seq } });
        out.queue.push(now + st.cfg.rto_ns, Event::FlowRto { flow: flow_id, seq, attempt: 0 });
        if st.next_seq < st.cfg.total_pkts {
            st.send_scheduled = true;
            out.queue.push(now + st.cfg.pacing_ns.max(1), Event::ReactiveSend { flow: flow_id });
        }
    }

    /// The sender sees an acknowledgment: retire the sequence number,
    /// open the window, restart a stalled send chain.
    fn handle_flow_ack(&mut self, flow_id: FlowId, seq: u64) {
        let (slot, mut out) = self.flow_and_outbox(flow_id);
        let FlowSlot::Reactive(st) = slot else {
            return;
        };
        if st.done || st.outstanding.remove(&seq).is_none() {
            // Spurious ack: a retransmission's original copy also
            // arrived, or the seq was already abandoned.
            return;
        }
        st.acked += 1;
        st.events.push(FlowEvent { at_ns: out.now, kind: FlowEventKind::Acked { seq } });
        out.after_retire(st);
    }

    /// A retransmission timer fires: resend through the flow's *current*
    /// generator with doubled (capped) RTO, or abandon the sequence
    /// number once its budget is spent.
    fn handle_flow_rto(&mut self, flow_id: FlowId, seq: u64, attempt: u32) {
        let (slot, mut out) = self.flow_and_outbox(flow_id);
        let FlowSlot::Reactive(st) = slot else {
            return;
        };
        let now = out.now;
        if st.done {
            return;
        }
        let Some(pending) = st.outstanding.get_mut(&seq) else {
            return; // already acked
        };
        if pending.attempt != attempt {
            return; // stale timer from a superseded attempt
        }
        out.stats.timeouts += 1;
        st.events.push(FlowEvent { at_ns: now, kind: FlowEventKind::Timeout { seq } });
        if pending.attempt >= st.cfg.max_retransmits {
            st.outstanding.remove(&seq);
            st.abandoned += 1;
            st.events.push(FlowEvent { at_ns: now, kind: FlowEventKind::Abandoned { seq } });
            out.after_retire(st);
            return;
        }
        pending.attempt += 1;
        pending.rto_ns = pending.rto_ns.saturating_mul(2).min(st.cfg.rto_max_ns.max(1));
        let (next_attempt, next_rto) = (pending.attempt, pending.rto_ns);
        out.stats.retransmits += 1;
        // Regenerate through the *current* generator: a reroute applied
        // since the original send puts the retry on the new path.
        out.send(&mut st.cfg.generator, st.cfg.payload_len, st.cfg.entry, seq);
        st.events.push(FlowEvent {
            at_ns: now,
            kind: FlowEventKind::Retransmit { seq, attempt: next_attempt },
        });
        out.queue
            .push(now + next_rto, Event::FlowRto { flow: flow_id, seq, attempt: next_attempt });
    }

    fn handle_arrival(&mut self, node_id: NodeId, mut pkt: SimPacket) {
        let now = self.now_ns;
        // Duplicating adversaries observe the packet as it arrives and
        // inject copies at the same ingress shortly after, spread
        // `delay_ns` apart so the attacker keeps the token bucket pinned
        // right up to the next original packet — the timing that makes
        // the §5.4 attack effective.
        let Simulator { taps, stats, queue, free_bufs, .. } = self;
        for tap in taps.iter().filter(|t| t.victim == pkt.flow && t.inject_at == node_id) {
            for c in 1..=u64::from(tap.copies) {
                let mut bytes = free_bufs.pop().unwrap_or_default();
                bytes.clone_from(&pkt.bytes);
                let copy = SimPacket { bytes, flow: tap.attacker_flow, ..pkt };
                stats[tap.attacker_flow].sent_pkts += 1;
                stats[tap.attacker_flow].sent_bytes += copy.bytes.len() as u64;
                queue.push(now + tap.delay_ns * c, Event::Arrival { node: node_id, pkt: copy });
            }
        }
        match &mut self.nodes[node_id] {
            Node::Host => {
                let st = &mut self.stats[pkt.flow];
                st.delivered_pkts += 1;
                st.delivered_bytes += pkt.bytes.len() as u64;
                let lat = now - pkt.sent_at;
                st.latency_sum_ns = st.latency_sum_ns.saturating_add(lat);
                st.latency_max_ns = st.latency_max_ns.max(lat);
                st.latency.record(lat);
                let newest = &mut self.newest_delivered[pkt.flow];
                if st.delivered_pkts > 1 && pkt.sent_at < *newest {
                    st.reordered_pkts += 1;
                }
                *newest = (*newest).max(pkt.sent_at);
                // Closed loop: delivery of a reactive flow's packet
                // schedules the sender-side ack after the modeled
                // reverse-path delay.
                if let FlowSlot::Reactive(rst) = &self.flows[pkt.flow] {
                    let delay = rst.cfg.ack_delay_ns;
                    self.queue.push(now + delay, Event::FlowAck { flow: pkt.flow, seq: pkt.seq });
                }
                self.free_bufs.push(pkt.bytes);
            }
            Node::Router { router, interfaces, local } => {
                let verdict = router.process(&mut pkt.bytes, now);
                match verdict {
                    Verdict::Drop(_) => {
                        self.stats[pkt.flow].router_drops += 1;
                        self.free_bufs.push(pkt.bytes);
                    }
                    Verdict::Flyover { egress } | Verdict::BestEffort { egress } => {
                        let class =
                            if verdict.is_flyover() { Class::Priority } else { Class::BestEffort };
                        // Resolve the egress target while the node borrow
                        // is live; the forwarding itself may be delayed by
                        // the node's service model.
                        let target = if egress == 0 {
                            local.map(EgressTarget::Local)
                        } else {
                            interfaces
                                .get(usize::from(egress))
                                .copied()
                                .flatten()
                                .map(EgressTarget::Link)
                        };
                        match target {
                            None => {
                                self.stats[pkt.flow].router_drops += 1;
                                self.free_bufs.push(pkt.bytes);
                            }
                            Some(target) => {
                                match self.services[node_id].try_serve(now) {
                                    // The router's bounded queue is
                                    // full: tail drop, named counter.
                                    None => {
                                        self.stats[pkt.flow].service_queue_drops += 1;
                                        self.free_bufs.push(pkt.bytes);
                                    }
                                    Some(depart) if depart <= now => {
                                        self.handle_egress(target, pkt, class);
                                    }
                                    Some(depart) => {
                                        self.queue
                                            .push(depart, Event::Egress { target, pkt, class });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Hands a served packet to its egress target: the attached host
    /// (scheduled as an immediate arrival) or a link's two-class queue.
    fn handle_egress(&mut self, target: EgressTarget, pkt: SimPacket, class: Class) {
        match target {
            EgressTarget::Local(host) => {
                let now = self.now_ns;
                self.queue.push(now, Event::Arrival { node: host, pkt });
            }
            EgressTarget::Link(link_id) => self.enqueue_on_link(link_id, pkt, class),
        }
    }

    fn enqueue_on_link(&mut self, link_id: LinkId, pkt: SimPacket, class: Class) {
        let now = self.now_ns;
        let link = &mut self.links[link_id];
        if !link.up {
            self.stats[pkt.flow].link_down_drops += 1;
            self.free_bufs.push(pkt.bytes);
            return;
        }
        if !link.busy {
            link.busy = true;
            let done = now + link.tx_time_ns(pkt.bytes.len());
            let arrive = done + link.propagation_ns;
            let to = link.to;
            self.queue.push(done, Event::LinkDone { link: link_id });
            self.queue.push(arrive, Event::Arrival { node: to, pkt });
        } else {
            let (queue, bytes_used) = match class {
                Class::Priority => (&mut link.prio, &mut link.prio_bytes),
                Class::BestEffort => (&mut link.best_effort, &mut link.be_bytes),
            };
            if *bytes_used + pkt.bytes.len() <= link.queue_cap_bytes {
                *bytes_used += pkt.bytes.len();
                queue.push_back(pkt);
            } else {
                self.stats[pkt.flow].queue_drops += 1;
                self.free_bufs.push(pkt.bytes);
            }
        }
    }

    fn handle_link_done(&mut self, link_id: LinkId) {
        let now = self.now_ns;
        let link = &mut self.links[link_id];
        if !link.up {
            // The queues were drained when the link went down; the
            // serializer just goes idle.
            link.busy = false;
            return;
        }
        match link.pop_next() {
            Some(pkt) => {
                let done = now + link.tx_time_ns(pkt.bytes.len());
                let arrive = done + link.propagation_ns;
                let to = link.to;
                self.queue.push(done, Event::LinkDone { link: link_id });
                self.queue.push(arrive, Event::Arrival { node: to, pkt });
            }
            None => {
                link.busy = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{EventQueue, FlowId, Simulator, NEAR_HORIZON_NS};
    use crate::{
        EngineFamily, FlowKind, FlowSpec, LinearTopology, LinkSpec, ReactiveProfile, Route,
    };
    use hummingbird_dataplane::{RouterConfig, SourceGenerator};
    use hummingbird_wire::IsdAs;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const START_S: u64 = 1_700_000_000;
    const START_NS: u64 = START_S * 1_000_000_000;
    const SEC: u64 = 1_000_000_000;

    /// A 2-AS chain.
    fn chain() -> LinearTopology {
        LinearTopology::build(2, LinkSpec::default(), START_NS, RouterConfig::default())
    }

    /// A generator over `chain` whose reservations start `start_s`
    /// seconds into the run.
    fn reserved_generator(chain: &mut LinearTopology, start_s: u64) -> SourceGenerator {
        let src = IsdAs::new(1, 0x10);
        let mut generator = chain.make_generator(src, chain.net.router_isd_as(1));
        for hop in 0..2 {
            // Credentials start 5 s before the date they are issued at.
            let credential = chain.make_family_credential(
                EngineFamily::Hummingbird,
                hop,
                src,
                2_000,
                START_S + start_s + 5,
            );
            generator.attach_reservation(hop, credential).unwrap();
        }
        generator
    }

    /// Runs `spec` for 2 s over a 2-AS chain whose reservations start
    /// 1 s in, so the generator refuses every send of the first second,
    /// and drains the network.
    fn run_with_late_reservation(spec: FlowSpec) -> (Simulator, FlowId) {
        let mut chain = chain();
        let generator = reserved_generator(&mut chain, 1);
        let entry = chain.net.as_nodes[0];
        let mut sim = chain.net.sim;
        let flow = spec.add_to(&mut sim, generator, entry, START_NS, START_NS + 2 * SEC);
        sim.run_until(START_NS + 10 * SEC);
        (sim, flow)
    }

    /// A refused send hands its buffer back to the free list: a flow
    /// delivers for a second, then is rerouted onto reservations that
    /// start a minute later, so every later send is refused — and the
    /// buffer the delivered packets left behind is still there.
    #[test]
    fn refused_sends_return_their_buffers() {
        let mut chain = chain();
        let active = reserved_generator(&mut chain, 0);
        let late = reserved_generator(&mut chain, 60);
        let entry = chain.net.as_nodes[0];
        let mut sim = chain.net.sim;
        let spec = FlowSpec::cbr(1000, 800, Some(2_000));
        let flow = spec.add_to(&mut sim, active, entry, START_NS, START_NS + 2 * SEC);
        sim.run_until(START_NS + SEC - 1);
        sim.set_flow_route(flow, late, entry);
        sim.run_until(START_NS + 10 * SEC);
        let s = sim.stats(flow);
        assert!(s.delivered_pkts > 0 && s.generation_failures > 0, "{s:?}");
        assert_eq!(s.unattributed(), 0, "{s:?}");
        assert!(!sim.free_bufs.is_empty(), "a refused send kept its buffer");
    }

    /// A CBR flow: the sends of the first second are refused by the
    /// generator; every one must still be accounted for.
    #[test]
    fn refused_cbr_sends_are_attributed() {
        let (sim, flow) = run_with_late_reservation(FlowSpec::cbr(1000, 800, Some(2_000)));
        let s = sim.stats(flow);
        assert_eq!((s.sent_pkts, s.delivered_pkts), (200, 100), "{s:?}");
        assert_eq!(s.generation_failures, 100, "{s:?}");
        assert_eq!(s.unattributed(), 0, "{s:?}");
        assert_eq!(s.since(&Default::default()), s);
    }

    /// A closed-loop flow: first sends and retransmissions refused
    /// before the reservation starts are accounted for, and the flow
    /// still completes once the reservation is active.
    #[test]
    fn refused_reactive_sends_are_attributed() {
        let kind = FlowKind::ClosedLoop { total_pkts: 150, profile: ReactiveProfile::default() };
        let spec = FlowSpec { kind, ..FlowSpec::cbr(1000, 800, Some(2_000)) };
        let (sim, flow) = run_with_late_reservation(spec);
        let s = sim.stats(flow);
        assert!(sim.reactive_done(flow));
        assert_eq!(s.delivered_pkts, 150, "{s:?}");
        assert!(s.retransmits > 0 && s.generation_failures > 0, "{s:?}");
        assert_eq!(s.sent_pkts, 150 + s.retransmits, "{s:?}");
        assert_eq!(s.unattributed(), 0, "{s:?}");
        assert_eq!(s.since(&Default::default()), s);
    }

    /// Dispatched slots and delivered packets' buffers are reused: the
    /// event table, both queue tiers and the packet free list are as
    /// long as the most events or packets in flight at once, not as the
    /// run's event or packet count.
    #[test]
    fn event_slots_are_recycled() {
        let mut net =
            LinearTopology::build(2, LinkSpec::default(), START_NS, RouterConfig::default()).net;
        let reserved = FlowSpec::cbr(1000, 2_000, Some(3_000));
        let hb = EngineFamily::Hummingbird;
        let flow = net.add_family_flow(hb, Route::new(0, 1), &reserved, START_NS, START_NS + SEC);
        net.sim.run_until(START_NS + 2 * SEC);
        let sim = &net.sim;
        let stats = sim.stats(flow);
        assert!(stats.delivery_ratio() > 0.99);
        assert!(sim.events_processed() > 1_000, "{} events", sim.events_processed());
        let queue = &sim.queue;
        let sizes = [
            queue.pending.len(),
            queue.near.capacity(),
            queue.heap.capacity(),
            sim.free_bufs.len(),
        ];
        assert!(
            sizes.iter().all(|&n| n <= 8),
            "slots, near and heap capacity, free buffers {sizes:?} for {} events",
            sim.events_processed()
        );
        assert_eq!(queue.free_slots.len(), queue.pending.len(), "every slot dispatched");
        assert!(queue.near.capacity() > 0, "no event took the near tier");
        // Delivered packets hand their buffers back.
        assert!(!sim.free_bufs.is_empty(), "{} packets sent", stats.sent_pkts);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The queue dispatches exactly in `(time, schedule order)`:
        /// random schedules crowded onto a few instants, some at the top
        /// of the `u64` range, and onto instants relative to the last
        /// dispatched one — at it, just inside, at and just past the
        /// near tier's horizon, and before it — with pops between the
        /// pushes so slots are reused mid-run. Pop bounds are drawn the
        /// same way, so they often fall between the two tiers' fronts; a
        /// refused pop must leave every queued event in place.
        #[test]
        fn queue_dispatches_in_time_then_schedule_order(
            ops in prop::collection::vec((0u8..4, 0usize..12, any::<u64>()), 1..300),
        ) {
            const HORIZON: u64 = NEAR_HORIZON_NS;
            const INSTANTS: [u64; 5] = [0, 1_000, u64::MAX / 2, u64::MAX - 1, u64::MAX];
            let mut queue = EventQueue::default();
            // What must come out: (time, schedule index), in order.
            let mut model = BTreeSet::new();
            // The last dispatched instant.
            let mut last = 0u64;
            for (index, (op, which, raw)) in ops.into_iter().enumerate() {
                let at = match which {
                    0..=4 => INSTANTS[which],
                    5 => last,
                    6 => last.saturating_add(HORIZON - 1),
                    7 => last.saturating_add(HORIZON),
                    8 => last.saturating_add(HORIZON + 1),
                    9 => last.saturating_sub(raw % (2 * HORIZON)),
                    10 => last.saturating_add(raw % (2 * HORIZON)),
                    _ => raw,
                };
                if op > 0 {
                    queue.push(at, index);
                    model.insert((at, index));
                    continue;
                }
                while let Some(popped) = queue.pop_due(at) {
                    prop_assert_eq!(Some(popped), model.pop_first());
                    last = popped.0;
                }
                prop_assert!(model.first().is_none_or(|&(t, _)| t > at));
            }
            while let Some(popped) = queue.pop_due(u64::MAX) {
                prop_assert_eq!(Some(popped), model.pop_first());
            }
            prop_assert!(model.is_empty());
        }
    }
}
