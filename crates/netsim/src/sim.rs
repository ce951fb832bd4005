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
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Node identifier.
pub type NodeId = usize;
/// Link identifier.
pub type LinkId = usize;
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
pub struct SimPacket {
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
pub struct Link {
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
pub enum Node {
    /// An AS border router: verifies, polices and forwards by interface.
    Router {
        /// The packet-processing engine (owns its keys and policer).
        router: Box<dyn Datapath + Send>,
        /// Egress interface → link. Interface 0 delivers to `local`.
        interfaces: std::collections::HashMap<u16, LinkId>,
        /// Node receiving locally-delivered packets (the destination
        /// host), if any.
        local: Option<NodeId>,
    },
    /// An end host: records deliveries.
    Host,
    /// A blackhole (used to model adversary-controlled sinks).
    Sink,
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
    /// ([`Simulator::set_flow_route`]): each reroute after a link
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
    Cbr(Flow),
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
/// `None` (the default) keeps the historical instantaneous forwarding.
/// With a model installed ([`Simulator::set_router_service`]), every
/// forwarded packet is served by the earliest-free of `shards` cores for
/// `per_pkt_ns` — the M/D/c shape of the worker-ring runtime, where a
/// [`hummingbird_dataplane::ShardedRouter`] with `c` shards drains its
/// ingress `c` packets at a time. Feeding the measured per-packet engine
/// cost (e.g. `BENCH_hotpath.json`'s ns/pkt) in here is what lets the
/// Fig. 3/4-style latency sweeps run on the real multi-core datapath
/// numbers instead of zero-cost routers.
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
pub struct ReplayTap {
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

/// The simulator.
pub struct Simulator {
    nodes: Vec<Node>,
    links: Vec<Link>,
    flows: Vec<FlowSlot>,
    stats: Vec<FlowStats>,
    /// Per flow: latest `sent_at` delivered so far (reorder detection).
    newest_delivered: Vec<u64>,
    taps: Vec<ReplayTap>,
    /// Per node: the installed service model, if any.
    services: Vec<Option<RouterService>>,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    pending: Vec<Option<Event>>,
    seq: u64,
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
            queue: BinaryHeap::new(),
            pending: Vec::new(),
            seq: 0,
            now_ns: start_ns,
            events_processed: 0,
        }
    }

    /// Adds a node, returning its ID.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.services.push(None);
        self.nodes.len() - 1
    }

    /// Installs (or clears, with `None`) the packet-service model of a
    /// router node: with a model, forwarded packets reach their egress
    /// queue only after the earliest-free of `model.shards` cores has
    /// spent `model.per_pkt_ns` on them, instead of instantaneously.
    pub fn set_router_service(&mut self, node: NodeId, model: Option<ServiceModel>) {
        self.services[node] = model.map(|m| RouterService {
            per_pkt_ns: m.per_pkt_ns,
            queue_pkts: m.queue_pkts,
            busy_until: vec![0; m.shards.max(1)],
        });
    }

    /// Adds a link, returning its ID.
    pub fn add_link(
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
    pub fn connect_interface(&mut self, node: NodeId, interface: u16, link: LinkId) {
        if let Node::Router { interfaces, .. } = &mut self.nodes[node] {
            interfaces.insert(interface, link);
        }
    }

    /// Re-rates a link (e.g. to narrow one hop of a uniform topology
    /// into the bottleneck). Packets already being serialized keep their
    /// scheduled completion; everything queued serializes at the new
    /// rate.
    pub fn set_link_bandwidth(&mut self, link: LinkId, bandwidth_bps: u64) {
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
        let mut drained_flows = Vec::new();
        while let Some(pkt) = l.pop_next() {
            drained_flows.push(pkt.flow);
        }
        for flow in &drained_flows {
            self.stats[*flow].link_down_drops += 1;
        }
        drained_flows.len() as u64
    }

    /// Whether a link is currently up.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.links[link].up
    }

    /// Wires local delivery of a router node to `host` — packets the
    /// router forwards on egress interface 0 arrive there. No-op on
    /// non-router nodes.
    pub fn set_local_delivery(&mut self, node: NodeId, host: NodeId) {
        if let Node::Router { local, .. } = &mut self.nodes[node] {
            *local = Some(host);
        }
    }

    /// Registers a CBR (open-loop) flow, returning its ID. Send events
    /// are scheduled lazily, one at a time.
    pub fn add_flow(&mut self, flow: Flow) -> FlowId {
        let id = self.flows.len();
        let start = flow.start_ns.max(self.now_ns);
        self.flows.push(FlowSlot::Cbr(flow));
        self.stats.push(FlowStats::default());
        self.newest_delivered.push(0);
        self.schedule(start, Event::FlowSend { flow: id });
        id
    }

    /// Registers a closed-loop [`ReactiveFlow`], returning its ID. The
    /// flow drives itself: sends are paced and window-limited, delivery
    /// acks open the window, timeouts retransmit with backoff until the
    /// per-packet budget runs out, and the flow completes when every
    /// sequence number is acked or abandoned
    /// ([`reactive_done`](Simulator::reactive_done)).
    pub fn add_reactive_flow(&mut self, flow: ReactiveFlow) -> FlowId {
        let id = self.flows.len();
        let start = flow.start_ns.max(self.now_ns);
        let mut state = ReactiveState::new(flow);
        state.send_scheduled = true;
        self.flows.push(FlowSlot::Reactive(Box::new(state)));
        self.stats.push(FlowStats::default());
        self.newest_delivered.push(0);
        self.schedule(start, Event::ReactiveSend { flow: id });
        id
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

    /// Events dispatched so far — the sim-throughput denominator the
    /// `netsim_scale` bench reports (events per wall-clock second).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Whether `flow` still has sends ahead of the current sim time:
    /// a CBR flow before its stop time, or a reactive flow that has not
    /// completed. Taps are never active (they have no sends of their
    /// own).
    pub fn flow_is_active(&self, flow: FlowId) -> bool {
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
    pub fn set_flow_route(&mut self, flow: FlowId, generator: SourceGenerator, entry: NodeId) {
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
    pub fn replace_engine(
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

    /// Enqueues `event` at `at_ns`.
    ///
    /// Equal-timestamp determinism contract: the queue orders by
    /// `(time, seq)` with `seq` strictly increasing per `schedule` call,
    /// so events at the same instant dispatch in exactly the order they
    /// were scheduled — FIFO, never heap-arbitrary. This is what makes
    /// reruns bit-identical, and what gives churn a stable tie-break:
    /// [`run_until`](Simulator::run_until) drains every event at `t`
    /// before returning, so an externally applied churn action at `t`
    /// (link down, reboot, reroute) always acts *after* the packet
    /// events of that instant.
    fn schedule(&mut self, at_ns: u64, event: Event) {
        let slot = self.pending.len();
        self.pending.push(Some(event));
        self.queue.push(Reverse((at_ns, self.seq, slot)));
        self.seq += 1;
    }

    /// Runs until `end_ns` inclusive (or until no events remain): every
    /// event with timestamp `<= end_ns` — including ones scheduled
    /// during the run — has been dispatched when this returns, in
    /// `(time, schedule-order)` order.
    pub fn run_until(&mut self, end_ns: u64) {
        while let Some(&Reverse((t, _, slot))) = self.queue.peek() {
            if t > end_ns {
                break;
            }
            self.queue.pop();
            self.now_ns = t;
            let event = self.pending[slot].take().expect("event consumed twice");
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

    fn handle_flow_send(&mut self, flow_id: FlowId) {
        let now = self.now_ns;
        let FlowSlot::Cbr(flow) = &mut self.flows[flow_id] else {
            return;
        };
        if now >= flow.stop_ns {
            return;
        }
        let payload = vec![0u8; flow.payload_len];
        let now_ms = now / 1_000_000;
        let interval = flow.interval_ns;
        let stop_ns = flow.stop_ns;
        let entry = flow.entry;
        match flow.generator.generate(&payload, now_ms) {
            Ok(bytes) => {
                self.stats[flow_id].sent_pkts += 1;
                self.stats[flow_id].sent_bytes += bytes.len() as u64;
                let pkt = SimPacket { bytes, flow: flow_id, sent_at: now, seq: 0 };
                self.schedule(now, Event::Arrival { node: entry, pkt });
            }
            Err(_) => {
                // Generation failure (e.g. reservation not yet active):
                // count as a send that never left the host.
                self.stats[flow_id].sent_pkts += 1;
            }
        }
        let next = now + interval;
        if next < stop_ns {
            self.schedule(next, Event::FlowSend { flow: flow_id });
        }
    }

    /// A reactive flow's pacing tick: send the next new sequence number
    /// if the window has room, else stall (the next ack restarts the
    /// chain). The chain self-perpetuates — each successful new send
    /// schedules the next opportunity one `pacing_ns` later.
    fn handle_reactive_send(&mut self, flow_id: FlowId) {
        let now = self.now_ns;
        let mut to_schedule: Vec<(u64, Event)> = Vec::new();
        {
            let FlowSlot::Reactive(st) = &mut self.flows[flow_id] else {
                return;
            };
            st.send_scheduled = false;
            if st.done || st.next_seq >= st.cfg.total_pkts {
                return;
            }
            if st.outstanding.len() >= st.cfg.window.max(1) {
                // Ack-blocked: the closed loop is doing its job. No
                // reschedule — handle_flow_ack restarts the chain.
                self.stats[flow_id].backpressure_stalls += 1;
                st.events.push(FlowEvent { at_ns: now, kind: FlowEventKind::Stalled });
                return;
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            st.last_send_ns = now;
            self.stats[flow_id].sent_pkts += 1;
            let payload = vec![0u8; st.cfg.payload_len];
            match st.cfg.generator.generate(&payload, now / 1_000_000) {
                Ok(bytes) => {
                    self.stats[flow_id].sent_bytes += bytes.len() as u64;
                    let pkt = SimPacket { bytes, flow: flow_id, sent_at: now, seq };
                    to_schedule.push((now, Event::Arrival { node: st.cfg.entry, pkt }));
                }
                Err(_) => {
                    // Generation failure: the packet never left the
                    // host. It still occupies the window and arms its
                    // timer — the retry path handles it like any loss
                    // (by then the reservation may have become active).
                }
            }
            st.outstanding.insert(seq, Outstanding { attempt: 0, rto_ns: st.cfg.rto_ns });
            st.events.push(FlowEvent { at_ns: now, kind: FlowEventKind::Sent { seq } });
            to_schedule
                .push((now + st.cfg.rto_ns, Event::FlowRto { flow: flow_id, seq, attempt: 0 }));
            if st.next_seq < st.cfg.total_pkts {
                st.send_scheduled = true;
                to_schedule
                    .push((now + st.cfg.pacing_ns.max(1), Event::ReactiveSend { flow: flow_id }));
            }
        }
        for (at, ev) in to_schedule {
            self.schedule(at, ev);
        }
    }

    /// The sender sees an acknowledgment: retire the sequence number,
    /// open the window, restart a stalled send chain.
    fn handle_flow_ack(&mut self, flow_id: FlowId, seq: u64) {
        let now = self.now_ns;
        let mut to_schedule: Vec<(u64, Event)> = Vec::new();
        {
            let FlowSlot::Reactive(st) = &mut self.flows[flow_id] else {
                return;
            };
            if st.done || st.outstanding.remove(&seq).is_none() {
                // Spurious ack: a retransmission's original copy also
                // arrived, or the seq was already abandoned.
                return;
            }
            st.acked += 1;
            st.events.push(FlowEvent { at_ns: now, kind: FlowEventKind::Acked { seq } });
            Self::after_retire(st, flow_id, now, &mut to_schedule);
        }
        for (at, ev) in to_schedule {
            self.schedule(at, ev);
        }
    }

    /// A retransmission timer fires: resend through the flow's *current*
    /// generator with doubled (capped) RTO, or abandon the sequence
    /// number once its budget is spent.
    fn handle_flow_rto(&mut self, flow_id: FlowId, seq: u64, attempt: u32) {
        let now = self.now_ns;
        let mut to_schedule: Vec<(u64, Event)> = Vec::new();
        {
            let FlowSlot::Reactive(st) = &mut self.flows[flow_id] else {
                return;
            };
            if st.done {
                return;
            }
            let Some(out) = st.outstanding.get_mut(&seq) else {
                return; // already acked
            };
            if out.attempt != attempt {
                return; // stale timer from a superseded attempt
            }
            self.stats[flow_id].timeouts += 1;
            st.events.push(FlowEvent { at_ns: now, kind: FlowEventKind::Timeout { seq } });
            if out.attempt >= st.cfg.max_retransmits {
                st.outstanding.remove(&seq);
                st.abandoned += 1;
                st.events.push(FlowEvent { at_ns: now, kind: FlowEventKind::Abandoned { seq } });
                Self::after_retire(st, flow_id, now, &mut to_schedule);
            } else {
                out.attempt += 1;
                out.rto_ns = out.rto_ns.saturating_mul(2).min(st.cfg.rto_max_ns.max(1));
                let next_attempt = out.attempt;
                let next_rto = out.rto_ns;
                self.stats[flow_id].retransmits += 1;
                self.stats[flow_id].sent_pkts += 1;
                let payload = vec![0u8; st.cfg.payload_len];
                // Regenerate through the *current* generator: a reroute
                // applied since the original send puts the retry on the
                // new path.
                if let Ok(bytes) = st.cfg.generator.generate(&payload, now / 1_000_000) {
                    self.stats[flow_id].sent_bytes += bytes.len() as u64;
                    let pkt = SimPacket { bytes, flow: flow_id, sent_at: now, seq };
                    to_schedule.push((now, Event::Arrival { node: st.cfg.entry, pkt }));
                }
                st.events.push(FlowEvent {
                    at_ns: now,
                    kind: FlowEventKind::Retransmit { seq, attempt: next_attempt },
                });
                to_schedule.push((
                    now + next_rto,
                    Event::FlowRto { flow: flow_id, seq, attempt: next_attempt },
                ));
            }
        }
        for (at, ev) in to_schedule {
            self.schedule(at, ev);
        }
    }

    /// Common tail of ack and abandon: check completion, and restart the
    /// send chain if it stalled on the window this retirement just
    /// opened (respecting the pacing floor).
    fn after_retire(
        st: &mut ReactiveState,
        flow_id: FlowId,
        now: u64,
        to_schedule: &mut Vec<(u64, Event)>,
    ) {
        if st.complete() {
            st.done = true;
            st.events.push(FlowEvent { at_ns: now, kind: FlowEventKind::Completed });
            return;
        }
        if !st.send_scheduled && st.next_seq < st.cfg.total_pkts {
            st.send_scheduled = true;
            let at = now.max(st.last_send_ns + st.cfg.pacing_ns.max(1));
            to_schedule.push((at, Event::ReactiveSend { flow: flow_id }));
        }
    }

    fn handle_arrival(&mut self, node_id: NodeId, pkt: SimPacket) {
        let now = self.now_ns;
        // Duplicating adversaries observe the packet as it arrives and
        // inject copies at the same ingress shortly after.
        let tap_copies: Vec<(u32, u64, FlowId)> = self
            .taps
            .iter()
            .filter(|t| t.victim == pkt.flow && t.inject_at == node_id)
            .map(|t| (t.copies, t.delay_ns, t.attacker_flow))
            .collect();
        for (copies, delay, attacker_flow) in tap_copies {
            // Copies are spread `delay_ns` apart so the attacker keeps the
            // token bucket pinned right up to the next original packet —
            // the timing that makes the §5.4 attack effective.
            for c in 0..copies {
                let mut copy = pkt.clone();
                copy.flow = attacker_flow;
                self.stats[attacker_flow].sent_pkts += 1;
                self.stats[attacker_flow].sent_bytes += copy.bytes.len() as u64;
                self.schedule(
                    now + delay * (u64::from(c) + 1),
                    Event::Arrival { node: node_id, pkt: copy },
                );
            }
        }
        match &mut self.nodes[node_id] {
            Node::Host | Node::Sink => {
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
                    self.schedule(now + delay, Event::FlowAck { flow: pkt.flow, seq: pkt.seq });
                }
            }
            Node::Router { router, interfaces, local } => {
                let mut bytes = pkt.bytes;
                let verdict = router.process(&mut bytes, now);
                let pkt = SimPacket { bytes, ..pkt };
                match verdict {
                    Verdict::Drop(_) => {
                        self.stats[pkt.flow].router_drops += 1;
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
                            interfaces.get(&egress).map(|&l| EgressTarget::Link(l))
                        };
                        match target {
                            None => self.stats[pkt.flow].router_drops += 1,
                            Some(target) => {
                                let depart = match &mut self.services[node_id] {
                                    Some(svc) => svc.try_serve(now),
                                    None => Some(now),
                                };
                                match depart {
                                    // The router's bounded queue is
                                    // full: tail drop, named counter.
                                    None => {
                                        self.stats[pkt.flow].service_queue_drops += 1;
                                    }
                                    Some(depart) if depart <= now => {
                                        self.handle_egress(target, pkt, class);
                                    }
                                    Some(depart) => {
                                        self.schedule(depart, Event::Egress { target, pkt, class });
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
                self.schedule(now, Event::Arrival { node: host, pkt });
            }
            EgressTarget::Link(link_id) => self.enqueue_on_link(link_id, pkt, class),
        }
    }

    fn enqueue_on_link(&mut self, link_id: LinkId, pkt: SimPacket, class: Class) {
        let now = self.now_ns;
        let link = &mut self.links[link_id];
        if !link.up {
            self.stats[pkt.flow].link_down_drops += 1;
            return;
        }
        if !link.busy {
            link.busy = true;
            let done = now + link.tx_time_ns(pkt.bytes.len());
            let arrive = done + link.propagation_ns;
            let to = link.to;
            self.schedule(done, Event::LinkDone { link: link_id });
            self.schedule(arrive, Event::Arrival { node: to, pkt });
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
                self.schedule(done, Event::LinkDone { link: link_id });
                self.schedule(arrive, Event::Arrival { node: to, pkt });
            }
            None => {
                link.busy = false;
            }
        }
    }
}
