//! Experiments as data: a [`Scenario`] names the engines every router
//! runs ([`EngineScenario`], a row of the engine-family table owned by
//! `hummingbird-baselines`, optionally sharded), the [`Topology`] (one of
//! the [`TopologyBuilder`] constructors), the router [`ServiceModel`],
//! the flows (a [`Route`] plus open-loop CBR or closed-loop
//! [`ReactiveFlow`] senders, see [`FlowSpec`]) and a timed failure plan,
//! and one [`run`] executes any of them into an [`Outcome`]. The Fig. 3/4
//! latency run, its partial-path and multipath variants, the overload
//! sweep and the churned backbone runs are all values of this one type;
//! the shapes with more than one caller have constructors
//! ([`Scenario::latency`], [`Scenario::overload_sweep`], and
//! [`run_churn_scenario`] for the backbone churn run the benchmark
//! drives).
//!
//! The per-router service cost is plain scenario data; the bench
//! binaries that want each family to pay its own datapath cost measure
//! it in the same run and set it themselves.

use crate::churn::{apply_action, ChurnAction, ChurnReport};
use crate::flow::{FlowEventKind, ReactiveFlow};
use crate::sim::{Flow, FlowId, FlowStats, NodeId, ServiceModel, Simulator};
use crate::topo::{AdjId, BackboneSpec, LinearTopology, RouterId, TopologyBuilder};
use hummingbird_baselines::EngineFamily;
use hummingbird_crypto::SecretValue;
use hummingbird_dataplane::{Datapath, DatapathStats, RouterConfig, SourceGenerator};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;
use rand::{rngs::StdRng, Rng as _, SeedableRng as _};

const SEC: u64 = 1_000_000_000;

/// One rerun configuration of a QoS/DoS experiment: which engine family
/// every router node runs, and across how many shards.
///
/// A [`Scenario`]'s `engines`; by hand, apply with
/// [`TopologyBuilder::install_engines`] and attach matching per-hop
/// credentials to flows with [`TopologyBuilder::add_family_flow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineScenario {
    /// The engine family under test.
    pub family: EngineFamily,
    /// Shards per router node (`1` = a plain single engine).
    pub shards: usize,
}

impl EngineScenario {
    /// This deployment over one AS's secrets: one bare engine of the
    /// family, or `shards` of them behind a
    /// [`ShardedRouter`](hummingbird_dataplane::ShardedRouter) with the
    /// family's steering.
    pub(crate) fn deploy(
        self,
        sv: &SecretValue,
        hop_key: &HopMacKey,
        master: &[u8; 16],
        cfg: RouterConfig,
    ) -> Box<dyn Datapath + Send> {
        if self.shards > 1 {
            Box::new(self.family.sharded_engine(self.shards, sv, hop_key, master, cfg))
        } else {
            self.family.engine(sv, hop_key, master, cfg)
        }
    }
}

/// Link parameters for a topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    /// Bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay, ns.
    pub propagation_ns: u64,
    /// Per-class queue capacity, bytes.
    pub queue_cap_bytes: usize,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            bandwidth_bps: 10_000_000, // 10 Mbps bottlenecks by default
            propagation_ns: 1_000_000, // 1 ms
            queue_cap_bytes: 64 * 1024,
        }
    }
}

/// Retransmission and window knobs of a closed-loop sender (its pacing
/// and packet budget come from the [`FlowSpec`] it belongs to).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReactiveProfile {
    /// Maximum unacknowledged packets in flight (≥ 1).
    pub window: usize,
    /// Modeled reverse-path (ack) delay, ns.
    pub ack_delay_ns: u64,
    /// Initial retransmission timeout, ns.
    pub rto_ns: u64,
    /// Backoff cap for the per-retry doubling RTO, ns.
    pub rto_max_ns: u64,
    /// Retries per packet before it is abandoned.
    pub max_retransmits: u32,
}

impl Default for ReactiveProfile {
    /// Sized for the default 10 Mbps / 1 ms scenario links: a 32-packet
    /// window, a 1 ms ack path, and a 100 ms initial RTO — above the
    /// worst full-queue round trip of the default 64 KiB link queues, so
    /// a deep-but-alive queue does not look like loss — doubling to a
    /// 800 ms cap over 4 retries.
    fn default() -> Self {
        ReactiveProfile {
            window: 32,
            ack_delay_ns: 1_000_000,
            rto_ns: 100_000_000,
            rto_max_ns: 800_000_000,
            max_retransmits: 4,
        }
    }
}

/// What a flow sends, on any topology: packet size, rate, the per-hop
/// credential, and whether it is open or closed loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Sending rate, kbps: the CBR rate, or a closed loop's pacing of
    /// new packets.
    pub rate_kbps: u64,
    /// Credential (reservation/grant/key) rate attached per hop, kbps;
    /// `None` sends plain best-effort SCION.
    pub credential_kbps: Option<u64>,
    /// Open or closed loop.
    pub kind: FlowKind,
}

/// How a [`FlowSpec`] reacts to the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// Open loop: one packet per interval until the stop time, whatever
    /// happens to them.
    Cbr,
    /// A windowed, ack-clocked `ReactiveFlow` that runs until
    /// `total_pkts` distinct sequence numbers are acked or abandoned.
    ClosedLoop {
        /// Distinct packets to deliver.
        total_pkts: u64,
        /// Window and retransmission knobs.
        profile: ReactiveProfile,
    },
}

impl FlowSpec {
    /// An open-loop CBR flow.
    pub const fn cbr(payload_len: usize, rate_kbps: u64, credential_kbps: Option<u64>) -> Self {
        FlowSpec { payload_len, rate_kbps, credential_kbps, kind: FlowKind::Cbr }
    }

    /// Registers this flow on `sim` with its path already in
    /// `generator`, entering at `entry` from `start_ns`. `stop_ns` ends a
    /// CBR flow; a closed loop ends when its budget terminates.
    pub(crate) fn add_to(
        &self,
        sim: &mut Simulator,
        generator: SourceGenerator,
        entry: NodeId,
        start_ns: u64,
        stop_ns: u64,
    ) -> FlowId {
        let payload_len = self.payload_len;
        let interval_ns =
            (payload_len as u64 * 8).saturating_mul(1_000_000) / self.rate_kbps.max(1);
        match self.kind {
            FlowKind::Cbr => {
                sim.add_flow(Flow { generator, entry, payload_len, interval_ns, start_ns, stop_ns })
            }
            FlowKind::ClosedLoop { total_pkts, profile } => sim.add_reactive_flow(ReactiveFlow {
                generator,
                entry,
                payload_len,
                total_pkts,
                window: profile.window.max(1),
                pacing_ns: interval_ns,
                ack_delay_ns: profile.ack_delay_ns,
                rto_ns: profile.rto_ns,
                rto_max_ns: profile.rto_max_ns,
                max_retransmits: profile.max_retransmits,
                start_ns,
            }),
        }
    }
}

/// The network a [`Scenario`] runs on.
#[derive(Clone, Copy, Debug)]
pub enum Topology {
    /// A [`LinearTopology`] of `n_ases` with uniform `link`s; `narrow`
    /// re-rates the forward link of one adjacency `(index, bits per
    /// second)`, AS `index` → AS `index + 1`, into the bottleneck.
    Chain {
        /// Chain length (ASes).
        n_ases: usize,
        /// Link parameters.
        link: LinkSpec,
        /// One forward link to re-rate after building.
        narrow: Option<(usize, u64)>,
    },
    /// The Fig. 3 [`diamond`](TopologyBuilder::diamond) with uniform
    /// links: branch ASes P (router 0) and Q (router 1), shared AS T
    /// (router 2).
    Diamond(LinkSpec),
    /// A generated ring-of-PoPs backbone — the only topology a
    /// [`Step::FailPath`] can act on.
    Backbone(BackboneSpec),
}

impl Topology {
    /// The network this describes, starting at `start_ns`.
    fn build(&self, start_ns: u64, cfg: RouterConfig) -> TopologyBuilder {
        match *self {
            Topology::Chain { n_ases, link, narrow } => {
                let mut t = LinearTopology::build(n_ases, link, start_ns, cfg).net;
                if let Some((i, bps)) = narrow {
                    let forward = t.adjacency(i).ab;
                    t.sim.set_link_bandwidth(forward, bps);
                }
                t
            }
            Topology::Diamond(link) => TopologyBuilder::diamond(link, start_ns, cfg),
            Topology::Backbone(spec) => TopologyBuilder::ring_of_pops(&spec, start_ns, cfg),
        }
    }
}

/// Where a flow runs: from router `from` along the shortest path to the
/// host behind router `to`, addressed to `to`'s AS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Entry router.
    pub from: RouterId,
    /// Router whose attached host receives.
    pub to: RouterId,
    /// Sender identity; `None` draws a fresh one per flow.
    pub src: Option<IsdAs>,
    /// A credential on this hop of the path only (the partial-path
    /// shape); `None` = every hop.
    pub credential_hop: Option<usize>,
}

impl Route {
    /// `from` to `to`'s host from a fresh sender, credentialed (when
    /// the flow carries a credential) on every hop.
    pub const fn new(from: RouterId, to: RouterId) -> Self {
        Route { from, to, src: None, credential_hop: None }
    }
}

/// One step of a [`Scenario`]'s failure plan, resolved against the live
/// network when it applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Take down the first `links` adjacencies of scenario flow `flow`'s
    /// current path, padded with further lane-0 ring links (PoP `p`'s
    /// first router to PoP `p + 1`'s) when the path is shorter.
    FailPath {
        /// Index into [`Scenario::flows`].
        flow: usize,
        /// Adjacencies to fail.
        links: usize,
    },
    /// Re-path every active flow that crosses a downed adjacency
    /// ([`ChurnAction::RerouteAffected`]).
    Reroute,
    /// Cold-reboot the router halfway along scenario flow `flow`'s
    /// current path (skipped on a path of two routers or fewer).
    RebootMidPath {
        /// Index into [`Scenario::flows`].
        flow: usize,
    },
}

/// One experiment as data; [`run`] executes it.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Engine family + shard deployment every router runs.
    pub engines: EngineScenario,
    /// The network.
    pub topology: Topology,
    /// Service model installed on every router
    /// (`ServiceModel::new(0, 1)` = instantaneous forwarding).
    pub service: ServiceModel,
    /// The flows, added in order (which fixes flow ids, sender
    /// identities and ResIDs).
    pub flows: Vec<(Route, FlowSpec)>,
    /// The failure plan: `(ns after the start, step)`; steps sharing an
    /// instant apply in list order.
    pub plan: Vec<(u64, Step)>,
    /// Sending window, seconds: CBR flows stop here (see [`run`] for how
    /// long the run drains past it).
    pub run_s: u64,
}

/// The sender identities of the chain shapes.
const VICTIM: IsdAs = IsdAs::new(1, 0xa);
const ATTACKER: IsdAs = IsdAs::new(3, 0xc);

/// The whole 3-AS chain of the chain shapes, from sender `src`.
fn chain_route(src: IsdAs) -> Route {
    Route { src: Some(src), ..Route::new(0, 2) }
}

impl Scenario {
    /// The Fig. 3/4 latency shape: a 3-AS chain of default 10 Mbps
    /// links whose routers serve 300 ns/pkt (the paper's single-core
    /// budget) on `engines.shards` cores, a 2 Mbps victim with 3 Mbps
    /// credentials on every hop, and a `flood_kbps` best-effort flood
    /// (none at 0), sending for 2 s. Under flood the reservation families
    /// hold the victim's latency at the uncontended level, the
    /// authentication-only families leave it queueing behind the flood.
    pub fn latency(engines: EngineScenario, flood_kbps: u64) -> Self {
        let mut flows = vec![(chain_route(VICTIM), FlowSpec::cbr(1_000, 2_000, Some(3_000)))];
        if flood_kbps > 0 {
            flows.push((chain_route(ATTACKER), FlowSpec::cbr(1_000, flood_kbps, None)));
        }
        Scenario {
            engines,
            topology: Topology::Chain { n_ases: 3, link: LinkSpec::default(), narrow: None },
            service: ServiceModel::new(300, engines.shards),
            flows,
            plan: Vec::new(),
            run_s: 2,
        }
    }

    /// The overload sweep, one scenario per best-effort offered load
    /// (4, 8, 16 and 20 Mbps; the ≈ 8 Mbps leftover capacity sits between
    /// the second and third): a 2 Mbps closed-loop reserved flow with
    /// 3 Mbps credentials and a closed-loop best-effort flow over a 3-AS
    /// chain of 10 Mbps links. Every queue is bounded — 16 KiB per link
    /// class, shallower than the senders' windows so overload drops and
    /// the loops retransmit, and 128 packets per router — so past
    /// saturation the reservation families hold the reserved flow's
    /// goodput and p99 while best effort degrades into named drop
    /// counters. Each flow's budget is its rate over 1 s, capped at
    /// `max_pkts` when nonzero.
    pub fn overload_sweep(engines: EngineScenario, max_pkts: u64) -> Vec<Self> {
        let closed = |rate_kbps: u64, credential_kbps| {
            let total_pkts = (rate_kbps * 125 / 1_000).max(1);
            FlowSpec {
                payload_len: 1_000,
                rate_kbps,
                credential_kbps,
                kind: FlowKind::ClosedLoop {
                    total_pkts: if max_pkts > 0 { total_pkts.min(max_pkts) } else { total_pkts },
                    profile: ReactiveProfile::default(),
                },
            }
        };
        let link = LinkSpec { queue_cap_bytes: 16 * 1024, ..LinkSpec::default() };
        let service = ServiceModel { per_pkt_ns: 300, shards: engines.shards, queue_pkts: 128 };
        [4_000, 8_000, 16_000, 20_000]
            .map(|offered_kbps| Scenario {
                engines,
                topology: Topology::Chain { n_ases: 3, link, narrow: None },
                service,
                flows: vec![
                    (chain_route(VICTIM), closed(2_000, Some(3_000))),
                    (chain_route(ATTACKER), closed(offered_kbps, None)),
                ],
                plan: Vec::new(),
                run_s: 1,
            })
            .to_vec()
    }
}

/// What [`run`] measured. `PartialEq` so same-seed runs can be asserted
/// bit-identical wholesale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// One per [`Scenario::flows`] entry, in order.
    pub flows: Vec<FlowOutcome>,
    /// Every router's engine counters at the end, by `RouterId`.
    pub routers: Vec<DatapathStats>,
    /// Bidirectional adjacencies of the network.
    pub adjacencies: usize,
    /// The applied failure plan with per-action effects.
    pub report: ChurnReport,
    /// Simulator events processed over the whole run.
    pub events: u64,
}

/// One flow's counters over a [`run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowOutcome {
    /// Cumulative counters at each distinct plan instant, in time order
    /// (see [`window`](FlowOutcome::window)).
    pub at: Vec<FlowStats>,
    /// Counters at the end of the run.
    pub total: FlowStats,
    /// Whether the flow terminated (always for CBR; `false` flags a
    /// livelocked closed loop).
    pub done: bool,
    /// Simulated time from the start to the flow's `Completed` event,
    /// ns, or to the end of the run if it has none — past saturation a
    /// closed loop delivers everything *eventually*, so collapse shows
    /// up here, not in the delivery ratio.
    pub elapsed_ns: u64,
}

impl FlowOutcome {
    /// The flow's counters over window `i`. The plan instants split the
    /// run into windows: window `0` runs from the start to the first
    /// instant, window `i` from instant `i − 1` to instant `i`, and
    /// window `at.len()` from the last instant to the end. A window ends
    /// *before* the steps at its instant apply, so the packets a link
    /// failure at `t` drains from its queues, and a reroute's
    /// [`reroutes`](FlowStats::reroutes) bump, count in the window that
    /// starts at `t`.
    pub fn window(&self, i: usize) -> FlowStats {
        let end = self.at.get(i).unwrap_or(&self.total);
        match i.checked_sub(1) {
            Some(j) => end.since(&self.at[j]),
            None => *end,
        }
    }

    /// Delivered goodput over [`elapsed_ns`](FlowOutcome::elapsed_ns),
    /// kbps (`0.0` on an empty run).
    pub fn goodput_kbps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        (self.total.delivered_bytes as f64 * 8.0) / (self.elapsed_ns as f64 / 1_000_000.0)
    }
}

/// Applies one plan step to `net` (built from `topology`) now,
/// recording each action into `report`.
fn apply(
    net: &mut TopologyBuilder,
    topology: &Topology,
    step: Step,
    flows: &[FlowId],
    report: &mut ChurnReport,
) {
    let path = |t: &TopologyBuilder, flow: usize| {
        t.route_of(flows[flow]).expect("scenario flows are routed").to_vec()
    };
    match step {
        Step::FailPath { flow, links } => {
            let Topology::Backbone(spec) = topology else {
                panic!("FailPath pads with backbone ring links");
            };
            let rpp = spec.routers_per_pop;
            let lane0 =
                (0..spec.pops - 1).filter_map(|p| net.adjacency_between(p * rpp, (p + 1) * rpp));
            let mut adjs: Vec<AdjId> = Vec::with_capacity(links);
            let on_path: Vec<AdjId> = path(net, flow)
                .windows(2)
                .filter_map(|w| net.adjacency_between(w[0], w[1]))
                .collect();
            for adj in on_path.into_iter().chain(lane0) {
                if adjs.len() < links && !adjs.contains(&adj) {
                    adjs.push(adj);
                }
            }
            for adj in adjs {
                report.records.push(apply_action(net, ChurnAction::LinkDown(adj)));
            }
        }
        Step::Reroute => report.records.push(apply_action(net, ChurnAction::RerouteAffected)),
        Step::RebootMidPath { flow } => {
            let path = path(net, flow);
            if path.len() > 2 {
                let mid = path[path.len() / 2];
                report.records.push(apply_action(net, ChurnAction::RouterReboot(mid)));
            }
        }
    }
}

/// Runs `scenario` from `start_ns`: build the topology, install the
/// engines and the service model, add the flows in order, then at each
/// plan instant snapshot every flow and apply that instant's steps.
/// CBR flows send for `run_s`; the run then goes on one drain second
/// past the sending window, a second at a time until every closed loop
/// has terminated (capped at 120 s, which turns a livelock into a
/// visible `done: false` instead of a hang), and one more drain second,
/// so in-flight copies land or die before the counters are read.
pub fn run(cfg: RouterConfig, scenario: &Scenario, start_ns: u64) -> Outcome {
    let mut net = scenario.topology.build(start_ns, cfg);
    net.install_engines(scenario.engines, cfg);
    net.set_service_model(scenario.service);
    let (family, stop_ns) = (scenario.engines.family, start_ns + scenario.run_s * SEC);
    let ids: Vec<FlowId> = scenario
        .flows
        .iter()
        .map(|(route, flow)| net.add_family_flow(family, *route, flow, start_ns, stop_ns))
        .collect();
    let mut plan = scenario.plan.clone();
    plan.sort_by_key(|&(at, _)| at);
    let mut at = vec![Vec::new(); ids.len()];
    let mut report = ChurnReport::default();
    for steps in plan.chunk_by(|a, b| a.0 == b.0) {
        net.sim.run_until(start_ns + steps[0].0);
        for (snapshots, &f) in at.iter_mut().zip(&ids) {
            snapshots.push(net.sim.stats(f));
        }
        for &(_, step) in steps {
            apply(&mut net, &scenario.topology, step, &ids, &mut report);
        }
    }
    let sim = &mut net.sim;
    let mut horizon = stop_ns + SEC;
    sim.run_until(horizon);
    while ids.iter().any(|&f| !sim.reactive_done(f)) && horizon < stop_ns + 120 * SEC {
        horizon += SEC;
        sim.run_until(horizon);
    }
    let end_ns = horizon + SEC;
    sim.run_until(end_ns);
    let flows = ids
        .iter()
        .zip(at)
        .map(|(&f, at)| FlowOutcome {
            at,
            total: sim.stats(f),
            done: sim.reactive_done(f),
            elapsed_ns: sim
                .flow_events(f)
                .iter()
                .rev()
                .find(|e| e.kind == FlowEventKind::Completed)
                .map_or(end_ns, |e| e.at_ns)
                - start_ns,
        })
        .collect();
    let routers =
        net.as_nodes.iter().map(|&n| net.sim.router_stats(n).expect("router node")).collect();
    let (adjacencies, events) = (net.n_adjacencies(), net.sim.events_processed());
    Outcome { flows, routers, adjacencies, report, events }
}

/// Knobs of a churn run: the QoS/DoS experiment moved onto a generated
/// ring-of-PoPs backbone with a seeded background-flow mesh, plus
/// mid-epoch fault injection. The fixed part of the shape: a 2 Mbps
/// victim of 1000-byte packets with 3 Mbps credentials on every hop,
/// from PoP 0 to PoP 2 (with `routers_per_pop ≥ 2` that ring path is
/// *strictly* hop-count shortest — chords attach to each PoP's last
/// router, so any chord detour costs ≥ 3 hops — making base and
/// failover paths seed-independent); the optional flood on the same
/// route with the same packet size; 64 kbps best-effort background
/// flows of 500-byte packets; `failures` link failures on the victim's
/// path at one third of the run, a reroute pass 50 ms later and a cold
/// reboot of a transit router on the failover path at the same
/// instant; and routers that serve 300 ns per packet on
/// `scenario.shards` cores.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// Engine family + shard deployment every router node runs.
    pub scenario: EngineScenario,
    /// PoPs on the backbone ring (≥ 3).
    pub pops: usize,
    /// Routers per PoP (≥ 2 for failover paths to exist).
    pub routers_per_pop: usize,
    /// Seed for topology, key material and the background mesh.
    pub seed: u64,
    /// Best-effort flood rate on the victim's route, kbps (`0` = none).
    pub flood_kbps: u64,
    /// Seeded random background flows across the whole backbone.
    pub background_flows: usize,
    /// Link failures to inject at `run_s / 3` (victim-path adjacencies
    /// first, padded with further ring links if the path is shorter).
    pub failures: usize,
    /// Run length, seconds.
    pub run_s: u64,
}

/// PoPs the churn victim's path spans (its destination is PoP 2).
const CHURN_SPAN_POPS: usize = 2;
/// The churn victim's CBR rate, kbps.
const CHURN_VICTIM_KBPS: u64 = 2_000;
/// The credential rate on every churn victim hop, kbps.
const CHURN_CREDENTIAL_KBPS: u64 = 3_000;
/// Payload bytes per churn victim/flood packet.
const CHURN_PAYLOAD_LEN: usize = 1_000;
/// Rate of each best-effort churn background flow, kbps.
const CHURN_BACKGROUND_KBPS: u64 = 64;
/// Delay from the churn failure to the reroute pass, ns.
const CHURN_REROUTE_DELAY_NS: u64 = 50_000_000;
/// Per-router, per-core service time of a churn run, ns.
const CHURN_SERVICE_PER_PKT_NS: u64 = 300;

impl ChurnSpec {
    /// The default acceptance shape: a 26-PoP × 4-router backbone (104
    /// routers), 3 link failures and a 64-flow background mesh, running
    /// 3 s. Add the flood with [`with_flood`](ChurnSpec::with_flood).
    pub fn new(scenario: EngineScenario) -> Self {
        ChurnSpec {
            scenario,
            pops: 26,
            routers_per_pop: 4,
            seed: 0xC0FFEE,
            flood_kbps: 0,
            background_flows: 64,
            failures: 3,
            run_s: 3,
        }
    }

    /// The same spec with a `flood_kbps` best-effort flood.
    pub fn with_flood(mut self, flood_kbps: u64) -> Self {
        self.flood_kbps = flood_kbps;
        self
    }
}

/// What a [`run_churn_scenario`] measured. `PartialEq` so two same-seed
/// runs can be asserted bit-identical wholesale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnScenarioOutcome {
    /// The victim's clean window, from the start to the failure
    /// ([`FlowOutcome::window`] 0).
    pub victim_base: FlowStats,
    /// The victim's outage window, from the failure to the reroute —
    /// where `link_down_drops` shows the stranded reservation.
    pub victim_outage: FlowStats,
    /// The victim's recovery window, from the reroute to the end — what
    /// the acceptance criteria (latency < 2× base, delivery > 0.9) are
    /// asserted on.
    pub victim_recovery: FlowStats,
    /// Victim counters over the whole run.
    pub victim_total: FlowStats,
    /// The flood's whole-run counters, when one ran.
    pub flood_total: Option<FlowStats>,
    /// Background mesh totals: packets sent.
    pub background_sent: u64,
    /// Background mesh totals: packets delivered.
    pub background_delivered: u64,
    /// The applied fault timeline with per-action effects.
    pub report: ChurnReport,
    /// Routers in the generated backbone.
    pub routers: usize,
    /// Bidirectional adjacencies in the generated backbone.
    pub adjacencies: usize,
    /// Engine counters of the victim's entry router (never rebooted).
    pub entry_stats: DatapathStats,
    /// Simulator events processed over the whole run.
    pub events: u64,
}

/// Runs a [`ChurnSpec`] as a [`Scenario`] on its ring-of-PoPs backbone:
/// the victim, the optional flood on the same route and the seeded
/// background mesh, then at one third of the run a
/// [`FailPath`](Step::FailPath) of `spec.failures` links on the
/// victim's path, 50 ms of outage (reservation stranding, counted per
/// flow), a [`Reroute`](Step::Reroute) with fresh credentials and a
/// cold reboot halfway along the victim's new path. The D2 contrast
/// survives churn: after the reroute the reservation families restore
/// the victim's latency and delivery at the clean level, while the
/// authentication-only families leave it queueing behind the (also
/// rerouted) flood.
pub fn run_churn_scenario(
    cfg: RouterConfig,
    spec: &ChurnSpec,
    start_ns: u64,
) -> ChurnScenarioOutcome {
    let (n, rpp, p) = (spec.pops * spec.routers_per_pop, spec.routers_per_pop, CHURN_PAYLOAD_LEN);
    let victim = Route::new(0, CHURN_SPAN_POPS.clamp(1, spec.pops - 1) * rpp);
    let victim_flow = FlowSpec::cbr(p, CHURN_VICTIM_KBPS, Some(CHURN_CREDENTIAL_KBPS));
    let mut flows = vec![(victim, victim_flow)];
    flows.extend((spec.flood_kbps > 0).then(|| (victim, FlowSpec::cbr(p, spec.flood_kbps, None))));
    let mesh = FlowSpec::cbr(500, CHURN_BACKGROUND_KBPS, None);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9E37_79B9_7F4A_7C15);
    for _ in 0..spec.background_flows {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        flows.push((Route::new(a, if b == a { (a + 1) % n } else { b }), mesh));
    }
    let (fail, reroute) = (spec.run_s * SEC / 3, spec.run_s * SEC / 3 + CHURN_REROUTE_DELAY_NS);
    let plan = vec![
        (fail, Step::FailPath { flow: 0, links: spec.failures }),
        (reroute, Step::Reroute),
        (reroute, Step::RebootMidPath { flow: 0 }),
    ];
    let service = ServiceModel::new(CHURN_SERVICE_PER_PKT_NS, spec.scenario.shards);
    let topology = Topology::Backbone(BackboneSpec::new(spec.pops, rpp, spec.seed));
    let (engines, run_s) = (spec.scenario, spec.run_s);
    let out = run(cfg, &Scenario { engines, topology, service, flows, plan, run_s }, start_ns);
    let (v, mesh) = (&out.flows[0], &out.flows[1 + usize::from(spec.flood_kbps > 0)..]);
    ChurnScenarioOutcome {
        victim_base: v.window(0),
        victim_outage: v.window(1),
        victim_recovery: v.window(2),
        victim_total: v.total,
        flood_total: (spec.flood_kbps > 0).then(|| out.flows[1].total),
        background_sent: mesh.iter().map(|f| f.total.sent_pkts).sum(),
        background_delivered: mesh.iter().map(|f| f.total.delivered_pkts).sum(),
        routers: out.routers.len(),
        adjacencies: out.adjacencies,
        entry_stats: out.routers[0],
        events: out.events,
        report: out.report,
    }
}
