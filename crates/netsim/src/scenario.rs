//! Scenario builders: linear AS topologies with Hummingbird routers,
//! ready-made flows, and reservation plumbing for the QoS experiments —
//! plus the [`EngineScenario`] config that reruns any experiment with
//! every node swapped to another row of the engine-family table
//! ([`EngineFamily`], owned by `hummingbird-baselines`), optionally
//! sharded, and the ready-made experiment runners
//! ([`run_latency_scenario`], [`run_partial_path_scenario`],
//! [`run_multipath_scenario`]) behind the Fig. 3/4-style per-family
//! sweeps.
//!
//! The overload layer drives closed-loop [`ReactiveFlow`] senders
//! instead of open-loop CBR injectors: [`run_overload_scenario`] sweeps
//! offered load through and past a bottleneck's saturation point with
//! every queue bounded, [`run_overload_churn_scenario`] combines
//! saturation with a mid-run link failure and a convergence delay before
//! the reroute pass (retransmit-driven recovery), and
//! [`run_latency_churn_scenario`] replays the latency experiment under a
//! [`ChurnPlan`]-scheduled failure. The per-router service cost
//! (`service_per_pkt_ns`) is an input of every spec; the bench binaries
//! that want each family to pay its own measured datapath cost read it
//! from `BENCH_hotpath.json` themselves.

use crate::churn::{apply_action, run_with_churn, ChurnAction, ChurnPlan, ChurnReport};
use crate::flow::{FlowEventKind, ReactiveFlow};
use crate::sim::{Flow, FlowId, FlowStats, NodeId, ServiceModel, Simulator};
use crate::topo::{AdjId, BackboneSpec, TopologyBuilder};
use hummingbird_baselines::EngineFamily;
use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::{
    forge_path, BeaconHop, Datapath, DatapathStats, RouterConfig, ShardedRouter, SourceGenerator,
    SourceReservation,
};
use hummingbird_wire::bwcls;
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;
use rand::{rngs::StdRng, Rng as _, SeedableRng as _};

/// One rerun configuration of a QoS/DoS experiment: which engine family
/// every router node runs, and across how many shards.
///
/// Apply with [`LinearTopology::install_engines`] (or
/// [`DiamondTopology::install_engines`](crate::DiamondTopology::install_engines));
/// attach matching per-hop credentials to flows with
/// [`LinearTopology::add_family_cbr_flow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineScenario {
    /// The engine family under test.
    pub family: EngineFamily,
    /// Shards per router node (`1` = a plain single engine).
    pub shards: usize,
}

impl EngineScenario {
    /// This deployment over one AS's secrets: one bare engine of the
    /// family, or `shards` of them behind a [`ShardedRouter`] with the
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

/// A linear chain of `n` ASes with a destination host behind the last one.
///
/// Interface convention: AS `i` has ingress `2i` (0 at the first AS, where
/// sources inject directly) and egress `2i+1` (0 at the last AS, meaning
/// local delivery to the attached host).
pub struct LinearTopology {
    /// The simulator, pre-wired.
    pub sim: Simulator,
    /// Router node per AS.
    pub as_nodes: Vec<NodeId>,
    /// The destination host node.
    pub dest_host: NodeId,
    /// Link `i` carries AS `i`'s egress toward AS `i+1`.
    pub links: Vec<crate::sim::LinkId>,
    hop_keys: Vec<HopMacKey>,
    svs: Vec<SecretValue>,
    /// Per-AS DRKey masters for the baseline engine families (derived
    /// from the SV bytes so seeded topologies stay mutually rejecting).
    drkey_masters: Vec<[u8; 16]>,
    info_ts: u32,
    beta0: u16,
    next_res_id: u32,
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

impl LinearTopology {
    /// Interface pair of AS `i` in an `n`-AS chain.
    pub fn interfaces(n: usize, i: usize) -> (u16, u16) {
        let ingress = if i == 0 { 0 } else { 2 * i as u16 };
        let egress = if i == n - 1 { 0 } else { 2 * i as u16 + 1 };
        (ingress, egress)
    }

    /// Builds an `n`-AS chain starting at simulated time `start_ns`.
    pub fn build(n: usize, link: LinkSpec, start_ns: u64, cfg: RouterConfig) -> Self {
        Self::build_seeded(n, link, start_ns, cfg, 0)
    }

    /// Like [`LinearTopology::build`] but with distinct AS key material per
    /// `seed` — two topologies with different seeds reject each other's
    /// packets.
    pub fn build_seeded(
        n: usize,
        link: LinkSpec,
        start_ns: u64,
        cfg: RouterConfig,
        seed: u8,
    ) -> Self {
        let hop_keys = (0..n)
            .map(|i| {
                let mut k = [0x21 + i as u8; 16];
                k[15] = seed;
                k
            })
            .collect();
        let sv_keys = (0..n)
            .map(|i| {
                let mut k = [0x51 + i as u8; 16];
                k[15] = seed;
                k
            })
            .collect();
        Self::build_with_keys(n, link, start_ns, cfg, hop_keys, sv_keys)
    }

    /// Builds a chain with explicit AS key material — how the end-to-end
    /// testbed wires the same secrets into both the control-plane
    /// `AsService`s and the simulated border routers. The wiring (and
    /// the DRKey-master derivation) goes through the shared
    /// [`TopologyBuilder`] primitives; only the `2i`/`2i+1` interface
    /// convention is owned here.
    pub fn build_with_keys(
        n: usize,
        link: LinkSpec,
        start_ns: u64,
        cfg: RouterConfig,
        hop_key_bytes: Vec<[u8; 16]>,
        sv_key_bytes: Vec<[u8; 16]>,
    ) -> Self {
        assert!(n >= 1);
        assert_eq!(hop_key_bytes.len(), n);
        assert_eq!(sv_key_bytes.len(), n);
        let hop_keys: Vec<HopMacKey> = hop_key_bytes.iter().copied().map(HopMacKey::new).collect();
        let svs: Vec<SecretValue> = sv_key_bytes.iter().copied().map(SecretValue::new).collect();
        let mut builder = TopologyBuilder::new(start_ns, cfg);
        for i in 0..n {
            builder.add_router_keyed(
                hop_key_bytes[i],
                sv_key_bytes[i],
                IsdAs::new(1, 0x100 + i as u64),
            );
        }
        builder.attach_host(n - 1);
        // Wire AS i's egress to AS i+1.
        let mut links = Vec::with_capacity(n.saturating_sub(1));
        for i in 0..n - 1 {
            let (_, egress) = Self::interfaces(n, i);
            links.push(builder.connect_oneway(i, egress, i + 1, link));
        }
        let parts = builder.into_parts();
        let dest_host = parts.hosts[n - 1].expect("host attached to the last AS");
        LinearTopology {
            sim: parts.sim,
            as_nodes: parts.router_nodes,
            dest_host,
            links,
            hop_keys,
            svs,
            drkey_masters: parts.drkey_masters,
            info_ts: (start_ns / 1_000_000_000) as u32,
            beta0: 0x4242,
            next_res_id: 0,
        }
    }

    /// Number of ASes.
    pub fn n_ases(&self) -> usize {
        self.as_nodes.len()
    }

    /// Hop `i`'s router of `family` sharded across `shards` engines
    /// behind the [`ShardedRouter`] facade — a drop-in for
    /// [`Simulator::replace_engine`] and the router every testbed node
    /// runs, so any scenario can rerun with a multi-core router node and
    /// identical verdicts (the facade steers every flow to the one shard
    /// that holds its state).
    pub fn make_sharded_hop_engine(
        &self,
        family: EngineFamily,
        hop: usize,
        cfg: RouterConfig,
        shards: usize,
    ) -> ShardedRouter {
        family.sharded_engine(
            shards,
            &self.svs[hop],
            &self.hop_keys[hop],
            &self.drkey_masters[hop],
            cfg,
        )
    }

    /// A fresh, stand-alone engine of `family` with hop `i`'s secrets —
    /// for probing packets outside the simulator (the in-simulator
    /// engines live in the router nodes).
    pub fn make_family_hop_engine(
        &self,
        family: EngineFamily,
        hop: usize,
        cfg: RouterConfig,
    ) -> Box<dyn Datapath + Send> {
        family.engine(&self.svs[hop], &self.hop_keys[hop], &self.drkey_masters[hop], cfg)
    }

    /// Swaps every router node's engine for `scenario`'s family, sharded
    /// across `scenario.shards` engines when more than one — the knob
    /// that reruns a whole QoS/DoS experiment per engine family on
    /// unchanged topology, flows and adversaries.
    pub fn install_engines(&mut self, scenario: EngineScenario, cfg: RouterConfig) {
        for hop in 0..self.n_ases() {
            let engine =
                scenario.deploy(&self.svs[hop], &self.hop_keys[hop], &self.drkey_masters[hop], cfg);
            self.sim.replace_engine(self.as_nodes[hop], engine).ok().expect("AS nodes are routers");
        }
    }

    /// Installs `model` on every router node (or clears the service
    /// models with `None`) — the per-node knob is
    /// [`Simulator::set_router_service`].
    pub fn set_service_model(&mut self, model: Option<ServiceModel>) {
        for &node in &self.as_nodes {
            self.sim.set_router_service(node, model);
        }
    }

    /// Builds a fresh source generator over the chain's beaconed path.
    pub fn make_generator(&self, src: IsdAs, dst: IsdAs) -> SourceGenerator {
        let n = self.n_ases();
        let hops: Vec<BeaconHop> = (0..n)
            .map(|i| {
                let (ingress, egress) = Self::interfaces(n, i);
                BeaconHop {
                    key: self.hop_keys[i].clone(),
                    cons_ingress: ingress,
                    cons_egress: egress,
                }
            })
            .collect();
        SourceGenerator::new(src, dst, forge_path(&hops, self.info_ts, self.beta0))
    }

    /// Creates a reservation for hop `i` at `bw_kbps`, valid over
    /// `[res_start, res_start + duration_s)`, with a fresh ResID.
    pub fn make_reservation(
        &mut self,
        hop: usize,
        bw_kbps: u64,
        res_start: u32,
        duration_s: u16,
    ) -> SourceReservation {
        let n = self.n_ases();
        let (ingress, egress) = Self::interfaces(n, hop);
        let res_id = self.next_res_id;
        self.next_res_id += 1;
        let res_info = ResInfo {
            ingress,
            egress,
            res_id,
            bw_encoded: bwcls::encode_ceil(bw_kbps).expect("encodable bandwidth"),
            res_start,
            duration: duration_s,
        };
        let key = self.svs[hop].derive_key(&res_info);
        SourceReservation { res_info, key }
    }

    /// Adds a CBR flow over the full chain. `reserved_kbps` of `Some(r)`
    /// attaches reservations of rate `r` on *every* hop; `None` sends best
    /// effort. (The Hummingbird special case of
    /// [`add_family_cbr_flow`](LinearTopology::add_family_cbr_flow).)
    #[allow(clippy::too_many_arguments)]
    pub fn add_cbr_flow(
        &mut self,
        src: IsdAs,
        dst: IsdAs,
        payload_len: usize,
        rate_kbps: u64,
        reserved_kbps: Option<u64>,
        start_ns: u64,
        stop_ns: u64,
    ) -> FlowId {
        self.add_family_cbr_flow(
            EngineFamily::Hummingbird,
            src,
            dst,
            payload_len,
            rate_kbps,
            reserved_kbps,
            start_ns,
            stop_ns,
        )
    }

    /// The [`EngineFamily::credential`] a `family` sender `src` attaches
    /// for hop `hop`, keyed under that hop's secrets exactly as its
    /// [`make_family_hop_engine`](LinearTopology::make_family_hop_engine)
    /// engine re-derives it; reservation-keyed families draw a fresh
    /// ResID from this topology's counter.
    pub fn make_family_credential(
        &mut self,
        family: EngineFamily,
        hop: usize,
        src: IsdAs,
        bw_kbps: u64,
        now_s: u64,
    ) -> SourceReservation {
        let n = self.n_ases();
        let (ingress, egress) = Self::interfaces(n, hop);
        family.credential(
            &self.svs[hop],
            &self.drkey_masters[hop],
            ingress,
            egress,
            &mut self.next_res_id,
            src,
            bw_kbps,
            now_s,
        )
    }

    /// [`add_cbr_flow`](LinearTopology::add_cbr_flow) generalized over
    /// the engine family: `credential_kbps` of `Some(r)` attaches the
    /// family's per-hop credential on *every* hop (reservation keys,
    /// Helia grants, or DRKey/EPIC source keys); `None` sends plain
    /// best-effort SCION. Pair with
    /// [`install_engines`](LinearTopology::install_engines) so routers
    /// and senders agree on the key hierarchy.
    #[allow(clippy::too_many_arguments)]
    pub fn add_family_cbr_flow(
        &mut self,
        family: EngineFamily,
        src: IsdAs,
        dst: IsdAs,
        payload_len: usize,
        rate_kbps: u64,
        credential_kbps: Option<u64>,
        start_ns: u64,
        stop_ns: u64,
    ) -> FlowId {
        let hops: Vec<usize> = (0..self.n_ases()).collect();
        self.add_family_cbr_flow_on_hops(
            family,
            src,
            dst,
            payload_len,
            rate_kbps,
            credential_kbps,
            &hops,
            start_ns,
            stop_ns,
        )
    }

    /// [`add_family_cbr_flow`](LinearTopology::add_family_cbr_flow) with
    /// the credential attached only on `credential_hops` — the partial-
    /// path shape (§3.3 ❸): reserve (or authenticate) exactly the
    /// congested hop and ride best effort elsewhere.
    #[allow(clippy::too_many_arguments)]
    pub fn add_family_cbr_flow_on_hops(
        &mut self,
        family: EngineFamily,
        src: IsdAs,
        dst: IsdAs,
        payload_len: usize,
        rate_kbps: u64,
        credential_kbps: Option<u64>,
        credential_hops: &[usize],
        start_ns: u64,
        stop_ns: u64,
    ) -> FlowId {
        let mut generator = self.make_generator(src, dst);
        if let Some(r) = credential_kbps {
            let now_s = start_ns / 1_000_000_000;
            for &hop in credential_hops {
                let credential = self.make_family_credential(family, hop, src, r, now_s);
                generator.attach_reservation(hop, credential).expect("matching interfaces");
            }
        }
        let interval_ns = (payload_len as u64 * 8).saturating_mul(1_000_000) / rate_kbps.max(1);
        let entry = self.as_nodes[0];
        self.sim.add_flow(Flow { generator, entry, payload_len, interval_ns, start_ns, stop_ns })
    }

    /// The closed-loop counterpart of
    /// [`add_family_cbr_flow`](LinearTopology::add_family_cbr_flow): a
    /// windowed, ack-clocked [`ReactiveFlow`] pacing new packets at
    /// `rate_kbps` until `total_pkts` distinct sequence numbers are
    /// acked or abandoned. `credential_kbps` attaches the family's
    /// per-hop credential on every hop exactly as the CBR variant does.
    #[allow(clippy::too_many_arguments)]
    pub fn add_family_reactive_flow(
        &mut self,
        family: EngineFamily,
        src: IsdAs,
        dst: IsdAs,
        payload_len: usize,
        rate_kbps: u64,
        credential_kbps: Option<u64>,
        total_pkts: u64,
        profile: ReactiveProfile,
        start_ns: u64,
    ) -> FlowId {
        let mut generator = self.make_generator(src, dst);
        if let Some(r) = credential_kbps {
            let now_s = start_ns / 1_000_000_000;
            for hop in 0..self.n_ases() {
                let credential = self.make_family_credential(family, hop, src, r, now_s);
                generator.attach_reservation(hop, credential).expect("matching interfaces");
            }
        }
        let pacing_ns = (payload_len as u64 * 8).saturating_mul(1_000_000) / rate_kbps.max(1);
        let entry = self.as_nodes[0];
        self.sim.add_reactive_flow(ReactiveFlow {
            generator,
            entry,
            payload_len,
            total_pkts,
            window: profile.window.max(1),
            pacing_ns,
            ack_delay_ns: profile.ack_delay_ns,
            rto_ns: profile.rto_ns,
            rto_max_ns: profile.rto_max_ns,
            max_retransmits: profile.max_retransmits,
            start_ns,
        })
    }
}

/// Retransmission and window knobs of a closed-loop sender, shared by
/// the overload runners (the rate-derived knobs — pacing interval and
/// total packet count — are computed from the offered load).
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

/// The fixed cast of the ready-made experiment runners.
const VICTIM_SRC: (u16, u64) = (1, 0xa);
const DEST: (u16, u64) = (2, 0xb);
const ATTACKER_SRC: (u16, u64) = (3, 0xc);

fn victim_src() -> IsdAs {
    IsdAs::new(VICTIM_SRC.0, VICTIM_SRC.1)
}
fn dest() -> IsdAs {
    IsdAs::new(DEST.0, DEST.1)
}
fn attacker_src() -> IsdAs {
    IsdAs::new(ATTACKER_SRC.0, ATTACKER_SRC.1)
}

/// Knobs of a Fig. 3/4-style end-to-end latency run: one credentialed
/// victim CBR flow over an `n_ases` chain, optionally against a
/// best-effort flood, with every router running `scenario`'s engine
/// family under the worker-ring service model.
#[derive(Clone, Copy, Debug)]
pub struct LatencySpec {
    /// Engine family + shard deployment every router node runs.
    pub scenario: EngineScenario,
    /// Chain length (ASes).
    pub n_ases: usize,
    /// Link parameters (the bottleneck axis).
    pub link: LinkSpec,
    /// Victim CBR rate, kbps.
    pub victim_kbps: u64,
    /// Credential (reservation/grant) rate attached on every hop, kbps.
    pub credential_kbps: u64,
    /// Victim payload bytes per packet.
    pub payload_len: usize,
    /// Best-effort flood rate, kbps (`0` = uncontended).
    pub flood_kbps: u64,
    /// Per-router, per-core datapath service time, ns (`0` =
    /// instantaneous forwarding). The deployed core count is
    /// `scenario.shards`, so a 4-shard deployment drains its ingress 4
    /// packets at a time — the latency face of the worker-ring runtime.
    pub service_per_pkt_ns: u64,
    /// Run length, seconds.
    pub run_s: u64,
}

impl LatencySpec {
    /// The default Fig. 3/4 shape: a 3-AS chain of 10 Mbps bottleneck
    /// links, a 2 Mbps victim with 3 Mbps credentials, no flood, and the
    /// paper's ~300 ns/pkt single-core router budget.
    pub fn new(scenario: EngineScenario) -> Self {
        LatencySpec {
            scenario,
            n_ases: 3,
            link: LinkSpec::default(),
            victim_kbps: 2_000,
            credential_kbps: 3_000,
            payload_len: 1_000,
            flood_kbps: 0,
            service_per_pkt_ns: 300,
            run_s: 2,
        }
    }

    /// The same spec with a `flood_kbps` best-effort flood.
    pub fn with_flood(mut self, flood_kbps: u64) -> Self {
        self.flood_kbps = flood_kbps;
        self
    }
}

/// What a [`run_latency_scenario`] measured.
#[derive(Clone, Debug)]
pub struct LatencyOutcome {
    /// The credentialed victim flow.
    pub victim: FlowStats,
    /// The best-effort flood, when one ran.
    pub flood: Option<FlowStats>,
    /// Engine counters of the entry router (authentication sanity: the
    /// victim must never lose packets to MAC verification).
    pub entry_stats: DatapathStats,
}

/// Runs the Fig. 3/4-style latency experiment for one `spec`: build the
/// chain, install the family engines (sharded per the scenario) and the
/// service model, run victim + optional flood, and report per-flow
/// latency/delivery. The contrast the sweep surfaces: under flood, the
/// reservation families hold the victim's latency at the uncontended
/// level while the authentication-only families leave it queueing behind
/// the flood in the best-effort class.
pub fn run_latency_scenario(
    cfg: RouterConfig,
    spec: &LatencySpec,
    start_ns: u64,
) -> LatencyOutcome {
    let mut topo = LinearTopology::build(spec.n_ases, spec.link, start_ns, cfg);
    topo.install_engines(spec.scenario, cfg);
    if spec.service_per_pkt_ns > 0 {
        topo.set_service_model(Some(ServiceModel::new(
            spec.service_per_pkt_ns,
            spec.scenario.shards,
        )));
    }
    let sec = 1_000_000_000u64;
    let stop_ns = start_ns + spec.run_s * sec;
    let victim = topo.add_family_cbr_flow(
        spec.scenario.family,
        victim_src(),
        dest(),
        spec.payload_len,
        spec.victim_kbps,
        Some(spec.credential_kbps),
        start_ns,
        stop_ns,
    );
    let flood = (spec.flood_kbps > 0).then(|| {
        topo.add_family_cbr_flow(
            spec.scenario.family,
            attacker_src(),
            dest(),
            spec.payload_len,
            spec.flood_kbps,
            None,
            start_ns,
            stop_ns,
        )
    });
    topo.sim.run_until(stop_ns + sec);
    LatencyOutcome {
        victim: topo.sim.stats(victim),
        flood: flood.map(|f| topo.sim.stats(f)),
        entry_stats: topo.sim.router_stats(topo.as_nodes[0]).expect("entry is a router"),
    }
}

/// What a [`run_partial_path_scenario`] measured.
#[derive(Clone, Debug)]
pub struct PartialPathOutcome {
    /// The victim, credentialed on the middle hop only.
    pub victim: FlowStats,
    /// Engine counters per hop: `flyover` shows exactly where priority
    /// rode (the middle hop for the reservation families, nowhere for
    /// the authentication-only ones).
    pub per_hop: Vec<DatapathStats>,
}

/// The partial-path variant (§3.3 ❸) of the family sweep: a 3-AS chain
/// whose *middle* hop's egress link is narrowed to the 10 Mbps
/// bottleneck (the other links have 10× headroom), a flood across the
/// whole path, and a victim holding a credential only at that middle
/// hop. Reservation families protect the victim with that single hop's
/// priority; authentication-only families validate it there and still
/// lose it to the flooded queue.
pub fn run_partial_path_scenario(
    cfg: RouterConfig,
    scenario: EngineScenario,
    service_per_pkt_ns: u64,
    start_ns: u64,
) -> PartialPathOutcome {
    let sec = 1_000_000_000u64;
    let run_s = 2u64;
    // Uniform 100 Mbps links, then narrow the middle hop's egress to the
    // 10 Mbps bottleneck: the only contested queue is the one the victim
    // holds a credential for.
    let fat = LinkSpec { bandwidth_bps: 100_000_000, ..Default::default() };
    let mut topo = LinearTopology::build(3, fat, start_ns, cfg);
    topo.sim.set_link_bandwidth(topo.links[1], 10_000_000);
    topo.install_engines(scenario, cfg);
    if service_per_pkt_ns > 0 {
        topo.set_service_model(Some(ServiceModel::new(service_per_pkt_ns, scenario.shards)));
    }
    let stop_ns = start_ns + run_s * sec;
    // Credential on hop 1 (the middle AS) only.
    let victim = topo.add_family_cbr_flow_on_hops(
        scenario.family,
        victim_src(),
        dest(),
        1_000,
        2_000,
        Some(3_000),
        &[1],
        start_ns,
        stop_ns,
    );
    // The flood reaches hop 1's egress queue too: 2× the bottleneck.
    let _flood = topo.add_family_cbr_flow(
        scenario.family,
        attacker_src(),
        dest(),
        1_000,
        20_000,
        None,
        start_ns,
        stop_ns,
    );
    topo.sim.run_until(stop_ns + sec);
    let per_hop =
        topo.as_nodes.iter().map(|&n| topo.sim.router_stats(n).expect("router")).collect();
    PartialPathOutcome { victim: topo.sim.stats(victim), per_hop }
}

/// What a [`run_multipath_scenario`] measured.
#[derive(Clone, Debug)]
pub struct MultipathOutcome {
    /// The victim flow over the clean branch P.
    pub p: FlowStats,
    /// The victim flow over the flooded branch Q.
    pub q: FlowStats,
}

/// The multipath variant of the family sweep, on the Fig. 3 diamond: the
/// victim splits its traffic across branches P and Q, the flood rides Q
/// only. Path choice isolates P for every family; on Q the usual D2
/// split applies — reservation families keep the flow whole, the
/// authentication-only families lose it to the flooded best-effort
/// queue.
pub fn run_multipath_scenario(
    cfg: RouterConfig,
    scenario: EngineScenario,
    start_ns: u64,
) -> MultipathOutcome {
    let sec = 1_000_000_000u64;
    let run_s = 2u64;
    let mut topo = crate::DiamondTopology::build(LinkSpec::default(), start_ns, cfg);
    topo.install_engines(scenario, cfg);
    let stop_ns = start_ns + run_s * sec;
    let p = topo.add_family_flow(
        scenario.family,
        crate::Branch::P,
        victim_src(),
        dest(),
        1_000,
        2_000,
        Some(3_000),
        start_ns,
        stop_ns,
    );
    let q = topo.add_family_flow(
        scenario.family,
        crate::Branch::Q,
        victim_src(),
        dest(),
        1_000,
        2_000,
        Some(3_000),
        start_ns,
        stop_ns,
    );
    let _flood = topo.add_family_flow(
        scenario.family,
        crate::Branch::Q,
        attacker_src(),
        dest(),
        1_000,
        30_000,
        None,
        start_ns,
        stop_ns,
    );
    topo.sim.run_until(stop_ns + sec);
    MultipathOutcome { p: topo.sim.stats(p), q: topo.sim.stats(q) }
}

/// Knobs of a churn run: the QoS/DoS experiment (credentialed victim vs
/// best-effort flood) moved onto a generated ring-of-PoPs backbone with
/// a seeded background-flow mesh, plus mid-epoch fault injection — ≥ 1
/// link failures on the victim's path at one third of the run, a
/// reroute pass after `reroute_delay_ns`, and optionally a cold reboot
/// of a transit router on the failover path.
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
    /// How many PoPs the victim's path spans (dst = PoP `span_pops`).
    pub span_pops: usize,
    /// Victim CBR rate, kbps.
    pub victim_kbps: u64,
    /// Credential (reservation/grant) rate on every victim hop, kbps.
    pub credential_kbps: u64,
    /// Payload bytes per victim/flood packet.
    pub payload_len: usize,
    /// Best-effort flood rate on the victim's route, kbps (`0` = none).
    pub flood_kbps: u64,
    /// Seeded random background flows across the whole backbone.
    pub background_flows: usize,
    /// Rate of each background flow, kbps.
    pub background_kbps: u64,
    /// Credential rate attached to each background flow (`None` = best
    /// effort) — `Some` puts thousands of live reservations on the
    /// backbone at bench scale.
    pub background_credential_kbps: Option<u64>,
    /// Link failures to inject at `run_s / 3` (victim-path adjacencies
    /// first, padded with further ring links if the path is shorter).
    pub failures: usize,
    /// Delay from failure to the reroute pass, ns.
    pub reroute_delay_ns: u64,
    /// Also cold-reboot a transit router on the victim's failover path.
    pub reboot_on_path: bool,
    /// Per-router, per-core datapath service time, ns (`0` = off).
    pub service_per_pkt_ns: u64,
    /// Run length, seconds.
    pub run_s: u64,
}

impl ChurnSpec {
    /// The default acceptance shape: a 26-PoP × 4-router backbone (104
    /// routers), a victim spanning 2 PoPs (with `routers_per_pop ≥ 2`
    /// that ring path is *strictly* hop-count shortest — chords attach
    /// to each PoP's last router, so any chord detour costs ≥ 3 hops —
    /// making base and failover paths seed-independent), 3 link
    /// failures with a 50 ms reroute delay plus an on-path reboot, and
    /// a 64-flow background mesh. Add the flood with
    /// [`with_flood`](ChurnSpec::with_flood).
    pub fn new(scenario: EngineScenario) -> Self {
        ChurnSpec {
            scenario,
            pops: 26,
            routers_per_pop: 4,
            seed: 0xC0FFEE,
            span_pops: 2,
            victim_kbps: 2_000,
            credential_kbps: 3_000,
            payload_len: 1_000,
            flood_kbps: 0,
            background_flows: 64,
            background_kbps: 64,
            background_credential_kbps: None,
            failures: 3,
            reroute_delay_ns: 50_000_000,
            reboot_on_path: true,
            service_per_pkt_ns: 300,
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
    /// Victim counters over the clean window `[start, failure)`.
    pub victim_base: FlowStats,
    /// Victim delta over the outage window `[failure, reroute)` —
    /// where `link_down_drops` shows the stranded reservation.
    pub victim_outage: FlowStats,
    /// Victim delta over the recovery window `[reroute, end]` — what
    /// the acceptance criteria (latency < 2× base, delivery > 0.9)
    /// are asserted on.
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

/// Runs the QoS/DoS experiment unchanged on a generated 100+-router
/// backbone with mid-epoch fault injection: build the ring-of-PoPs
/// topology, install the family engines and service model, start the
/// victim, the optional flood and the background mesh, then at one
/// third of the run
/// take down the victim's path (≥ `spec.failures` link failures), let
/// packets die at the dead links for `reroute_delay_ns` (reservation
/// stranding, counted per flow), reroute every affected flow onto a
/// surviving path with fresh credentials, optionally cold-reboot a
/// transit router on the failover path, and run to the end.
///
/// The D2 contrast survives churn: after the reroute, reservation
/// families restore the victim's latency and delivery at the clean
/// level, while authentication-only families leave it queueing behind
/// the (also rerouted) flood.
pub fn run_churn_scenario(
    cfg: RouterConfig,
    spec: &ChurnSpec,
    start_ns: u64,
) -> ChurnScenarioOutcome {
    let sec = 1_000_000_000u64;
    let backbone = BackboneSpec::new(spec.pops, spec.routers_per_pop, spec.seed);
    let mut topo = TopologyBuilder::ring_of_pops(&backbone, start_ns, cfg);
    topo.install_engines(spec.scenario, cfg);
    if spec.service_per_pkt_ns > 0 {
        topo.set_service_model(Some(ServiceModel::new(
            spec.service_per_pkt_ns,
            spec.scenario.shards,
        )));
    }
    let stop_ns = start_ns + spec.run_s * sec;
    let rpp = spec.routers_per_pop;
    let src_router = 0; // PoP 0, router 0
    let span = spec.span_pops.clamp(1, spec.pops - 1);
    let dst_router = span * rpp; // PoP `span`, router 0
    let victim = topo.add_family_flow(
        spec.scenario.family,
        src_router,
        dst_router,
        spec.payload_len,
        spec.victim_kbps,
        Some(spec.credential_kbps),
        start_ns,
        stop_ns,
    );
    let flood = (spec.flood_kbps > 0).then(|| {
        topo.add_family_flow(
            spec.scenario.family,
            src_router,
            dst_router,
            spec.payload_len,
            spec.flood_kbps,
            None,
            start_ns,
            stop_ns,
        )
    });
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9E37_79B9_7F4A_7C15);
    let n = topo.n_routers();
    let background: Vec<FlowId> = (0..spec.background_flows)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            if b == a {
                b = (a + 1) % n;
            }
            topo.add_family_flow(
                spec.scenario.family,
                a,
                b,
                500,
                spec.background_kbps,
                spec.background_credential_kbps,
                start_ns,
                stop_ns,
            )
        })
        .collect();

    // The failure set: the victim's own path adjacencies first, padded
    // with further lane-0 ring links when the path is shorter than the
    // requested failure count.
    let path: Vec<usize> = topo.route_of(victim).expect("victim routed").to_vec();
    let mut fail_adjs: Vec<AdjId> = path
        .windows(2)
        .filter_map(|w| topo.adjacency_between(w[0], w[1]))
        .take(spec.failures)
        .collect();
    let mut lane = 0;
    while fail_adjs.len() < spec.failures && lane + 1 < spec.pops {
        if let Some(adj) = topo.adjacency_between(lane * rpp, (lane + 1) * rpp) {
            if !fail_adjs.contains(&adj) {
                fail_adjs.push(adj);
            }
        }
        lane += 1;
    }

    // Phase 1: clean run to the failure instant.
    let t_fail = start_ns + spec.run_s * sec / 3;
    let t_reroute = t_fail + spec.reroute_delay_ns;
    topo.sim.run_until(t_fail);
    let victim_base = topo.sim.stats(victim);
    let mut report = ChurnReport::default();
    for &adj in &fail_adjs {
        report.records.push(apply_action(&mut topo, ChurnAction::LinkDown(adj)));
    }

    // Phase 2: the outage — flows keep sending into the dead links.
    topo.sim.run_until(t_reroute);
    let victim_at_reroute = topo.sim.stats(victim);
    report.records.push(apply_action(&mut topo, ChurnAction::RerouteAffected));
    if spec.reboot_on_path {
        let new_path = topo.route_of(victim).expect("victim routed");
        if new_path.len() > 2 {
            let mid = new_path[new_path.len() / 2];
            if mid != src_router {
                report.records.push(apply_action(&mut topo, ChurnAction::RouterReboot(mid)));
            }
        }
    }

    // Phase 3: recovery, plus a drain second for in-flight packets.
    topo.sim.run_until(stop_ns + sec);
    let victim_total = topo.sim.stats(victim);
    let (background_sent, background_delivered) = background
        .iter()
        .map(|&f| topo.sim.stats(f))
        .fold((0, 0), |(s, d), st| (s + st.sent_pkts, d + st.delivered_pkts));
    ChurnScenarioOutcome {
        victim_base,
        victim_outage: victim_at_reroute.since(&victim_base),
        victim_recovery: victim_total.since(&victim_at_reroute),
        victim_total,
        flood_total: flood.map(|f| topo.sim.stats(f)),
        background_sent,
        background_delivered,
        report,
        routers: topo.n_routers(),
        adjacencies: topo.n_adjacencies(),
        entry_stats: topo.sim.router_stats(topo.router_node(src_router)).expect("entry router"),
        events: topo.sim.events_processed(),
    }
}

/// Knobs of an overload sweep: a closed-loop reserved sender and a
/// closed-loop best-effort sender over the linear chain, with the
/// best-effort offered load swept through and past the bottleneck
/// link's saturation point while every queue — link, router service —
/// is bounded. The sweep is the graceful-degradation experiment: with
/// bounded queues, overload must show up as loss, retransmission and
/// pushback (all named counters), never as unbounded delay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverloadSpec {
    /// Engine family + shard deployment every router node runs.
    pub scenario: EngineScenario,
    /// Chain length (ASes).
    pub n_ases: usize,
    /// Link parameters (the saturation axis: default 10 Mbps).
    pub link: LinkSpec,
    /// Reserved (credentialed) flow rate, kbps.
    pub reserved_kbps: u64,
    /// Credential (reservation/grant) rate on every hop, kbps.
    pub credential_kbps: u64,
    /// Payload bytes per packet (both flows).
    pub payload_len: usize,
    /// Best-effort offered loads to sweep, kbps. The default steps run
    /// from half the bottleneck's leftover capacity to 2.5× the link.
    pub offered_kbps: Vec<u64>,
    /// Window/RTO knobs of both closed-loop senders.
    pub profile: ReactiveProfile,
    /// Bound on packets held per router ([`ServiceModel::queue_pkts`]).
    pub router_queue_pkts: usize,
    /// Per-router, per-core datapath service time, ns (`0` = off).
    pub service_per_pkt_ns: u64,
    /// Nominal sending window, seconds — sizes each flow's total packet
    /// budget; each point then runs until every flow terminates.
    pub run_s: u64,
    /// Per-flow cap on total packets (`0` = uncapped) — the CI smoke
    /// knob (`overload_sweep --pkts`).
    pub max_pkts_per_flow: u64,
}

impl OverloadSpec {
    /// The default acceptance shape: a 3-AS chain of 10 Mbps links, a
    /// 2 Mbps reserved flow with 3 Mbps credentials, and best-effort
    /// load swept 4 → 20 Mbps (the ~8 Mbps leftover capacity sits
    /// between the second and third steps; 16 Mbps is 2× it).
    pub fn new(scenario: EngineScenario) -> Self {
        OverloadSpec {
            scenario,
            n_ases: 3,
            // Default links, but with a 16-packet (16 KiB) per-class
            // queue: shallower than the senders' windows, so overload
            // actually drops (and the loop retransmits) instead of the
            // window fitting inside the queue and stalling politely.
            link: LinkSpec { queue_cap_bytes: 16 * 1024, ..LinkSpec::default() },
            reserved_kbps: 2_000,
            credential_kbps: 3_000,
            payload_len: 1_000,
            offered_kbps: vec![4_000, 8_000, 16_000, 20_000],
            profile: ReactiveProfile::default(),
            router_queue_pkts: 128,
            service_per_pkt_ns: 300,
            run_s: 1,
            max_pkts_per_flow: 0,
        }
    }
}

/// One swept load point of [`run_overload_scenario`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadPoint {
    /// Best-effort offered load at this point, kbps.
    pub offered_kbps: u64,
    /// The reserved (credentialed) closed-loop flow's counters.
    pub reserved: FlowStats,
    /// The best-effort closed-loop flow's counters.
    pub best_effort: FlowStats,
    /// Whether the reserved flow terminated (every sequence number
    /// acked or abandoned) — `false` flags a livelock.
    pub reserved_done: bool,
    /// Whether the best-effort flow terminated.
    pub best_effort_done: bool,
    /// Simulated time from start to the reserved flow's `Completed`
    /// event, ns (the run horizon if it never completed) — the
    /// denominator for goodput-over-completion-time. Past saturation a
    /// closed-loop flow delivers everything *eventually*; collapse
    /// shows up as completion time, not delivery ratio.
    pub reserved_elapsed_ns: u64,
    /// Same, for the best-effort flow.
    pub best_effort_elapsed_ns: u64,
    /// Simulator events processed for this point.
    pub events: u64,
}

impl OverloadPoint {
    /// Goodput over the flow's own completion time, kbps.
    pub fn reserved_goodput_kbps(&self) -> f64 {
        goodput_over(self.reserved.delivered_bytes, self.reserved_elapsed_ns)
    }

    /// Goodput over the flow's own completion time, kbps.
    pub fn best_effort_goodput_kbps(&self) -> f64 {
        goodput_over(self.best_effort.delivered_bytes, self.best_effort_elapsed_ns)
    }
}

/// `bytes` delivered over `elapsed_ns`, in kbps (`0.0` on an empty window).
fn goodput_over(bytes: u64, elapsed_ns: u64) -> f64 {
    if elapsed_ns == 0 {
        return 0.0;
    }
    (bytes as f64 * 8.0) / (elapsed_ns as f64 / 1_000_000.0)
}

/// What a [`run_overload_scenario`] measured: one [`OverloadPoint`] per
/// swept offered load, in sweep order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverloadOutcome {
    /// The swept points.
    pub points: Vec<OverloadPoint>,
}

/// The per-flow total-packet budget for `kbps` offered over `run_s`
/// seconds of `payload_len`-byte packets, capped at `max_pkts` when
/// nonzero (the CI smoke knob).
fn flow_budget(kbps: u64, payload_len: usize, run_s: u64, max_pkts: u64) -> u64 {
    let pkts =
        (kbps.saturating_mul(run_s).saturating_mul(125) / (payload_len as u64).max(1)).max(1);
    if max_pkts > 0 {
        pkts.min(max_pkts)
    } else {
        pkts
    }
}

/// Runs the overload sweep for one `spec`: per offered-load step, a
/// fresh chain with the family engines installed, a *bounded* service
/// model on every router, a credentialed closed-loop flow at the
/// reserved rate and a best-effort closed-loop flow at the step's
/// offered rate. Each point runs until both flows terminate (the
/// retransmit budget guarantees termination; a generous simulated-time
/// cap turns a livelock bug into visible `*_done: false` flags instead
/// of a hung test) plus one drain second so in-flight copies land or
/// die before the conservation counters are read.
///
/// The contrast the sweep pins: past saturation the reservation
/// families hold the reserved flow's goodput and p99 latency at the
/// uncontended level while the best-effort flow degrades gracefully —
/// bounded queues keep its tail latency bounded, and every lost packet
/// is attributed to a named drop counter.
pub fn run_overload_scenario(
    cfg: RouterConfig,
    spec: &OverloadSpec,
    start_ns: u64,
) -> OverloadOutcome {
    let sec = 1_000_000_000u64;
    let mut points = Vec::with_capacity(spec.offered_kbps.len());
    for &offered in &spec.offered_kbps {
        let mut topo = LinearTopology::build(spec.n_ases, spec.link, start_ns, cfg);
        topo.install_engines(spec.scenario, cfg);
        if spec.service_per_pkt_ns > 0 {
            let mut model = ServiceModel::new(spec.service_per_pkt_ns, spec.scenario.shards);
            model.queue_pkts = spec.router_queue_pkts;
            topo.set_service_model(Some(model));
        }
        let reserved = topo.add_family_reactive_flow(
            spec.scenario.family,
            victim_src(),
            dest(),
            spec.payload_len,
            spec.reserved_kbps,
            Some(spec.credential_kbps),
            flow_budget(spec.reserved_kbps, spec.payload_len, spec.run_s, spec.max_pkts_per_flow),
            spec.profile,
            start_ns,
        );
        let best_effort = topo.add_family_reactive_flow(
            spec.scenario.family,
            attacker_src(),
            dest(),
            spec.payload_len,
            offered,
            None,
            flow_budget(offered, spec.payload_len, spec.run_s, spec.max_pkts_per_flow),
            spec.profile,
            start_ns,
        );
        let mut horizon = start_ns + (spec.run_s + 1) * sec;
        let cap = start_ns + (spec.run_s + 120) * sec;
        topo.sim.run_until(horizon);
        while (!topo.sim.reactive_done(reserved) || !topo.sim.reactive_done(best_effort))
            && horizon < cap
        {
            horizon += sec;
            topo.sim.run_until(horizon);
        }
        topo.sim.run_until(horizon + sec);
        let completion = |flow| {
            topo.sim
                .flow_events(flow)
                .iter()
                .rev()
                .find(|e| e.kind == FlowEventKind::Completed)
                .map_or(horizon + sec - start_ns, |e| e.at_ns - start_ns)
        };
        points.push(OverloadPoint {
            offered_kbps: offered,
            reserved: topo.sim.stats(reserved),
            best_effort: topo.sim.stats(best_effort),
            reserved_done: topo.sim.reactive_done(reserved),
            best_effort_done: topo.sim.reactive_done(best_effort),
            reserved_elapsed_ns: completion(reserved),
            best_effort_elapsed_ns: completion(best_effort),
            events: topo.sim.events_processed(),
        });
    }
    OverloadOutcome { points }
}

/// Knobs of the churn+overload combination: both closed-loop flows on a
/// generated ring-of-PoPs backbone, the best-effort load past the
/// long-haul saturation point, a link failure on the reserved flow's
/// path at one third of the run, and a configurable *convergence delay*
/// before the reroute pass (the BGP-style window in which loss is the
/// only signal and retransmission timers are what keep state alive).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadChurnSpec {
    /// Engine family + shard deployment every router node runs.
    pub scenario: EngineScenario,
    /// PoPs on the backbone ring (≥ 3).
    pub pops: usize,
    /// Routers per PoP (≥ 2 for failover paths to exist).
    pub routers_per_pop: usize,
    /// Seed for topology and key material.
    pub seed: u64,
    /// How many PoPs the flows' shared path spans.
    pub span_pops: usize,
    /// Reserved (credentialed) flow rate, kbps.
    pub reserved_kbps: u64,
    /// Credential rate on every hop, kbps.
    pub credential_kbps: u64,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Best-effort offered load, kbps (past the long-haul saturation).
    pub best_effort_kbps: u64,
    /// Window/RTO knobs of both closed-loop senders.
    pub profile: ReactiveProfile,
    /// Link failures injected on the reserved flow's path at `run_s/3`.
    pub failures: usize,
    /// Delay from the failure to the reroute pass, ns — the
    /// convergence window.
    pub convergence_delay_ns: u64,
    /// Bound on packets held per router ([`ServiceModel::queue_pkts`]).
    pub router_queue_pkts: usize,
    /// Per-router, per-core datapath service time, ns (`0` = off).
    pub service_per_pkt_ns: u64,
    /// Nominal sending window, seconds (sizes the packet budgets).
    pub run_s: u64,
    /// Per-flow cap on total packets (`0` = uncapped).
    pub max_pkts_per_flow: u64,
}

impl OverloadChurnSpec {
    /// The default acceptance shape: an 8-PoP × 2-router ring, a 2 Mbps
    /// reserved flow against 16 Mbps of best effort (1.6× the 10 Mbps
    /// long-haul links), one on-path link failure with a 50 ms
    /// convergence delay before the reroute pass.
    pub fn new(scenario: EngineScenario) -> Self {
        OverloadChurnSpec {
            scenario,
            pops: 8,
            routers_per_pop: 2,
            seed: 0x0BAD_CA5E,
            span_pops: 2,
            reserved_kbps: 2_000,
            credential_kbps: 3_000,
            payload_len: 1_000,
            best_effort_kbps: 16_000,
            profile: ReactiveProfile::default(),
            failures: 1,
            convergence_delay_ns: 50_000_000,
            router_queue_pkts: 128,
            service_per_pkt_ns: 300,
            run_s: 3,
            max_pkts_per_flow: 0,
        }
    }
}

/// What a [`run_overload_churn_scenario`] measured. `PartialEq` so two
/// same-seed runs can be asserted bit-identical wholesale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverloadChurnOutcome {
    /// Reserved-flow counters over the clean window `[start, failure)`.
    pub reserved_base: FlowStats,
    /// Reserved-flow delta over the convergence window
    /// `[failure, reroute)` — where `link_down_drops` shows sends and
    /// retransmissions dying on the dead path.
    pub reserved_outage: FlowStats,
    /// Reserved-flow delta over `[reroute, end]` — the window the
    /// ≥ 0.9-delivery recovery acceptance is asserted on. Retransmitted
    /// copies of packets lost during the outage regenerate through the
    /// rerouted generator and deliver here: retransmit-driven recovery.
    pub reserved_recovery: FlowStats,
    /// Reserved-flow counters over the whole run.
    pub reserved_total: FlowStats,
    /// Best-effort flow counters over the whole run.
    pub best_effort_total: FlowStats,
    /// Whether the reserved flow terminated (`false` flags a livelock).
    pub reserved_done: bool,
    /// Whether the best-effort flow terminated.
    pub best_effort_done: bool,
    /// The applied fault timeline with per-action effects.
    pub report: ChurnReport,
    /// Simulator events processed over the whole run.
    pub events: u64,
}

/// Runs the churn+overload combination: build the ring backbone,
/// install the family engines and a *bounded* service model, start both
/// closed-loop flows on the same PoP-spanning path, saturate it, then
/// at one third of the run take the path down, hold the failure for
/// `convergence_delay_ns` (retransmissions keep firing into the dead
/// link and die there — the convergence window), reroute every affected
/// flow onto a surviving path with fresh credentials, and run until
/// both flows terminate.
///
/// The acceptance contrast: after the reroute, reservation families
/// recover ≥ 0.9 delivery in the recovery window (retransmits of the
/// convergence-window losses ride the new path's priority class) while
/// the best-effort flow degrades without collapse — it keeps
/// terminating, with every loss in a named counter.
pub fn run_overload_churn_scenario(
    cfg: RouterConfig,
    spec: &OverloadChurnSpec,
    start_ns: u64,
) -> OverloadChurnOutcome {
    let sec = 1_000_000_000u64;
    let backbone = BackboneSpec::new(spec.pops, spec.routers_per_pop, spec.seed);
    let mut topo = TopologyBuilder::ring_of_pops(&backbone, start_ns, cfg);
    topo.install_engines(spec.scenario, cfg);
    if spec.service_per_pkt_ns > 0 {
        let mut model = ServiceModel::new(spec.service_per_pkt_ns, spec.scenario.shards);
        model.queue_pkts = spec.router_queue_pkts;
        topo.set_service_model(Some(model));
    }
    let span = spec.span_pops.clamp(1, spec.pops - 1);
    let (src_router, dst_router) = (0, span * spec.routers_per_pop);
    let reserved = topo.add_family_reactive_flow(
        spec.scenario.family,
        src_router,
        dst_router,
        spec.payload_len,
        spec.reserved_kbps,
        Some(spec.credential_kbps),
        flow_budget(spec.reserved_kbps, spec.payload_len, spec.run_s, spec.max_pkts_per_flow),
        spec.profile,
        start_ns,
    );
    let best_effort = topo.add_family_reactive_flow(
        spec.scenario.family,
        src_router,
        dst_router,
        spec.payload_len,
        spec.best_effort_kbps,
        None,
        flow_budget(spec.best_effort_kbps, spec.payload_len, spec.run_s, spec.max_pkts_per_flow),
        spec.profile,
        start_ns,
    );
    // Failure set: the reserved flow's own path adjacencies.
    let path: Vec<usize> = topo.route_of(reserved).expect("reserved flow routed").to_vec();
    let fail_adjs: Vec<AdjId> = path
        .windows(2)
        .filter_map(|w| topo.adjacency_between(w[0], w[1]))
        .take(spec.failures.max(1))
        .collect();

    // Phase 1: clean saturation up to the failure instant.
    let t_fail = start_ns + spec.run_s * sec / 3;
    let t_reroute = t_fail + spec.convergence_delay_ns;
    topo.sim.run_until(t_fail);
    let reserved_base = topo.sim.stats(reserved);
    let mut report = ChurnReport::default();
    for &adj in &fail_adjs {
        report.records.push(apply_action(&mut topo, ChurnAction::LinkDown(adj)));
    }

    // Phase 2: the convergence window — sends and retransmissions die
    // on the dead path until the reroute pass applies.
    topo.sim.run_until(t_reroute);
    let reserved_at_reroute = topo.sim.stats(reserved);
    report.records.push(apply_action(&mut topo, ChurnAction::RerouteAffected));

    // Phase 3: recovery, extended until both flows terminate (bounded
    // by the retransmit budget; the cap makes a livelock visible as
    // `*_done: false` instead of a hang) plus a drain second.
    let stop_ns = start_ns + spec.run_s * sec;
    let mut horizon = stop_ns + sec;
    let cap = stop_ns + 120 * sec;
    topo.sim.run_until(horizon);
    while (!topo.sim.reactive_done(reserved) || !topo.sim.reactive_done(best_effort))
        && horizon < cap
    {
        horizon += sec;
        topo.sim.run_until(horizon);
    }
    topo.sim.run_until(horizon + sec);
    let reserved_total = topo.sim.stats(reserved);
    OverloadChurnOutcome {
        reserved_base,
        reserved_outage: reserved_at_reroute.since(&reserved_base),
        reserved_recovery: reserved_total.since(&reserved_at_reroute),
        reserved_total,
        best_effort_total: topo.sim.stats(best_effort),
        reserved_done: topo.sim.reactive_done(reserved),
        best_effort_done: topo.sim.reactive_done(best_effort),
        report,
        events: topo.sim.events_processed(),
    }
}

/// What a [`run_latency_churn_scenario`] measured: the latency
/// experiment's victim counters split at the failure and reroute
/// instants. Window accounting follows the [`ChurnPlan`] tie-break: the
/// failure's own queue drain lands at the end of `base`, the reroute's
/// counter bump at the end of `outage`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyChurnOutcome {
    /// Victim counters over the clean window `[start, failure]`.
    pub base: FlowStats,
    /// Victim delta over the outage window `(failure, reroute]`.
    pub outage: FlowStats,
    /// Victim delta over the recovery window `(reroute, end]` — what
    /// the per-family recovery bounds are asserted on.
    pub recovery: FlowStats,
    /// Victim counters over the whole run.
    pub total: FlowStats,
    /// The flood's whole-run counters, when one ran.
    pub flood_total: Option<FlowStats>,
    /// The applied fault timeline (all windows concatenated).
    pub report: ChurnReport,
}

/// Reruns the Fig. 3/4-style latency experiment under a mid-epoch link
/// failure scheduled through a [`ChurnPlan`]: the same victim (and
/// optional flood) as [`run_latency_scenario`], but on a small ring
/// backbone — the linear chain has no failover path — whose long-haul
/// links carry the spec's link parameters. At one third of the run the
/// victim's first on-path adjacency goes down; `reroute_delay_ns` later
/// the reroute pass re-paths every affected flow with fresh
/// credentials. The plan is applied in three [`run_with_churn`] windows
/// so base/outage/recovery counters can be snapshotted at the exact
/// failure and reroute instants.
pub fn run_latency_churn_scenario(
    cfg: RouterConfig,
    spec: &LatencySpec,
    seed: u64,
    reroute_delay_ns: u64,
    start_ns: u64,
) -> LatencyChurnOutcome {
    let sec = 1_000_000_000u64;
    let rpp = 2usize;
    let mut backbone = BackboneSpec::new(spec.n_ases.max(3), rpp, seed);
    backbone.pop_link = spec.link;
    let mut topo = TopologyBuilder::ring_of_pops(&backbone, start_ns, cfg);
    topo.install_engines(spec.scenario, cfg);
    if spec.service_per_pkt_ns > 0 {
        topo.set_service_model(Some(ServiceModel::new(
            spec.service_per_pkt_ns,
            spec.scenario.shards,
        )));
    }
    let stop_ns = start_ns + spec.run_s * sec;
    let victim = topo.add_family_flow(
        spec.scenario.family,
        0,
        2 * rpp,
        spec.payload_len,
        spec.victim_kbps,
        Some(spec.credential_kbps),
        start_ns,
        stop_ns,
    );
    let flood = (spec.flood_kbps > 0).then(|| {
        topo.add_family_flow(
            spec.scenario.family,
            0,
            2 * rpp,
            spec.payload_len,
            spec.flood_kbps,
            None,
            start_ns,
            stop_ns,
        )
    });
    let t_fail = start_ns + spec.run_s * sec / 3;
    let t_reroute = t_fail + reroute_delay_ns;
    let path = topo.route_of(victim).expect("victim routed").to_vec();
    let adj = path
        .windows(2)
        .find_map(|w| topo.adjacency_between(w[0], w[1]))
        .expect("victim path has links");
    let plan = ChurnPlan::new()
        .at(t_fail, ChurnAction::LinkDown(adj))
        .at(t_reroute, ChurnAction::RerouteAffected);
    // The plan restricted to `(lo, hi]` — one snapshot window.
    let window = |lo: u64, hi: u64| {
        let mut sub = ChurnPlan::new();
        for ev in plan.events() {
            if ev.at_ns > lo && ev.at_ns <= hi {
                sub.push(ev.at_ns, ev.action);
            }
        }
        sub
    };
    let mut report = run_with_churn(&mut topo, &window(0, t_fail), t_fail);
    let base = topo.sim.stats(victim);
    report.records.extend(run_with_churn(&mut topo, &window(t_fail, t_reroute), t_reroute).records);
    let at_reroute = topo.sim.stats(victim);
    report
        .records
        .extend(run_with_churn(&mut topo, &window(t_reroute, u64::MAX), stop_ns + sec).records);
    let total = topo.sim.stats(victim);
    LatencyChurnOutcome {
        base,
        outage: at_reroute.since(&base),
        recovery: total.since(&at_reroute),
        total,
        flood_total: flood.map(|f| topo.sim.stats(f)),
        report,
    }
}
