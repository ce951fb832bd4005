//! The network: one [`TopologyBuilder`] that wires AS-level graphs out of
//! real-router [`Simulator`] nodes, with one constructor per shape in the
//! parameterized-constructor style of snowcap's `ExampleNetwork`s — the
//! hand-wired AS [`chain`](TopologyBuilder::chain) and Fig. 3
//! [`diamond`](TopologyBuilder::diamond), and the seed-driven generated
//! ISP-backbone [`ring_of_pops`](TopologyBuilder::ring_of_pops).
//!
//! Everything is deterministic: key material and graph structure both
//! come from explicit bytes or an explicit `u64` seed routed through the
//! `rand` shim, so two builds from the same spec are identical node for
//! node (pinned by the golden [`TopologyBuilder::topology_hash`] test)
//! and a whole churn scenario replays bit-exactly.
//!
//! The builder is also the live experiment handle: it knows every
//! router's key material and the (bidirectional) adjacency list, so it
//! can route flows with deterministic BFS, attach per-hop credentials
//! for any [`EngineFamily`], and — the churn half — take adjacencies
//! down, reboot routers with cold caches, and reroute the affected
//! flows around dead links (see [`crate::churn`]).
//!
//! [`LinearTopology`] is a handle on a chain for the callers that drive
//! one hop by hop outside a [`Scenario`](crate::Scenario): generators,
//! credentials and stand-alone hop engines over the chain's one path.

use crate::scenario::{EngineScenario, FlowSpec, LinkSpec, Route};
use crate::sim::{FlowId, LinkId, Node, NodeId, ServiceModel, Simulator};
use hummingbird_baselines::EngineFamily;
use hummingbird_crypto::SecretValue;
use hummingbird_dataplane::{
    forge_path, BeaconHop, Datapath, DatapathBuilder, DatapathStats, RouterConfig, ShardedRouter,
    SourceGenerator, SourceReservation,
};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;
use rand::{rngs::StdRng, Rng as _, SeedableRng as _};
use std::collections::{HashMap, VecDeque};

/// Index of a router inside a [`TopologyBuilder`].
pub type RouterId = usize;
/// Index of a bidirectional adjacency inside a [`TopologyBuilder`].
pub type AdjId = usize;

const SEC: u64 = 1_000_000_000;

/// The ISD every fresh flow source identity lives in (distinct from
/// router ASes so per-flow sources never collide with the
/// infrastructure, and distinct per flow so duplicate filters and
/// source-keyed engines see every flow as its own sender).
const FLOW_ISD: u16 = 0xF0;

/// SegID seed of every beaconed path.
const BETA0: u16 = 0x7A7A;

/// One router of the topology.
struct RouterMeta {
    /// Attached local-delivery host, if any.
    host: Option<NodeId>,
    /// Hop-field MAC key (`K_i`).
    hop_key: HopMacKey,
    /// Reservation secret value.
    sv: SecretValue,
    /// DRKey hierarchy root for the baseline families.
    master: [u8; 16],
    /// The AS identity of this router.
    isd_as: IsdAs,
    /// Interface toward each neighbor (used for both directions of the
    /// adjacency, like a physical port).
    ifaces: HashMap<RouterId, u16>,
    /// Neighbors in adjacency-insertion order (deterministic BFS).
    neighbors: Vec<(RouterId, AdjId)>,
    /// Next free interface number (0 is the host/local interface).
    next_iface: u16,
}

/// A bidirectional adjacency: two unidirectional simulator links plus
/// the interface each endpoint uses for it.
#[derive(Clone, Copy, Debug)]
pub struct Adjacency {
    /// One endpoint.
    pub a: RouterId,
    /// The other endpoint.
    pub b: RouterId,
    /// `a`'s interface for this adjacency.
    pub a_if: u16,
    /// `b`'s interface for this adjacency.
    pub b_if: u16,
    /// The `a → b` simulator link.
    pub ab: LinkId,
    /// The `b → a` simulator link.
    pub ba: LinkId,
    /// Whether the adjacency is up (both directions fail together).
    pub up: bool,
}

/// Routing metadata of one flow, kept so churn can re-path it.
#[derive(Clone)]
struct FlowRoute {
    flow: FlowId,
    family: EngineFamily,
    /// The resolved sender identity.
    src: IsdAs,
    route: Route,
    credential_kbps: Option<u64>,
    path: Vec<RouterId>,
}

/// Spec of a ring-of-PoPs ISP backbone: `pops` points of presence on a
/// ring, each a full mesh of `routers_per_pop` routers on 100 Mbps /
/// 0.1 ms intra-PoP links, adjacent PoPs joined by one default 10 Mbps /
/// 1 ms long-haul link per router index (parallel inter-PoP links are
/// what give failover paths of equal PoP count), plus `pops / 4` seeded
/// long-haul shortcut draws between non-adjacent PoPs.
#[derive(Clone, Copy, Debug)]
pub struct BackboneSpec {
    /// PoPs on the ring (≥ 3).
    pub pops: usize,
    /// Routers per PoP (≥ 1), fully meshed inside the PoP.
    pub routers_per_pop: usize,
    /// Seed for key material and chord structure.
    pub seed: u64,
}

impl BackboneSpec {
    /// A `pops` × `routers_per_pop` backbone seeded with `seed`.
    pub fn new(pops: usize, routers_per_pop: usize, seed: u64) -> Self {
        BackboneSpec { pops, routers_per_pop, seed }
    }
}

/// Intra-PoP link parameters of a [`BackboneSpec`] backbone (short, fat).
const INTRA_POP_LINK: LinkSpec =
    LinkSpec { bandwidth_bps: 100_000_000, propagation_ns: 100_000, queue_cap_bytes: 64 * 1024 };

/// A deterministic topology of real-datapath router nodes — and, once
/// built, the live handle an experiment drives (see the
/// [module docs](self)).
pub struct TopologyBuilder {
    /// The simulator, wired as the topology grows.
    pub sim: Simulator,
    /// Simulator node of each router (one per AS), by [`RouterId`].
    pub as_nodes: Vec<NodeId>,
    routers: Vec<RouterMeta>,
    adjacencies: Vec<Adjacency>,
    adj_of: HashMap<(RouterId, RouterId), AdjId>,
    routes: Vec<FlowRoute>,
    engines: Option<EngineScenario>,
    engine_cfg: RouterConfig,
    service: Option<ServiceModel>,
    info_ts: u32,
    next_res_id: u32,
    next_flow_src: u64,
}

impl TopologyBuilder {
    /// An empty topology starting at simulated time `start_ns`; routers
    /// run Hummingbird engines configured with `cfg` until
    /// [`install_engines`](TopologyBuilder::install_engines) swaps a
    /// family in.
    pub fn new(start_ns: u64, cfg: RouterConfig) -> Self {
        TopologyBuilder {
            sim: Simulator::new(start_ns),
            as_nodes: Vec::new(),
            routers: Vec::new(),
            adjacencies: Vec::new(),
            adj_of: HashMap::new(),
            routes: Vec::new(),
            engines: None,
            engine_cfg: cfg,
            service: None,
            info_ts: (start_ns / SEC) as u32,
            next_res_id: 0,
            next_flow_src: 0,
        }
    }

    // ---- wiring primitives -------------------------------------------------

    /// Adds a router with explicit key material and no attached host.
    /// The DRKey master is derived from the SV bytes here (first byte
    /// XOR `0xA5`: a distinct hierarchy root per AS).
    pub fn add_router_keyed(
        &mut self,
        hop_key_bytes: [u8; 16],
        sv_key_bytes: [u8; 16],
        isd_as: IsdAs,
    ) -> RouterId {
        let hop_key = HopMacKey::new(hop_key_bytes);
        let sv = SecretValue::new(sv_key_bytes);
        let mut master = sv_key_bytes;
        master[0] ^= 0xA5;
        let node = self.sim.add_node(Node::Router {
            router: DatapathBuilder::new(sv.clone(), hop_key.clone())
                .config(self.engine_cfg)
                .build_boxed(),
            interfaces: HashMap::new(),
            local: None,
        });
        self.as_nodes.push(node);
        self.routers.push(RouterMeta {
            host: None,
            hop_key,
            sv,
            master,
            isd_as,
            ifaces: HashMap::new(),
            neighbors: Vec::new(),
            next_iface: 1,
        });
        self.routers.len() - 1
    }

    /// Adds a router whose key material is drawn from `rng`, with a
    /// local-delivery host attached — the generated-topology shape,
    /// where any router can terminate flows.
    fn add_router(&mut self, rng: &mut StdRng) -> RouterId {
        let hop_key: [u8; 16] = rng.gen();
        let sv_key: [u8; 16] = rng.gen();
        let idx = self.routers.len();
        let r = self.add_router_keyed(hop_key, sv_key, IsdAs::new(1, 0x100 + idx as u64));
        self.attach_host(r);
        r
    }

    /// Attaches a local-delivery host to router `r` (idempotent),
    /// returning its node.
    pub fn attach_host(&mut self, r: RouterId) -> NodeId {
        if let Some(h) = self.routers[r].host {
            return h;
        }
        let host = self.sim.add_node(Node::Host);
        self.sim.set_local_delivery(self.as_nodes[r], host);
        self.routers[r].host = Some(host);
        host
    }

    /// Connects routers `a` and `b` bidirectionally and registers the
    /// pair as a churnable [`Adjacency`]. `ports` are `a`'s and `b`'s
    /// interfaces for it — a hand-wired shape owns its port convention —
    /// or, with `None`, each endpoint's next free interface. Panics on
    /// self-loops and duplicate adjacencies — the generator invariants
    /// the property tests pin.
    pub fn connect(
        &mut self,
        a: RouterId,
        b: RouterId,
        ports: Option<(u16, u16)>,
        link: LinkSpec,
    ) -> AdjId {
        assert_ne!(a, b, "self-loop");
        let key = (a.min(b), a.max(b));
        assert!(!self.adj_of.contains_key(&key), "duplicate adjacency {a}-{b}");
        let (a_if, b_if) =
            ports.unwrap_or((self.routers[a].next_iface, self.routers[b].next_iface));
        let id = self.adjacencies.len();
        let [ab, ba] = [(a, a_if, b), (b, b_if, a)].map(|(from, port, to)| {
            let l = self.sim.add_link(
                self.as_nodes[to],
                link.bandwidth_bps,
                link.propagation_ns,
                link.queue_cap_bytes,
            );
            self.sim.connect_interface(self.as_nodes[from], port, l);
            let meta = &mut self.routers[from];
            meta.next_iface = meta.next_iface.max(port + 1);
            meta.ifaces.insert(to, port);
            meta.neighbors.push((to, id));
            l
        });
        self.adjacencies.push(Adjacency { a, b, a_if, b_if, ab, ba, up: true });
        self.adj_of.insert(key, id);
        id
    }

    // ---- constructors ------------------------------------------------------

    /// An AS chain, one router per entry of `hop_keys`/`sv_keys` (AS `i`
    /// is `1-(0x100 + i)`), with the destination host behind the last AS.
    /// AS `i` reaches AS `i + 1` on port `2i + 1`, which reaches back on
    /// port `2i + 2`, so hop `i` of the chain's path has the interfaces
    /// [`LinearTopology::interfaces`] gives.
    pub fn chain(
        hop_keys: &[[u8; 16]],
        sv_keys: &[[u8; 16]],
        link: LinkSpec,
        start_ns: u64,
        cfg: RouterConfig,
    ) -> Self {
        assert!(!hop_keys.is_empty());
        assert_eq!(hop_keys.len(), sv_keys.len());
        let mut t = Self::new(start_ns, cfg);
        for (i, (&hop_key, &sv_key)) in hop_keys.iter().zip(sv_keys).enumerate() {
            t.add_router_keyed(hop_key, sv_key, IsdAs::new(1, 0x100 + i as u64));
        }
        let n = hop_keys.len();
        t.attach_host(n - 1);
        for i in 0..n - 1 {
            let port = 2 * i as u16 + 1;
            t.connect(i, i + 1, Some((port, port + 1)), link);
        }
        t
    }

    /// The Fig. 3 diamond: branch ASes P (router 0) and Q (router 1)
    /// both lead to the shared target AS T (router 2), with the
    /// destination host behind T. P and Q reach T on port 1; T reaches
    /// back on port 2 (P) and 3 (Q).
    pub fn diamond(link: LinkSpec, start_ns: u64, cfg: RouterConfig) -> Self {
        let mut t = Self::new(start_ns, cfg);
        for (i, seed) in [0x11u8, 0x22, 0x33].into_iter().enumerate() {
            t.add_router_keyed([seed; 16], [seed ^ 0xFF; 16], IsdAs::new(1, 0x100 + i as u64));
        }
        t.attach_host(2);
        t.connect(0, 2, Some((1, 2)), link);
        t.connect(1, 2, Some((1, 3)), link);
        t
    }

    /// Builds a ring-of-PoPs ISP backbone per `spec` (see
    /// [`BackboneSpec`]). Deterministic in `spec.seed`.
    pub fn ring_of_pops(spec: &BackboneSpec, start_ns: u64, cfg: RouterConfig) -> Self {
        assert!(spec.pops >= 3, "a ring needs at least 3 PoPs");
        assert!(spec.routers_per_pop >= 1);
        // Inter-PoP long-haul links: the contended bottlenecks.
        let pop_link = LinkSpec::default();
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut t = Self::new(start_ns, cfg);
        let pops: Vec<Vec<RouterId>> = (0..spec.pops)
            .map(|_| (0..spec.routers_per_pop).map(|_| t.add_router(&mut rng)).collect())
            .collect();
        // Full mesh inside each PoP.
        for pop in &pops {
            for i in 0..pop.len() {
                for j in i + 1..pop.len() {
                    t.connect(pop[i], pop[j], None, INTRA_POP_LINK);
                }
            }
        }
        // The ring: one long-haul link per router index between
        // adjacent PoPs (parallel paths of equal PoP count).
        for p in 0..spec.pops {
            let q = (p + 1) % spec.pops;
            for (&a, &b) in pops[p].iter().zip(&pops[q]) {
                t.connect(a, b, None, pop_link);
            }
        }
        // Seeded chords between non-adjacent PoPs, attached to each
        // PoP's *last* router: reaching a chord from lane 0 costs an
        // intra-PoP hop on both ends, so chords shorten long failover
        // detours without beating short ring paths on hop count (BFS
        // ties resolve to the ring, whose links are inserted first).
        // Invalid draws — same, adjacent or already-linked PoP pairs —
        // are skipped.
        let last = spec.routers_per_pop - 1;
        for _ in 0..spec.pops / 4 {
            let p = rng.gen_range(0..spec.pops);
            let q = rng.gen_range(0..spec.pops);
            let ring_adjacent = (p + 1) % spec.pops == q || (q + 1) % spec.pops == p;
            if p == q
                || ring_adjacent
                || t.adjacency_between(pops[p][last], pops[q][last]).is_some()
            {
                continue;
            }
            t.connect(pops[p][last], pops[q][last], None, pop_link);
        }
        t
    }

    // ---- introspection ----------------------------------------------------

    /// Number of routers.
    pub fn n_routers(&self) -> usize {
        self.routers.len()
    }

    /// Number of (bidirectional) adjacencies.
    pub fn n_adjacencies(&self) -> usize {
        self.adjacencies.len()
    }

    /// The adjacency record.
    pub fn adjacency(&self, adj: AdjId) -> Adjacency {
        self.adjacencies[adj]
    }

    /// The adjacency joining `a` and `b`, if one exists.
    pub fn adjacency_between(&self, a: RouterId, b: RouterId) -> Option<AdjId> {
        self.adj_of.get(&(a.min(b), a.max(b))).copied()
    }

    /// The currently-up adjacency ids, in id order.
    pub fn live_adjacencies(&self) -> Vec<AdjId> {
        (0..self.adjacencies.len()).filter(|&i| self.adjacencies[i].up).collect()
    }

    /// AS identity of router `r`.
    pub fn router_isd_as(&self, r: RouterId) -> IsdAs {
        self.routers[r].isd_as
    }

    /// The current path of `flow` (routers in traversal order), if the
    /// flow was created through this builder.
    pub fn route_of(&self, flow: FlowId) -> Option<&[RouterId]> {
        self.routes.iter().find(|r| r.flow == flow).map(|r| r.path.as_slice())
    }

    /// FNV-1a hash over the node/edge list (router count, AS ids, and
    /// every adjacency's endpoints + interfaces, in insertion order) —
    /// the golden-topology fingerprint that makes generator drift fail
    /// loudly.
    pub fn topology_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.routers.len() as u64);
        for r in &self.routers {
            mix(u64::from(r.isd_as.isd));
            mix(r.isd_as.asn);
        }
        mix(self.adjacencies.len() as u64);
        for adj in &self.adjacencies {
            mix(adj.a as u64);
            mix(adj.b as u64);
            mix(u64::from(adj.a_if));
            mix(u64::from(adj.b_if));
        }
        h
    }

    // ---- engines & service ------------------------------------------------

    /// A fresh, stand-alone engine deployment of router `r`'s secrets —
    /// what its node runs under `engines`, for probing packets outside the
    /// simulator.
    pub fn engine(
        &self,
        r: RouterId,
        engines: EngineScenario,
        cfg: RouterConfig,
    ) -> Box<dyn Datapath + Send> {
        let meta = &self.routers[r];
        engines.deploy(&meta.sv, &meta.hop_key, &meta.master, cfg)
    }

    /// A fresh engine for router `r` under the currently installed
    /// scenario (Hummingbird single-engine before any
    /// [`install_engines`](TopologyBuilder::install_engines) call).
    fn fresh_engine(&self, r: RouterId) -> Box<dyn Datapath + Send> {
        let engines =
            self.engines.unwrap_or(EngineScenario { family: EngineFamily::Hummingbird, shards: 1 });
        self.engine(r, engines, self.engine_cfg)
    }

    /// Swaps every router's engine for `scenario`'s family, sharded
    /// across `scenario.shards` engines when more than one — the knob
    /// that reruns a whole QoS/DoS experiment per engine family on
    /// unchanged topology, flows and adversaries. Remembered so a churn
    /// [`reboot_router`](TopologyBuilder::reboot_router) rebuilds the
    /// right engine.
    pub fn install_engines(&mut self, scenario: EngineScenario, cfg: RouterConfig) {
        self.engines = Some(scenario);
        self.engine_cfg = cfg;
        for r in 0..self.routers.len() {
            let engine = self.fresh_engine(r);
            self.sim.replace_engine(self.as_nodes[r], engine).ok().expect("router node");
        }
    }

    /// Installs `model` on every router node (or clears with `None`),
    /// remembered so reboots re-install it with idle cores.
    pub fn set_service_model(&mut self, model: Option<ServiceModel>) {
        self.service = model;
        for &node in &self.as_nodes {
            self.sim.set_router_service(node, model);
        }
    }

    // ---- routing & flows --------------------------------------------------

    /// Deterministic BFS shortest path over *up* adjacencies, neighbor
    /// order = adjacency insertion order (ties resolve identically on
    /// every run). `None` when `to` is unreachable.
    pub fn shortest_path(&self, from: RouterId, to: RouterId) -> Option<Vec<RouterId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev = vec![usize::MAX; self.routers.len()];
        let mut queue = VecDeque::new();
        prev[from] = from;
        queue.push_back(from);
        while let Some(r) = queue.pop_front() {
            for &(n, adj) in &self.routers[r].neighbors {
                if !self.adjacencies[adj].up || prev[n] != usize::MAX {
                    continue;
                }
                prev[n] = r;
                if n == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = prev[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(n);
            }
        }
        None
    }

    /// Whether every consecutive hop pair of `path` rides an up
    /// adjacency.
    fn path_is_live(&self, path: &[RouterId]) -> bool {
        path.windows(2)
            .all(|w| self.adjacency_between(w[0], w[1]).is_some_and(|adj| self.adjacencies[adj].up))
    }

    /// The (ingress, egress) interfaces of hop `i` of `path`: 0 at the
    /// entry's ingress (host-facing) and the exit's egress (local
    /// delivery), the per-adjacency port numbers in between.
    fn hop_interfaces(&self, path: &[RouterId], i: usize) -> (u16, u16) {
        let ifaces = &self.routers[path[i]].ifaces;
        let ingress = if i == 0 { 0 } else { ifaces[&path[i - 1]] };
        let egress = path.get(i + 1).map_or(0, |next| ifaces[next]);
        (ingress, egress)
    }

    /// A source generator over `path` (routers in traversal order) from
    /// `src` to `dst`, with no credential attached.
    pub fn generator(&self, path: &[RouterId], src: IsdAs, dst: IsdAs) -> SourceGenerator {
        let hops: Vec<BeaconHop> = (0..path.len())
            .map(|i| {
                let (cons_ingress, cons_egress) = self.hop_interfaces(path, i);
                BeaconHop { key: self.routers[path[i]].hop_key.clone(), cons_ingress, cons_egress }
            })
            .collect();
        SourceGenerator::new(src, dst, forge_path(&hops, self.info_ts, BETA0))
    }

    /// The [`EngineFamily::credential`] a `family` sender `src` attaches
    /// for hop `hop` of `path`, keyed under that router's secrets exactly
    /// as its engine re-derives it; reservation-keyed families draw a
    /// fresh ResID from this topology's counter.
    fn credential(
        &mut self,
        family: EngineFamily,
        path: &[RouterId],
        hop: usize,
        src: IsdAs,
        kbps: u64,
        now_s: u64,
    ) -> SourceReservation {
        let (ingress, egress) = self.hop_interfaces(path, hop);
        let meta = &self.routers[path[hop]];
        let next_res_id = &mut self.next_res_id;
        family.credential(&meta.sv, &meta.master, ingress, egress, next_res_id, src, kbps, now_s)
    }

    /// `r`'s generator over `r.path`, with its credentials (if any) on
    /// every hop or on `r.route.credential_hop` only, dated `now_s`.
    fn flow_generator(&mut self, r: &FlowRoute, now_s: u64) -> SourceGenerator {
        let dst = self.routers[r.route.to].isd_as;
        let mut generator = self.generator(&r.path, r.src, dst);
        if let Some(kbps) = r.credential_kbps {
            let hops = r.route.credential_hop.map_or(0..r.path.len(), |h| h..h + 1);
            for hop in hops {
                let credential = self.credential(r.family, &r.path, hop, r.src, kbps, now_s);
                generator.attach_reservation(hop, credential).expect("matching interfaces");
            }
        }
        generator
    }

    /// Adds `flow` along `route` (the
    /// [`shortest_path`](TopologyBuilder::shortest_path) from `route.from`
    /// to the host behind `route.to`), sending from `start_ns` (until
    /// `stop_ns` if it is CBR). A credential (`flow.credential_kbps`) is
    /// `family`'s per-hop credential (reservation keys, Helia grants, or
    /// DRKey/EPIC source keys) on every hop, or only on
    /// `route.credential_hop`: the partial-path shape (§3.3 ❸), reserve
    /// (or authenticate) the congested hop and ride best effort
    /// elsewhere. Pair with
    /// [`install_engines`](TopologyBuilder::install_engines) so routers
    /// and senders agree on the key hierarchy. The route is remembered,
    /// so churn re-paths the flow (a closed loop's retransmissions
    /// follow the new path).
    pub fn add_family_flow(
        &mut self,
        family: EngineFamily,
        route: Route,
        flow: &FlowSpec,
        start_ns: u64,
        stop_ns: u64,
    ) -> FlowId {
        assert!(self.routers[route.to].host.is_some(), "destination router has no host");
        let path = self.shortest_path(route.from, route.to).expect("graph is connected");
        let src = route.src.unwrap_or_else(|| {
            self.next_flow_src += 1;
            IsdAs::new(FLOW_ISD, self.next_flow_src)
        });
        let credential_kbps = flow.credential_kbps;
        let r = FlowRoute { flow: 0, family, src, route, credential_kbps, path };
        let generator = self.flow_generator(&r, start_ns / SEC);
        let entry = self.as_nodes[route.from];
        let id = flow.add_to(&mut self.sim, generator, entry, start_ns, stop_ns);
        self.routes.push(FlowRoute { flow: id, ..r });
        id
    }

    // ---- churn primitives -------------------------------------------------

    /// Takes adjacency `adj` down (`up = false`) or restores it — both
    /// directions together. Returns how many queued packets the failure
    /// drained (each counted into its flow's
    /// [`link_down_drops`](crate::FlowStats::link_down_drops)).
    pub fn set_adjacency_up(&mut self, adj: AdjId, up: bool) -> u64 {
        let a = self.adjacencies[adj];
        let drained = self.sim.set_link_up(a.ab, up) + self.sim.set_link_up(a.ba, up);
        self.adjacencies[adj].up = up;
        drained
    }

    /// Reboots router `r`: the engine is rebuilt from scratch under the
    /// installed scenario — counters, policer buckets and the duplicate
    /// suppressor all come back cold (no engine keeps key state) — and
    /// the service model
    /// restarts with idle cores. Returns the discarded engine's final
    /// counters (the stats lost to the reboot).
    pub fn reboot_router(&mut self, r: RouterId) -> DatapathStats {
        let node = self.as_nodes[r];
        let discarded = self.sim.router_stats(node).unwrap_or_default();
        let engine = self.fresh_engine(r);
        self.sim.replace_engine(node, engine).ok().expect("router node");
        self.sim.set_router_service(node, self.service);
        discarded
    }

    /// Re-paths every still-active flow whose route crosses a downed
    /// adjacency: each gets a fresh BFS path over the surviving graph
    /// with fresh per-hop credentials (new reservations — the old ones
    /// stay stranded on the dead path), applied via
    /// [`Simulator::set_flow_route`]. Flows with no surviving path are
    /// left stranded, still sending into the failure. Returns
    /// `(rerouted, stranded)`.
    pub fn reroute_affected(&mut self) -> (usize, usize) {
        let mut moved = 0;
        let mut stranded = 0;
        for i in 0..self.routes.len() {
            let r = &self.routes[i];
            if self.path_is_live(&r.path) || !self.sim.flow_is_active(r.flow) {
                continue;
            }
            match self.shortest_path(r.route.from, r.route.to) {
                None => stranded += 1,
                Some(path) => {
                    self.routes[i].path = path;
                    let r = self.routes[i].clone();
                    let generator = self.flow_generator(&r, self.sim.now_ns() / SEC);
                    self.sim.set_flow_route(r.flow, generator, self.as_nodes[r.route.from]);
                    moved += 1;
                }
            }
        }
        (moved, stranded)
    }
}

/// A handle on an AS chain ([`TopologyBuilder::chain`]) for the callers
/// that drive it hop by hop outside a [`Scenario`](crate::Scenario): the
/// generators, per-hop credentials and stand-alone hop engines of the
/// chain's one path, hop `i` being router `i`.
///
/// Interface convention: AS `i` has ingress `2i` (0 at the first AS, where
/// sources inject directly) and egress `2i+1` (0 at the last AS, meaning
/// local delivery to the attached host).
pub struct LinearTopology {
    /// The chain.
    pub net: TopologyBuilder,
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
        let keys = |base: u8| -> Vec<[u8; 16]> {
            (0..n)
                .map(|i| {
                    let mut k = [base + i as u8; 16];
                    k[15] = seed;
                    k
                })
                .collect()
        };
        Self::build_with_keys(n, link, start_ns, cfg, keys(0x21), keys(0x51))
    }

    /// Builds a chain with explicit AS key material — how the end-to-end
    /// testbed wires the same secrets into both the control-plane
    /// `AsService`s and the simulated border routers.
    pub fn build_with_keys(
        n: usize,
        link: LinkSpec,
        start_ns: u64,
        cfg: RouterConfig,
        hop_key_bytes: Vec<[u8; 16]>,
        sv_key_bytes: Vec<[u8; 16]>,
    ) -> Self {
        assert_eq!(hop_key_bytes.len(), n);
        let net = TopologyBuilder::chain(&hop_key_bytes, &sv_key_bytes, link, start_ns, cfg);
        LinearTopology { net }
    }

    /// The chain's one path, AS 0 to the last.
    fn path(&self) -> Vec<RouterId> {
        (0..self.net.n_routers()).collect()
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
        let m = &self.net.routers[hop];
        family.sharded_engine(shards, &m.sv, &m.hop_key, &m.master, cfg)
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
        self.net.engine(hop, EngineScenario { family, shards: 1 }, cfg)
    }

    /// A fresh source generator over the chain's beaconed path.
    pub fn make_generator(&self, src: IsdAs, dst: IsdAs) -> SourceGenerator {
        self.net.generator(&self.path(), src, dst)
    }

    /// The [`EngineFamily::credential`] a `family` sender `src` attaches
    /// for hop `hop`, keyed under that hop's secrets exactly as its
    /// [`make_family_hop_engine`](LinearTopology::make_family_hop_engine)
    /// engine re-derives it; reservation-keyed families draw a fresh
    /// ResID from the chain's counter.
    pub fn make_family_credential(
        &mut self,
        family: EngineFamily,
        hop: usize,
        src: IsdAs,
        bw_kbps: u64,
        now_s: u64,
    ) -> SourceReservation {
        let path = self.path();
        self.net.credential(family, &path, hop, src, bw_kbps, now_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const START_NS: u64 = 1_700_000_000 * SEC;

    fn cfg() -> RouterConfig {
        RouterConfig::default()
    }

    /// The hand-wired shapes' ports: a chain's path has the interfaces of
    /// [`LinearTopology::interfaces`] for every length, and the diamond's
    /// branches enter T on ports 2 (P) and 3 (Q).
    #[test]
    fn chain_and_diamond_ports_follow_their_conventions() {
        let hops = |t: &TopologyBuilder, from, to| {
            let path = t.shortest_path(from, to).unwrap();
            (0..path.len()).map(|i| t.hop_interfaces(&path, i)).collect::<Vec<_>>()
        };
        for n in 1..=6 {
            let t = LinearTopology::build(n, LinkSpec::default(), START_NS, cfg()).net;
            let expected: Vec<_> = (0..n).map(|i| LinearTopology::interfaces(n, i)).collect();
            assert_eq!(hops(&t, 0, n - 1), expected, "{n}-AS chain");
        }
        let d = TopologyBuilder::diamond(LinkSpec::default(), START_NS, cfg());
        assert_eq!(hops(&d, 0, 2), [(0, 1), (2, 0)], "P → T");
        assert_eq!(hops(&d, 1, 2), [(0, 1), (3, 0)], "Q → T");
    }

    /// A Hummingbird CBR flow from `branch` (0 = P, 1 = Q) to T's host,
    /// from sender `src`.
    fn diamond_flow(
        d: &mut TopologyBuilder,
        branch: RouterId,
        src: IsdAs,
        flow: FlowSpec,
    ) -> FlowId {
        let route = Route { src: Some(src), ..Route::new(branch, 2) };
        let hb = EngineFamily::Hummingbird;
        d.add_family_flow(hb, route, &flow, START_NS, START_NS + 2 * SEC)
    }

    #[test]
    fn both_branches_deliver() {
        let mut d = TopologyBuilder::diamond(LinkSpec::default(), START_NS, cfg());
        let flow = FlowSpec::cbr(500, 1_000, None);
        let [p, q] = [0, 1].map(|b| diamond_flow(&mut d, b, IsdAs::new(1, 1), flow));
        d.sim.run_until(START_NS + 3 * SEC);
        for f in [p, q] {
            let s = d.sim.stats(f);
            assert!(s.delivery_ratio() > 0.99, "flow {f}: {s:?}");
        }
    }

    #[test]
    fn reservations_verify_on_both_hops() {
        let mut d = TopologyBuilder::diamond(LinkSpec::default(), START_NS, cfg());
        let f = diamond_flow(&mut d, 0, IsdAs::new(1, 1), FlowSpec::cbr(500, 1_000, Some(2_000)));
        d.sim.run_until(START_NS + 3 * SEC);
        let s = d.sim.stats(f);
        assert!(s.delivery_ratio() > 0.99);
        for node in [d.as_nodes[0], d.as_nodes[2]] {
            assert_eq!(d.sim.router_stats(node).unwrap().flyover, s.sent_pkts, "node {node}");
        }
    }

    /// The full Fig. 3 shape: the adversary on branch Q duplicates the
    /// source's Q traffic toward T. With per-path credentials at T (the
    /// §5.4 mitigation), the source's P traffic is untouched by the
    /// replays and by a flood on P's links.
    #[test]
    fn fig3_adversary_on_q_cannot_touch_p() {
        let mut d = TopologyBuilder::diamond(LinkSpec::default(), START_NS, cfg());
        let (src, reserved) = (IsdAs::new(1, 1), FlowSpec::cbr(1_000, 2_000, Some(5_000)));
        let p = diamond_flow(&mut d, 0, src, reserved);
        let q = diamond_flow(&mut d, 1, src, reserved);
        diamond_flow(&mut d, 0, IsdAs::new(6, 6), FlowSpec::cbr(1_000, 30_000, None));
        d.sim.add_replay_tap(q, d.as_nodes[2], 19, 200_000);
        d.sim.run_until(START_NS + 3 * SEC);
        let ratio = d.sim.stats(p).delivery_ratio();
        assert!(ratio > 0.99, "path P must be isolated from the Q adversary: {ratio}");
    }
}
