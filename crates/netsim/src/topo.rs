//! Internet-scale topology generation: one seed-driven
//! [`TopologyBuilder`] that wires AS-level graphs — ISP-backbone rings
//! of PoPs, fat-tree regions, customer/provider/peer AS hierarchies —
//! out of the same real-router [`Simulator`] nodes the hand-built
//! scenario topologies use, in the parameterized-constructor style of
//! snowcap's `ExampleNetwork`s.
//!
//! Everything is deterministic: key material and graph structure both
//! come from an explicit `u64` seed routed through the `rand` shim, so
//! two builds from the same spec are identical node for node (pinned by
//! the golden [`TopologyBuilder::topology_hash`] test) and a whole
//! churn scenario replays bit-exactly.
//!
//! The builder is also the live experiment handle: it knows every
//! router's key material and the (bidirectional) adjacency list, so it
//! can route flows with deterministic BFS, attach per-hop credentials
//! for any [`EngineFamily`], and — the churn half — take adjacencies
//! down, reboot routers with cold caches, and reroute the affected
//! flows around dead links (see [`crate::churn`]).
//!
//! The bespoke [`crate::LinearTopology`] and [`crate::DiamondTopology`]
//! are re-expressed on the same primitives
//! ([`TopologyBuilder::add_router_keyed`],
//! [`TopologyBuilder::connect_oneway`], and `into_parts`, which hands
//! over the wired simulator)
//! so node/link/interface wiring and the DRKey-master derivation rule
//! live in exactly one place.

use crate::scenario::{EngineScenario, FlowSpec, LinkSpec};
use crate::sim::{FlowId, LinkId, Node, NodeId, ServiceModel, Simulator};
use hummingbird_baselines::EngineFamily;
use hummingbird_crypto::SecretValue;
use hummingbird_dataplane::{
    forge_path, BeaconHop, Datapath, DatapathBuilder, DatapathStats, RouterConfig, SourceGenerator,
};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;
use rand::{rngs::StdRng, Rng as _, SeedableRng as _};
use std::collections::{HashMap, VecDeque};

/// Index of a router inside a [`TopologyBuilder`].
pub type RouterId = usize;
/// Index of a bidirectional adjacency inside a [`TopologyBuilder`].
pub type AdjId = usize;

/// The ISD every generated flow's source identity lives in (distinct
/// from router ASes so per-flow sources never collide with the
/// infrastructure, and distinct per flow so duplicate filters and
/// source-keyed engines see every flow as its own sender).
const FLOW_ISD: u16 = 0xF0;

/// SegID seed for generated paths.
const BETA0: u16 = 0x7A7A;

/// One router of the generated topology.
struct RouterMeta {
    /// Simulator node.
    node: NodeId,
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
struct FlowRoute {
    flow: FlowId,
    family: EngineFamily,
    src: IsdAs,
    dst: IsdAs,
    src_router: RouterId,
    dst_router: RouterId,
    credential_kbps: Option<u64>,
    path: Vec<RouterId>,
}

/// Spec of a ring-of-PoPs ISP backbone: `pops` points of presence on a
/// ring, each a full mesh of `routers_per_pop` routers, adjacent PoPs
/// joined by one long-haul link per router index (parallel inter-PoP
/// links are what give failover paths of equal PoP count), plus up to
/// `chords` seeded long-haul shortcuts between non-adjacent PoPs.
#[derive(Clone, Copy, Debug)]
pub struct BackboneSpec {
    /// PoPs on the ring (≥ 3).
    pub pops: usize,
    /// Routers per PoP (≥ 1), fully meshed inside the PoP.
    pub routers_per_pop: usize,
    /// Seeded random long-haul shortcut links (draws; invalid draws —
    /// same, adjacent or already-linked PoP pairs — are skipped).
    pub chords: usize,
    /// Seed for key material and chord structure.
    pub seed: u64,
    /// Inter-PoP long-haul link parameters (the contended bottlenecks).
    pub pop_link: LinkSpec,
    /// Intra-PoP link parameters (short, fat).
    pub intra_link: LinkSpec,
}

impl BackboneSpec {
    /// A backbone spec with the default 10 Mbps / 1 ms long-haul links
    /// and 100 Mbps / 0.1 ms intra-PoP links.
    pub fn new(pops: usize, routers_per_pop: usize, seed: u64) -> Self {
        BackboneSpec {
            pops,
            routers_per_pop,
            chords: pops / 4,
            seed,
            pop_link: LinkSpec::default(),
            intra_link: LinkSpec {
                bandwidth_bps: 100_000_000,
                propagation_ns: 100_000,
                queue_cap_bytes: 64 * 1024,
            },
        }
    }
}

/// Spec of a customer/provider/peer AS hierarchy: `tier1` transit ASes
/// in a full peer mesh, `tier2` regional providers each homed to two
/// tier-1 providers, `stubs` leaf ASes homed to one or two tier-2
/// providers, plus up to `peering` seeded lateral tier-2 peer links.
#[derive(Clone, Copy, Debug)]
pub struct HierarchySpec {
    /// Tier-1 (full-mesh core) ASes, ≥ 1.
    pub tier1: usize,
    /// Tier-2 (regional) ASes.
    pub tier2: usize,
    /// Stub (leaf) ASes.
    pub stubs: usize,
    /// Seeded lateral tier-2 peering links (draws; invalid skipped).
    pub peering: usize,
    /// Seed for key material, homing and peering structure.
    pub seed: u64,
    /// Core (tier-1 mesh + tier-1/tier-2) link parameters.
    pub core_link: LinkSpec,
    /// Edge (stub homing) link parameters.
    pub edge_link: LinkSpec,
}

impl HierarchySpec {
    /// A hierarchy spec with fat core links and default edge links.
    pub fn new(tier1: usize, tier2: usize, stubs: usize, seed: u64) -> Self {
        HierarchySpec {
            tier1,
            tier2,
            stubs,
            peering: tier2 / 2,
            seed,
            core_link: LinkSpec {
                bandwidth_bps: 100_000_000,
                propagation_ns: 500_000,
                queue_cap_bytes: 64 * 1024,
            },
            edge_link: LinkSpec::default(),
        }
    }
}

/// What [`TopologyBuilder::into_parts`] hands back to the bespoke
/// topology shapes (linear chain, diamond) built on the same wiring
/// primitives.
pub(crate) struct TopologyParts {
    /// The wired simulator.
    pub sim: Simulator,
    /// Router node per [`RouterId`], in creation order.
    pub router_nodes: Vec<NodeId>,
    /// Attached host node per router, if one was attached.
    pub hosts: Vec<Option<NodeId>>,
    /// Per-router DRKey hierarchy roots (derived from the SV bytes; the
    /// single place that rule lives).
    pub drkey_masters: Vec<[u8; 16]>,
}

/// A deterministic, seed-driven topology builder over real-datapath
/// router nodes — and, once built, the live handle a churn experiment
/// drives (see the [module docs](self)).
pub struct TopologyBuilder {
    /// The simulator, wired as the topology grows.
    pub sim: Simulator,
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
            routers: Vec::new(),
            adjacencies: Vec::new(),
            adj_of: HashMap::new(),
            routes: Vec::new(),
            engines: None,
            engine_cfg: cfg,
            service: None,
            info_ts: (start_ns / 1_000_000_000) as u32,
            next_res_id: 0,
            next_flow_src: 0,
        }
    }

    // ---- wiring primitives -------------------------------------------------

    /// Adds a router with explicit key material and no attached host —
    /// the primitive the bespoke chain/diamond shapes build on. The
    /// DRKey master is derived from the SV bytes here (first byte
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
        self.routers.push(RouterMeta {
            node,
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
    pub fn add_router(&mut self, rng: &mut StdRng) -> RouterId {
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
        self.sim.set_local_delivery(self.routers[r].node, host);
        self.routers[r].host = Some(host);
        host
    }

    /// Adds a unidirectional `a → b` link on explicit egress interface
    /// `egress_if` of `a` — the chain/diamond primitive, where the
    /// caller owns the interface convention. Not tracked as a churnable
    /// adjacency.
    pub fn connect_oneway(
        &mut self,
        a: RouterId,
        egress_if: u16,
        b: RouterId,
        link: LinkSpec,
    ) -> LinkId {
        let l = self.sim.add_link(
            self.routers[b].node,
            link.bandwidth_bps,
            link.propagation_ns,
            link.queue_cap_bytes,
        );
        self.sim.connect_interface(self.routers[a].node, egress_if, l);
        l
    }

    /// Connects routers `a` and `b` bidirectionally, auto-assigning one
    /// interface per endpoint, and registers the pair as a churnable
    /// [`Adjacency`]. Panics on self-loops and duplicate adjacencies —
    /// the generator invariants the property tests pin.
    pub fn connect(&mut self, a: RouterId, b: RouterId, link: LinkSpec) -> AdjId {
        assert_ne!(a, b, "self-loop");
        let key = (a.min(b), a.max(b));
        assert!(!self.adj_of.contains_key(&key), "duplicate adjacency {a}-{b}");
        let a_if = self.routers[a].next_iface;
        self.routers[a].next_iface += 1;
        let b_if = self.routers[b].next_iface;
        self.routers[b].next_iface += 1;
        let ab = self.connect_oneway(a, a_if, b, link);
        let ba = self.connect_oneway(b, b_if, a, link);
        let id = self.adjacencies.len();
        self.adjacencies.push(Adjacency { a, b, a_if, b_if, ab, ba, up: true });
        self.adj_of.insert(key, id);
        self.routers[a].ifaces.insert(b, a_if);
        self.routers[b].ifaces.insert(a, b_if);
        self.routers[a].neighbors.push((b, id));
        self.routers[b].neighbors.push((a, id));
        id
    }

    /// Dismantles the builder into its simulator and node bookkeeping —
    /// how the bespoke chain/diamond topologies take ownership after
    /// wiring through the shared primitives.
    pub(crate) fn into_parts(self) -> TopologyParts {
        TopologyParts {
            sim: self.sim,
            router_nodes: self.routers.iter().map(|r| r.node).collect(),
            hosts: self.routers.iter().map(|r| r.host).collect(),
            drkey_masters: self.routers.iter().map(|r| r.master).collect(),
        }
    }

    // ---- generated constructors -------------------------------------------

    /// Builds a ring-of-PoPs ISP backbone per `spec` (see
    /// [`BackboneSpec`]). Deterministic in `spec.seed`.
    pub fn ring_of_pops(spec: &BackboneSpec, start_ns: u64, cfg: RouterConfig) -> Self {
        assert!(spec.pops >= 3, "a ring needs at least 3 PoPs");
        assert!(spec.routers_per_pop >= 1);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut t = Self::new(start_ns, cfg);
        let pops: Vec<Vec<RouterId>> = (0..spec.pops)
            .map(|_| (0..spec.routers_per_pop).map(|_| t.add_router(&mut rng)).collect())
            .collect();
        // Full mesh inside each PoP.
        for pop in &pops {
            for i in 0..pop.len() {
                for j in i + 1..pop.len() {
                    t.connect(pop[i], pop[j], spec.intra_link);
                }
            }
        }
        // The ring: one long-haul link per router index between
        // adjacent PoPs (parallel paths of equal PoP count).
        for p in 0..spec.pops {
            let q = (p + 1) % spec.pops;
            for (&a, &b) in pops[p].iter().zip(&pops[q]) {
                t.connect(a, b, spec.pop_link);
            }
        }
        // Seeded chords between non-adjacent PoPs, attached to each
        // PoP's *last* router: reaching a chord from lane 0 costs an
        // intra-PoP hop on both ends, so chords shorten long failover
        // detours without beating short ring paths on hop count (BFS
        // ties resolve to the ring, whose links are inserted first).
        let last = spec.routers_per_pop - 1;
        for _ in 0..spec.chords {
            let p = rng.gen_range(0..spec.pops);
            let q = rng.gen_range(0..spec.pops);
            let ring_adjacent = (p + 1) % spec.pops == q || (q + 1) % spec.pops == p;
            if p == q
                || ring_adjacent
                || t.adjacency_between(pops[p][last], pops[q][last]).is_some()
            {
                continue;
            }
            t.connect(pops[p][last], pops[q][last], spec.pop_link);
        }
        t
    }

    /// Builds a `k`-ary fat-tree region (`k` even): `(k/2)²` core
    /// routers and `k` pods of `k/2` aggregation + `k/2` edge routers.
    /// `seed` drives key material only — the wiring is the classic
    /// fixed fat-tree.
    pub fn fat_tree(k: usize, seed: u64, link: LinkSpec, start_ns: u64, cfg: RouterConfig) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
        let half = k / 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Self::new(start_ns, cfg);
        let cores: Vec<RouterId> = (0..half * half).map(|_| t.add_router(&mut rng)).collect();
        for _pod in 0..k {
            let aggs: Vec<RouterId> = (0..half).map(|_| t.add_router(&mut rng)).collect();
            let edges: Vec<RouterId> = (0..half).map(|_| t.add_router(&mut rng)).collect();
            for &e in &edges {
                for &a in &aggs {
                    t.connect(e, a, link);
                }
            }
            for (j, &a) in aggs.iter().enumerate() {
                for c in 0..half {
                    t.connect(a, cores[j * half + c], link);
                }
            }
        }
        t
    }

    /// Builds a customer/provider/peer AS hierarchy per `spec` (see
    /// [`HierarchySpec`]). Deterministic in `spec.seed`.
    pub fn as_hierarchy(spec: &HierarchySpec, start_ns: u64, cfg: RouterConfig) -> Self {
        assert!(spec.tier1 >= 1);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut t = Self::new(start_ns, cfg);
        let tier1: Vec<RouterId> = (0..spec.tier1).map(|_| t.add_router(&mut rng)).collect();
        let tier2: Vec<RouterId> = (0..spec.tier2).map(|_| t.add_router(&mut rng)).collect();
        let stubs: Vec<RouterId> = (0..spec.stubs).map(|_| t.add_router(&mut rng)).collect();
        // Tier-1 peer mesh.
        for i in 0..tier1.len() {
            for j in i + 1..tier1.len() {
                t.connect(tier1[i], tier1[j], spec.core_link);
            }
        }
        // Tier-2: dual-homed to tier-1 providers.
        for &r in &tier2 {
            let a = rng.gen_range(0..spec.tier1);
            let mut b = rng.gen_range(0..spec.tier1);
            if b == a {
                b = (a + 1) % spec.tier1;
            }
            t.connect(r, tier1[a], spec.core_link);
            if b != a {
                t.connect(r, tier1[b], spec.core_link);
            }
        }
        // Stubs: homed to one or two tier-2 providers (or straight to
        // tier-1 when there is no tier-2).
        for &r in &stubs {
            if spec.tier2 == 0 {
                t.connect(r, tier1[rng.gen_range(0..spec.tier1)], spec.edge_link);
                continue;
            }
            let a = rng.gen_range(0..spec.tier2);
            t.connect(r, tier2[a], spec.edge_link);
            if rng.gen_bool(0.5) && spec.tier2 > 1 {
                let mut b = rng.gen_range(0..spec.tier2);
                if b == a {
                    b = (a + 1) % spec.tier2;
                }
                t.connect(r, tier2[b], spec.edge_link);
            }
        }
        // Lateral tier-2 peering.
        for _ in 0..spec.peering {
            if spec.tier2 < 2 {
                break;
            }
            let a = rng.gen_range(0..spec.tier2);
            let b = rng.gen_range(0..spec.tier2);
            if a == b || t.adjacency_between(tier2[a], tier2[b]).is_some() {
                continue;
            }
            t.connect(tier2[a], tier2[b], spec.core_link);
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

    /// Simulator node of router `r`.
    pub fn router_node(&self, r: RouterId) -> NodeId {
        self.routers[r].node
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

    /// A fresh engine for router `r` under the currently installed
    /// scenario (Hummingbird single-engine before any
    /// [`install_engines`](TopologyBuilder::install_engines) call).
    fn fresh_engine(&self, r: RouterId) -> Box<dyn Datapath + Send> {
        let scenario =
            self.engines.unwrap_or(EngineScenario { family: EngineFamily::Hummingbird, shards: 1 });
        let meta = &self.routers[r];
        scenario.deploy(&meta.sv, &meta.hop_key, &meta.master, self.engine_cfg)
    }

    /// Swaps every router's engine for `scenario`'s family (sharded per
    /// `scenario.shards`) — the same knob as
    /// [`crate::LinearTopology::install_engines`], remembered so a
    /// churn [`reboot_router`](TopologyBuilder::reboot_router) rebuilds
    /// the right engine.
    pub fn install_engines(&mut self, scenario: EngineScenario, cfg: RouterConfig) {
        self.engines = Some(scenario);
        self.engine_cfg = cfg;
        for r in 0..self.routers.len() {
            let engine = self.fresh_engine(r);
            self.sim.replace_engine(self.routers[r].node, engine).ok().expect("router node");
        }
    }

    /// Installs `model` on every router node (or clears with `None`),
    /// remembered so reboots re-install it with idle cores.
    pub fn set_service_model(&mut self, model: Option<ServiceModel>) {
        self.service = model;
        for r in &self.routers {
            self.sim.set_router_service(r.node, model);
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

    /// The per-hop (ingress, egress) interface pairs of `path`: entry
    /// ingress and final egress are 0 (host-facing / local delivery),
    /// transit interfaces are the per-adjacency port numbers.
    fn path_interfaces(&self, path: &[RouterId]) -> Vec<(u16, u16)> {
        let last = path.len() - 1;
        path.iter()
            .enumerate()
            .map(|(i, &r)| {
                let ingress = if i == 0 { 0 } else { self.routers[r].ifaces[&path[i - 1]] };
                let egress = if i == last { 0 } else { self.routers[r].ifaces[&path[i + 1]] };
                (ingress, egress)
            })
            .collect()
    }

    /// Builds a source generator over `path`, attaching `family`
    /// credentials (at `credential_kbps`) on every hop when requested.
    fn build_generator(
        &mut self,
        family: EngineFamily,
        path: &[RouterId],
        src: IsdAs,
        dst: IsdAs,
        credential_kbps: Option<u64>,
        now_s: u64,
    ) -> SourceGenerator {
        let ifaces = self.path_interfaces(path);
        let hops: Vec<BeaconHop> = path
            .iter()
            .zip(&ifaces)
            .map(|(&r, &(ingress, egress))| BeaconHop {
                key: self.routers[r].hop_key.clone(),
                cons_ingress: ingress,
                cons_egress: egress,
            })
            .collect();
        let mut generator = SourceGenerator::new(src, dst, forge_path(&hops, self.info_ts, BETA0));
        if let Some(kbps) = credential_kbps {
            let mut next_res_id = self.next_res_id;
            for (i, (&r, &(ingress, egress))) in path.iter().zip(&ifaces).enumerate() {
                let meta = &self.routers[r];
                let credential = family.credential(
                    &meta.sv,
                    &meta.master,
                    ingress,
                    egress,
                    &mut next_res_id,
                    src,
                    kbps,
                    now_s,
                );
                generator.attach_reservation(i, credential).expect("matching interfaces");
            }
            self.next_res_id = next_res_id;
        }
        generator
    }

    /// Adds `flow` from a fresh source identity behind `src_router` to
    /// `dst_router`'s attached host, routed by
    /// [`shortest_path`](TopologyBuilder::shortest_path), with `family`'s
    /// per-hop credential on every hop when `flow.credential_kbps` asks
    /// for one. The route is remembered, so churn re-paths the flow (a
    /// closed loop's retransmissions follow the new path).
    pub fn add_family_flow(
        &mut self,
        family: EngineFamily,
        src_router: RouterId,
        dst_router: RouterId,
        flow: &FlowSpec,
        start_ns: u64,
        stop_ns: u64,
    ) -> FlowId {
        assert!(self.routers[dst_router].host.is_some(), "destination router has no host");
        let path = self.shortest_path(src_router, dst_router).expect("graph is connected");
        self.next_flow_src += 1;
        let src = IsdAs::new(FLOW_ISD, self.next_flow_src);
        let dst = self.routers[dst_router].isd_as;
        let credential_kbps = flow.credential_kbps;
        let generator = self.build_generator(
            family,
            &path,
            src,
            dst,
            credential_kbps,
            start_ns / 1_000_000_000,
        );
        let entry = self.routers[path[0]].node;
        let id = flow.add_to(&mut self.sim, generator, entry, start_ns, stop_ns);
        self.routes.push(FlowRoute {
            flow: id,
            family,
            src,
            dst,
            src_router,
            dst_router,
            credential_kbps,
            path,
        });
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
    /// installed scenario — `AuthKeyCache`, policer buckets and the
    /// duplicate suppressor all come back cold — and the service model
    /// restarts with idle cores. Returns the discarded engine's final
    /// counters (the stats lost to the reboot).
    pub fn reboot_router(&mut self, r: RouterId) -> DatapathStats {
        let discarded = self.sim.router_stats(self.routers[r].node).unwrap_or_default();
        let engine = self.fresh_engine(r);
        self.sim.replace_engine(self.routers[r].node, engine).ok().expect("router node");
        self.sim.set_router_service(self.routers[r].node, self.service);
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
            if self.path_is_live(&self.routes[i].path) {
                continue;
            }
            if !self.sim.flow_is_active(self.routes[i].flow) {
                continue;
            }
            let (flow, family, src, dst, src_router, dst_router, credential_kbps) = {
                let r = &self.routes[i];
                (r.flow, r.family, r.src, r.dst, r.src_router, r.dst_router, r.credential_kbps)
            };
            match self.shortest_path(src_router, dst_router) {
                None => stranded += 1,
                Some(path) => {
                    let now_s = self.sim.now_ns() / 1_000_000_000;
                    let generator =
                        self.build_generator(family, &path, src, dst, credential_kbps, now_s);
                    let entry = self.routers[path[0]].node;
                    self.sim.set_flow_route(flow, generator, entry);
                    self.routes[i].path = path;
                    moved += 1;
                }
            }
        }
        (moved, stranded)
    }
}
