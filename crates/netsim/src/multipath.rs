//! A diamond (two-path) topology for multi-path experiments — the exact
//! shape of the paper's Fig. 3: a source with two paths `P` and `Q` that
//! share a target AS `T`, with an adversary sitting on `Q` only.
//!
//! ```text
//!            ┌── AS_P ──┐
//!  source ───┤          ├── AS_T ── dest
//!            └── AS_Q ──┘   (shared)
//! ```
//!
//! SCION's path choice is what makes the paper's market liquid (§5.3) and
//! what creates the on-reservation-set adversary class (§5.1); this
//! topology lets tests and examples exercise both with real packets.
//! Engine families, service models and family-credentialed flows come
//! through a [`Scenario`](crate::Scenario) on
//! [`Topology::Diamond`](crate::Topology::Diamond); by hand, build paths
//! with [`DiamondTopology::make_generator`] and the reservation helpers.

use crate::scenario::{EngineScenario, FlowSpec, LinkSpec};
use crate::sim::{FlowId, NodeId, ServiceModel, Simulator};
use hummingbird_baselines::EngineFamily;
use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::{
    forge_path, BeaconHop, RouterConfig, SourceGenerator, SourceReservation,
};
use hummingbird_wire::bwcls;
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;

/// Which of the two disjoint branches a path uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// The upper branch (`P` in Fig. 3).
    P,
    /// The lower branch (`Q` in Fig. 3 — where the adversary sits).
    Q,
}

/// Interface conventions on the diamond:
/// * branch ASes: ingress 0 (host-facing), egress 1 (toward T);
/// * shared AS T: ingress 2 from P, ingress 3 from Q, egress 0 (local
///   delivery to the destination host).
const BRANCH_EGRESS: u16 = 1;
const T_INGRESS_P: u16 = 2;
const T_INGRESS_Q: u16 = 3;

/// Index of the shared AS T in [`DiamondTopology`]'s per-AS arrays
/// (P is 0, Q is 1).
const T: usize = 2;

/// One AS's key material.
struct AsKeys {
    hop_key: HopMacKey,
    sv: SecretValue,
    /// DRKey hierarchy root for the baseline engine families, derived
    /// from the SV bytes like [`crate::LinearTopology`] derives its own.
    master: [u8; 16],
}

/// The assembled diamond.
pub struct DiamondTopology {
    /// The simulator, wired.
    pub sim: Simulator,
    /// Branch AS for path P.
    pub as_p: NodeId,
    /// Branch AS for path Q.
    pub as_q: NodeId,
    /// The shared target AS T.
    pub as_t: NodeId,
    /// Destination host behind T.
    pub dest: NodeId,
    /// Key material of P, Q and T, in that order.
    keys: [AsKeys; 3],
    info_ts: u32,
    next_res_id: u32,
}

impl DiamondTopology {
    /// Builds the diamond with uniform link parameters. Wiring (and the
    /// DRKey-master derivation) goes through the shared
    /// [`TopologyBuilder`](crate::TopologyBuilder) primitives; only the
    /// branch/T interface convention is owned here.
    pub fn build(link: LinkSpec, start_ns: u64, cfg: RouterConfig) -> Self {
        let seeds = [0x11u8, 0x22, 0x33];
        let mut builder = crate::TopologyBuilder::new(start_ns, cfg);
        for (i, seed) in seeds.into_iter().enumerate() {
            builder.add_router_keyed(
                [seed; 16],
                [seed ^ 0xFF; 16],
                IsdAs::new(1, 0x100 + i as u64),
            );
        }
        builder.attach_host(T);
        builder.connect_oneway(0, BRANCH_EGRESS, T, link);
        builder.connect_oneway(1, BRANCH_EGRESS, T, link);
        let parts = builder.into_parts();
        let keys = std::array::from_fn(|i| AsKeys {
            hop_key: HopMacKey::new([seeds[i]; 16]),
            sv: SecretValue::new([seeds[i] ^ 0xFF; 16]),
            master: parts.drkey_masters[i],
        });
        DiamondTopology {
            sim: parts.sim,
            as_p: parts.router_nodes[0],
            as_q: parts.router_nodes[1],
            as_t: parts.router_nodes[T],
            dest: parts.hosts[T].expect("host attached to T"),
            keys,
            info_ts: (start_ns / 1_000_000_000) as u32,
            next_res_id: 0,
        }
    }

    /// The branch AS's index in the per-AS arrays, and T's ingress
    /// interface from it.
    fn branch_as(branch: Branch) -> (usize, u16) {
        match branch {
            Branch::P => (0, T_INGRESS_P),
            Branch::Q => (1, T_INGRESS_Q),
        }
    }

    fn nodes(&self) -> [NodeId; 3] {
        [self.as_p, self.as_q, self.as_t]
    }

    /// Swaps every router node's engine for `scenario`'s family (sharded
    /// across `scenario.shards` engines when more than one), mirroring
    /// [`crate::LinearTopology::install_engines`].
    pub(crate) fn install_engines(&mut self, scenario: EngineScenario, cfg: RouterConfig) {
        for (k, node) in self.keys.iter().zip(self.nodes()) {
            let engine = scenario.deploy(&k.sv, &k.hop_key, &k.master, cfg);
            self.sim.replace_engine(node, engine).ok().expect("diamond nodes are routers");
        }
    }

    /// Installs `model` on every router node (or clears it with `None`).
    pub(crate) fn set_service_model(&mut self, model: Option<ServiceModel>) {
        for node in self.nodes() {
            self.sim.set_router_service(node, model);
        }
    }

    /// Adds `flow` over `branch` then T, with `family`'s credential at
    /// both on-path ASes when `flow.credential_kbps` asks for one. Pair
    /// with [`install_engines`](DiamondTopology::install_engines).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_family_flow(
        &mut self,
        family: EngineFamily,
        branch: Branch,
        src: IsdAs,
        dst: IsdAs,
        flow: &FlowSpec,
        start_ns: u64,
        stop_ns: u64,
    ) -> FlowId {
        let (b, t_ingress) = Self::branch_as(branch);
        let mut generator = self.make_generator(branch, src, dst);
        if let Some(r) = flow.credential_kbps {
            for (hop, i, ingress, egress) in [(0, b, 0, BRANCH_EGRESS), (1, T, t_ingress, 0)] {
                let k = &self.keys[i];
                let credential = family.credential(
                    &k.sv,
                    &k.master,
                    ingress,
                    egress,
                    &mut self.next_res_id,
                    src,
                    r,
                    start_ns / 1_000_000_000,
                );
                generator.attach_reservation(hop, credential).expect("matching interfaces");
            }
        }
        let entry = self.nodes()[b];
        flow.add_to(&mut self.sim, generator, entry, start_ns, stop_ns)
    }

    /// A beaconed 2-hop path over `branch` then T.
    pub fn make_generator(&self, branch: Branch, src: IsdAs, dst: IsdAs) -> SourceGenerator {
        let (b, t_ingress) = Self::branch_as(branch);
        let hops = vec![
            BeaconHop {
                key: self.keys[b].hop_key.clone(),
                cons_ingress: 0,
                cons_egress: BRANCH_EGRESS,
            },
            BeaconHop {
                key: self.keys[T].hop_key.clone(),
                cons_ingress: t_ingress,
                cons_egress: 0,
            },
        ];
        SourceGenerator::new(src, dst, forge_path(&hops, self.info_ts, 0x5151))
    }

    /// A reservation at the shared AS T for traffic arriving over
    /// `branch`. With `shared_res_id = Some(id)` the caller can force two
    /// paths onto one reservation identity **only if they also share the
    /// ingress interface** — on this topology the two branches enter T on
    /// different interfaces, so per-path reservations are the natural
    /// shape and sharing means reusing the same grant on one branch.
    pub fn reservation_at_t(
        &mut self,
        branch: Branch,
        bw_kbps: u64,
        res_start: u32,
        duration_s: u16,
        shared_res_id: Option<u32>,
    ) -> SourceReservation {
        let (_, t_ingress) = Self::branch_as(branch);
        let res_id = shared_res_id.unwrap_or_else(|| {
            let id = self.next_res_id;
            self.next_res_id += 1;
            id
        });
        let res_info = ResInfo {
            ingress: t_ingress,
            egress: 0,
            res_id,
            bw_encoded: bwcls::encode_ceil(bw_kbps).expect("encodable"),
            res_start,
            duration: duration_s,
        };
        let key = self.keys[T].sv.derive_key(&res_info);
        SourceReservation { res_info, key }
    }

    /// A reservation at the branch AS itself.
    pub fn reservation_at_branch(
        &mut self,
        branch: Branch,
        bw_kbps: u64,
        res_start: u32,
        duration_s: u16,
    ) -> SourceReservation {
        let (b, _) = Self::branch_as(branch);
        let id = self.next_res_id;
        self.next_res_id += 1;
        let res_info = ResInfo {
            ingress: 0,
            egress: BRANCH_EGRESS,
            res_id: id,
            bw_encoded: bwcls::encode_ceil(bw_kbps).expect("encodable"),
            res_start,
            duration: duration_s,
        };
        let key = self.keys[b].sv.derive_key(&res_info);
        SourceReservation { res_info, key }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const START_S: u64 = 1_700_000_000;
    const START_NS: u64 = START_S * 1_000_000_000;
    const SEC: u64 = 1_000_000_000;

    /// A flow over `branch` carrying explicit reservations at the branch
    /// AS and at T: one `payload_len`-byte packet every 4 ms.
    fn add_reserved_flow(
        d: &mut DiamondTopology,
        branch: Branch,
        payload_len: usize,
        reservations: [SourceReservation; 2],
        stop_ns: u64,
    ) -> FlowId {
        let mut generator = d.make_generator(branch, IsdAs::new(1, 1), IsdAs::new(2, 2));
        for (hop, res) in reservations.into_iter().enumerate() {
            generator.attach_reservation(hop, res).unwrap();
        }
        let entry = d.nodes()[DiamondTopology::branch_as(branch).0];
        let interval_ns = 4_000_000;
        d.sim.add_flow(crate::Flow {
            generator,
            entry,
            payload_len,
            interval_ns,
            start_ns: START_NS,
            stop_ns,
        })
    }

    #[test]
    fn both_branches_deliver() {
        let mut d = DiamondTopology::build(LinkSpec::default(), START_NS, RouterConfig::default());
        let src = IsdAs::new(1, 1);
        let dst = IsdAs::new(2, 2);
        let flow = FlowSpec::cbr(500, 1_000, None);
        let [p, q] = [Branch::P, Branch::Q].map(|branch| {
            d.add_family_flow(
                EngineFamily::Hummingbird,
                branch,
                src,
                dst,
                &flow,
                START_NS,
                START_NS + SEC,
            )
        });
        d.sim.run_until(START_NS + 2 * SEC);
        for f in [p, q] {
            let s = d.sim.stats(f);
            assert!(s.delivery_ratio() > 0.99, "flow {f}: {s:?}");
        }
    }

    #[test]
    fn reservations_verify_on_both_hops() {
        let mut d = DiamondTopology::build(LinkSpec::default(), START_NS, RouterConfig::default());
        let res_branch = d.reservation_at_branch(Branch::P, 2_000, START_S as u32 - 5, u16::MAX);
        let res_t = d.reservation_at_t(Branch::P, 2_000, START_S as u32 - 5, u16::MAX, None);
        let f = add_reserved_flow(&mut d, Branch::P, 500, [res_branch, res_t], START_NS + SEC);
        d.sim.run_until(START_NS + 2 * SEC);
        let s = d.sim.stats(f);
        assert!(s.delivery_ratio() > 0.99);
        let rs_t = d.sim.router_stats(d.as_t).unwrap();
        assert_eq!(rs_t.flyover, s.sent_pkts, "priority at the shared AS");
    }

    /// The full Fig. 3 shape: the adversary on branch Q duplicates the
    /// source's Q traffic toward T. With per-path reservations at T, the
    /// source's P traffic is untouched.
    #[test]
    fn fig3_adversary_on_q_cannot_touch_p() {
        let mut d = DiamondTopology::build(LinkSpec::default(), START_NS, RouterConfig::default());
        let run = 2 * SEC;

        // Full-path reservations for both flows, with *separate*
        // reservations at the shared AS T (the §5.4 mitigation).
        let res_p_branch = d.reservation_at_branch(Branch::P, 5_000, START_S as u32 - 5, u16::MAX);
        let res_q_branch = d.reservation_at_branch(Branch::Q, 5_000, START_S as u32 - 5, u16::MAX);
        let res_p = d.reservation_at_t(Branch::P, 5_000, START_S as u32 - 5, u16::MAX, None);
        let res_q = d.reservation_at_t(Branch::Q, 5_000, START_S as u32 - 5, u16::MAX, None);
        let flow_p =
            add_reserved_flow(&mut d, Branch::P, 1000, [res_p_branch, res_p], START_NS + run);
        let flow_q =
            add_reserved_flow(&mut d, Branch::Q, 1000, [res_q_branch, res_q], START_NS + run);
        // Congestion on the shared links.
        let _flood = d.add_family_flow(
            EngineFamily::Hummingbird,
            Branch::P,
            IsdAs::new(6, 6),
            IsdAs::new(2, 2),
            &FlowSpec::cbr(1000, 30_000, None),
            START_NS,
            START_NS + run,
        );
        // The adversary duplicates Q's packets into T.
        d.sim.add_replay_tap(flow_q, d.as_t, 19, 200_000);
        d.sim.run_until(START_NS + run + SEC);

        let p = d.sim.stats(flow_p);
        assert!(
            p.delivery_ratio() > 0.99,
            "path P must be isolated from the Q adversary: {}",
            p.delivery_ratio()
        );
    }
}
