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

use crate::scenario::{EngineScenario, LinkSpec};
use crate::sim::{Flow, FlowId, NodeId, ServiceModel, Simulator};
use hummingbird_baselines::EngineFamily;
use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::{
    forge_path, BeaconHop, RouterConfig, SourceGenerator, SourceReservation,
};
use hummingbird_wire::bwcls;
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;
use std::collections::HashMap;

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
    keys: HashMap<&'static str, (HopMacKey, SecretValue)>,
    /// Per-AS DRKey masters for the baseline engine families, derived
    /// from the SV bytes like [`crate::LinearTopology`] derives its own.
    masters: HashMap<&'static str, [u8; 16]>,
    info_ts: u32,
    next_res_id: u32,
}

impl DiamondTopology {
    /// Builds the diamond with uniform link parameters. Wiring (and the
    /// DRKey-master derivation) goes through the shared
    /// [`TopologyBuilder`](crate::TopologyBuilder) primitives; only the
    /// branch/T interface convention is owned here.
    pub fn build(link: LinkSpec, start_ns: u64, cfg: RouterConfig) -> Self {
        let mut keys = HashMap::new();
        let mut builder = crate::TopologyBuilder::new(start_ns, cfg);
        let mut ids = Vec::new();
        for (i, (name, seed)) in [("P", 0x11u8), ("Q", 0x22), ("T", 0x33)].iter().enumerate() {
            let sv_bytes = [seed ^ 0xFF; 16];
            keys.insert(*name, (HopMacKey::new([*seed; 16]), SecretValue::new(sv_bytes)));
            ids.push(builder.add_router_keyed(
                [*seed; 16],
                sv_bytes,
                IsdAs::new(1, 0x100 + i as u64),
            ));
        }
        let (p, q, t) = (ids[0], ids[1], ids[2]);
        builder.attach_host(t);
        builder.connect_oneway(p, BRANCH_EGRESS, t, link);
        builder.connect_oneway(q, BRANCH_EGRESS, t, link);
        let parts = builder.into_parts();
        let masters = ["P", "Q", "T"]
            .into_iter()
            .zip(parts.drkey_masters.iter().copied())
            .collect::<HashMap<_, _>>();
        DiamondTopology {
            sim: parts.sim,
            as_p: parts.router_nodes[p],
            as_q: parts.router_nodes[q],
            as_t: parts.router_nodes[t],
            dest: parts.hosts[t].expect("host attached to T"),
            keys,
            masters,
            info_ts: (start_ns / 1_000_000_000) as u32,
            next_res_id: 0,
        }
    }

    fn branch_names(branch: Branch) -> (&'static str, u16) {
        match branch {
            Branch::P => ("P", T_INGRESS_P),
            Branch::Q => ("Q", T_INGRESS_Q),
        }
    }

    /// Swaps every router node's engine for `scenario`'s family (sharded
    /// across `scenario.shards` engines when more than one) — the
    /// multipath face of the family sweep, mirroring
    /// [`crate::LinearTopology::install_engines`].
    pub fn install_engines(&mut self, scenario: EngineScenario, cfg: RouterConfig) {
        for (name, node) in [("P", self.as_p), ("Q", self.as_q), ("T", self.as_t)] {
            let (hop_key, sv) = &self.keys[name];
            let engine = scenario.deploy(sv, hop_key, &self.masters[name], cfg);
            self.sim.replace_engine(node, engine).ok().expect("diamond nodes are routers");
        }
    }

    /// Installs `model` on every router node (or clears it with `None`).
    pub fn set_service_model(&mut self, model: Option<ServiceModel>) {
        for node in [self.as_p, self.as_q, self.as_t] {
            self.sim.set_router_service(node, model);
        }
    }

    /// [`add_flow`](DiamondTopology::add_flow) generalized over the
    /// engine family: `credential_kbps` of `Some(r)` attaches the
    /// family's credential at both on-path ASes (the branch AS and T);
    /// `None` sends plain best-effort SCION. Pair with
    /// [`install_engines`](DiamondTopology::install_engines).
    #[allow(clippy::too_many_arguments)]
    pub fn add_family_flow(
        &mut self,
        family: EngineFamily,
        branch: Branch,
        src: IsdAs,
        dst: IsdAs,
        payload_len: usize,
        rate_kbps: u64,
        credential_kbps: Option<u64>,
        start_ns: u64,
        stop_ns: u64,
    ) -> FlowId {
        let (name, t_ingress) = Self::branch_names(branch);
        let mut reservations = Vec::new();
        if let Some(r) = credential_kbps {
            let now_s = start_ns / 1_000_000_000;
            for (hop, as_name, ingress, egress) in
                [(0usize, name, 0u16, BRANCH_EGRESS), (1, "T", t_ingress, 0)]
            {
                let (_, sv) = &self.keys[as_name];
                let credential = family.credential(
                    sv,
                    &self.masters[as_name],
                    ingress,
                    egress,
                    &mut self.next_res_id,
                    src,
                    r,
                    now_s,
                );
                reservations.push((hop, credential));
            }
        }
        self.add_flow(branch, src, dst, payload_len, rate_kbps, reservations, start_ns, stop_ns)
    }

    /// A beaconed 2-hop path over `branch` then T.
    pub fn make_generator(&self, branch: Branch, src: IsdAs, dst: IsdAs) -> SourceGenerator {
        let (name, t_ingress) = Self::branch_names(branch);
        let hops = vec![
            BeaconHop {
                key: self.keys[name].0.clone(),
                cons_ingress: 0,
                cons_egress: BRANCH_EGRESS,
            },
            BeaconHop { key: self.keys["T"].0.clone(), cons_ingress: t_ingress, cons_egress: 0 },
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
        let (_, t_ingress) = Self::branch_names(branch);
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
        let key = self.keys["T"].1.derive_key(&res_info);
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
        let (name, _) = Self::branch_names(branch);
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
        let key = self.keys[name].1.derive_key(&res_info);
        SourceReservation { res_info, key }
    }

    /// Adds a CBR flow over `branch` with optional reservations at the
    /// branch AS and at T.
    #[allow(clippy::too_many_arguments)]
    pub fn add_flow(
        &mut self,
        branch: Branch,
        src: IsdAs,
        dst: IsdAs,
        payload_len: usize,
        rate_kbps: u64,
        reservations: Vec<(usize, SourceReservation)>,
        start_ns: u64,
        stop_ns: u64,
    ) -> FlowId {
        let mut generator = self.make_generator(branch, src, dst);
        for (hop, res) in reservations {
            generator.attach_reservation(hop, res).expect("matching interfaces");
        }
        let entry = match branch {
            Branch::P => self.as_p,
            Branch::Q => self.as_q,
        };
        let interval_ns = (payload_len as u64 * 8).saturating_mul(1_000_000) / rate_kbps.max(1);
        self.sim.add_flow(Flow { generator, entry, payload_len, interval_ns, start_ns, stop_ns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const START_S: u64 = 1_700_000_000;
    const START_NS: u64 = START_S * 1_000_000_000;
    const SEC: u64 = 1_000_000_000;

    #[test]
    fn both_branches_deliver() {
        let mut d = DiamondTopology::build(LinkSpec::default(), START_NS, RouterConfig::default());
        let src = IsdAs::new(1, 1);
        let dst = IsdAs::new(2, 2);
        let p = d.add_flow(Branch::P, src, dst, 500, 1_000, vec![], START_NS, START_NS + SEC);
        let q = d.add_flow(Branch::Q, src, dst, 500, 1_000, vec![], START_NS, START_NS + SEC);
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
        let src = IsdAs::new(1, 1);
        let dst = IsdAs::new(2, 2);
        let f = d.add_flow(
            Branch::P,
            src,
            dst,
            500,
            1_000,
            vec![(0, res_branch), (1, res_t)],
            START_NS,
            START_NS + SEC,
        );
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
        let src = IsdAs::new(1, 1);
        let dst = IsdAs::new(2, 2);
        let run = 2 * SEC;

        // Full-path reservations for both flows, with *separate*
        // reservations at the shared AS T (the §5.4 mitigation).
        let res_p_branch = d.reservation_at_branch(Branch::P, 5_000, START_S as u32 - 5, u16::MAX);
        let res_q_branch = d.reservation_at_branch(Branch::Q, 5_000, START_S as u32 - 5, u16::MAX);
        let res_p = d.reservation_at_t(Branch::P, 5_000, START_S as u32 - 5, u16::MAX, None);
        let res_q = d.reservation_at_t(Branch::Q, 5_000, START_S as u32 - 5, u16::MAX, None);
        let flow_p = d.add_flow(
            Branch::P,
            src,
            dst,
            1000,
            2_000,
            vec![(0, res_p_branch), (1, res_p)],
            START_NS,
            START_NS + run,
        );
        let flow_q = d.add_flow(
            Branch::Q,
            src,
            dst,
            1000,
            2_000,
            vec![(0, res_q_branch), (1, res_q)],
            START_NS,
            START_NS + run,
        );
        // Congestion on the shared links.
        let _flood = d.add_flow(
            Branch::P,
            IsdAs::new(6, 6),
            dst,
            1000,
            30_000,
            vec![],
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
