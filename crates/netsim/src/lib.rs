//! # hummingbird-netsim
//!
//! A discrete-event inter-domain network simulator used to validate the
//! paper's QoS and DoS-resilience claims (property D2, §3.1/§5.4) on top
//! of the real Hummingbird data plane: every simulated border router runs
//! the actual [`hummingbird_dataplane::BorderRouter`] pipeline over real
//! packet bytes, and links schedule reservation traffic with strict
//! priority over best effort.
//!
//! * [`sim`] — the event engine: nodes, priority links, flows, replay
//!   adversaries.
//! * [`scenario`] — ready-made linear topologies and CBR flow plumbing,
//!   plus the [`EngineScenario`] config that reruns any experiment with
//!   every router node swapped to another [`EngineFamily`] (the table
//!   lives in `hummingbird-baselines` and is re-exported here),
//!   optionally sharded.
//! * [`topo`] — seed-driven Internet-scale topology generation
//!   (ring-of-PoPs backbones, fat trees, AS hierarchies) over the same
//!   real-router nodes, with BFS routing and per-family credentials.
//! * [`churn`] — fault injection on the simulator clock: link down/up,
//!   cold router reboots, and mid-epoch reroute of stranded flows.
//! * [`flow`] — closed-loop reactive flows: windowed, ack-clocked
//!   senders with RTO/backoff retransmission and a bounded retry
//!   budget, the senders the overload scenarios drive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod flow;
pub mod multipath;
pub mod scenario;
pub mod sim;
pub mod topo;

pub use churn::{
    apply_action, run_with_churn, ChurnAction, ChurnEvent, ChurnOutcome, ChurnPlan, ChurnRecord,
    ChurnReport,
};
pub use flow::{FlowEvent, FlowEventKind, ReactiveFlow};
pub use hummingbird_baselines::EngineFamily;
pub use multipath::{Branch, DiamondTopology};
pub use scenario::{
    run_churn_scenario, run_latency_churn_scenario, run_latency_scenario, run_multipath_scenario,
    run_overload_churn_scenario, run_overload_scenario, run_partial_path_scenario,
    ChurnScenarioOutcome, ChurnSpec, EngineScenario, LatencyChurnOutcome, LatencyOutcome,
    LatencySpec, LinearTopology, LinkSpec, MultipathOutcome, OverloadChurnOutcome,
    OverloadChurnSpec, OverloadOutcome, OverloadPoint, OverloadSpec, PartialPathOutcome,
    ReactiveProfile,
};
pub use sim::{
    Class, Flow, FlowId, FlowStats, Node, NodeId, ReplayTap, ServiceModel, SimPacket, Simulator,
};
pub use topo::{
    AdjId, Adjacency, BackboneSpec, HierarchySpec, RouterId, TopologyBuilder, TopologyParts,
};

#[cfg(test)]
mod tests {
    use super::*;
    use hummingbird_dataplane::RouterConfig;
    use hummingbird_wire::IsdAs;

    const START_S: u64 = 1_700_000_000;
    const START_NS: u64 = START_S * 1_000_000_000;
    const SEC: u64 = 1_000_000_000;

    fn src() -> IsdAs {
        IsdAs::new(1, 0xa)
    }
    fn dst() -> IsdAs {
        IsdAs::new(2, 0xb)
    }
    fn atk() -> IsdAs {
        IsdAs::new(3, 0xc)
    }

    /// The headline QoS property (D2): under a flooding attack on a
    /// bottleneck link, the reserved flow keeps its goodput and latency
    /// while the attacker only gets leftover capacity.
    #[test]
    fn reservation_protects_against_flooding() {
        let mut topo = LinearTopology::build(
            3,
            LinkSpec::default(), // 10 Mbps bottlenecks
            START_NS,
            RouterConfig::default(),
        );
        let run_s = 2;
        // Victim: 2 Mbps with reservations on every hop.
        let victim = topo.add_cbr_flow(
            src(),
            dst(),
            1000,
            2_000,
            Some(3_000),
            START_NS,
            START_NS + run_s * SEC,
        );
        // Attacker: 30 Mbps best-effort flood (3× the bottleneck).
        let attacker =
            topo.add_cbr_flow(atk(), dst(), 1000, 30_000, None, START_NS, START_NS + run_s * SEC);
        topo.sim.run_until(START_NS + (run_s + 1) * SEC);

        let v = topo.sim.stats(victim);
        let a = topo.sim.stats(attacker);
        assert!(
            v.delivery_ratio() > 0.99,
            "victim delivery ratio {} under flood",
            v.delivery_ratio()
        );
        // Victim goodput ≈ its sending rate.
        let goodput = v.goodput_kbps(run_s as f64);
        assert!(goodput > 1_800.0, "victim goodput {goodput} kbps");
        // Victim latency stays near propagation (2 links × 1 ms + tx).
        assert!(v.mean_latency_ms() < 10.0, "victim latency {}", v.mean_latency_ms());
        // Attacker is capped by leftover capacity: far below its 30 Mbps.
        assert!(a.goodput_kbps(run_s as f64) < 9_000.0);
        assert!(a.queue_drops > 0, "flood must overflow the best-effort queue");
    }

    /// The same D2 flooding scenario with the entry router swapped for a
    /// 4-shard [`hummingbird_dataplane::ShardedRouter`] via
    /// `replace_engine`: the sharded facade is a drop-in node engine and
    /// the QoS property is unchanged.
    #[test]
    fn sharded_router_node_preserves_flood_protection() {
        let cfg = RouterConfig::default();
        let mut topo = LinearTopology::build(3, LinkSpec::default(), START_NS, cfg);
        let entry = topo.as_nodes[0];
        let sharded = topo.make_sharded_hop_engine(EngineFamily::Hummingbird, 0, cfg, 4);
        topo.sim.replace_engine(entry, Box::new(sharded)).ok().expect("entry node is a router");
        let run_s = 2;
        let victim = topo.add_cbr_flow(
            src(),
            dst(),
            1000,
            2_000,
            Some(3_000),
            START_NS,
            START_NS + run_s * SEC,
        );
        let attacker =
            topo.add_cbr_flow(atk(), dst(), 1000, 30_000, None, START_NS, START_NS + run_s * SEC);
        topo.sim.run_until(START_NS + (run_s + 1) * SEC);
        let v = topo.sim.stats(victim);
        let a = topo.sim.stats(attacker);
        assert!(v.delivery_ratio() > 0.99, "sharded node: ratio {}", v.delivery_ratio());
        assert!(a.goodput_kbps(run_s as f64) < 9_000.0);
        // The facade aggregates stats across its shards like one router.
        let rs = topo.sim.router_stats(entry).unwrap();
        assert_eq!(rs.processed, v.sent_pkts + a.sent_pkts, "every packet counted once");
    }

    /// The engine-family sweep: the same flood experiment rerun with
    /// every router node swapped per [`EngineScenario`] — single-engine
    /// and 4-shard deployments of Hummingbird, Helia, DRKey and EPIC.
    /// The D2 split falls exactly along the priority-class axis: the
    /// reservation families keep the victim's delivery ratio while the
    /// authentication-only families (DRKey, EPIC) validate every packet
    /// yet leave it to starve in the flooded best-effort class — EPIC's
    /// per-packet path validation is not bandwidth protection.
    #[test]
    fn engine_family_sweep_reruns_flood_protection() {
        let cfg = RouterConfig::default();
        for family in EngineFamily::ALL {
            for shards in [1usize, 4] {
                let mut topo = LinearTopology::build(3, LinkSpec::default(), START_NS, cfg);
                topo.install_engines(EngineScenario { family, shards }, cfg);
                let run_s = 2;
                let victim = topo.add_family_cbr_flow(
                    family,
                    src(),
                    dst(),
                    1000,
                    2_000,
                    Some(3_000),
                    START_NS,
                    START_NS + run_s * SEC,
                );
                let attacker = topo.add_family_cbr_flow(
                    family,
                    atk(),
                    dst(),
                    1000,
                    30_000,
                    None,
                    START_NS,
                    START_NS + run_s * SEC,
                );
                topo.sim.run_until(START_NS + (run_s + 1) * SEC);
                let v = topo.sim.stats(victim);
                let a = topo.sim.stats(attacker);
                let label = format!("{}x{shards}", family.name());
                // Credentialed traffic authenticates in every family: the
                // victim loses packets only to congestion, never to MAC
                // verification.
                assert_eq!(v.router_drops, 0, "{label}: victim must authenticate");
                if family.has_priority_class() {
                    assert!(
                        v.delivery_ratio() > 0.99,
                        "{label}: reservation family must protect the victim, ratio {}",
                        v.delivery_ratio()
                    );
                    assert!(a.goodput_kbps(run_s as f64) < 9_000.0, "{label}");
                } else {
                    assert!(
                        v.delivery_ratio() < 0.7,
                        "{label}: authentication-only family cannot protect, ratio {}",
                        v.delivery_ratio()
                    );
                }
                // Stats aggregate identically however many shards: every
                // packet reaching the entry router is counted once.
                let rs = topo.sim.router_stats(topo.as_nodes[0]).unwrap();
                assert_eq!(
                    rs.processed,
                    v.sent_pkts + a.sent_pkts,
                    "{label}: every packet counted once"
                );
            }
        }
    }

    /// D1 for the EPIC family: per-packet path validation rejects forged
    /// credentials at the first router, and with the replay filter on, a
    /// duplicating adversary gets every copy dropped while the victim's
    /// delivery is untouched — on EPIC's best-effort-only service.
    #[test]
    fn epic_nodes_reject_forgery_and_replay() {
        let cfg = RouterConfig { duplicate_suppression: true, ..Default::default() };
        // Uncongested links: what's measured is validation, not queueing.
        let link = LinkSpec { bandwidth_bps: 100_000_000, ..Default::default() };
        let mut topo = LinearTopology::build(2, link, START_NS, cfg);
        topo.install_engines(EngineScenario { family: EngineFamily::Epic, shards: 1 }, cfg);
        let run_s = 1;
        let victim = topo.add_family_cbr_flow(
            EngineFamily::Epic,
            src(),
            dst(),
            1000,
            2_000,
            Some(2_000),
            START_NS,
            START_NS + run_s * SEC,
        );
        // Forger: EPIC credentials derived under the wrong DRKey masters
        // (a seeded sibling topology) — every packet must fail the MAC.
        let mut other = LinearTopology::build_seeded(2, link, START_NS, cfg, 0xEE);
        let mut forged_gen = other.make_generator(atk(), dst());
        for hop in 0..2 {
            let credential =
                other.make_family_credential(EngineFamily::Epic, hop, atk(), 0, START_S);
            forged_gen.attach_reservation(hop, credential).unwrap();
        }
        let entry = topo.as_nodes[0];
        let forged = topo.sim.add_flow(crate::sim::Flow {
            generator: forged_gen,
            entry,
            payload_len: 500,
            interval_ns: 1_000_000,
            start_ns: START_NS,
            stop_ns: START_NS + run_s * SEC,
        });
        // Replayer: duplicates every victim packet 5× at the entry AS.
        let tap = topo.sim.add_replay_tap(victim, entry, 5, 200_000);
        topo.sim.run_until(START_NS + (run_s + 1) * SEC);

        let v = topo.sim.stats(victim);
        let f = topo.sim.stats(forged);
        let t = topo.sim.stats(tap);
        assert!(v.delivery_ratio() > 0.99, "victim ratio {}", v.delivery_ratio());
        assert_eq!(f.delivered_pkts, 0);
        assert_eq!(f.router_drops, f.sent_pkts, "all forged packets dropped");
        assert!(t.sent_pkts > 0, "tap observed packets");
        assert_eq!(t.router_drops, t.sent_pkts, "all replays dropped by the window filter");
    }

    /// Baseline: the same victim *without* a reservation is starved by the
    /// flood — this is the problem Hummingbird solves.
    #[test]
    fn without_reservation_victim_starves() {
        let mut topo =
            LinearTopology::build(3, LinkSpec::default(), START_NS, RouterConfig::default());
        let run_s = 2;
        let victim = topo.add_cbr_flow(
            src(),
            dst(),
            1000,
            2_000,
            None, // best effort
            START_NS,
            START_NS + run_s * SEC,
        );
        let _attacker =
            topo.add_cbr_flow(atk(), dst(), 1000, 30_000, None, START_NS, START_NS + run_s * SEC);
        topo.sim.run_until(START_NS + (run_s + 1) * SEC);
        let v = topo.sim.stats(victim);
        assert!(
            v.delivery_ratio() < 0.7,
            "unreserved victim should lose traffic, got ratio {}",
            v.delivery_ratio()
        );
    }

    /// Overuse: a sender pushing 8 Mbps through a 2 Mbps reservation gets
    /// the excess demoted (not dropped) by deterministic policing.
    #[test]
    fn overuse_is_demoted_not_dropped() {
        let mut topo = LinearTopology::build(
            2,
            LinkSpec {
                bandwidth_bps: 100_000_000, // uncongested
                ..Default::default()
            },
            START_NS,
            RouterConfig::default(),
        );
        let run_s = 1;
        let flow = topo.add_cbr_flow(
            src(),
            dst(),
            1000,
            8_000,
            Some(2_000),
            START_NS,
            START_NS + run_s * SEC,
        );
        topo.sim.run_until(START_NS + (run_s + 1) * SEC);
        let s = topo.sim.stats(flow);
        // Nothing is dropped on an uncongested path...
        assert!(s.delivery_ratio() > 0.99, "ratio {}", s.delivery_ratio());
        // ...but the first router demoted the excess.
        let rs = topo.sim.router_stats(topo.as_nodes[0]).unwrap();
        assert!(rs.demoted_overuse > 0, "policer must demote overuse");
        let expected_demoted = s.sent_pkts * 3 / 4; // 8 Mbps vs 2 Mbps
        assert!(
            rs.demoted_overuse as f64 > expected_demoted as f64 * 0.8,
            "demoted {} of {}",
            rs.demoted_overuse,
            s.sent_pkts
        );
    }

    /// The on-reservation-set replay attack (Fig. 3 / §5.4): without
    /// duplicate suppression, replayed copies consume the shared
    /// reservation's budget and the victim's packets get demoted into the
    /// congested best-effort class.
    #[test]
    fn replay_attack_degrades_shared_reservation() {
        let cfg = RouterConfig::default();
        let mut topo = LinearTopology::build(2, LinkSpec::default(), START_NS, cfg);
        let run_s = 2;
        let victim = topo.add_cbr_flow(
            src(),
            dst(),
            1000,
            2_000,
            Some(2_500),
            START_NS,
            START_NS + run_s * SEC,
        );
        // Congestion so demoted packets actually hurt.
        let _flood =
            topo.add_cbr_flow(atk(), dst(), 1000, 30_000, None, START_NS, START_NS + run_s * SEC);
        // Adversary duplicates every victim packet 20× at AS 0's ingress:
        // enough accepted copies pin the token bucket at the burst ceiling
        // so subsequent originals are demoted.
        let tap = topo.sim.add_replay_tap(victim, topo.as_nodes[0], 19, 200_000);
        topo.sim.run_until(START_NS + (run_s + 1) * SEC);

        let v = topo.sim.stats(victim);
        let t = topo.sim.stats(tap);
        assert!(t.sent_pkts > 0, "tap observed packets");
        assert!(
            v.delivery_ratio() < 0.95,
            "victim should suffer under replay, ratio {}",
            v.delivery_ratio()
        );
        let rs = topo.sim.router_stats(topo.as_nodes[0]).unwrap();
        assert!(rs.demoted_overuse > 0, "replays exhaust the reservation budget");
    }

    /// The §5.4 mitigation an AS can deploy incrementally: duplicate
    /// suppression. The same replay attack now has no effect.
    #[test]
    fn duplicate_suppression_defeats_replay() {
        let cfg = RouterConfig { duplicate_suppression: true, ..Default::default() };
        let mut topo = LinearTopology::build(2, LinkSpec::default(), START_NS, cfg);
        let run_s = 2;
        let victim = topo.add_cbr_flow(
            src(),
            dst(),
            1000,
            2_000,
            Some(2_500),
            START_NS,
            START_NS + run_s * SEC,
        );
        let _flood =
            topo.add_cbr_flow(atk(), dst(), 1000, 30_000, None, START_NS, START_NS + run_s * SEC);
        let tap = topo.sim.add_replay_tap(victim, topo.as_nodes[0], 19, 200_000);
        topo.sim.run_until(START_NS + (run_s + 1) * SEC);

        let v = topo.sim.stats(victim);
        let t = topo.sim.stats(tap);
        assert!(
            v.delivery_ratio() > 0.99,
            "dup suppression should protect the victim, ratio {}",
            v.delivery_ratio()
        );
        // All replays dropped at the router.
        assert_eq!(t.router_drops, t.sent_pkts);
    }

    /// An off-path adversary forging tags cannot use reservations: its
    /// packets fail MAC verification and are dropped (D1).
    #[test]
    fn forged_tags_are_dropped_at_first_router() {
        let mut topo =
            LinearTopology::build(2, LinkSpec::default(), START_NS, RouterConfig::default());
        let run_s = 1;
        // "Forged" = reservation keys derived from the wrong secret value:
        // build a second topology's generator (different SVs/hop keys) and
        // inject its packets here.
        let mut other = LinearTopology::build_seeded(
            2,
            LinkSpec::default(),
            START_NS,
            RouterConfig::default(),
            0xEE,
        );
        let mut forged_gen = other.make_generator(atk(), dst());
        for hop in 0..2 {
            let res = other.make_reservation(hop, 5_000, START_S as u32 - 5, u16::MAX);
            forged_gen.attach_reservation(hop, res).unwrap();
        }
        let entry = topo.as_nodes[0];
        let forged = topo.sim.add_flow(crate::sim::Flow {
            generator: forged_gen,
            entry,
            payload_len: 500,
            interval_ns: 1_000_000,
            start_ns: START_NS,
            stop_ns: START_NS + run_s * SEC,
        });
        topo.sim.run_until(START_NS + (run_s + 1) * SEC);
        let f = topo.sim.stats(forged);
        assert_eq!(f.delivered_pkts, 0);
        assert_eq!(f.router_drops, f.sent_pkts, "all forged packets dropped");
    }

    /// Partial reservations (§3.3 ❸): reserving only the congested hop is
    /// enough when the rest of the path has headroom.
    #[test]
    fn partial_reservation_on_congested_hop_suffices() {
        let mut topo = LinearTopology::build(
            3,
            LinkSpec { bandwidth_bps: 100_000_000, ..Default::default() },
            START_NS,
            RouterConfig::default(),
        );
        let run_s = 2;
        let victim = {
            // Reservation only on hop 1.
            let mut generator = topo.make_generator(src(), dst());
            let res = topo.make_reservation(1, 3_000, START_S as u32 - 5, u16::MAX);
            generator.attach_reservation(1, res).unwrap();
            let entry = topo.as_nodes[0];
            topo.sim.add_flow(crate::sim::Flow {
                generator,
                entry,
                payload_len: 1000,
                interval_ns: 4_000_000, // 2 Mbps
                start_ns: START_NS,
                stop_ns: START_NS + run_s * SEC,
            })
        };
        // Heavy cross traffic: 120 Mbps > the 100 Mbps links.
        let _flood =
            topo.add_cbr_flow(atk(), dst(), 1000, 120_000, None, START_NS, START_NS + run_s * SEC);
        topo.sim.run_until(START_NS + (run_s + 1) * SEC);
        let v = topo.sim.stats(victim);
        // Hop 0 is unreserved and congested: some victim loss is expected
        // there, but hop 1 priority must keep the flow mostly alive
        // relative to a fully unreserved flow (checked loosely).
        assert!(v.sent_pkts > 0);
        assert!(v.delivered_pkts > 0, "partial reservation keeps the flow alive");
    }
}
