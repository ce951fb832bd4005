//! # hummingbird-netsim
//!
//! A discrete-event inter-domain network simulator used to validate the
//! paper's QoS and DoS-resilience claims (property D2, §3.1/§5.4) on top
//! of the real Hummingbird data plane: every simulated border router runs
//! the actual [`hummingbird_dataplane::BorderRouter`] pipeline over real
//! packet bytes, and links schedule reservation traffic with strict
//! priority over best effort.
//!
//! * `sim` — the event engine: nodes, priority links, flows, replay
//!   adversaries.
//! * `scenario` — experiments as data: a [`Scenario`] (engines,
//!   topology, service model, flows, failure plan) and the one [`run`]
//!   that executes it into an [`Outcome`]. The engines are an
//!   [`EngineScenario`]: every router node runs one [`EngineFamily`]
//!   (the table lives in `hummingbird-baselines` and is re-exported
//!   here), optionally sharded.
//! * `topo` — the one network type, [`TopologyBuilder`]: the
//!   hand-wired AS chain and Fig. 3 diamond, and the seed-driven
//!   ring-of-PoPs ISP backbone, all over real-router nodes, with BFS
//!   routing and per-family credentials. [`LinearTopology`] is a chain
//!   handle for driving one hop by hop outside a scenario.
//! * `churn` — the fault-injection actions a scenario's failure plan
//!   applies on the simulator clock: link down/up, cold router reboots,
//!   and mid-epoch reroute of stranded flows.
//! * `flow` — closed-loop reactive flows: windowed, ack-clocked
//!   senders with RTO/backoff retransmission and a bounded retry
//!   budget, the senders the overload scenarios drive.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod churn;
mod flow;
mod scenario;
mod sim;
mod topo;

pub use churn::{apply_action, ChurnAction, ChurnOutcome, ChurnRecord, ChurnReport};
pub use flow::{FlowEvent, FlowEventKind};
pub use hummingbird_baselines::EngineFamily;
pub use scenario::{
    run, run_churn_scenario, ChurnScenarioOutcome, ChurnSpec, EngineScenario, FlowKind,
    FlowOutcome, FlowSpec, LinkSpec, Outcome, ReactiveProfile, Route, Scenario, Step, Topology,
};
pub use sim::{Class, Flow, FlowId, FlowStats, ServiceModel, Simulator};
pub use topo::{Adjacency, BackboneSpec, LinearTopology, TopologyBuilder};

#[cfg(test)]
mod tests {
    use super::*;
    use hummingbird_dataplane::RouterConfig;
    use hummingbird_wire::IsdAs;

    const START_S: u64 = 1_700_000_000;
    const START_NS: u64 = START_S * 1_000_000_000;
    const SEC: u64 = 1_000_000_000;
    const HB: EngineFamily = EngineFamily::Hummingbird;

    fn src() -> IsdAs {
        IsdAs::new(1, 0xa)
    }
    fn dst() -> IsdAs {
        IsdAs::new(2, 0xb)
    }
    fn atk() -> IsdAs {
        IsdAs::new(3, 0xc)
    }

    /// An `n`-AS chain of uniform `link`s.
    fn chain(n: usize, link: LinkSpec, cfg: RouterConfig) -> TopologyBuilder {
        LinearTopology::build(n, link, START_NS, cfg).net
    }

    /// A `family` CBR flow of 1000-byte packets over the whole chain
    /// from sender `src`, with a `credential` on every hop, sending for
    /// `run_s` seconds.
    fn cbr(
        net: &mut TopologyBuilder,
        family: EngineFamily,
        src: IsdAs,
        rate_kbps: u64,
        credential: Option<u64>,
        run_s: u64,
    ) -> FlowId {
        let route = Route { src: Some(src), ..Route::new(0, net.n_routers() - 1) };
        let flow = FlowSpec::cbr(1000, rate_kbps, credential);
        net.add_family_flow(family, route, &flow, START_NS, START_NS + run_s * SEC)
    }

    /// A 500-byte, 1 kpps flow entering the chain's first AS from
    /// `other`, a seeded sibling chain whose secrets the chain does not
    /// share, with `family` credentials from it on every hop.
    fn forged_flow(
        net: &mut TopologyBuilder,
        other: &mut LinearTopology,
        family: EngineFamily,
        bw_kbps: u64,
        run_s: u64,
    ) -> FlowId {
        let mut generator = other.make_generator(atk(), dst());
        for hop in 0..other.net.n_routers() {
            let credential = other.make_family_credential(family, hop, atk(), bw_kbps, START_S);
            generator.attach_reservation(hop, credential).unwrap();
        }
        net.sim.add_flow(Flow {
            generator,
            entry: net.as_nodes[0],
            payload_len: 500,
            interval_ns: 1_000_000,
            start_ns: START_NS,
            stop_ns: START_NS + run_s * SEC,
        })
    }

    /// The headline QoS property (D2): under a flooding attack on a
    /// bottleneck link, the reserved flow keeps its goodput and latency
    /// while the attacker only gets leftover capacity.
    #[test]
    fn reservation_protects_against_flooding() {
        // 10 Mbps bottlenecks.
        let mut net = chain(3, LinkSpec::default(), RouterConfig::default());
        let run_s = 2;
        // Victim: 2 Mbps with reservations on every hop.
        let victim = cbr(&mut net, HB, src(), 2_000, Some(3_000), run_s);
        // Attacker: 30 Mbps best-effort flood (3× the bottleneck).
        let attacker = cbr(&mut net, HB, atk(), 30_000, None, run_s);
        net.sim.run_until(START_NS + (run_s + 1) * SEC);

        let v = net.sim.stats(victim);
        let a = net.sim.stats(attacker);
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
        let topo = LinearTopology::build(3, LinkSpec::default(), START_NS, cfg);
        let sharded = topo.make_sharded_hop_engine(HB, 0, cfg, 4);
        let mut net = topo.net;
        let entry = net.as_nodes[0];
        net.sim.replace_engine(entry, Box::new(sharded)).ok().expect("entry node is a router");
        let run_s = 2;
        let victim = cbr(&mut net, HB, src(), 2_000, Some(3_000), run_s);
        let attacker = cbr(&mut net, HB, atk(), 30_000, None, run_s);
        net.sim.run_until(START_NS + (run_s + 1) * SEC);
        let v = net.sim.stats(victim);
        let a = net.sim.stats(attacker);
        assert!(v.delivery_ratio() > 0.99, "sharded node: ratio {}", v.delivery_ratio());
        assert!(a.goodput_kbps(run_s as f64) < 9_000.0);
        // The facade aggregates stats across its shards like one router.
        let rs = net.sim.router_stats(entry).unwrap();
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
                let mut net = chain(3, LinkSpec::default(), cfg);
                net.install_engines(EngineScenario { family, shards }, cfg);
                let run_s = 2;
                let victim = cbr(&mut net, family, src(), 2_000, Some(3_000), run_s);
                let attacker = cbr(&mut net, family, atk(), 30_000, None, run_s);
                net.sim.run_until(START_NS + (run_s + 1) * SEC);
                let v = net.sim.stats(victim);
                let a = net.sim.stats(attacker);
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
                let rs = net.sim.router_stats(net.as_nodes[0]).unwrap();
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
        let epic = EngineFamily::Epic;
        let mut net = chain(2, link, cfg);
        net.install_engines(EngineScenario { family: epic, shards: 1 }, cfg);
        let run_s = 1;
        let victim = cbr(&mut net, epic, src(), 2_000, Some(2_000), run_s);
        // Forger: EPIC credentials derived under the wrong DRKey masters
        // — every packet must fail the MAC.
        let mut other = LinearTopology::build_seeded(2, link, START_NS, cfg, 0xEE);
        let forged = forged_flow(&mut net, &mut other, epic, 0, run_s);
        // Replayer: duplicates every victim packet 5× at the entry AS.
        let tap = net.sim.add_replay_tap(victim, net.as_nodes[0], 5, 200_000);
        net.sim.run_until(START_NS + (run_s + 1) * SEC);

        let v = net.sim.stats(victim);
        let f = net.sim.stats(forged);
        let t = net.sim.stats(tap);
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
        let mut net = chain(3, LinkSpec::default(), RouterConfig::default());
        let run_s = 2;
        let victim = cbr(&mut net, HB, src(), 2_000, None, run_s);
        cbr(&mut net, HB, atk(), 30_000, None, run_s);
        net.sim.run_until(START_NS + (run_s + 1) * SEC);
        let v = net.sim.stats(victim);
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
        // Uncongested.
        let link = LinkSpec { bandwidth_bps: 100_000_000, ..Default::default() };
        let mut net = chain(2, link, RouterConfig::default());
        let run_s = 1;
        let flow = cbr(&mut net, HB, src(), 8_000, Some(2_000), run_s);
        net.sim.run_until(START_NS + (run_s + 1) * SEC);
        let s = net.sim.stats(flow);
        // Nothing is dropped on an uncongested path...
        assert!(s.delivery_ratio() > 0.99, "ratio {}", s.delivery_ratio());
        // ...but the first router demoted the excess.
        let rs = net.sim.router_stats(net.as_nodes[0]).unwrap();
        assert!(rs.demoted_overuse > 0, "policer must demote overuse");
        let expected_demoted = s.sent_pkts * 3 / 4; // 8 Mbps vs 2 Mbps
        assert!(
            rs.demoted_overuse as f64 > expected_demoted as f64 * 0.8,
            "demoted {} of {}",
            rs.demoted_overuse,
            s.sent_pkts
        );
    }

    /// A 2-AS chain carrying a 2 Mbps victim on 2.5 Mbps reservations,
    /// a 30 Mbps best-effort flood (so demoted packets actually hurt), and
    /// an adversary that duplicates every victim packet 20× at AS 0's
    /// ingress: enough accepted copies pin the token bucket at the burst
    /// ceiling so subsequent originals are demoted. Returns the network,
    /// the victim and the tap.
    fn replay_attack(cfg: RouterConfig) -> (TopologyBuilder, FlowId, FlowId) {
        let mut net = chain(2, LinkSpec::default(), cfg);
        let run_s = 2;
        let victim = cbr(&mut net, HB, src(), 2_000, Some(2_500), run_s);
        cbr(&mut net, HB, atk(), 30_000, None, run_s);
        let tap = net.sim.add_replay_tap(victim, net.as_nodes[0], 19, 200_000);
        net.sim.run_until(START_NS + (run_s + 1) * SEC);
        (net, victim, tap)
    }

    /// The on-reservation-set replay attack (Fig. 3 / §5.4): without
    /// duplicate suppression, replayed copies consume the shared
    /// reservation's budget and the victim's packets get demoted into the
    /// congested best-effort class.
    #[test]
    fn replay_attack_degrades_shared_reservation() {
        let (net, victim, tap) = replay_attack(RouterConfig::default());
        let v = net.sim.stats(victim);
        let t = net.sim.stats(tap);
        assert!(t.sent_pkts > 0, "tap observed packets");
        assert!(
            v.delivery_ratio() < 0.95,
            "victim should suffer under replay, ratio {}",
            v.delivery_ratio()
        );
        let rs = net.sim.router_stats(net.as_nodes[0]).unwrap();
        assert!(rs.demoted_overuse > 0, "replays exhaust the reservation budget");
    }

    /// The §5.4 mitigation an AS can deploy incrementally: duplicate
    /// suppression. The same replay attack now has no effect.
    #[test]
    fn duplicate_suppression_defeats_replay() {
        let cfg = RouterConfig { duplicate_suppression: true, ..Default::default() };
        let (net, victim, tap) = replay_attack(cfg);
        let v = net.sim.stats(victim);
        let t = net.sim.stats(tap);
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
        let cfg = RouterConfig::default();
        let mut net = chain(2, LinkSpec::default(), cfg);
        let run_s = 1;
        // "Forged" = reservation keys derived from the wrong secret value:
        // a second chain's generator (different SVs/hop keys) injected here.
        let mut other = LinearTopology::build_seeded(2, LinkSpec::default(), START_NS, cfg, 0xEE);
        let forged = forged_flow(&mut net, &mut other, HB, 5_000, run_s);
        net.sim.run_until(START_NS + (run_s + 1) * SEC);
        let f = net.sim.stats(forged);
        assert_eq!(f.delivered_pkts, 0);
        assert_eq!(f.router_drops, f.sent_pkts, "all forged packets dropped");
    }

    /// Partial reservations (§3.3 ❸): reserving only the congested hop is
    /// enough when the rest of the path has headroom.
    #[test]
    fn partial_reservation_on_congested_hop_suffices() {
        let link = LinkSpec { bandwidth_bps: 100_000_000, ..Default::default() };
        let mut net = chain(3, link, RouterConfig::default());
        let run_s = 2;
        // 2 Mbps with a reservation on hop 1 only.
        let route = Route { src: Some(src()), credential_hop: Some(1), ..Route::new(0, 2) };
        let flow = FlowSpec::cbr(1000, 2_000, Some(3_000));
        let victim = net.add_family_flow(HB, route, &flow, START_NS, START_NS + run_s * SEC);
        // Heavy cross traffic: 120 Mbps > the 100 Mbps links.
        cbr(&mut net, HB, atk(), 120_000, None, run_s);
        net.sim.run_until(START_NS + (run_s + 1) * SEC);
        let v = net.sim.stats(victim);
        // Hop 0 is unreserved and congested: some victim loss is expected
        // there, but hop 1 priority must keep the flow mostly alive
        // relative to a fully unreserved flow (checked loosely).
        assert!(v.sent_pkts > 0);
        assert!(v.delivered_pkts > 0, "partial reservation keeps the flow alive");
        let rs = net.sim.router_stats(net.as_nodes[1]).unwrap();
        assert!(rs.flyover > 0, "hop 1 carries the victim with priority");
    }
}
