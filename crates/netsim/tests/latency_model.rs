//! The egress latency model, pinned:
//!
//! 1. **Fig. 3/4-style sweep** (the headline): end-to-end latency per
//!    engine family × {single, 4-shard} — reservation families hold the
//!    victim's latency flat under a flood, authentication-only families
//!    watch it blow up with the best-effort queue — and D1 over the same
//!    deployments: forged credentials die at the first router.
//! 2. **Closed form**: an uncontended CBR flow's latency is *exactly*
//!    `hops·service + links·(serialization + propagation)` — the link
//!    rate, propagation delay and router service model compose with no
//!    hidden queueing.
//! 3. **FIFO invariants**: per class, per link, departures match
//!    arrivals (no reordering), and adding a competing best-effort flow
//!    never reduces a flyover flow's delivery ratio.
//! 4. The partial-path and multipath variants of the family sweep.
//! 5. `FlowStats` zero-division edges.

mod common;

use hummingbird_dataplane::RouterConfig;
use hummingbird_netsim::{
    run, EngineFamily, EngineScenario, Flow, FlowId, FlowSpec, FlowStats, LinearTopology, LinkSpec,
    Route, Scenario, ServiceModel, TopologyBuilder,
};
use hummingbird_wire::IsdAs;
use proptest::prelude::*;

const START_S: u64 = 1_700_000_000;
const START_NS: u64 = START_S * 1_000_000_000;
const SEC: u64 = 1_000_000_000;

/// `flow` over the whole chain `net` from a fresh sender, with
/// Hummingbird credentials, sending from the start until `stop_ns`.
fn chain_flow(net: &mut TopologyBuilder, flow: FlowSpec, stop_ns: u64) -> FlowId {
    let route = Route::new(0, net.n_routers() - 1);
    net.add_family_flow(EngineFamily::Hummingbird, route, &flow, START_NS, stop_ns)
}

/// The acceptance sweep: Fig. 3/4-style latency across all four engine
/// families × {single, 4-shard}. The D2 axis shows up as *latency*:
/// under a 3× flood of the bottleneck, the reservation families keep
/// the victim's mean delay at the uncontended level (priority class
/// past the queue) while the authentication-only families lose the
/// victim to the flooded best-effort queue — what does arrive arrives
/// late.
#[test]
fn fig34_latency_sweep_across_families_and_shards() {
    let cfg = RouterConfig::default();
    for family in EngineFamily::ALL {
        for shards in [1usize, 4] {
            let scenario = EngineScenario { family, shards };
            let base = run(cfg, &Scenario::latency(scenario, 0), START_NS).flows[0].total;
            let loaded = run(cfg, &Scenario::latency(scenario, 30_000), START_NS);
            let (victim, flood) = (loaded.flows[0].total, loaded.flows[1].total);
            let label = format!("{}x{shards}", family.name());

            // Uncontended: everything arrives, in order, never dropped
            // by authentication, with a positive modeled delay.
            assert!(base.delivery_ratio() > 0.99, "{label}: base delivery");
            assert_eq!(base.router_drops, 0, "{label}: victim must authenticate");
            assert_eq!(base.reordered_pkts, 0, "{label}: base FIFO");
            let base_ms = base.mean_latency_ms();
            assert!(base_ms > 0.0, "{label}: latency model must accrue delay");

            // Under flood.
            assert_eq!(victim.router_drops, 0, "{label}: flood never forges MACs");
            assert_eq!(victim.reordered_pkts, 0, "{label}: loaded FIFO");
            let loaded_ms = victim.mean_latency_ms();
            if family.has_priority_class() {
                assert!(
                    victim.delivery_ratio() > 0.99,
                    "{label}: reservation family must protect delivery, ratio {}",
                    victim.delivery_ratio()
                );
                assert!(
                    loaded_ms < base_ms * 1.5,
                    "{label}: victim latency must stay flat under flood \
                     ({loaded_ms:.2} ms vs base {base_ms:.2} ms)"
                );
            } else {
                assert!(
                    victim.delivery_ratio() < 0.7,
                    "{label}: authentication-only family cannot protect, ratio {}",
                    victim.delivery_ratio()
                );
                assert!(
                    loaded_ms > base_ms * 3.0,
                    "{label}: victim latency must degrade under flood \
                     ({loaded_ms:.2} ms vs base {base_ms:.2} ms)"
                );
            }
            // The entry router saw every packet exactly once, however
            // many shards it runs across.
            assert_eq!(
                loaded.routers[0].processed,
                victim.sent_pkts + flood.sent_pkts,
                "{label}: every packet counted once"
            );
        }
    }
}

/// D1 in a simulated flow, per engine family × {single, 4-shard}: a
/// sender whose every-hop credentials were minted under a seeded sibling
/// chain's secrets (`build_seeded(.., 0xEE)`) has every packet dropped at
/// the first router, so the second router never sees one and nothing is
/// delivered. Uncontended, so what is measured is authentication.
#[test]
fn forged_credentials_are_dropped_at_the_first_router() {
    let cfg = RouterConfig::default();
    let link = LinkSpec { bandwidth_bps: 100_000_000, ..Default::default() };
    let (atk, dst) = (IsdAs::new(3, 0xc), IsdAs::new(2, 0xb));
    for family in EngineFamily::ALL {
        for shards in [1usize, 4] {
            let label = format!("{}x{shards}", family.name());
            let mut net = LinearTopology::build(2, link, START_NS, cfg).net;
            net.install_engines(EngineScenario { family, shards }, cfg);
            let mut sibling = LinearTopology::build_seeded(2, link, START_NS, cfg, 0xEE);
            let mut generator = sibling.make_generator(atk, dst);
            for hop in 0..2 {
                let credential = sibling.make_family_credential(family, hop, atk, 3_000, START_S);
                generator.attach_reservation(hop, credential).expect("matching interfaces");
            }
            let forged = net.sim.add_flow(Flow {
                generator,
                entry: net.as_nodes[0],
                payload_len: 500,
                interval_ns: 1_000_000,
                start_ns: START_NS,
                stop_ns: START_NS + SEC,
            });
            net.sim.run_until(START_NS + 2 * SEC);
            let f = net.sim.stats(forged);
            assert!(f.sent_pkts > 0, "{label}: the forger sent nothing");
            assert_eq!(f.router_drops, f.sent_pkts, "{label}: every forged packet dropped");
            assert_eq!(f.delivered_pkts, 0, "{label}: a forged packet was delivered");
            let [first, second] = [0, 1].map(|i| net.sim.router_stats(net.as_nodes[i]).unwrap());
            assert_eq!(first.dropped, f.sent_pkts, "{label}: dropped at the first router");
            assert_eq!(second.processed, 0, "{label}: a forged packet passed the first router");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Closed form: with no competing traffic, every packet of a CBR
    /// flow takes exactly
    /// `n_ases·service + (n_ases−1)·(tx_time + propagation)` ns — bit-
    /// exact against the integer arithmetic of the link and service
    /// models, for any chain length, payload, link rate, propagation
    /// delay, service cost and core count.
    #[test]
    fn uncontended_cbr_latency_matches_closed_form(
        n_ases in 2usize..5,
        payload in 300usize..1200,
        bw_mbps in 10u64..100,
        prop_us in 100u64..2000,
        service_ns in 0u64..5000,
        shards in 1usize..5,
    ) {
        let link = LinkSpec {
            bandwidth_bps: bw_mbps * 1_000_000,
            propagation_ns: prop_us * 1000,
            queue_cap_bytes: 64 * 1024,
        };
        let mut net = LinearTopology::build(n_ases, link, START_NS, RouterConfig::default()).net;
        if service_ns > 0 {
            net.set_service_model(ServiceModel::new(service_ns, shards));
        }
        // 1 Mbps CBR: the packet interval (≥ 2.4 ms) dwarfs both the
        // worst-case serialization (~1.1 ms) and the service time, so no
        // queueing ever happens — the closed form is exact.
        let flow = chain_flow(&mut net, FlowSpec::cbr(payload, 1_000, Some(3_000)), START_NS + SEC);
        net.sim.run_until(START_NS + 2 * SEC);
        let v = net.sim.stats(flow);
        prop_assert!(v.sent_pkts > 0);
        prop_assert_eq!(v.delivered_pkts, v.sent_pkts, "uncontended: everything arrives");
        let wire_len = v.sent_bytes / v.sent_pkts;
        let tx_ns = (wire_len * 8).saturating_mul(1_000_000_000) / link.bandwidth_bps;
        let hops = n_ases as u64;
        let expected = hops * service_ns + (hops - 1) * (tx_ns + link.propagation_ns);
        prop_assert_eq!(v.latency_max_ns, expected, "per-packet latency is the closed form");
        prop_assert_eq!(
            v.latency_sum_ns,
            v.delivered_pkts * expected,
            "every packet takes exactly the closed-form delay"
        );
        prop_assert_eq!(v.reordered_pkts, 0);
    }

    /// Monotonicity: adding a competing best-effort flow — at any rate,
    /// including 5× the bottleneck — never reduces a flyover flow's
    /// delivery ratio, and its latency stays at the uncontended level.
    #[test]
    fn competing_best_effort_never_hurts_flyover_flow(
        flood_kbps in 0u64..50_000,
        shards in 1usize..5,
    ) {
        let cfg = RouterConfig::default();
        let scenario = EngineScenario { family: EngineFamily::Hummingbird, shards };
        let victim = |flood_kbps| {
            let mut s = Scenario::latency(scenario, flood_kbps);
            s.run_s = 1;
            run(cfg, &s, START_NS).flows[0].total
        };
        let (alone, contested) = (victim(0), victim(flood_kbps));
        prop_assert!(
            contested.delivery_ratio() >= alone.delivery_ratio(),
            "best-effort competitor reduced flyover delivery: {} -> {}",
            alone.delivery_ratio(),
            contested.delivery_ratio()
        );
        prop_assert!(contested.delivery_ratio() > 0.99);
        prop_assert!(
            contested.mean_latency_ms() < alone.mean_latency_ms() * 1.5,
            "flyover latency must not track the flood"
        );
        prop_assert_eq!(contested.reordered_pkts, 0);
    }
}

/// FIFO per class per link, under heavy contention: a priority victim
/// and two best-effort flows fight over a flooded chain (with the
/// service model on); every flow's deliveries arrive in send order —
/// the strict-priority queues never reorder *within* a class, they only
/// interleave *across* classes.
#[test]
fn per_class_departures_stay_fifo_under_contention() {
    let cfg = RouterConfig::default();
    let mut net = LinearTopology::build(3, LinkSpec::default(), START_NS, cfg).net;
    net.set_service_model(ServiceModel::new(300, 2));
    let stop_ns = START_NS + 2 * SEC;
    let victim = chain_flow(&mut net, FlowSpec::cbr(1000, 2_000, Some(3_000)), stop_ns);
    let be_a = chain_flow(&mut net, FlowSpec::cbr(1000, 12_000, None), stop_ns);
    let be_b = chain_flow(&mut net, FlowSpec::cbr(700, 9_000, None), stop_ns);
    net.sim.run_until(stop_ns + SEC);
    for (name, flow) in [("victim", victim), ("be_a", be_a), ("be_b", be_b)] {
        let s = net.sim.stats(flow);
        assert!(s.delivered_pkts > 0, "{name} delivered nothing");
        assert_eq!(s.reordered_pkts, 0, "{name}: departures must match arrivals per class");
    }
    // The flood actually contested the bottleneck.
    let a = net.sim.stats(be_a);
    assert!(a.queue_drops > 0, "flood must overflow the best-effort queue");
}

/// The partial-path variant across the family sweep: a credential at
/// *only* the congested middle hop protects a reservation-family victim
/// (priority exactly there, best effort elsewhere), while the
/// authentication-only families validate the same credential and still
/// starve.
#[test]
fn partial_path_family_sweep() {
    let cfg = RouterConfig::default();
    for family in EngineFamily::ALL {
        for shards in [1usize, 4] {
            let scenario = EngineScenario { family, shards };
            let out = run(cfg, &common::partial_path(scenario), START_NS);
            let (victim, per_hop) = (out.flows[0].total, &out.routers);
            let label = format!("{}x{shards}", family.name());
            assert_eq!(victim.router_drops, 0, "{label}: victim must authenticate");
            // Priority rode exactly the credentialed hop — and only for
            // the families that have a priority class at all.
            assert_eq!(per_hop[0].flyover, 0, "{label}: hop 0 is uncredentialed");
            assert_eq!(per_hop[2].flyover, 0, "{label}: hop 2 is uncredentialed");
            if family.has_priority_class() {
                assert!(per_hop[1].flyover > 0, "{label}: middle hop carries priority");
                assert!(
                    victim.delivery_ratio() > 0.99,
                    "{label}: middle-hop credential must protect, ratio {}",
                    victim.delivery_ratio()
                );
            } else {
                assert_eq!(per_hop[1].flyover, 0, "{label}: no priority class");
                assert!(
                    victim.delivery_ratio() < 0.7,
                    "{label}: authentication-only family cannot protect, ratio {}",
                    victim.delivery_ratio()
                );
            }
        }
    }
}

/// The multipath variant across the family sweep, on the Fig. 3
/// diamond: the flood rides branch Q only. Path choice isolates branch
/// P for *every* family; on Q the D2 split applies.
#[test]
fn multipath_family_sweep() {
    let cfg = RouterConfig::default();
    for family in EngineFamily::ALL {
        for shards in [1usize, 4] {
            let scenario = EngineScenario { family, shards };
            let out = run(cfg, &common::multipath(scenario), START_NS);
            let (p, q) = (out.flows[0].total, out.flows[1].total);
            let label = format!("{}x{shards}", family.name());
            assert!(
                p.delivery_ratio() > 0.99,
                "{label}: the clean branch is isolated by path choice, ratio {}",
                p.delivery_ratio()
            );
            assert_eq!(p.router_drops + q.router_drops, 0, "{label}: both authenticate");
            if family.has_priority_class() {
                assert!(
                    q.delivery_ratio() > 0.99,
                    "{label}: reservation family must protect the flooded branch, ratio {}",
                    q.delivery_ratio()
                );
            } else {
                assert!(
                    q.delivery_ratio() < 0.7,
                    "{label}: authentication-only family starves on the flooded branch, ratio {}",
                    q.delivery_ratio()
                );
            }
        }
    }
}

/// `FlowStats` zero-division edges: every ratio/mean is `0.0` — finite,
/// never `NaN` or `inf` — when nothing was sent or delivered.
#[test]
fn flow_stats_zero_division_edges() {
    let empty = FlowStats::default();
    assert_eq!(empty.mean_latency_ms(), 0.0);
    assert_eq!(empty.delivery_ratio(), 0.0);
    assert_eq!(empty.goodput_kbps(2.0), 0.0);
    assert_eq!(empty.goodput_kbps(0.0), 0.0, "empty window must not divide");

    // Sent but fully starved: ratio 0, latency 0, goodput 0.
    let starved = FlowStats { sent_pkts: 10, sent_bytes: 10_000, ..Default::default() };
    assert_eq!(starved.delivery_ratio(), 0.0);
    assert_eq!(starved.mean_latency_ms(), 0.0);
    assert_eq!(starved.goodput_kbps(1.0), 0.0);
    assert!(starved.delivery_ratio().is_finite() && starved.mean_latency_ms().is_finite());

    // The healthy path still computes real values.
    let ok = FlowStats {
        sent_pkts: 4,
        sent_bytes: 4_000,
        delivered_pkts: 2,
        delivered_bytes: 1_000,
        latency_sum_ns: 4_000_000,
        latency_max_ns: 3_000_000,
        ..Default::default()
    };
    assert_eq!(ok.delivery_ratio(), 0.5);
    assert_eq!(ok.mean_latency_ms(), 2.0);
    assert!((ok.goodput_kbps(1.0) - 8.0).abs() < 1e-9);
    assert_eq!(ok.goodput_kbps(-1.0), 0.0, "negative windows are refused, not inverted");
}
