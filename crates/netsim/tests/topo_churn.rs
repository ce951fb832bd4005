//! Generated-topology and churn subsystem tests:
//!
//! 1. **Golden topology** — the small-backbone node/edge hash is pinned,
//!    so any drift in the seeded generator fails loudly.
//! 2. **Event ordering** — packet events sharing a timestamp dispatch in
//!    schedule order (the `(time, seq)` FIFO contract churn relies on).
//! 3. **Churn mechanics** — down/up pairs restore the exact pre-failure
//!    link set; a reboot wipes all datapath state (counters and policer
//!    come back cold) without disturbing the flows; a failure's queue drain and a
//!    reroute's bump land in the window that starts at their instant.
//! 4. **Generator invariants** (property tests) — generated backbones
//!    are connected with no self-loops or duplicate adjacencies, and
//!    every flow's path exists edge-by-edge in the graph.
//! 5. **Acceptance** — the four-family QoS/DoS experiment runs on a
//!    generated 104-router backbone with 3 mid-epoch link failures:
//!    reservation families recover (post-failover latency < 2× base,
//!    delivery > 0.9) while authentication-only families stay flooded,
//!    and two same-seed runs are bit-identical end to end.

mod common;

use hummingbird_dataplane::{DatapathStats, RouterConfig};
use hummingbird_netsim::{
    apply_action, run, run_churn_scenario, BackboneSpec, ChurnAction, ChurnOutcome, ChurnReport,
    ChurnSpec, EngineFamily, EngineScenario, FlowSpec, LinkSpec, Route, TopologyBuilder,
};
use proptest::prelude::*;

const START_S: u64 = 1_700_000_000;
const START_NS: u64 = START_S * 1_000_000_000;
const SEC: u64 = 1_000_000_000;

fn cfg() -> RouterConfig {
    RouterConfig::default()
}

/// The pinned fingerprint of `BackboneSpec::new(4, 2, 42)` — update only
/// on a *deliberate* generator change.
const GOLDEN_BACKBONE_HASH: u64 = 0xD1FB_373C_A3AA_B33C;

#[test]
fn golden_small_backbone_topology_is_pinned() {
    let t = TopologyBuilder::ring_of_pops(&BackboneSpec::new(4, 2, 42), START_NS, cfg());
    assert_eq!(t.n_routers(), 8);
    // 4 intra-PoP + 8 ring links (2 lanes × 4 PoPs); chords = 4/4 = 1
    // draw, which may or may not land, so only bound it.
    assert!(t.n_adjacencies() >= 12 && t.n_adjacencies() <= 13, "{}", t.n_adjacencies());
    assert_eq!(t.topology_hash(), GOLDEN_BACKBONE_HASH, "hash {:#018X}", t.topology_hash());
    // Same seed → identical build; different seed → different keys but
    // (for the ring) the same wiring is allowed to differ only via
    // chords, so compare against a rebuilt twin instead.
    let twin = TopologyBuilder::ring_of_pops(&BackboneSpec::new(4, 2, 42), START_NS, cfg());
    assert_eq!(twin.topology_hash(), t.topology_hash());
}

/// Two packets scheduled at the same instant dispatch in schedule order:
/// the first-created flow's packet grabs the wire and the second queues
/// behind it for exactly one serialization time. Pinned twice to also
/// demand bit-identical reruns.
#[test]
fn equal_timestamp_events_are_fifo_by_schedule_order() {
    let run = |_: ()| {
        let mut t = TopologyBuilder::new(START_NS, cfg());
        let a = t.add_router_keyed([0x21; 16], [0x51; 16], hummingbird_wire::IsdAs::new(1, 1));
        let b = t.add_router_keyed([0x22; 16], [0x52; 16], hummingbird_wire::IsdAs::new(1, 2));
        t.attach_host(b);
        t.connect(a, b, None, LinkSpec::default());
        // stop = start + 1 ns ⇒ exactly one packet per flow, both sent
        // at the same instant.
        let flow = FlowSpec::cbr(500, 1_000, None);
        let hb = EngineFamily::Hummingbird;
        let f0 = t.add_family_flow(hb, Route::new(a, b), &flow, START_NS, START_NS + 1);
        let f1 = t.add_family_flow(hb, Route::new(a, b), &flow, START_NS, START_NS + 1);
        t.sim.run_until(START_NS + SEC);
        (t.sim.stats(f0), t.sim.stats(f1))
    };
    let (s0, s1) = run(());
    assert_eq!(s0.sent_pkts, 1);
    assert_eq!(s1.sent_pkts, 1);
    assert_eq!(s0.delivered_pkts, 1);
    assert_eq!(s1.delivered_pkts, 1);
    // Exact FIFO: flow 1 waits precisely flow 0's serialization time.
    let tx_ns = s0.sent_bytes * 8 * 1_000_000_000 / LinkSpec::default().bandwidth_bps;
    assert_eq!(s1.latency_sum_ns, s0.latency_sum_ns + tx_ns);
    let (r0, r1) = run(());
    assert_eq!((s0, s1), (r0, r1), "same schedule must replay bit-identically");
}

#[test]
fn churn_down_up_restores_exact_link_set() {
    let mut t = TopologyBuilder::ring_of_pops(&BackboneSpec::new(5, 2, 7), START_NS, cfg());
    let before = t.live_adjacencies();
    let victims = [0, 3, before.len() - 1].map(|i| before[i]);
    let mut report = ChurnReport::default();
    t.sim.run_until(START_NS + SEC);
    report.records.extend(victims.map(|adj| apply_action(&mut t, ChurnAction::LinkDown(adj))));
    t.sim.run_until(START_NS + 2 * SEC);
    report.records.extend(victims.map(|adj| apply_action(&mut t, ChurnAction::LinkUp(adj))));
    t.sim.run_until(START_NS + 3 * SEC);
    assert_eq!(report.records.len(), 6);
    assert_eq!(report.link_failures(), 3);
    assert_eq!(t.live_adjacencies(), before, "down/up must restore the exact link set");
    for &adj in &victims {
        let a = t.adjacency(adj);
        assert!(a.up);
        assert!(t.sim.link_is_up(a.ab) && t.sim.link_is_up(a.ba));
    }
}

/// A reboot rebuilds the engine from scratch: counters reset and the
/// policer comes back with every reservation's full burst budget — and
/// traffic keeps validating afterwards (keys re-derive from the same AS
/// secrets).
#[test]
fn reboot_router_wipes_datapath_state() {
    let mut t = TopologyBuilder::ring_of_pops(&BackboneSpec::new(4, 2, 9), START_NS, cfg());
    t.install_engines(EngineScenario { family: EngineFamily::Hummingbird, shards: 1 }, cfg());
    let flow = t.add_family_flow(
        EngineFamily::Hummingbird,
        Route::new(0, 4), // to PoP 2, router 0: two inter-PoP hops
        // Twice the credential's rate: the policer demotes the overuse,
        // so the reservation's slot is full when the router reboots.
        &FlowSpec::cbr(500, 4_000, Some(2_000)),
        START_NS,
        START_NS + 2 * SEC,
    );
    let transit = 2; // PoP 1, router 0 — on the lane-0 ring path
    let stats = |t: &TopologyBuilder| t.sim.router_stats(t.as_nodes[transit]).unwrap();
    t.sim.run_until(START_NS + SEC);
    let before = stats(&t);
    assert!(before.processed > 0);
    assert!(before.demoted_overuse > 0, "policer at work before the reboot: {before:?}");
    let discarded = t.reboot_router(transit);
    assert_eq!(discarded, before);
    assert_eq!(stats(&t), DatapathStats::default(), "reboot must wipe the counters");
    // A cold policer admits the next 20 ms whole (its 50 ms budget
    // outlasts them); the full slot would have demoted about half.
    t.sim.run_until(START_NS + SEC + 20_000_000);
    let early = stats(&t);
    assert!(early.flyover > 0, "traffic reaches the rebooted router: {early:?}");
    assert_eq!(early.demoted_overuse, 0, "cold policer after the reboot: {early:?}");
    t.sim.run_until(START_NS + 3 * SEC);
    assert!(stats(&t).processed > early.processed);
    let s = t.sim.stats(flow);
    assert!(s.delivery_ratio() > 0.99, "traffic must keep validating: {s:?}");
}

fn assert_graph_sound(t: &TopologyBuilder) {
    // No self-loops, no duplicate adjacencies.
    let mut seen = std::collections::HashSet::new();
    for i in 0..t.n_adjacencies() {
        let a = t.adjacency(i);
        assert_ne!(a.a, a.b, "self-loop at adjacency {i}");
        assert!(seen.insert((a.a.min(a.b), a.a.max(a.b))), "duplicate adjacency {i}");
    }
    // Connected: BFS from router 0 reaches everything.
    for r in 0..t.n_routers() {
        assert!(t.shortest_path(0, r).is_some(), "router {r} unreachable");
    }
}

fn assert_flow_path_in_graph(t: &TopologyBuilder, flow: hummingbird_netsim::FlowId) {
    let path = t.route_of(flow).expect("flow was routed");
    assert!(!path.is_empty());
    for w in path.windows(2) {
        assert!(t.adjacency_between(w[0], w[1]).is_some(), "path edge {w:?} not in graph");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ring-of-PoPs backbones are sound for any shape and seed, and
    /// every flow routed over them follows real edges.
    #[test]
    fn backbone_generator_invariants(
        pops in 3usize..7,
        rpp in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let spec = BackboneSpec::new(pops, rpp, seed);
        let mut t = TopologyBuilder::ring_of_pops(&spec, START_NS, cfg());
        assert_graph_sound(&t);
        prop_assert_eq!(t.n_routers(), pops * rpp);
        let n = t.n_routers();
        let f = t.add_family_flow(
            EngineFamily::Hummingbird,
            Route::new((seed as usize) % n, (seed as usize + n / 2) % n),
            &FlowSpec::cbr(500, 1_000, Some(2_000)),
            START_NS,
            START_NS + SEC,
        );
        assert_flow_path_in_graph(&t, f);
    }

    /// Any churn down/up pairing restores the exact pre-failure link
    /// set, whatever subset of adjacencies fails.
    #[test]
    fn churn_pairs_restore_link_set(seed in 0u64..1_000_000, n_fail in 1usize..5) {
        let mut t = TopologyBuilder::ring_of_pops(&BackboneSpec::new(4, 2, seed), START_NS, cfg());
        let before = t.live_adjacencies();
        let step = before.len() / n_fail.max(1);
        let victims: Vec<_> = (0..n_fail).map(|i| before[(i * step.max(1)) % before.len()]).collect();
        // Every failure lands before (or at) the first repair.
        let downs = victims.iter().enumerate().map(|(i, &adj)| {
            (START_NS + (i as u64 + 1) * SEC / 8, ChurnAction::LinkDown(adj))
        });
        let ups = victims.iter().enumerate().map(|(i, &adj)| {
            (START_NS + SEC / 2 + (i as u64) * SEC / 8, ChurnAction::LinkUp(adj))
        });
        for (at, action) in downs.chain(ups) {
            t.sim.run_until(at);
            apply_action(&mut t, action);
        }
        t.sim.run_until(START_NS + 2 * SEC);
        prop_assert_eq!(t.live_adjacencies(), before);
    }
}

/// The window convention: a window ends *before* the steps at its
/// instant apply. On a backbone with a flood just under the bottleneck
/// (so the failed link's queues hold flood packets and, for the
/// authentication-only families, the victim's own best-effort ones), the
/// packets the link failure drains count in the outage window that
/// starts at the failure — the clean base window has no link-down drops
/// at all — and the reroute's `reroutes` bump counts in recovery.
#[test]
fn failure_drain_counts_in_the_outage_window() {
    for family in EngineFamily::ALL {
        let label = family.name();
        let scenario =
            common::latency_churn(EngineScenario { family, shards: 1 }, 9_000, 42, SEC / 10);
        let out = run(cfg(), &scenario, START_NS);
        let drained: u64 = out
            .report
            .records
            .iter()
            .map(|r| match r.outcome {
                ChurnOutcome::LinkDown { drained } => drained,
                _ => 0,
            })
            .sum();
        assert!(drained > 0, "{label}: the failed link had packets queued");
        let link_down = |i| out.flows.iter().map(|f| f.window(i).link_down_drops).sum::<u64>();
        assert_eq!(link_down(0), 0, "{label}: the base window ends before the failure");
        assert!(
            link_down(1) >= drained,
            "{label}: the {drained} drained packets count in the outage window ({})",
            link_down(1)
        );
        let victim = &out.flows[0];
        assert_eq!(victim.window(1).reroutes, 0, "{label}: the outage ends before the reroute");
        assert_eq!(victim.window(2).reroutes, 1, "{label}: the reroute counts in recovery");
    }
}

/// The headline acceptance run: all four engine families on a generated
/// 104-router backbone under flood, with 3 link failures at one third
/// of the run and a reroute + on-path cold reboot 50 ms later.
#[test]
fn four_family_churn_acceptance_and_determinism() {
    for family in EngineFamily::ALL {
        let spec = ChurnSpec::new(EngineScenario { family, shards: 1 }).with_flood(20_000);
        let out = run_churn_scenario(cfg(), &spec, START_NS);
        assert!(out.routers >= 100, "{}: {} routers", family.name(), out.routers);
        assert!(out.report.link_failures() >= 3, "{}: {:?}", family.name(), out.report);
        // The victim (and the flood riding the same route) lost its
        // path: packets died at the dead links, then a reroute moved
        // both onto a surviving path.
        assert!(
            out.victim_outage.link_down_drops > 0,
            "{}: expected stranded packets, got {:?}",
            family.name(),
            out.victim_outage
        );
        assert_eq!(out.victim_total.reroutes, 1, "{}", family.name());
        assert!(out.report.total_rerouted() >= 2, "{}: {:?}", family.name(), out.report);
        assert_eq!(out.report.total_stranded(), 0, "{}", family.name());
        let base_ms = out.victim_base.mean_latency_ms();
        let rec_ms = out.victim_recovery.mean_latency_ms();
        if family.has_priority_class() {
            // D2 under churn: reservations shield the victim from the
            // flood before *and* after the failover.
            assert!(
                out.victim_base.delivery_ratio() > 0.99,
                "{}: base {:?}",
                family.name(),
                out.victim_base
            );
            assert!(
                out.victim_recovery.delivery_ratio() > 0.9,
                "{}: recovery {:?}",
                family.name(),
                out.victim_recovery
            );
            assert!(
                rec_ms < 2.0 * base_ms,
                "{}: recovery latency {rec_ms:.3} ms vs base {base_ms:.3} ms",
                family.name()
            );
        } else {
            // Authentication-only families leave the victim queueing
            // behind the flood in both windows.
            assert!(
                out.victim_recovery.delivery_ratio() < 0.7,
                "{}: recovery {:?}",
                family.name(),
                out.victim_recovery
            );
        }
        // Same seed ⇒ bit-identical everything: flow stats, datapath
        // stats, the fault timeline, and the event count.
        let rerun = run_churn_scenario(cfg(), &spec, START_NS);
        assert_eq!(out, rerun, "{}: same-seed churn runs must be bit-identical", family.name());
    }
}
