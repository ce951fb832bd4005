//! Closed-loop overload control, pinned:
//!
//! 1. **Overload sweep** per engine family × {single, 4-shard}: every
//!    flow terminates (no livelock), conservation is exact (every wire
//!    copy is delivered or attributed to a named drop counter), the
//!    reservation families hold the reserved flow's goodput and p99
//!    latency through 2× saturation while best-effort collapses
//!    gracefully — bounded queues ⇒ bounded tail latency.
//! 2. **Determinism**: the whole closed-loop outcome (stats + event
//!    timelines) is bit-identical across engine shard counts when the
//!    service model's core count is held fixed.
//! 3. **Budget exhaustion terminates**: a flow into a blackholed path
//!    retransmits up to its budget, abandons every packet, and
//!    completes — no livelock.
//! 4. **Churn + overload**: after a mid-saturation reroute (with a
//!    convergence delay), reservation flows recover ≥ 0.9 delivery via
//!    retransmission while best-effort degrades without collapse.
//! 5. **Churn in the latency sweep**: per-family recovery bounds on the
//!    Fig. 3/4 experiment under a scheduled link failure.

mod common;

use hummingbird_dataplane::RouterConfig;
use hummingbird_netsim::{
    run, EngineFamily, EngineScenario, FlowEventKind, FlowKind, FlowOutcome, FlowSpec,
    LinearTopology, LinkSpec, ReactiveProfile, Route, Scenario, ServiceModel,
};
use hummingbird_wire::IsdAs;

const START_S: u64 = 1_700_000_000;
const START_NS: u64 = START_S * 1_000_000_000;
const SEC: u64 = 1_000_000_000;

fn cfg() -> RouterConfig {
    RouterConfig::default()
}

/// The whole 3-AS chain from sender `src`.
fn chain_route(src: IsdAs) -> Route {
    Route { src: Some(src), ..Route::new(0, 2) }
}

/// A closed-loop flow of `total_pkts` 1000-byte packets paced at
/// `rate_kbps`.
fn closed_loop(
    rate_kbps: u64,
    credential_kbps: Option<u64>,
    total_pkts: u64,
    profile: ReactiveProfile,
) -> FlowSpec {
    let kind = FlowKind::ClosedLoop { total_pkts, profile };
    FlowSpec { payload_len: 1000, rate_kbps, credential_kbps, kind }
}

/// The acceptance sweep: offered load through and past saturation for
/// every family × {single, 4-shard}. Reservation families hold the
/// reserved flow's goodput and p99 at the uncontended level; best
/// effort collapses *gracefully* — goodput saturates at the leftover
/// capacity, tail latency stays bounded by the queues, every loss lands
/// in a named counter, and every flow still terminates.
#[test]
fn overload_sweep_across_families_and_shards() {
    for family in EngineFamily::ALL {
        for shards in [1usize, 4] {
            let scenario = EngineScenario { family, shards };
            let sweep = Scenario::overload_sweep(scenario, 0);
            let label = format!("{}x{shards}", family.name());
            assert_eq!(sweep.len(), 4, "{label}: all sweep points present");
            // Per point: the offered load, and the reserved and
            // best-effort flows' outcomes.
            let points: Vec<_> = sweep
                .iter()
                .map(|s| {
                    let [rsv, be]: [FlowOutcome; 2] =
                        run(cfg(), s, START_NS).flows.try_into().expect("two flows");
                    (s.flows[1].1.rate_kbps, rsv, be)
                })
                .collect();

            for (offered, rsv, be) in &points {
                let l = format!("{label}@{offered}");
                // Termination: the retransmit budget guarantees every
                // flow completes — a livelock would show here first.
                assert!(rsv.done, "{l}: reserved flow must terminate");
                assert!(be.done, "{l}: best-effort flow must terminate");
                // Conservation: exact, for both flows, at every point.
                assert_eq!(rsv.total.unattributed(), 0, "{l} reserved: conservation");
                assert_eq!(be.total.unattributed(), 0, "{l} best-effort: conservation");
                // Bounded queues ⇒ bounded tails, for everyone, at any load.
                assert!(
                    rsv.total.p99_latency_ms() < 50.0,
                    "{l}: reserved p99 {} ms must stay bounded",
                    rsv.total.p99_latency_ms()
                );
                assert!(
                    be.total.p99_latency_ms() < 50.0,
                    "{l}: best-effort p99 {} ms must stay bounded",
                    be.total.p99_latency_ms()
                );
                // Graceful degradation: even past saturation the
                // best-effort loop keeps the majority of its copies.
                assert!(
                    be.total.delivery_ratio() > 0.5,
                    "{l}: best effort must degrade, not collapse (ratio {})",
                    be.total.delivery_ratio()
                );
            }

            // Below saturation (first point): clean for everyone.
            let (_, base_rsv, base_be) = &points[0];
            assert!(base_rsv.total.delivery_ratio() > 0.99, "{label}: clean base");
            assert_eq!(base_be.total.retransmits, 0, "{label}: no base retransmits");

            // Past saturation (last point, 2.5× the link): the loss
            // machinery actually engaged.
            let (sat_offered, sat_rsv, sat_be) = &points[3];
            assert!(sat_be.total.queue_drops > 0, "{label}: overload must drop");
            assert!(sat_be.total.retransmits > 0, "{label}: drops must drive retries");
            assert!(sat_be.total.backpressure_stalls > 0, "{label}: window must stall");

            if family.has_priority_class() {
                // Reservation families: the reserved flow never notices.
                for (offered, rsv, _) in &points {
                    assert!(
                        rsv.total.delivery_ratio() > 0.95,
                        "{label}@{offered}: reservation must protect delivery (ratio {})",
                        rsv.total.delivery_ratio()
                    );
                    assert!(
                        rsv.elapsed_ns < 2 * SEC,
                        "{label}@{offered}: reserved flow must finish on time ({} ns)",
                        rsv.elapsed_ns
                    );
                }
                let base_p99 = base_rsv.total.p99_latency_ms();
                let sat_p99 = sat_rsv.total.p99_latency_ms();
                assert!(
                    sat_p99 < base_p99 * 2.5 + 1.0,
                    "{label}: reserved p99 must stay flat past saturation \
                     ({sat_p99:.2} ms vs base {base_p99:.2} ms)"
                );
                // Best effort saturates at the leftover capacity: its
                // completion-time goodput lands well under the offer.
                assert!(
                    sat_be.goodput_kbps() < *sat_offered as f64 * 0.6,
                    "{label}: best effort must saturate ({} kbps of {sat_offered} offered)",
                    sat_be.goodput_kbps(),
                );
            } else {
                // Authentication-only families: the reserved flow
                // shares the contended queue and degrades with it.
                assert!(
                    sat_rsv.total.delivery_ratio() < 0.9,
                    "{label}: no priority class, reserved cannot be protected (ratio {})",
                    sat_rsv.total.delivery_ratio()
                );
            }
        }
    }
}

/// The closed loop is deterministic: with the service model's core
/// count held fixed, running the identical overload point over a
/// single-engine deployment and a 4-shard facade produces bit-identical
/// flow stats *and* bit-identical event timelines.
#[test]
fn closed_loop_bit_identical_across_shard_counts() {
    let run = |shards: usize| {
        let link = LinkSpec { queue_cap_bytes: 16 * 1024, ..LinkSpec::default() };
        let mut net = LinearTopology::build(3, link, START_NS, cfg()).net;
        net.install_engines(EngineScenario { family: EngineFamily::Hummingbird, shards }, cfg());
        // Fixed 2-core service model regardless of engine shards: the
        // sharding facade must be behavior-preserving.
        net.set_service_model(ServiceModel::new(300, 2));
        let (hb, profile, end_ns) =
            (EngineFamily::Hummingbird, ReactiveProfile::default(), START_NS + 10 * SEC);
        let flow = closed_loop(2_000, Some(3_000), 250, profile);
        let route = chain_route(IsdAs::new(1, 0xa));
        let reserved = net.add_family_flow(hb, route, &flow, START_NS, end_ns);
        let flow = closed_loop(16_000, None, 1000, profile);
        let route = chain_route(IsdAs::new(3, 0xc));
        let best_effort = net.add_family_flow(hb, route, &flow, START_NS, end_ns);
        net.sim.run_until(end_ns);
        (
            net.sim.stats(reserved),
            net.sim.stats(best_effort),
            net.sim.flow_events(reserved).to_vec(),
            net.sim.flow_events(best_effort).to_vec(),
        )
    };
    let single = run(1);
    let sharded = run(4);
    assert_eq!(single.0, sharded.0, "reserved stats must be bit-identical");
    assert_eq!(single.1, sharded.1, "best-effort stats must be bit-identical");
    assert_eq!(single.2, sharded.2, "reserved timeline must be bit-identical");
    assert_eq!(single.3, sharded.3, "best-effort timeline must be bit-identical");
}

/// A reactive flow into a blackholed path terminates on its retransmit
/// budget: every packet retries exactly `max_retransmits` times, gets
/// abandoned, and the flow completes — no livelock, nothing delivered,
/// every wire copy attributed to `link_down_drops`.
#[test]
fn retransmit_budget_exhaustion_terminates() {
    let mut net = LinearTopology::build(3, LinkSpec::default(), START_NS, cfg()).net;
    net.install_engines(EngineScenario { family: EngineFamily::Hummingbird, shards: 1 }, cfg());
    let profile = ReactiveProfile {
        window: 32,
        ack_delay_ns: 1_000_000,
        rto_ns: 50_000_000,
        rto_max_ns: 200_000_000,
        max_retransmits: 3,
    };
    let total = 50u64;
    let spec = closed_loop(2_000, Some(3_000), total, profile);
    let end_ns = START_NS + 60 * SEC;
    let route = chain_route(IsdAs::new(1, 0xa));
    let flow = net.add_family_flow(EngineFamily::Hummingbird, route, &spec, START_NS, end_ns);
    // Blackhole the first hop before anything is sent.
    let first = net.adjacency(0).ab;
    net.sim.set_link_up(first, false);
    net.sim.run_until(end_ns);

    assert!(net.sim.reactive_done(flow), "budget exhaustion must terminate the flow");
    let s = net.sim.stats(flow);
    assert_eq!(s.delivered_pkts, 0, "nothing crosses a dead link");
    assert_eq!(s.unattributed(), 0, "blackholed: conservation");
    assert_eq!(s.sent_pkts, s.link_down_drops, "every copy died on the dead link");
    assert_eq!(
        s.retransmits,
        total * u64::from(profile.max_retransmits),
        "every packet retries exactly its budget"
    );
    assert!(s.timeouts >= s.retransmits, "every retry was driven by a timeout");
    let events = net.sim.flow_events(flow);
    assert_eq!(
        events.iter().filter(|e| matches!(e.kind, FlowEventKind::Abandoned { .. })).count(),
        total as usize,
        "every packet must be abandoned"
    );
    assert!(
        events.iter().any(|e| e.kind == FlowEventKind::Completed),
        "the flow must report completion"
    );
}

/// Churn under saturation: an on-path link failure mid-overload, a
/// convergence delay in which retransmissions die into the dead path,
/// then a reroute. Every family's reserved flow recovers ≥ 0.9 delivery
/// in the recovery window *via retransmission* (the convergence-window
/// losses regenerate down the new path), and the saturating best-effort
/// flow degrades without collapse — it keeps terminating, with every
/// loss named.
#[test]
fn overload_churn_recovers_after_reroute() {
    for family in EngineFamily::ALL {
        let scenario = EngineScenario { family, shards: 1 };
        let out = run(cfg(), &common::overload_churn(scenario), START_NS);
        let label = family.name();
        let (reserved, best_effort) = (&out.flows[0], &out.flows[1]);
        let (outage, recovery) = (reserved.window(1), reserved.window(2));
        let (reserved_total, best_effort_total) = (reserved.total, best_effort.total);

        assert!(reserved.done, "{label}: reserved flow must terminate");
        assert!(best_effort.done, "{label}: best-effort flow must terminate");
        assert_eq!(reserved_total.unattributed(), 0, "{label} reserved: conservation");
        assert_eq!(best_effort_total.unattributed(), 0, "{label} best-effort: conservation");

        // The failure bit: sends died on the dead path during the
        // convergence window, and the reroute pass then moved the flow.
        assert!(outage.link_down_drops > 0, "{label}: outage must drop");
        assert!(
            outage.delivery_ratio() < 0.5,
            "{label}: convergence window must hurt (ratio {})",
            outage.delivery_ratio()
        );
        assert_eq!(reserved_total.reroutes, 1, "{label}: exactly one reroute");

        // Retransmit-driven recovery: the convergence-window losses
        // come back down the new path, and the recovery window clears
        // the ≥ 0.9-delivery acceptance bar.
        assert!(
            recovery.delivery_ratio() >= 0.9,
            "{label}: recovery delivery {} must reach 0.9",
            recovery.delivery_ratio()
        );
        assert!(recovery.retransmits > 0, "{label}: recovery rides retransmits");
        assert!(
            reserved_total.delivery_ratio() > 0.9,
            "{label}: end-to-end the reservation still held (ratio {})",
            reserved_total.delivery_ratio()
        );

        // Best effort: degraded (it saw drops and retried), not collapsed.
        assert!(best_effort_total.retransmits > 0, "{label}: best effort retried");
        assert!(
            best_effort_total.delivery_ratio() > 0.5,
            "{label}: best effort must not collapse (ratio {})",
            best_effort_total.delivery_ratio()
        );
        // Failure + reroute both landed in the report.
        assert_eq!(out.report.records.len(), 2, "{label}: churn timeline recorded");
    }
}

/// The Fig. 3/4 latency experiment under a scheduled mid-run link
/// failure (satellite: churn in the latency sweeps). Per-family
/// recovery bounds: without a flood every family recovers delivery and
/// keeps its recovery latency within 3× of base (the reroute detours
/// around the ring); under a 3× flood only the reservation families
/// recover — authentication-only families stay drowned.
#[test]
fn latency_sweep_recovers_from_churn() {
    for family in EngineFamily::ALL {
        let scenario = EngineScenario { family, shards: 1 };
        let label = family.name();

        let out = run(cfg(), &common::latency_churn(scenario, 0, 42, 100_000_000), START_NS);
        let [base, outage, recovery] = [0, 1, 2].map(|i| out.flows[0].window(i));
        assert_eq!(out.report.records.len(), 2, "{label}: failure + reroute recorded");
        assert!(base.delivery_ratio() > 0.99, "{label}: clean base window");
        assert!(outage.link_down_drops > 0, "{label}: outage must drop");
        assert!(
            outage.delivery_ratio() < 0.5,
            "{label}: outage must hurt (ratio {})",
            outage.delivery_ratio()
        );
        assert!(
            recovery.delivery_ratio() > 0.9,
            "{label}: recovery delivery {} must reach 0.9",
            recovery.delivery_ratio()
        );
        let base_ms = base.mean_latency_ms();
        let recovery_ms = recovery.mean_latency_ms();
        assert!(
            recovery_ms < base_ms * 3.0 + 1.0,
            "{label}: recovery latency {recovery_ms:.2} ms must stay within 3x of base \
             {base_ms:.2} ms (longer detour path, no queueing blowup)"
        );

        // Under a 3× flood the recovery bound splits by family.
        let flooded =
            run(cfg(), &common::latency_churn(scenario, 30_000, 42, 100_000_000), START_NS);
        let flooded_recovery = flooded.flows[0].window(2);
        if family.has_priority_class() {
            assert!(
                flooded_recovery.delivery_ratio() > 0.9,
                "{label}: reservation family must recover under flood (ratio {})",
                flooded_recovery.delivery_ratio()
            );
            assert!(
                flooded_recovery.mean_latency_ms() < base_ms * 3.0 + 1.0,
                "{label}: flooded recovery latency {} must stay bounded",
                flooded_recovery.mean_latency_ms()
            );
        } else {
            assert!(
                flooded_recovery.delivery_ratio() < 0.5,
                "{label}: authentication-only family stays drowned (ratio {})",
                flooded_recovery.delivery_ratio()
            );
        }
    }
}
