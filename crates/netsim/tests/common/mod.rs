//! Scenario shapes shared by the behaviour tests and the golden digests
//! (the shapes the library has no constructor for, since only tests run
//! them).

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use hummingbird_netsim::{
    BackboneSpec, EngineScenario, FlowKind, FlowSpec, LinkSpec, ReactiveProfile, Route, Scenario,
    ServiceModel, Step, Topology,
};
use hummingbird_wire::IsdAs;

const SEC: u64 = 1_000_000_000;
const VICTIM: IsdAs = IsdAs::new(1, 0xa);
const ATTACKER: IsdAs = IsdAs::new(3, 0xc);

/// The partial-path variant (§3.3 ❸) of [`Scenario::latency`]: 100 Mbps
/// links except the middle hop's egress, narrowed to the 10 Mbps
/// bottleneck, a 2× flood across the whole path, and a victim holding
/// its credential at that middle hop only.
pub fn partial_path(engines: EngineScenario) -> Scenario {
    let mut s = Scenario::latency(engines, 20_000);
    let fat = LinkSpec { bandwidth_bps: 100_000_000, ..LinkSpec::default() };
    s.topology = Topology::Chain { n_ases: 3, link: fat, narrow: Some((1, 10_000_000)) };
    s.flows[0].0.credential_hop = Some(1);
    s
}

/// The multipath variant on the Fig. 3 diamond: a 2 Mbps credentialed
/// victim flow on each branch (P = router 0, Q = router 1, both into T =
/// router 2) and a 30 Mbps best-effort flood on Q only.
pub fn multipath(engines: EngineScenario) -> Scenario {
    let victim = FlowSpec::cbr(1_000, 2_000, Some(3_000));
    let (p, q) = (0, 1);
    let on = |branch, src| Route { src: Some(src), ..Route::new(branch, 2) };
    Scenario {
        engines,
        topology: Topology::Diamond(LinkSpec::default()),
        service: ServiceModel::new(0, 1),
        flows: vec![
            (on(p, VICTIM), victim),
            (on(q, VICTIM), victim),
            (on(q, ATTACKER), FlowSpec::cbr(1_000, 30_000, None)),
        ],
        plan: Vec::new(),
        run_s: 2,
    }
}

/// [`Scenario::latency`] under churn: the same flows from PoP 0 to PoP 2
/// of a 3-PoP × 2-router ring (the chain has no failover path) with the
/// chain's links as long-haul links; the victim's first link fails at
/// one third of the run and the reroute follows `reroute_delay_ns` later.
pub fn latency_churn(
    engines: EngineScenario,
    flood_kbps: u64,
    seed: u64,
    reroute_delay_ns: u64,
) -> Scenario {
    let mut s = Scenario::latency(engines, flood_kbps);
    s.topology = Topology::Backbone(BackboneSpec::new(3, 2, seed));
    for (route, _) in &mut s.flows {
        *route = Route::new(0, 4);
    }
    let t_fail = s.run_s * SEC / 3;
    s.plan = vec![
        (t_fail, Step::FailPath { flow: 0, links: 1 }),
        (t_fail + reroute_delay_ns, Step::Reroute),
    ];
    s
}

/// Overload under churn: a 2 Mbps closed-loop reserved flow with 3 Mbps
/// credentials against 16 Mbps of closed-loop best effort (1.6× the
/// 10 Mbps long-haul links) from PoP 0 to PoP 2 of an 8-PoP × 2-router
/// ring, routers serving 300 ns/pkt with 128-packet queues; one on-path
/// link fails at 1 s of the 3 s run and the reroute comes after a 50 ms
/// convergence delay.
pub fn overload_churn(engines: EngineScenario) -> Scenario {
    let closed = |rate_kbps: u64, credential_kbps| FlowSpec {
        payload_len: 1_000,
        rate_kbps,
        credential_kbps,
        kind: FlowKind::ClosedLoop {
            total_pkts: rate_kbps * 3 * 125 / 1_000,
            profile: ReactiveProfile::default(),
        },
    };
    let route = Route::new(0, 4);
    Scenario {
        engines,
        topology: Topology::Backbone(BackboneSpec::new(8, 2, 0x0BAD_CA5E)),
        service: ServiceModel { per_pkt_ns: 300, shards: engines.shards, queue_pkts: 128 },
        flows: vec![(route, closed(2_000, Some(3_000))), (route, closed(16_000, None))],
        plan: vec![(SEC, Step::FailPath { flow: 0, links: 1 }), (SEC + 50_000_000, Step::Reroute)],
        run_s: 3,
    }
}
