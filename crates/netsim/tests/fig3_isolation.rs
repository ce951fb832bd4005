//! The Fig. 3 mitigation (§5.4): a source that uses *separate* reservations
//! per path confines an on-reservation-set replay adversary to the path it
//! sits on — the other path's reservation is untouched.
//!
//! Model: two flows from the same source cross the same AS (the "target
//! AS T"). In the *shared* configuration both flows use one reservation
//! (same ResID); in the *separate* configuration each has its own. The
//! adversary observes and replays only flow Q. The victim flow P must
//! suffer in the shared case and be unaffected in the separate case.

use hummingbird_dataplane::{RouterConfig, SourceReservation};
use hummingbird_netsim::{EngineFamily, Flow, FlowSpec, LinearTopology, LinkSpec, Route};
use hummingbird_wire::IsdAs;

const START_S: u64 = 1_700_000_000;
const START_NS: u64 = START_S * 1_000_000_000;
const SEC: u64 = 1_000_000_000;
const RUN_S: u64 = 2;

/// Runs the scenario; returns the victim's delivery ratio.
fn run(shared_reservation: bool) -> f64 {
    let mut topo = LinearTopology::build(2, LinkSpec::default(), START_NS, RouterConfig::default());
    let src = IsdAs::new(1, 0xa);
    let mut reserve =
        |hop| topo.make_family_credential(EngineFamily::Hummingbird, hop, src, 5_000, START_S);

    // One reservation per hop for flow Q; flow P either shares them or
    // gets its own.
    let res_q = [reserve(0), reserve(1)];
    let res_p = if shared_reservation { res_q.clone() } else { [reserve(0), reserve(1)] };

    let mk_flow = |topo: &mut LinearTopology, reservations: [SourceReservation; 2]| {
        let mut generator = topo.make_generator(src, IsdAs::new(2, 0xb));
        for (hop, res) in reservations.into_iter().enumerate() {
            generator.attach_reservation(hop, res).unwrap();
        }
        topo.net.sim.add_flow(Flow {
            generator,
            entry: topo.net.as_nodes[0],
            payload_len: 1000,
            interval_ns: 4_000_000, // 2 Mbps each
            start_ns: START_NS,
            stop_ns: START_NS + RUN_S * SEC,
        })
    };
    let flow_p = mk_flow(&mut topo, res_p);
    let flow_q = mk_flow(&mut topo, res_q);
    let net = &mut topo.net;

    // Background congestion so demotions turn into loss.
    let flood = FlowSpec::cbr(1000, 30_000, None);
    let route = Route { src: Some(IsdAs::new(3, 0xc)), ..Route::new(0, 1) };
    net.add_family_flow(EngineFamily::Hummingbird, route, &flood, START_NS, START_NS + RUN_S * SEC);

    // Adversary on flow Q's path: duplicates Q's packets 19x, timed.
    net.sim.add_replay_tap(flow_q, net.as_nodes[0], 19, 200_000);
    net.sim.run_until(START_NS + (RUN_S + 1) * SEC);
    net.sim.stats(flow_p).delivery_ratio()
}

#[test]
fn shared_reservation_lets_the_replay_spill_over() {
    let ratio = run(true);
    assert!(
        ratio < 0.95,
        "victim sharing a reservation with the attacked path should suffer, ratio {ratio}"
    );
}

#[test]
fn separate_reservations_isolate_the_victim() {
    let ratio = run(false);
    assert!(ratio > 0.99, "victim with its own reservation must be unaffected, ratio {ratio}");
}

#[test]
fn isolation_gap_is_substantial() {
    let shared = run(true);
    let separate = run(false);
    assert!(
        separate - shared > 0.10,
        "the mitigation should visibly help: shared {shared} vs separate {separate}"
    );
}
