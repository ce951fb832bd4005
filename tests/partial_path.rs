//! Partial path protection end to end (§3.3 ❸ / §3.1 "Independent &
//! Composable Flyover Reservations"): a client reserves only the congested
//! middle hop of a five-AS path, through the real market, and its traffic
//! rides priority exactly there.

use hummingbird::world::{World, WorldConfig};
use hummingbird::{IsdAs, PurchaseSpec};

const SEC: u64 = 1_000_000_000;

#[test]
fn middle_hop_only_reservation() {
    let mut world = World::build(WorldConfig { n_ases: 5, ..Default::default() }).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();

    let mut client = world.new_client("partial", 1_000);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 3_000 };
    // Only hop 2 (the middle AS) is reserved.
    let grants = world.acquire_hops(&mut client, spec, &[2]).unwrap();
    assert_eq!(grants.len(), 1);
    assert_eq!(grants[0].0, 2);

    let generator = world
        .make_partially_reserved_generator(IsdAs::new(1, 0xa), IsdAs::new(2, 0xb), &grants)
        .unwrap();
    let entry = world.topo.as_nodes[0];
    let start_ns = t0 * SEC;
    let flow = world.topo.sim.add_flow(hummingbird::netsim::Flow {
        generator,
        entry,
        payload_len: 500,
        interval_ns: 4_000_000,
        start_ns,
        stop_ns: start_ns + SEC,
    });
    world.topo.sim.run_until(start_ns + 2 * SEC);

    let stats = world.topo.sim.stats(flow);
    assert!(stats.sent_pkts > 200);
    assert_eq!(stats.delivered_pkts, stats.sent_pkts);
    for (i, node) in world.topo.as_nodes.iter().enumerate() {
        let rs = world.topo.sim.router_stats(*node).unwrap();
        if i == 2 {
            assert_eq!(rs.flyover, stats.sent_pkts, "reserved hop carries priority");
        } else {
            assert_eq!(rs.flyover, 0, "hop {i} must see only best effort");
            assert_eq!(rs.best_effort, stats.sent_pkts);
        }
        assert_eq!(rs.dropped, 0);
    }
}

#[test]
fn multiple_disjoint_hops() {
    let mut world = World::build(WorldConfig { n_ases: 4, ..Default::default() }).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let mut client = world.new_client("partial2", 1_000);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };
    let grants = world.acquire_hops(&mut client, spec, &[0, 3]).unwrap();
    assert_eq!(grants.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 3]);

    let mut generator = world
        .make_partially_reserved_generator(IsdAs::new(1, 0xa), IsdAs::new(2, 0xb), &grants)
        .unwrap();
    let mut pkt = generator.generate(&[0u8; 64], t0 * 1000).unwrap();
    // Walk the packet through all four routers directly.
    let expected = [true, false, false, true];
    for (i, node) in world.topo.as_nodes.clone().iter().enumerate() {
        let v = world.topo.sim.process_at_router(*node, &mut pkt, t0 * SEC).unwrap();
        assert_eq!(v.is_flyover(), expected[i], "hop {i}: {v:?}");
    }
}

#[test]
fn out_of_range_hop_rejected() {
    let mut world = World::build(WorldConfig { n_ases: 2, ..Default::default() }).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let mut client = world.new_client("oops", 1_000);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };
    assert!(world.acquire_hops(&mut client, spec, &[5]).is_err());
}
