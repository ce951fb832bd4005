//! Cross-crate end-to-end integration: the full reservation lifecycle from
//! market issuance through packet forwarding, exercised via the umbrella
//! crate's public API only.

use hummingbird::world::{World, WorldConfig};
use hummingbird::{ExecPath, IsdAs, PurchaseSpec, ReservationBundle};

const SEC: u64 = 1_000_000_000;

#[test]
fn sixteen_hop_path_acquisition_and_forwarding() {
    // The longest path the paper evaluates (Table 1, Fig. 4: 16 hops).
    let mut world = World::build(WorldConfig {
        n_ases: 16,
        link: hummingbird::LinkSpec { bandwidth_bps: 100_000_000, ..Default::default() },
        ..Default::default()
    })
    .unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let mut client = world.new_client("alice", 10_000);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };
    let grants = world.acquire_path(&mut client, spec).unwrap();
    assert_eq!(grants.len(), 16);

    // All 16 flyovers verify along the chain.
    let generator =
        world.make_reserved_generator(IsdAs::new(1, 0xa), IsdAs::new(2, 0xb), &grants).unwrap();
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
    let s = world.topo.sim.stats(flow);
    assert!(s.sent_pkts >= 200);
    assert_eq!(s.delivered_pkts, s.sent_pkts);
    for node in &world.topo.as_nodes {
        assert_eq!(world.topo.sim.router_stats(*node).unwrap().dropped, 0);
    }
}

#[test]
fn purchase_needs_consensus_delivery_rides_fast_path() {
    let mut world = World::build(WorldConfig::default()).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();

    // Direct calls so we can inspect the execution path per transaction.
    let mut client = world.new_client("alice", 1_000);
    let listings = world.control.listings(world.market);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };
    let hops: Vec<_> = (0..world.cfg.n_ases)
        .map(|i| {
            let (ing_if, eg_if) = hummingbird::LinearTopology::interfaces(world.cfg.n_ases, i);
            let find = |interface: u16, dir: hummingbird::Direction| {
                listings
                    .iter()
                    .find(|(_, _, a)| {
                        a.as_id == World::as_id(i) && a.interface == interface && a.direction == dir
                    })
                    .unwrap()
                    .0
            };
            (
                find(ing_if, hummingbird::Direction::Ingress),
                find(eg_if, hummingbird::Direction::Egress),
                spec,
            )
        })
        .collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let rx = client.buy_and_redeem_path(&mut world.control, world.market, &hops, &mut rng).unwrap();
    assert_eq!(rx.path, ExecPath::Consensus, "market purchase touches a shared object");

    // Deliveries use owned objects only → fast path (paper §6.1).
    let pending = world.control.pending_requests(world.services[0].account);
    let (req_id, req) = pending[0].clone();
    let delivery = hummingbird_control::EncryptedReservation {
        as_id: World::as_id(0),
        request: req_id,
        sealed: hummingbird_crypto::sealed::seal(&req.ephemeral_pk, b"test", &mut rng),
    };
    let rx =
        world.control.deliver_reservation(world.services[0].account, req_id, delivery).unwrap();
    assert_eq!(rx.path, ExecPath::FastPath);
}

#[test]
fn gas_cost_scales_linearly_with_hops() {
    // The Table 1 shape: atomic buy-and-redeem cost grows linearly in the
    // path length (≈0.031 SUI per hop at the paper's prices).
    let mut per_hop_costs = Vec::new();
    for hops in [1usize, 2, 4, 8] {
        let mut world = World::build(WorldConfig { n_ases: hops, ..Default::default() }).unwrap();
        let t0 = world.cfg.start_unix_s;
        world.stock_market(100_000, t0 - 3600, t0 + 36_000, 60, 100).unwrap();
        let mut client = world.new_client("alice", 10_000);
        let listings = world.control.listings(world.market);
        // Worst-case split on every asset: interior window + partial bw.
        let spec = PurchaseSpec { start: t0, end: t0 + 600, bandwidth_kbps: 4_000 };
        let hop_list: Vec<_> = (0..hops)
            .map(|i| {
                let (ing_if, eg_if) = hummingbird::LinearTopology::interfaces(hops, i);
                let find = |interface: u16, dir: hummingbird::Direction| {
                    listings
                        .iter()
                        .find(|(_, _, a)| {
                            a.as_id == World::as_id(i)
                                && a.interface == interface
                                && a.direction == dir
                        })
                        .unwrap()
                        .0
                };
                (
                    find(ing_if, hummingbird::Direction::Ingress),
                    find(eg_if, hummingbird::Direction::Egress),
                    spec,
                )
            })
            .collect();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(13);
        let rx = client
            .buy_and_redeem_path(&mut world.control, world.market, &hop_list, &mut rng)
            .unwrap();
        let total_sui = rx.gas.total_sui();
        assert!(total_sui > 0.0);
        per_hop_costs.push(total_sui / hops as f64);
    }
    // Linearity: per-hop cost roughly constant (within 2× across sizes —
    // computation bucketing adds small steps).
    let min = per_hop_costs.iter().cloned().fold(f64::MAX, f64::min);
    let max = per_hop_costs.iter().cloned().fold(0.0, f64::max);
    assert!(max / min < 2.0, "per-hop cost should be ~constant: {per_hop_costs:?}");
    // Magnitude: same order as the paper's 0.031 SUI per hop.
    assert!(
        (0.003..0.3).contains(&per_hop_costs[0]),
        "per-hop cost {} SUI out of the expected regime",
        per_hop_costs[0]
    );
}

#[test]
fn bundle_transfer_enables_reverse_traffic() {
    let mut world = World::build(WorldConfig { n_ases: 2, ..Default::default() }).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let mut alice = world.new_client("alice", 1_000);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 2_000 };
    let grants = world.acquire_path(&mut alice, spec).unwrap();

    // Alice ships credentials to Bob; Bob's packets verify at the routers.
    let wire_bundle = ReservationBundle::from_grants(&grants).encode();
    let bob_grants = ReservationBundle::decode(&wire_bundle).unwrap().into_grants();
    let mut bob_gen = world
        .make_reserved_generator(IsdAs::new(7, 0x77), IsdAs::new(2, 0xb), &bob_grants)
        .unwrap();
    let mut pkt = bob_gen.generate(&[0u8; 64], t0 * 1000).unwrap();
    let v = world.topo.sim.process_at_router(world.topo.as_nodes[0], &mut pkt, t0 * SEC).unwrap();
    assert!(v.is_flyover());
}

#[test]
fn multiple_clients_share_the_market_fairly() {
    let mut world = World::build(WorldConfig { n_ases: 2, ..Default::default() }).unwrap();
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 10_000 };
    // Ten clients buy 10 Mbps each out of the 100 Mbps listings.
    let mut all_res_ids = Vec::new();
    for i in 0..10 {
        let mut c = world.new_client(&format!("client-{i}"), 10_000);
        let grants = world.acquire_path(&mut c, spec).unwrap();
        all_res_ids.push(grants[0].res_info.res_id);
    }
    // Everyone got distinct concurrent ResIDs on hop 0.
    let mut dedup = all_res_ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), 10, "{all_res_ids:?}");
    // The market is now out of bandwidth at this window: an 11th client
    // cannot buy (all remaining pieces are too small).
    let mut late = world.new_client("late", 10_000);
    assert!(world.acquire_path(&mut late, spec).is_err());
}
