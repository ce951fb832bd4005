//! Quickstart: the complete life of a Hummingbird reservation.
//!
//! 1. Five ASes register with the asset contract (PKI possession proofs)
//!    and list bandwidth assets on the marketplace.
//! 2. A client atomically buys **and** redeems reservations for the whole
//!    path in one blockchain transaction.
//! 3. Each AS answers with a sealed `(ResInfo, A_K)` delivery (fast path).
//! 4. The client authenticates packets with the keys; the simulated border
//!    routers verify and prioritize them end to end.
//! 5. The same packets are driven through a border router directly via
//!    the [`hummingbird::Datapath`] trait — the one API every engine
//!    (router, gateway, baselines) implements, single-packet and batch.
//!
//! Run with: `cargo run --release --example quickstart`

use hummingbird::netsim::{EngineFamily, EngineScenario};
use hummingbird::world::{World, WorldConfig};
use hummingbird::{Datapath, IsdAs, PacketBuf, PurchaseSpec};

fn main() {
    let cfg = WorldConfig { n_ases: 5, ..Default::default() };
    let n = cfg.n_ases;
    let mut world = World::build(cfg).expect("world");
    let t0 = world.cfg.start_unix_s;
    println!("== Hummingbird quickstart: {n} ASes, linear path ==\n");

    // --- ASes stock the market --------------------------------------
    let listings = world.stock_market(100_000, t0 - 60, t0 + 3540, 60, 100).expect("stock market");
    println!(
        "ASes issued and listed {} assets (1 ingress + 1 egress per hop, 100 Mbps, 1 h)",
        listings.len() * 2
    );

    // --- Client: atomic path purchase --------------------------------
    let mut client = world.new_client("alice", 1_000);
    let balance_before = world.control.ledger.balance(client.account);
    let spec = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 4_000 };
    let grants = world.acquire_path(&mut client, spec).expect("acquire path");
    let balance_after = world.control.ledger.balance(client.account);
    println!("\nclient bought + redeemed {} flyovers atomically (4 Mbps, 10 min)", grants.len());
    println!("  paid {:.4} SUI (price + gas)", (balance_before - balance_after) as f64 / 1e9);
    for (i, g) in grants.iter().enumerate() {
        println!(
            "  hop {i}: AS {} if {}->{} ResID {} start {} dur {}s",
            g.as_id,
            g.res_info.ingress,
            g.res_info.egress,
            g.res_info.res_id,
            g.res_info.res_start,
            g.res_info.duration
        );
    }

    // --- Data plane: send prioritized traffic ------------------------
    let src = IsdAs::new(1, 0xa);
    let dst = IsdAs::new(2, 0xb);
    let generator = world.make_reserved_generator(src, dst, &grants).expect("generator");
    let entry = world.topo.as_nodes[0];
    let start_ns = t0 * 1_000_000_000;
    let flow = world.topo.sim.add_flow(hummingbird::netsim::Flow {
        generator,
        entry,
        payload_len: 1000,
        // ~3.7 Mbps on the wire: inside the granted 4 Mbps class after
        // the floor rounding of the 10-bit bandwidth encoding.
        interval_ns: 2_500_000,
        start_ns,
        stop_ns: start_ns + 2_000_000_000,
    });
    world.topo.sim.run_until(start_ns + 3_000_000_000);
    let stats = world.topo.sim.stats(flow);
    println!("\nsent {} packets over the simulated path:", stats.sent_pkts);
    println!(
        "  delivered {} ({:.1}%), mean latency {:.2} ms",
        stats.delivered_pkts,
        stats.delivery_ratio() * 100.0,
        stats.mean_latency_ms()
    );
    for (i, node) in world.topo.as_nodes.iter().enumerate() {
        let rs = world.topo.sim.router_stats(*node).unwrap();
        println!(
            "  AS {i}: processed {} | priority {} | best-effort {} | dropped {}",
            rs.processed, rs.flyover, rs.best_effort, rs.dropped
        );
    }
    assert_eq!(stats.delivered_pkts, stats.sent_pkts);
    println!("\nOK: every packet verified and forwarded with priority at all {n} ASes");

    // --- The unified Datapath API ------------------------------------
    // Everything above drove engines through the simulator; the same
    // packets can be processed against any engine directly through the
    // `Datapath` trait — here hop 0's router, batch-first.
    let mut generator = world.make_reserved_generator(src, dst, &grants).expect("generator");
    let now_ns = t0 * 1_000_000_000;
    let mut batch: Vec<PacketBuf> = (0..8)
        .map(|i| PacketBuf::new(generator.generate(&[0u8; 200], t0 * 1000 + i).unwrap()))
        .collect();
    let mut verdicts = Vec::new();
    // Returns (priority verdicts, batch size) for any engine.
    let mut verdict_probe = |engine: &mut dyn Datapath| {
        verdicts.clear();
        for pkt in &mut batch {
            pkt.reset(); // engines advance the header in place
        }
        engine.process_batch(&mut batch, now_ns, &mut verdicts);
        (verdicts.iter().filter(|v| v.is_flyover()).count(), verdicts.len())
    };
    let hb = |shards| EngineScenario { family: EngineFamily::Hummingbird, shards };
    let mut router = world.topo.engine(0, hb(1), world.cfg.router);
    let (priority, total) = verdict_probe(router.as_mut());
    println!(
        "Datapath batch API: {} of {} packets verified with priority at a fresh hop-0 \"{}\" engine",
        priority,
        total,
        router.engine_name(),
    );
    assert_eq!(priority, total);

    // --- Sharded runtime facade --------------------------------------
    // The same trait also fronts a whole multi-core router: a
    // `ShardedRouter` RSS-steers each reservation to the one shard that
    // polices it, and behaves observably like the single engine above.
    let mut sharded = world.topo.engine(0, hb(4), world.cfg.router);
    let (priority, total) = verdict_probe(sharded.as_mut());
    println!(
        "Sharded runtime: the same {} packets verified with priority across a 4-shard \"{}\" router",
        priority,
        sharded.engine_name(),
    );
    assert_eq!(priority, total);
}
