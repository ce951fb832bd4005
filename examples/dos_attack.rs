//! Adversarial scenarios from the security analysis (§5): what attackers
//! can and cannot do to Hummingbird reservations.
//!
//! 1. **Off-path flooding** — congestion cannot touch reserved traffic.
//! 2. **Reservation spoofing (D1)** — forged tags are dropped at the first
//!    honest router.
//! 3. **Overuse (D1)** — a compromised source exceeding its reservation is
//!    demoted by deterministic policing, never amplified.
//! 4. **On-reservation-set replay (Fig. 3)** — duplicated tags *do* pass
//!    authentication, and the two mitigations: duplicate suppression, or
//!    separate reservations per path.
//!
//! Run with: `cargo run --release --example dos_attack`

use hummingbird::netsim::{
    EngineFamily, FlowId, FlowSpec, LinearTopology, LinkSpec, Route, TopologyBuilder,
};
use hummingbird::{Datapath, IsdAs, RouterConfig, Verdict};

const START_S: u64 = 1_700_000_000;
const START_NS: u64 = START_S * 1_000_000_000;
const SEC: u64 = 1_000_000_000;
const RUN_S: u64 = 2;

fn victim() -> IsdAs {
    IsdAs::new(1, 0xa)
}
fn dest() -> IsdAs {
    IsdAs::new(2, 0xb)
}
fn attacker() -> IsdAs {
    IsdAs::new(66, 0x666)
}

/// An `n`-AS chain of uniform `link`s.
fn chain(n: usize, link: LinkSpec, cfg: RouterConfig) -> TopologyBuilder {
    LinearTopology::build(n, link, START_NS, cfg).net
}

/// A Hummingbird CBR flow of 1000-byte packets from sender `src` over the
/// whole chain, credentialed on every hop at `reserved_kbps` (or best
/// effort), sending for `run_s` seconds.
fn cbr(
    net: &mut TopologyBuilder,
    src: IsdAs,
    rate_kbps: u64,
    reserved_kbps: Option<u64>,
    run_s: u64,
) -> FlowId {
    let route = Route { src: Some(src), ..Route::new(0, net.n_routers() - 1) };
    let flow = FlowSpec::cbr(1000, rate_kbps, reserved_kbps);
    net.add_family_flow(EngineFamily::Hummingbird, route, &flow, START_NS, START_NS + run_s * SEC)
}

fn scenario_flooding() {
    println!("-- 1. off-path flooding (30 Mbps into 10 Mbps links) --");
    let mut net = chain(3, LinkSpec::default(), RouterConfig::default());
    let v = cbr(&mut net, victim(), 2_000, Some(3_000), RUN_S);
    let a = cbr(&mut net, attacker(), 30_000, None, RUN_S);
    net.sim.run_until(START_NS + (RUN_S + 1) * SEC);
    let vs = net.sim.stats(v);
    let as_ = net.sim.stats(a);
    println!(
        "   victim: {:.1}% delivered at {:.2} ms | attacker: {:.1}% delivered, {} queue drops",
        vs.delivery_ratio() * 100.0,
        vs.mean_latency_ms(),
        as_.delivery_ratio() * 100.0,
        as_.queue_drops
    );
    assert!(vs.delivery_ratio() > 0.99);
}

fn scenario_spoofing() {
    println!("-- 2. reservation spoofing with forged keys --");
    let mut net = chain(2, LinkSpec::default(), RouterConfig::default());
    // Forge: keys from a different (attacker-chosen) secret value.
    let mut other = LinearTopology::build_seeded(
        2,
        LinkSpec::default(),
        START_NS,
        RouterConfig::default(),
        0x66,
    );
    let mut forged_gen = other.make_generator(attacker(), dest());
    for hop in 0..2 {
        let res = other.make_family_credential(
            EngineFamily::Hummingbird,
            hop,
            attacker(),
            5_000,
            START_S,
        );
        forged_gen.attach_reservation(hop, res).unwrap();
    }
    let entry = net.as_nodes[0];
    let forged = net.sim.add_flow(hummingbird::netsim::Flow {
        generator: forged_gen,
        entry,
        payload_len: 500,
        interval_ns: 1_000_000,
        start_ns: START_NS,
        stop_ns: START_NS + RUN_S * SEC,
    });
    net.sim.run_until(START_NS + (RUN_S + 1) * SEC);
    let fs = net.sim.stats(forged);
    println!(
        "   attacker sent {} forged packets; {} dropped at the first router, {} delivered",
        fs.sent_pkts, fs.router_drops, fs.delivered_pkts
    );
    assert_eq!(fs.delivered_pkts, 0);
}

fn scenario_overuse() {
    println!("-- 3. overuse of a valid reservation (8 Mbps through 2 Mbps) --");
    let link = LinkSpec { bandwidth_bps: 100_000_000, ..Default::default() };
    let mut net = chain(2, link, RouterConfig::default());
    let f = cbr(&mut net, victim(), 8_000, Some(2_000), 1);
    net.sim.run_until(START_NS + 2 * SEC);
    let s = net.sim.stats(f);
    let rs = net.sim.router_stats(net.as_nodes[0]).unwrap();
    println!(
        "   {} packets sent, {} kept priority, {} demoted to best effort, 0 dropped (no punishment)",
        s.sent_pkts, rs.flyover, rs.demoted_overuse
    );
    assert!(rs.demoted_overuse > s.sent_pkts / 2);
    assert!(s.delivery_ratio() > 0.99);
}

fn scenario_replay(dup_suppression: bool) {
    let label = if dup_suppression { "with" } else { "without" };
    println!("-- 4. on-reservation-set replay, {label} duplicate suppression --");
    let cfg = RouterConfig { duplicate_suppression: dup_suppression, ..Default::default() };
    let mut net = chain(2, LinkSpec::default(), cfg);
    let v = cbr(&mut net, victim(), 2_000, Some(2_500), RUN_S);
    cbr(&mut net, attacker(), 30_000, None, RUN_S);
    // Adversary duplicates every victim packet 19x, timed to pin the
    // token bucket right before the next original.
    let tap = net.sim.add_replay_tap(v, net.as_nodes[0], 19, 200_000);
    net.sim.run_until(START_NS + (RUN_S + 1) * SEC);
    let vs = net.sim.stats(v);
    let ts = net.sim.stats(tap);
    let rs = net.sim.router_stats(net.as_nodes[0]).unwrap();
    println!(
        "   victim delivery {:.1}% | {} replays injected, {} dropped as duplicates, {} demotions",
        vs.delivery_ratio() * 100.0,
        ts.sent_pkts,
        ts.router_drops,
        rs.demoted_overuse
    );
    if dup_suppression {
        assert!(vs.delivery_ratio() > 0.99);
    } else {
        assert!(vs.delivery_ratio() < 0.95);
    }
}

/// The replay defence probed directly through the unified `Datapath`
/// trait: a router built with the duplicate-suppression stage enabled
/// (`RouterConfig::duplicate_suppression`) accepts a packet once and drops the replay —
/// the same API every engine in the workspace speaks.
fn scenario_replay_via_datapath() {
    println!("-- 5. replay probe through the Datapath trait --");
    let mut topo = LinearTopology::build(1, LinkSpec::default(), START_NS, RouterConfig::default());
    let mut generator = topo.make_generator(victim(), dest());
    let res = topo.make_family_credential(EngineFamily::Hummingbird, 0, victim(), 5_000, START_S);
    generator.attach_reservation(0, res).unwrap();
    let mut original = generator.generate(&[0u8; 128], START_S * 1000).unwrap();
    let mut replay = original.clone();
    // Hop 0's secrets with the duplicate-suppression stage composed in.
    let cfg = RouterConfig { duplicate_suppression: true, ..Default::default() };
    let mut router = topo.make_family_hop_engine(EngineFamily::Hummingbird, 0, cfg);
    let first = router.process(&mut original, START_NS);
    let second = router.process(&mut replay, START_NS + 1_000);
    println!(
        "   engine '{}': original -> {:?}, replay -> {:?}",
        router.engine_name(),
        first,
        second
    );
    assert!(matches!(second, Verdict::Drop(_)));
}

fn main() {
    println!("== Hummingbird under attack (paper §5) ==\n");
    scenario_flooding();
    scenario_spoofing();
    scenario_overuse();
    scenario_replay(false);
    scenario_replay(true);
    scenario_replay_via_datapath();
    println!("\nOK: D1 holds unconditionally; D2 holds except for the documented");
    println!("on-reservation-set replay, which duplicate suppression (or separate");
    println!("per-path reservations) eliminates — exactly the paper's analysis.");
}
