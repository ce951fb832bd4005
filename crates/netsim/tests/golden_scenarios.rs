//! Bit-identity of the scenario outcomes.
//!
//! Every experiment the simulator ships — the Fig. 3/4 latency run, the
//! partial-path and multipath variants, the closed-loop overload sweep,
//! overload under churn, latency under churn, and the backbone churn run
//! the benchmark drives — is run per engine family, and every field of
//! its outcome is folded into SHA-256. Each experiment
//! keeps one digest over its whole-run totals (flow totals, finish state,
//! router verdict and demotion counters,
//! the fault timeline, event counts) and, where it has a failure plan,
//! one over its windowed snapshots (base, outage, recovery). The chain
//! the benchmark and the socket testbed build by hand, outside `run`,
//! has one digest of its own. A changed digest means a count, a latency,
//! a verdict or the event order changed, not speed.

mod common;

use hummingbird_crypto::sha256::Sha256;
use hummingbird_dataplane::{Datapath, DatapathStats, RouterConfig, Verdict};
use hummingbird_netsim::{
    run, run_churn_scenario, ChurnReport, ChurnSpec, EngineFamily, EngineScenario, FlowSpec,
    FlowStats, LinearTopology, LinkSpec, Route, Scenario,
};
use hummingbird_wire::IsdAs;

const LATENCY: &str = "93de5642dc9a0de1f72c6ae6f44bee528b145d7b57e099db3132b6cbd06a56ad";
const PARTIAL_PATH: &str = "ccc4f74ab8304665e23b5fce04ddffd72dc9d44fad21a35b4bb982f46529a2d2";
const MULTIPATH: &str = "ed28f017d0225effa0ad3d7b2983e3943570c2be192ffd800bca6277748cbd57";
const OVERLOAD: &str = "c7b82f2d3c122766fb74f66cac21b4c3dfa868dbb28262b8383c3883aa723092";
const OVERLOAD_CHURN_TOTALS: &str =
    "d3e8f396da4a69b7deaf7af090df97cfa41c2032196d336153a78a9dac8ca776";
const OVERLOAD_CHURN_WINDOWS: &str =
    "8029d3ca993ea2e2c439b0d465ef3ceb325f7766e4f90ab999c606ef7364a822";
const LATENCY_CHURN_TOTALS: &str =
    "19ea9e0cc383babed334954d859be5e3d3c8fad19a0ea0bded3a3f6647efb292";
const LATENCY_CHURN_WINDOWS: &str =
    "d1c10aefcbc2fd46dc46ba0d89200a30135625a93b6c60bc8e313476c4c981c4";
const CHURN_TOTALS: &str = "42e00ba5deec0b62db234b36071961f822ce25dd2d74d1a02c09c30131c17717";
const CHURN_WINDOWS: &str = "57e5ae6271928a59abf3d16e390600f5a7e76d7b157e1ea975ae2046e118a893";
const HAND_WIRED_CHAIN: &str = "6aab5facea6c828d5511d34c91590e7b09f801d2cb1ad733fa47daf7cb7e56df";

const START_NS: u64 = 1_700_000_000 * 1_000_000_000;

fn cfg() -> RouterConfig {
    RouterConfig::default()
}

fn single(family: EngineFamily) -> EngineScenario {
    EngineScenario { family, shards: 1 }
}

/// A SHA-256 fold over outcome fields, in a fixed order.
struct Digest(Sha256);

impl Digest {
    fn new() -> Self {
        Digest(Sha256::new())
    }

    fn u(&mut self, v: u64) {
        self.0.update(&v.to_be_bytes());
    }

    fn flow(&mut self, s: &FlowStats) {
        for v in [
            s.sent_pkts,
            s.sent_bytes,
            s.delivered_pkts,
            s.delivered_bytes,
            s.router_drops,
            s.queue_drops,
            s.latency_sum_ns,
            s.latency_max_ns,
            s.reordered_pkts,
            s.link_down_drops,
            s.reroutes,
            s.retransmits,
            s.timeouts,
            s.backpressure_stalls,
            s.service_queue_drops,
        ] {
            self.u(v);
        }
        // The histogram's buckets are private; its `Debug` lists them all.
        self.0.update(format!("{:?}", s.latency).as_bytes());
    }

    fn maybe_flow(&mut self, s: Option<&FlowStats>) {
        match s {
            None => self.u(0),
            Some(s) => {
                self.u(1);
                self.flow(s);
            }
        }
    }

    fn router(&mut self, s: &DatapathStats) {
        for v in [
            s.processed,
            s.flyover,
            s.best_effort,
            s.dropped,
            s.demoted_overuse,
            s.demoted_untimely,
        ] {
            self.u(v);
        }
    }

    fn report(&mut self, r: &ChurnReport) {
        self.u(r.records.len() as u64);
        for rec in &r.records {
            self.0.update(format!("{rec:?}").as_bytes());
        }
    }

    fn hex(self) -> String {
        self.0.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }
}

#[test]
fn latency_digest_is_unchanged() {
    let mut d = Digest::new();
    for family in EngineFamily::ALL {
        for shards in [1usize, 4] {
            for flood in [0u64, 30_000] {
                let out = run(
                    cfg(),
                    &Scenario::latency(EngineScenario { family, shards }, flood),
                    START_NS,
                );
                d.flow(&out.flows[0].total);
                d.maybe_flow(out.flows.get(1).map(|f| &f.total));
                d.router(&out.routers[0]);
            }
        }
    }
    assert_eq!(d.hex(), LATENCY);
}

#[test]
fn partial_path_digest_is_unchanged() {
    let mut d = Digest::new();
    for family in EngineFamily::ALL {
        let out = run(cfg(), &common::partial_path(single(family)), START_NS);
        d.flow(&out.flows[0].total);
        d.u(out.routers.len() as u64);
        for s in &out.routers {
            d.router(s);
        }
    }
    assert_eq!(d.hex(), PARTIAL_PATH);
}

#[test]
fn multipath_digest_is_unchanged() {
    let mut d = Digest::new();
    for family in EngineFamily::ALL {
        let out = run(cfg(), &common::multipath(single(family)), START_NS);
        d.flow(&out.flows[0].total);
        d.flow(&out.flows[1].total);
    }
    assert_eq!(d.hex(), MULTIPATH);
}

#[test]
fn overload_digest_is_unchanged() {
    let mut d = Digest::new();
    for family in EngineFamily::ALL {
        let sweep = Scenario::overload_sweep(single(family), 400);
        d.u(sweep.len() as u64);
        for s in &sweep {
            let out = run(cfg(), s, START_NS);
            let (reserved, best_effort) = (&out.flows[0], &out.flows[1]);
            d.u(s.flows[1].1.rate_kbps);
            d.flow(&reserved.total);
            d.flow(&best_effort.total);
            d.u(u64::from(reserved.done));
            d.u(u64::from(best_effort.done));
            d.u(reserved.elapsed_ns);
            d.u(best_effort.elapsed_ns);
            d.u(out.events);
            // Every closed-loop copy is delivered or in a named drop counter.
            for f in [reserved, best_effort] {
                assert_eq!(f.total.unattributed(), 0, "{}: conservation", family.name());
            }
        }
    }
    assert_eq!(d.hex(), OVERLOAD);
}

#[test]
fn overload_churn_digests_are_unchanged() {
    let (mut totals, mut windows) = (Digest::new(), Digest::new());
    for family in EngineFamily::ALL {
        let out = run(cfg(), &common::overload_churn(single(family)), START_NS);
        let (reserved, best_effort) = (&out.flows[0], &out.flows[1]);
        totals.flow(&reserved.total);
        totals.flow(&best_effort.total);
        totals.u(u64::from(reserved.done));
        totals.u(u64::from(best_effort.done));
        totals.report(&out.report);
        totals.u(out.events);
        for i in 0..3 {
            windows.flow(&reserved.window(i));
        }
        for f in [reserved, best_effort] {
            assert_eq!(f.total.unattributed(), 0, "{}: conservation", family.name());
        }
    }
    assert_eq!(totals.hex(), OVERLOAD_CHURN_TOTALS);
    assert_eq!(windows.hex(), OVERLOAD_CHURN_WINDOWS);
}

#[test]
fn latency_churn_digests_are_unchanged() {
    let (mut totals, mut windows) = (Digest::new(), Digest::new());
    for family in EngineFamily::ALL {
        for flood in [0u64, 30_000] {
            let scenario = common::latency_churn(single(family), flood, 42, 100_000_000);
            let out = run(cfg(), &scenario, START_NS);
            let victim = &out.flows[0];
            totals.flow(&victim.total);
            totals.maybe_flow(out.flows.get(1).map(|f| &f.total));
            totals.report(&out.report);
            for i in 0..3 {
                windows.flow(&victim.window(i));
            }
        }
    }
    assert_eq!(totals.hex(), LATENCY_CHURN_TOTALS);
    assert_eq!(windows.hex(), LATENCY_CHURN_WINDOWS);
}

/// The hand-wired chain outside `run`, per family × {1, 4} shards: 64
/// credentialed packets, one every 250 µs through 3 Mbps credentials
/// (so the reservation families' policers demote some), pushed hop by
/// hop through stand-alone hop engines; then a 3-AS chain simulated for
/// 1 s with a reserved victim and a best-effort flood.
#[test]
fn hand_wired_chain_digest_is_unchanged() {
    const START_S: u64 = START_NS / 1_000_000_000;
    const SEC: u64 = 1_000_000_000;
    let (victim, dest, attacker) = (IsdAs::new(1, 0xa), IsdAs::new(2, 0xb), IsdAs::new(3, 0xc));
    let mut d = Digest::new();
    for family in EngineFamily::ALL {
        for shards in [1usize, 4] {
            let mut topo = LinearTopology::build(3, LinkSpec::default(), START_NS, cfg());
            let mut generator = topo.make_generator(victim, dest);
            for hop in 0..3 {
                let credential = topo.make_family_credential(family, hop, victim, 3_000, START_S);
                generator.attach_reservation(hop, credential).unwrap();
            }
            let mut engines: Vec<Box<dyn Datapath + Send>> = (0..3)
                .map(|hop| match shards {
                    1 => topo.make_family_hop_engine(family, hop, cfg()),
                    _ => Box::new(topo.make_sharded_hop_engine(family, hop, cfg(), shards)),
                })
                .collect();
            for i in 0..64u64 {
                let now_ns = START_NS + i * 250_000;
                let mut pkt = generator.generate(&[0u8; 500], now_ns / 1_000_000).unwrap();
                for engine in &mut engines {
                    let verdict = engine.process(&mut pkt, now_ns);
                    d.0.update(format!("{verdict:?}").as_bytes());
                    if let Verdict::Drop(_) = verdict {
                        break;
                    }
                }
            }
            for engine in &engines {
                d.router(&engine.stats());
            }

            let mut net = LinearTopology::build(3, LinkSpec::default(), START_NS, cfg()).net;
            net.install_engines(EngineScenario { family, shards }, cfg());
            let stop_ns = START_NS + SEC;
            let route = |src| Route { src: Some(src), ..Route::new(0, 2) };
            let (reserved, flood) =
                (FlowSpec::cbr(1_000, 2_000, Some(3_000)), FlowSpec::cbr(1_000, 30_000, None));
            let v = net.add_family_flow(family, route(victim), &reserved, START_NS, stop_ns);
            let hb = EngineFamily::Hummingbird;
            let f = net.add_family_flow(hb, route(attacker), &flood, START_NS, stop_ns);
            net.sim.run_until(stop_ns);
            d.flow(&net.sim.stats(v));
            d.flow(&net.sim.stats(f));
            for &node in &net.as_nodes {
                d.router(&net.sim.router_stats(node).unwrap());
            }
        }
    }
    assert_eq!(d.hex(), HAND_WIRED_CHAIN);
}

#[test]
fn churn_digests_are_unchanged() {
    let (mut totals, mut windows) = (Digest::new(), Digest::new());
    for family in EngineFamily::ALL {
        let out = run_churn_scenario(cfg(), &ChurnSpec::new(single(family)), START_NS);
        totals.flow(&out.victim_total);
        totals.maybe_flow(out.flood_total.as_ref());
        totals.u(out.background_sent);
        totals.u(out.background_delivered);
        totals.report(&out.report);
        totals.u(out.routers as u64);
        totals.u(out.adjacencies as u64);
        totals.router(&out.entry_stats);
        totals.u(out.events);
        windows.flow(&out.victim_base);
        windows.flow(&out.victim_outage);
        windows.flow(&out.victim_recovery);
    }
    assert_eq!(totals.hex(), CHURN_TOTALS);
    assert_eq!(windows.hex(), CHURN_WINDOWS);
}
