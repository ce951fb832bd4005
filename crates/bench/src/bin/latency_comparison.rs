//! The Fig. 3/4-style latency comparison, made executable: end-to-end
//! delay, delivery and authentication outcomes (D1/D2) for every engine
//! family × {single, 4-shard} deployment, on the same 3-AS bottleneck
//! topology with the worker-ring service model installed.
//!
//! Three measurements per configuration:
//!
//! 1. **D1** — forged-credential rejection: a sender keyed under a
//!    sibling topology's secrets must have every packet dropped at the
//!    first router.
//! 2. **D2** — victim delivery ratio and goodput under a 3× best-effort
//!    flood of the 10 Mbps bottleneck.
//! 3. **Latency** — the victim's mean/max end-to-end delay uncontended
//!    vs under the flood: the reservation families hold it flat (their
//!    traffic rides the priority class past the flood), the
//!    authentication-only families watch it blow up with the queue.
//!
//! A final section drives the threaded worker-ring runtime with the tx
//! path enabled and prints per-class egress residence times — the same
//! two-class scheduler, measured on real threads instead of simulated
//! time.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin
//! latency_comparison` (`--pkts <n>` bounds both the per-run victim
//! packet count and the runtime leg, for CI smoke runs). The simulated
//! router service cost is calibrated from the checked-in
//! `BENCH_hotpath.json` clone/1-core measurements when the file is
//! readable; otherwise the hand-set default is kept (and logged).

use hummingbird::netsim::{
    run_latency_scenario, EngineFamily, EngineScenario, LatencySpec, LinearTopology, LinkSpec,
};
use hummingbird_baselines::SLOT_SECS;
use hummingbird_bench::{
    hotpath_clone_1core_ns, pkts_from_args, row, DataplaneFixture, EngineKind, EPOCH_NS,
};
use hummingbird_dataplane::{
    run_to_completion, EgressConfig, RouterConfig, RuntimeConfig, RuntimeMode,
};
use hummingbird_wire::IsdAs;

const START_S: u64 = 1_700_000_000;
const START_NS: u64 = START_S * 1_000_000_000;
const SEC: u64 = 1_000_000_000;

fn atk() -> IsdAs {
    IsdAs::new(3, 0xc)
}
fn dst() -> IsdAs {
    IsdAs::new(2, 0xb)
}

/// D1: the share of forged-credential packets dropped at the first
/// router — credentials derived under a seeded sibling topology's
/// secrets, injected uncontended so what's measured is authentication.
fn forged_drop_ratio(scenario: EngineScenario, cfg: RouterConfig) -> f64 {
    let link = LinkSpec { bandwidth_bps: 100_000_000, ..Default::default() };
    let mut topo = LinearTopology::build(2, link, START_NS, cfg);
    topo.install_engines(scenario, cfg);
    let mut other = LinearTopology::build_seeded(2, link, START_NS, cfg, 0xEE);
    let mut forged_gen = other.make_generator(atk(), dst());
    for hop in 0..2 {
        let credential = other.make_family_credential(scenario.family, hop, atk(), 3_000, START_S);
        forged_gen.attach_reservation(hop, credential).expect("matching interfaces");
    }
    let entry = topo.as_nodes[0];
    let forged = topo.sim.add_flow(hummingbird::netsim::Flow {
        generator: forged_gen,
        entry,
        payload_len: 500,
        interval_ns: 1_000_000,
        start_ns: START_NS,
        stop_ns: START_NS + SEC,
    });
    topo.sim.run_until(START_NS + 2 * SEC);
    let f = topo.sim.stats(forged);
    f.router_drops as f64 / f.sent_pkts.max(1) as f64
}

fn main() {
    let cfg = RouterConfig::default();
    let pkts = pkts_from_args(500);
    println!("== Fig. 3/4-style latency comparison: engine family x shards ==");
    println!(
        "3-AS chain, 10 Mbps bottlenecks, 1 ms links, per-family router service cost\n\
         calibrated from BENCH_hotpath.json (hand-set fallback when unreadable);\n\
         victim 2 Mbps credentialed, flood 30 Mbps best effort, ~{pkts} victim pkts/run\n"
    );
    let widths = [12usize, 7, 8, 8, 10, 11, 11, 10];
    println!(
        "{}",
        row(
            &[
                "family".into(),
                "shards".into(),
                "D1 [%]".into(),
                "D2 [%]".into(),
                "base [ms]".into(),
                "flood [ms]".into(),
                "max [ms]".into(),
                "atk [kbps]".into(),
            ],
            &widths
        )
    );
    // Victim packet interval is 4 ms at 2 Mbps / 1000 B. The run is
    // capped at one Helia slot: a longer run would cross the 16 s slot
    // boundary, the single issued grant would go stale mid-flow, and
    // the helia rows would show grant rotation instead of queueing.
    let run_s = (pkts * 4 / 1000).clamp(1, SLOT_SECS);
    if pkts * 4 / 1000 > SLOT_SECS {
        println!(
            "(--pkts capped to one {SLOT_SECS} s Helia slot: ~{} pkts/run)\n",
            SLOT_SECS * 250
        );
    }
    let hotpath = std::fs::read_to_string("BENCH_hotpath.json").ok();
    for family in EngineFamily::ALL {
        let measured_ns =
            hotpath.as_deref().and_then(|doc| hotpath_clone_1core_ns(doc, family.name()));
        if measured_ns.is_none() {
            eprintln!(
                "no readable BENCH_hotpath.json clone/1-core record for {}; its latency sweep \
                 keeps the hand-set service cost",
                family.name()
            );
        }
        for shards in [1usize, 4] {
            let mut spec = LatencySpec::new(EngineScenario { family, shards });
            spec.service_per_pkt_ns = measured_ns.unwrap_or(spec.service_per_pkt_ns);
            spec.run_s = run_s;
            let base = run_latency_scenario(cfg, &spec, START_NS);
            let loaded = run_latency_scenario(cfg, &spec.with_flood(30_000), START_NS);
            assert_eq!(base.victim.router_drops, 0, "credentialed victim must authenticate");
            let d1 = forged_drop_ratio(spec.scenario, cfg);
            let flood_stats = loaded.flood.expect("flood ran");
            println!(
                "{}",
                row(
                    &[
                        family.name().into(),
                        format!("{shards}"),
                        format!("{:.0}", d1 * 100.0),
                        format!("{:.0}", loaded.victim.delivery_ratio() * 100.0),
                        format!("{:.2}", base.victim.mean_latency_ms()),
                        format!("{:.2}", loaded.victim.mean_latency_ms()),
                        format!("{:.2}", loaded.victim.latency_max_ns as f64 / 1e6),
                        format!("{:.0}", flood_stats.goodput_kbps(run_s as f64)),
                    ],
                    &widths
                )
            );
        }
    }
    println!(
        "\npaper: reservation families (hummingbird, helia) hold the victim's latency at the\n\
         uncontended level under flood (priority class past the queue); authentication-only\n\
         families (drkey, epic) validate every packet yet leave it queueing behind the flood."
    );

    // ------------------------------------------------------------------
    println!("\n== threaded worker-ring runtime, tx path enabled ==");
    println!(
        "4 shards, 40 Gbps egress model; per-class residence = enqueue -> modeled departure\n"
    );
    let widths = [12usize, 10, 10, 14, 14];
    println!(
        "{}",
        row(
            &[
                "engine".into(),
                "prio".into(),
                "beffort".into(),
                "mean res [us]".into(),
                "max res [us]".into(),
            ],
            &widths
        )
    );
    let fx = DataplaneFixture::new(4);
    for kind in [EngineKind::Hummingbird, EngineKind::Scion, EngineKind::Epic] {
        let templates = fx.flow_packets(kind, 500, 8);
        let mut rcfg = RuntimeConfig::new(4);
        rcfg.egress = Some(EgressConfig::default());
        rcfg.steering = kind.steering();
        let report = run_to_completion(
            &rcfg,
            RuntimeMode::Sharded,
            |_| fx.engine(kind),
            &templates,
            pkts.max(1),
            EPOCH_NS,
        );
        let e = report.egress.expect("tx path enabled");
        assert_eq!(e.forwarded() + e.dropped, report.packets, "tx path conserves packets");
        let (sum, max, n) = (
            e.priority.residence_ns_sum + e.best_effort.residence_ns_sum,
            e.priority.residence_ns_max.max(e.best_effort.residence_ns_max),
            e.forwarded().max(1),
        );
        println!(
            "{}",
            row(
                &[
                    kind.name().to_string(),
                    format!("{}", e.priority.pkts),
                    format!("{}", e.best_effort.pkts),
                    format!("{:.1}", sum as f64 / n as f64 / 1e3),
                    format!("{:.1}", max as f64 / 1e3),
                ],
                &widths
            )
        );
    }
}
