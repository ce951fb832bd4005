//! The Fig. 3/4-style latency comparison, made executable: end-to-end
//! delay, delivery and authentication outcomes (D1/D2) for every engine
//! family × {single, 4-shard} deployment, on the same 3-AS bottleneck
//! topology with the sharded-runtime service model installed.
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
//! A final section drives the threaded multi-queue runtime with the tx
//! path enabled and prints per-class egress residence times — the same
//! two-class scheduler, measured on real threads instead of simulated
//! time. At the default 40 Gbps wire and `Drop` policy it asserts that
//! nothing was shed at rx or tail-dropped at a tx queue whenever the
//! wire was under ¾ busy: a loss there means the scheduler starved a
//! class.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin
//! latency_comparison` (`--pkts <n>` bounds both the per-run victim
//! packet count and the runtime leg, for CI smoke runs). The simulated
//! router service cost is calibrated from the checked-in
//! `BENCH_hotpath.json` clone/1-core measurements; without the file, or
//! for a family it has no record of, the hand-set default is kept (and
//! logged). A file that does not parse exits 2.

use hummingbird::netsim::{run, EngineScenario, LinearTopology, LinkSpec, Scenario};
use hummingbird_baselines::SLOT_SECS;
use hummingbird_bench::{
    conserved, hotpath_calibration, pkts_from_args, row, DataplaneFixture, EngineKind, EPOCH_NS,
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
    let mut net = LinearTopology::build(2, link, START_NS, cfg).net;
    net.install_engines(scenario, cfg);
    let mut other = LinearTopology::build_seeded(2, link, START_NS, cfg, 0xEE);
    let mut forged_gen = other.make_generator(atk(), dst());
    for hop in 0..2 {
        let credential = other.make_family_credential(scenario.family, hop, atk(), 3_000, START_S);
        forged_gen.attach_reservation(hop, credential).expect("matching interfaces");
    }
    let entry = net.as_nodes[0];
    let forged = net.sim.add_flow(hummingbird::netsim::Flow {
        generator: forged_gen,
        entry,
        payload_len: 500,
        interval_ns: 1_000_000,
        start_ns: START_NS,
        stop_ns: START_NS + SEC,
    });
    net.sim.run_until(START_NS + 2 * SEC);
    let f = net.sim.stats(forged);
    f.router_drops as f64 / f.sent_pkts.max(1) as f64
}

fn main() {
    let cfg = RouterConfig::default();
    let pkts = pkts_from_args(500);
    println!("== Fig. 3/4-style latency comparison: engine family x shards ==");
    println!(
        "3-AS chain, 10 Mbps bottlenecks, 1 ms links, per-family router service cost\n\
         calibrated from BENCH_hotpath.json (hand-set fallback when missing);\n\
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
    for (family, measured_ns) in hotpath_calibration("latency") {
        for shards in [1usize, 4] {
            let scenario = EngineScenario { family, shards };
            let [base, loaded] = [0, 30_000].map(|flood_kbps| {
                let mut s = Scenario::latency(scenario, flood_kbps);
                s.run_s = run_s;
                if let (Some(model), Some(ns)) = (&mut s.service, measured_ns) {
                    model.per_pkt_ns = ns;
                }
                run(cfg, &s, START_NS)
            });
            let base = base.flows[0].total;
            let (victim, flood_stats) = (loaded.flows[0].total, loaded.flows[1].total);
            assert_eq!(base.router_drops, 0, "credentialed victim must authenticate");
            let d1 = forged_drop_ratio(scenario, cfg);
            println!(
                "{}",
                row(
                    &[
                        family.name().into(),
                        format!("{shards}"),
                        format!("{:.0}", d1 * 100.0),
                        format!("{:.0}", victim.delivery_ratio() * 100.0),
                        format!("{:.2}", base.mean_latency_ms()),
                        format!("{:.2}", victim.mean_latency_ms()),
                        format!("{:.2}", victim.latency_max_ns as f64 / 1e6),
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
    println!("\n== threaded multi-queue runtime, tx path enabled ==");
    println!(
        "4 shards, 40 Gbps egress model, default backpressure (Drop); per-class residence =\n\
         enqueue -> modeled departure, p99 at the histogram's power-of-two resolution\n"
    );
    let widths = [12usize, 10, 10, 8, 14, 14, 14, 14];
    println!(
        "{}",
        row(
            &[
                "engine".into(),
                "prio".into(),
                "beffort".into(),
                "wire %".into(),
                "mean res [us]".into(),
                "max res [us]".into(),
                "prio p99 [us]".into(),
                "be p99 [us]".into(),
            ],
            &widths
        )
    );
    let fx = DataplaneFixture::new(4);
    // Hummingbird forwards plain SCION as best effort, so its row mixes
    // both classes on every port. Each row offers 32 packets per victim
    // packet: a class starved while the wire idles backs up past the
    // 1 536-packet watermark on every shard well within that.
    let plain = fx.flow_packets(EngineKind::Scion, 500, 8);
    for kind in [EngineKind::Hummingbird, EngineKind::Scion, EngineKind::Epic] {
        let mut templates = fx.flow_packets(kind, 500, 8);
        if kind == EngineKind::Hummingbird {
            templates = templates.into_iter().zip(plain.clone()).flat_map(<[_; 2]>::from).collect();
        }
        let mut rcfg = RuntimeConfig::new(4);
        rcfg.egress = Some(EgressConfig::default());
        rcfg.steering = kind.steering();
        let offered = pkts.max(1) * 32;
        let report = run_to_completion(
            &rcfg,
            RuntimeMode::Sharded,
            |_| fx.engine(kind),
            &templates,
            offered,
            EPOCH_NS,
        );
        if let Err(e) = conserved(offered, &report) {
            eprintln!("CONSERVATION FAILURE: engine {}: {e}", kind.name());
            std::process::exit(1);
        }
        let e = report.egress.expect("tx path enabled");
        assert_eq!(e.forwarded() + e.dropped, report.packets, "tx path conserves packets");
        // Each shard has its own wire; below ¾ load a loss is starvation,
        // not a host fast enough to outrun 40 Gbps.
        let wire_bits = 8.0 * (e.priority.bytes + e.best_effort.bytes) as f64;
        let wire_bps = EgressConfig::default().bandwidth_bps as f64 * rcfg.shards as f64;
        let wire_load = wire_bits / (wire_bps * report.seconds);
        if wire_load < 0.75 {
            let lost = (report.rx_backpressure_drops, e.tx_queue_full);
            assert_eq!(lost, (0, 0), "{}: shed at rx / tail-dropped at tx", kind.name());
        }
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
                    format!("{:.0}", wire_load * 100.0),
                    format!("{:.1}", sum as f64 / n as f64 / 1e3),
                    format!("{:.1}", max as f64 / 1e3),
                    format!("{:.1}", e.priority.residence_p99_ns() as f64 / 1e3),
                    format!("{:.1}", e.best_effort.residence_p99_ns() as f64 / 1e3),
                ],
                &widths
            )
        );
    }
}
