//! Internet-scale netsim benchmark: the churned QoS/DoS experiment on a
//! generated ring-of-PoPs backbone (`netsim::topo` + `netsim::churn`),
//! swept across all four engine families.
//!
//! Each family run builds a seeded `--routers`-router backbone, starts a
//! credentialed victim, a 20 Mbps best-effort flood on the same route and
//! a `--flows`-flow credentialed background mesh, injects 3 mid-epoch
//! link failures on the victim's path at one third of the run, reroutes
//! after 50 ms and cold-reboots a transit router on the failover path.
//! Two numbers matter:
//!
//! 1. **Simulator throughput** — events/s of the discrete-event core on
//!    a 100+-router topology with thousands of queued packets (the perf
//!    trajectory `BENCH_netsim.json` tracks).
//! 2. **Recovery contrast** — after the reroute, the reservation
//!    families (hummingbird, helia) restore the victim's delivery and
//!    latency at the clean level while the authentication-only families
//!    (drkey, epic) leave it queueing behind the rerouted flood.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin netsim_scale
//! [-- --routers <n>] [--flows <n>] [--seed <s>] [--pkts <n>]
//! [--json <path>]`
//!
//! `--routers` rounds down to whole 4-router PoPs (min 3 PoPs);
//! `--pkts` bounds the victim packet budget (250 pkts per simulated
//! second), letting CI smoke-run the sweep in seconds. Every run writes
//! `BENCH_netsim.json`; `--json <path>` overrides the output location,
//! and a failed write exits nonzero.
//!
//! # Netsim-scale schema (`schema = 1`)
//!
//! One churned four-family sweep of the generated ring-of-PoPs backbone,
//! tracking how fast the discrete-event simulator chews through an
//! Internet-scale topology and whether the recovery contrast holds.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "netsim",
//!   "seed": 12648430,             // topology/key/background-mesh seed
//!   "sim_s": 3,                   // simulated seconds per family run
//!   "records": [
//!     {
//!       "family": "hummingbird",  // EngineFamily name
//!       "shards": 1,              // shards per router datapath
//!       "routers": 100,           // generated backbone routers
//!       "adjacencies": 131,       // bidirectional backbone links
//!       "flows": 258,             // victim + flood + background flows
//!       "events": 5922331,        // simulator events processed
//!       "wall_ms": 812.402,       // host wall-clock for the run
//!       "events_per_sec": 7289e3, // events / wall second (the trend)
//!       "recovery_delivery": 0.97,// victim delivery after the reroute
//!       "recovery_ms": 12.31,     // victim mean latency after reroute
//!       "link_failures": 3,       // injected mid-epoch link failures
//!       "rerouted": 2,            // flows moved onto surviving paths
//!       "stranded": 0             // flows left with no surviving path
//!     }
//!   ]
//! }
//! ```
//!
//! `wall_ms` / `events_per_sec` are host-dependent (trend, not truth);
//! everything else in a record is deterministic for a given seed. Floats
//! degrade to `null` when non-finite, as in the hot-path schema.

use std::time::Instant;

use hummingbird::netsim::{run_churn_scenario, ChurnSpec, EngineFamily, EngineScenario};
use hummingbird_bench::json::{self, Value};
use hummingbird_bench::{flag_value, pkts_from_args, row, u64_from_args};
use hummingbird_dataplane::RouterConfig;

const START_S: u64 = 1_700_000_000;
const START_NS: u64 = START_S * 1_000_000_000;

/// Routers per PoP — the lane width failover paths route around.
const RPP: usize = 4;

fn main() {
    let cfg = RouterConfig::default();
    let routers = u64_from_args("routers", 100) as usize;
    let flows = u64_from_args("flows", 256) as usize;
    let seed = u64_from_args("seed", 0xC0FFEE);
    // Victim interval is 4 ms (1000 B at 2 Mbps): 250 pkts per simulated
    // second, capped at one 16 s Helia slot so the single issued grant
    // stays fresh for the whole run.
    let pkts = pkts_from_args(750);
    let run_s = (pkts / 250).clamp(1, 16);
    let json_path = flag_value("json").unwrap_or_else(|| "BENCH_netsim.json".to_string());
    let pops = (routers / RPP).max(3);
    println!("== netsim scale: churned four-family sweep on a generated backbone ==");
    println!(
        "{} PoPs x {RPP} routers (requested {routers}), seed {seed:#x}, {flows} background \
         flows,\n3 link failures + reroute + on-path reboot at t/3, {run_s} s simulated per \
         family\n",
        pops
    );
    let widths = [12usize, 9, 6, 9, 11, 9, 8, 9, 7];
    println!(
        "{}",
        row(
            &[
                "family".into(),
                "routers".into(),
                "adjs".into(),
                "events".into(),
                "wall [ms]".into(),
                "Mev/s".into(),
                "D2 [%]".into(),
                "rec [ms]".into(),
                "strand".into(),
            ],
            &widths
        )
    );
    let mut records: Vec<Value> = Vec::new();
    for family in EngineFamily::ALL {
        let scenario = EngineScenario { family, shards: 1 };
        let mut spec = ChurnSpec::new(scenario).with_flood(20_000);
        spec.pops = pops;
        spec.routers_per_pop = RPP;
        spec.seed = seed;
        spec.background_flows = flows;
        // Credentialed background: thousands of live reservations on the
        // backbone, so engine state is exercised at scale, not just the
        // victim's path.
        spec.background_credential_kbps = Some(128);
        spec.run_s = run_s;
        let t0 = Instant::now();
        let out = run_churn_scenario(cfg, &spec, START_NS);
        let wall = t0.elapsed().as_secs_f64();
        let events_per_sec = out.events as f64 / wall.max(1e-9);
        let recovery_delivery = out.victim_recovery.delivery_ratio();
        let recovery_ms = out.victim_recovery.mean_latency_ms();
        let (link_failures, stranded) = (out.report.link_failures(), out.report.total_stranded());
        println!(
            "{}",
            row(
                &[
                    family.name().into(),
                    format!("{}", out.routers),
                    format!("{}", out.adjacencies),
                    format!("{}", out.events),
                    format!("{:.1}", wall * 1e3),
                    format!("{:.2}", events_per_sec / 1e6),
                    format!("{:.0}", recovery_delivery * 100.0),
                    format!("{recovery_ms:.2}"),
                    format!("{stranded}"),
                ],
                &widths
            )
        );
        assert!(link_failures >= 3, "{family:?}: too few injected failures");
        records.push(Value::obj([
            ("family", family.name().into()),
            ("shards", scenario.shards.into()),
            ("routers", out.routers.into()),
            ("adjacencies", out.adjacencies.into()),
            ("flows", (flows + 2).into()), // victim + flood + background mesh
            ("events", out.events.into()),
            ("wall_ms", (wall * 1e3).into()),
            ("events_per_sec", events_per_sec.into()),
            ("recovery_delivery", recovery_delivery.into()),
            ("recovery_ms", recovery_ms.into()),
            ("link_failures", link_failures.into()),
            ("rerouted", out.report.total_rerouted().into()),
            ("stranded", stranded.into()),
        ]));
    }
    println!();
    let doc = Value::obj([
        ("schema", 1u64.into()),
        ("bench", "netsim".into()),
        ("seed", seed.into()),
        ("sim_s", run_s.into()),
        ("records", records.into()),
    ]);
    json::write(&json_path, &doc);
    println!(
        "\nreservation families (hummingbird, helia) recover the victim's delivery and\n\
         latency after the reroute; authentication-only families (drkey, epic) leave it\n\
         queueing behind the rerouted flood. wall/events-per-sec are host-dependent."
    );
}
