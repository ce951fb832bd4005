//! Closed-loop overload sweep: bounded queues, end-to-end backpressure,
//! graceful degradation (`netsim::Scenario::overload_sweep`), swept across
//! all four engine families × {single, 4-shard}.
//!
//! Per (family, shards) deployment: a 2 Mbps credentialed reserved flow
//! and a best-effort flow swept 4 → 20 Mbps across a 3-AS chain of
//! 10 Mbps links with shallow (16 KiB) per-class link queues and a
//! bounded (128-packet) router service queue. Both senders are
//! closed-loop (windowed, ack-clocked, RTO with exponential backoff and
//! a bounded retransmit budget), so past saturation the sweep shows the
//! robustness story instead of a loss cliff:
//!
//! 1. **Reservation hold** — hummingbird/helia keep the reserved flow's
//!    goodput and p99 latency at the uncontended level at every step.
//! 2. **Graceful collapse** — the best-effort flow's completion-time
//!    goodput saturates at the leftover capacity while its p99 stays
//!    bounded by the queue caps; it keeps terminating.
//! 3. **Exact accounting** — every wire copy is delivered or attributed
//!    to a named drop counter, and every flow terminates. The binary
//!    *verifies* both for every point and exits nonzero on any
//!    violation — this is the CI smoke leg's contract.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin
//! overload_sweep [-- --pkts <n>] [--json <path>]`
//!
//! `--pkts` caps each flow's packet budget (the CI smoke knob; 0 =
//! uncapped). Before the sweep, the binary measures each family's
//! router service cost on this build and host
//! ([`hummingbird_bench::service_ns`]) and prints it above the table;
//! every router of that family's runs serves a packet in that time.
//! `--json <path>` writes the document below to `path`; a failed write
//! exits nonzero.
//!
//! # Overload schema (`schema = 2`)
//!
//! ```json
//! {
//!   "schema": 2,
//!   "bench": "overload",
//!   "pkts_cap": 2000,             // per-flow packet cap (0 = uncapped)
//!   "service_ns": {               // per-packet router service cost [ns]
//!     "hummingbird": 207,         //   each family ran with, measured
//!     "helia": 277,               //   in this run (1 core, 500 B)
//!     "drkey": 285,
//!     "epic": 125
//!   },
//!   "records": [
//!     {
//!       "family": "hummingbird",  // EngineFamily name
//!       "shards": 1,              // shards per router datapath
//!       "offered_kbps": 16000,    // best-effort offered load
//!       "reserved_delivery": 1.0, // reserved delivered / sent copies
//!       "reserved_goodput_kbps": 2230.1,  // over its completion time
//!       "reserved_p99_ms": 8.39,  // reserved p99 end-to-end latency
//!       "be_delivery": 0.945,     // best-effort delivered / sent
//!       "be_goodput_kbps": 6395.2,// over its completion time
//!       "be_p99_ms": 33.55,       // best-effort p99 latency (bounded
//!                                 //   by the queue caps)
//!       "retransmits": 114,       // both flows' retried copies
//!       "timeouts": 116,          // both flows' RTO fires
//!       "stalls": 1950,           // both flows' full-window stalls
//!       "queue_drops": 116,       // link-queue tail drops, both flows
//!       "service_queue_drops": 0, // router-queue drops, both flows
//!       "completed": true         // both flows terminated (no livelock)
//!     }
//!   ],
//!   "saturation": [
//!     {
//!       "family": "hummingbird",  // EngineFamily name
//!       "shards": 1,
//!       "saturation_kbps": 8000,  // largest offered step the best-
//!                                 //   effort flow still finished at
//!                                 //   ≥ 0.9 of (0 = none did)
//!       "post_goodput_kbps": 6953.2, // best-effort goodput at the
//!                                 //   highest (2.5×) step — graceful
//!                                 //   degradation, not collapse
//!       "reserved_held": true     // reserved delivery > 0.95 at every
//!                                 //   step (the reservation promise)
//!     }
//!   ]
//! }
//! ```
//!
//! Schema 2 replaced schema 1's `service_calibrated` flag (whether a
//! checked-in hot-path file supplied the costs) with the costs
//! themselves. The binary verifies conservation and termination for
//! every point before it exits 0.

use hummingbird::netsim::{run, EngineFamily, EngineScenario, FlowOutcome, Scenario};
use hummingbird_bench::json::{self, Value};
use hummingbird_bench::{flag_value, row, service_ns, u64_from_args};
use hummingbird_dataplane::RouterConfig;

const START_S: u64 = 1_700_000_000;
const START_NS: u64 = START_S * 1_000_000_000;

/// Checks one sweep point's hard invariants — both flows terminated,
/// and every wire copy delivered or in a named drop counter; returns
/// the violations.
fn violations(label: &str, reserved: &FlowOutcome, best_effort: &FlowOutcome) -> Vec<String> {
    let mut v = Vec::new();
    for (name, f) in [("reserved", reserved), ("best-effort", best_effort)] {
        if !f.done {
            v.push(format!("{label}: {name} flow did not terminate (livelock)"));
        }
        if f.total.unattributed() != 0 {
            v.push(format!("{label}: {name} flow leaks packets (conservation)"));
        }
    }
    v
}

fn main() {
    let cfg = RouterConfig::default();
    let pkts_cap = u64_from_args("pkts", 0);
    let json_path = flag_value("json");
    let service = EngineFamily::ALL.map(|family| (family, service_ns(family)));

    println!("== closed-loop overload sweep: bounded queues + backpressure ==");
    println!(
        "2 Mbps reserved vs swept best effort on 10 Mbps links (16 KiB class queues,\n\
         128-pkt router queues), closed-loop senders (window 32, RTO 100 ms, budget 4);\n\
         per-flow cap {} pkts",
        if pkts_cap == 0 { "unlimited".to_string() } else { pkts_cap.to_string() }
    );
    let costs = service.map(|(family, ns)| format!("{} {ns}", family.name()));
    println!("router service cost [ns/pkt, 1 core, 500 B, measured]: {}\n", costs.join(", "));

    let widths = [12usize, 6, 9, 7, 9, 9, 7, 9, 9, 6, 6];
    println!(
        "{}",
        row(
            &[
                "family", "shards", "offered", "rsv D%", "rsv kbps", "rsv p99", "be D%", "be kbps",
                "be p99", "rtx", "drops"
            ],
            &widths
        )
    );

    let mut records: Vec<Value> = Vec::new();
    let mut saturation: Vec<Value> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for (family, ns) in service {
        for shards in [1usize, 4] {
            let mut reserved_held = true;
            let mut sat_kbps = 0u64;
            let mut post_goodput_kbps = 0.0;
            for mut s in Scenario::overload_sweep(EngineScenario { family, shards }, pkts_cap) {
                if let Some(model) = &mut s.service {
                    model.per_pkt_ns = ns;
                }
                let offered_kbps = s.flows[1].1.rate_kbps;
                let out = run(cfg, &s, START_NS);
                let (reserved, best_effort) = (&out.flows[0], &out.flows[1]);
                let label = format!("{}x{shards}@{offered_kbps}kbps", family.name());
                failures.extend(violations(&label, reserved, best_effort));
                let (rsv, be) = (&reserved.total, &best_effort.total);
                if rsv.delivery_ratio() <= 0.95 {
                    reserved_held = false;
                }
                if best_effort.goodput_kbps() >= offered_kbps as f64 * 0.9 {
                    sat_kbps = sat_kbps.max(offered_kbps);
                }
                post_goodput_kbps = best_effort.goodput_kbps();
                let drops = rsv.queue_drops
                    + rsv.service_queue_drops
                    + be.queue_drops
                    + be.service_queue_drops;
                println!(
                    "{}",
                    row(
                        &[
                            family.name().into(),
                            format!("{shards}"),
                            format!("{offered_kbps}"),
                            format!("{:.1}", rsv.delivery_ratio() * 100.0),
                            format!("{:.0}", reserved.goodput_kbps()),
                            format!("{:.2}", rsv.p99_latency_ms()),
                            format!("{:.1}", be.delivery_ratio() * 100.0),
                            format!("{:.0}", best_effort.goodput_kbps()),
                            format!("{:.2}", be.p99_latency_ms()),
                            format!("{}", rsv.retransmits + be.retransmits),
                            format!("{drops}"),
                        ],
                        &widths
                    )
                );
                records.push(Value::obj([
                    ("family", family.name().into()),
                    ("shards", shards.into()),
                    ("offered_kbps", offered_kbps.into()),
                    ("reserved_delivery", rsv.delivery_ratio().into()),
                    ("reserved_goodput_kbps", reserved.goodput_kbps().into()),
                    ("reserved_p99_ms", rsv.p99_latency_ms().into()),
                    ("be_delivery", be.delivery_ratio().into()),
                    ("be_goodput_kbps", best_effort.goodput_kbps().into()),
                    ("be_p99_ms", be.p99_latency_ms().into()),
                    ("retransmits", (rsv.retransmits + be.retransmits).into()),
                    ("timeouts", (rsv.timeouts + be.timeouts).into()),
                    ("stalls", (rsv.backpressure_stalls + be.backpressure_stalls).into()),
                    ("queue_drops", (rsv.queue_drops + be.queue_drops).into()),
                    (
                        "service_queue_drops",
                        (rsv.service_queue_drops + be.service_queue_drops).into(),
                    ),
                    ("completed", (reserved.done && best_effort.done).into()),
                ]));
            }
            saturation.push(Value::obj([
                ("family", family.name().into()),
                ("shards", shards.into()),
                ("saturation_kbps", sat_kbps.into()),
                ("post_goodput_kbps", post_goodput_kbps.into()),
                ("reserved_held", reserved_held.into()),
            ]));
        }
    }

    println!();
    if let Some(path) = json_path {
        let service_ns = service.map(|(family, ns)| (family.name().to_string(), ns.into()));
        let doc = Value::obj([
            ("schema", 2u64.into()),
            ("bench", "overload".into()),
            ("pkts_cap", pkts_cap.into()),
            ("service_ns", Value::Obj(service_ns.into())),
            ("records", records.into()),
            ("saturation", saturation.into()),
        ]);
        json::write(&path, &doc);
    }

    if !failures.is_empty() {
        eprintln!("\noverload invariants VIOLATED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!(
        "\nreservation families hold the reserved flow's goodput and p99 through 2.5x\n\
         saturation; best effort saturates at the leftover capacity with bounded tails.\n\
         every point above passed termination + conservation (the CI contract)."
    );
}
