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
//! overload_sweep [-- --pkts <n>] [--json <path>] [--no-calibrate]`
//!
//! `--pkts` caps each flow's packet budget (the CI smoke knob; 0 =
//! uncapped). The router service cost is calibrated from
//! `BENCH_hotpath.json` clone/1-core records when present
//! (`--no-calibrate` keeps the hand-set default; a file that does not
//! parse exits 2). Every run writes `BENCH_overload.json`; `--json
//! <path>` overrides the output location, and a failed write exits
//! nonzero.
//!
//! # Overload schema (`schema = 1`)
//!
//! The binary verifies conservation and termination for every point
//! before writing, so a checked-in document is also a green light.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "overload",
//!   "pkts_cap": 2000,             // per-flow packet cap (0 = uncapped)
//!   "service_calibrated": true,   // per-pkt cost from BENCH_hotpath.json
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

use hummingbird::netsim::{run, EngineFamily, EngineScenario, FlowOutcome, Scenario};
use hummingbird_bench::json::{self, Value};
use hummingbird_bench::{flag_present, flag_value, hotpath_calibration, row, u64_from_args};
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
    let calibration = if flag_present("no-calibrate") {
        EngineFamily::ALL.map(|family| (family, None)).to_vec()
    } else {
        hotpath_calibration("overload")
    };
    let json_path = flag_value("json").unwrap_or_else(|| "BENCH_overload.json".to_string());

    println!("== closed-loop overload sweep: bounded queues + backpressure ==");
    println!(
        "2 Mbps reserved vs swept best effort on 10 Mbps links (16 KiB class queues,\n\
         128-pkt router queues), closed-loop senders (window 32, RTO 100 ms, budget 4);\n\
         per-flow cap {} pkts\n",
        if pkts_cap == 0 { "unlimited".to_string() } else { pkts_cap.to_string() }
    );

    let widths = [12usize, 6, 9, 7, 9, 9, 7, 9, 9, 6, 6];
    println!(
        "{}",
        row(
            &[
                "family".into(),
                "shards".into(),
                "offered".into(),
                "rsv D%".into(),
                "rsv kbps".into(),
                "rsv p99".into(),
                "be D%".into(),
                "be kbps".into(),
                "be p99".into(),
                "rtx".into(),
                "drops".into(),
            ],
            &widths
        )
    );

    let mut records: Vec<Value> = Vec::new();
    let mut saturation: Vec<Value> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let calibrated_any = calibration.iter().any(|(_, ns)| ns.is_some());

    for (family, measured_ns) in calibration {
        for shards in [1usize, 4] {
            let mut reserved_held = true;
            let mut sat_kbps = 0u64;
            let mut post_goodput_kbps = 0.0;
            for mut s in Scenario::overload_sweep(EngineScenario { family, shards }, pkts_cap) {
                if let (Some(model), Some(ns)) = (&mut s.service, measured_ns) {
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
    let doc = Value::obj([
        ("schema", 1u64.into()),
        ("bench", "overload".into()),
        ("pkts_cap", pkts_cap.into()),
        ("service_calibrated", calibrated_any.into()),
        ("records", records.into()),
        ("saturation", saturation.into()),
    ]);
    json::write(&json_path, &doc);

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
