//! Closed-loop overload sweep: bounded queues, end-to-end backpressure,
//! graceful degradation (`netsim::run_overload_scenario`), swept across
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
//! (`--no-calibrate` keeps the hand-set default). Every run writes
//! `BENCH_overload.json` (schema in `hummingbird_bench::json`);
//! `--json <path>` overrides the output location.

use hummingbird::netsim::{
    run_overload_scenario, EngineFamily, EngineScenario, FlowStats, OverloadPoint, OverloadSpec,
};
use hummingbird_bench::{
    flag_present, flag_value, hotpath_clone_1core_ns, row, u64_from_args, write_overload_json,
    OverloadRecord, OverloadSaturation,
};
use hummingbird_dataplane::RouterConfig;

const START_S: u64 = 1_700_000_000;
const START_NS: u64 = START_S * 1_000_000_000;

/// Every wire copy either delivered or in a named drop counter.
fn conserved(s: &FlowStats) -> bool {
    s.sent_pkts
        == s.delivered_pkts
            + s.router_drops
            + s.queue_drops
            + s.link_down_drops
            + s.service_queue_drops
}

/// Checks one sweep point's hard invariants; returns the violations.
fn violations(label: &str, p: &OverloadPoint) -> Vec<String> {
    let mut v = Vec::new();
    if !p.reserved_done {
        v.push(format!("{label}: reserved flow did not terminate (livelock)"));
    }
    if !p.best_effort_done {
        v.push(format!("{label}: best-effort flow did not terminate (livelock)"));
    }
    if !conserved(&p.reserved) {
        v.push(format!("{label}: reserved flow leaks packets (conservation)"));
    }
    if !conserved(&p.best_effort) {
        v.push(format!("{label}: best-effort flow leaks packets (conservation)"));
    }
    v
}

fn main() {
    let cfg = RouterConfig::default();
    let pkts_cap = u64_from_args("pkts", 0);
    let calibrate = !flag_present("no-calibrate");
    let hotpath = calibrate.then(|| std::fs::read_to_string("BENCH_hotpath.json").ok()).flatten();
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

    let mut records: Vec<OverloadRecord> = Vec::new();
    let mut saturation: Vec<OverloadSaturation> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut calibrated_any = false;

    for family in EngineFamily::ALL {
        let measured_ns =
            hotpath.as_deref().and_then(|doc| hotpath_clone_1core_ns(doc, family.name()));
        calibrated_any |= measured_ns.is_some();
        if calibrate && measured_ns.is_none() {
            eprintln!(
                "no readable BENCH_hotpath.json clone/1-core record for {}; its overload sweep \
                 keeps the hand-set service cost",
                family.name()
            );
        }
        for shards in [1usize, 4] {
            let mut spec = OverloadSpec::new(EngineScenario { family, shards });
            spec.max_pkts_per_flow = pkts_cap;
            spec.service_per_pkt_ns = measured_ns.unwrap_or(spec.service_per_pkt_ns);
            let out = run_overload_scenario(cfg, &spec, START_NS);

            let mut reserved_held = true;
            let mut sat_kbps = 0u64;
            for p in &out.points {
                let label = format!("{}x{shards}@{}kbps", family.name(), p.offered_kbps);
                failures.extend(violations(&label, p));
                if p.reserved.delivery_ratio() <= 0.95 {
                    reserved_held = false;
                }
                if p.best_effort_goodput_kbps() >= p.offered_kbps as f64 * 0.9 {
                    sat_kbps = sat_kbps.max(p.offered_kbps);
                }
                let drops = p.reserved.queue_drops
                    + p.reserved.service_queue_drops
                    + p.best_effort.queue_drops
                    + p.best_effort.service_queue_drops;
                println!(
                    "{}",
                    row(
                        &[
                            family.name().into(),
                            format!("{shards}"),
                            format!("{}", p.offered_kbps),
                            format!("{:.1}", p.reserved.delivery_ratio() * 100.0),
                            format!("{:.0}", p.reserved_goodput_kbps()),
                            format!("{:.2}", p.reserved.p99_latency_ms()),
                            format!("{:.1}", p.best_effort.delivery_ratio() * 100.0),
                            format!("{:.0}", p.best_effort_goodput_kbps()),
                            format!("{:.2}", p.best_effort.p99_latency_ms()),
                            format!("{}", p.reserved.retransmits + p.best_effort.retransmits),
                            format!("{drops}"),
                        ],
                        &widths
                    )
                );
                records.push(OverloadRecord {
                    family: family.name(),
                    shards,
                    offered_kbps: p.offered_kbps,
                    reserved_delivery: p.reserved.delivery_ratio(),
                    reserved_goodput_kbps: p.reserved_goodput_kbps(),
                    reserved_p99_ms: p.reserved.p99_latency_ms(),
                    be_delivery: p.best_effort.delivery_ratio(),
                    be_goodput_kbps: p.best_effort_goodput_kbps(),
                    be_p99_ms: p.best_effort.p99_latency_ms(),
                    retransmits: p.reserved.retransmits + p.best_effort.retransmits,
                    timeouts: p.reserved.timeouts + p.best_effort.timeouts,
                    stalls: p.reserved.backpressure_stalls + p.best_effort.backpressure_stalls,
                    queue_drops: p.reserved.queue_drops + p.best_effort.queue_drops,
                    service_queue_drops: p.reserved.service_queue_drops
                        + p.best_effort.service_queue_drops,
                    completed: p.reserved_done && p.best_effort_done,
                });
            }
            let last = out.points.last().expect("non-empty sweep");
            saturation.push(OverloadSaturation {
                family: family.name(),
                shards,
                saturation_kbps: sat_kbps,
                post_goodput_kbps: last.best_effort_goodput_kbps(),
                reserved_held,
            });
        }
    }

    match write_overload_json(&json_path, pkts_cap, calibrated_any, &records, &saturation) {
        Ok(()) => println!("\nwrote {} records to {json_path}", records.len()),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
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
