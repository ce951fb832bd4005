//! Real-socket end-to-end testbed: a gateway, a chain of border routers
//! and a sink exchanging *real UDP datagrams* over loopback
//! (`hummingbird_testbed`), swept across all four engine families × the
//! standard traffic mixes (CBR, bursty on/off, elephant/mice, flash
//! crowd).
//!
//! Each run sends `--pkts` datagrams through the chain; every router
//! validates each datagram with `PacketView::new_checked`, drives it
//! through a `ShardedRouter` over the family's engines (`--cores`
//! shards, `--wait` credit-wait strategy), and forwards the bytes to the
//! next hop's socket. The links are credit-windowed, so the binary can —
//! and does — verify **exact packet conservation** for every run:
//! `sent = delivered + engine drops + parse drops`, globally, per flow
//! and per class, with zero parse failures. Any violation prints loudly
//! and the process exits nonzero — this is the CI smoke leg's contract.
//!
//! Per (family, mix) the table reports delivery, goodput and the
//! reserved/best-effort end-to-end tail (p50/p95/p99/p99.9 from the
//! dataplane's log2-bucketed `LatencyHistogram`, so values are bucket
//! upper bounds).
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin testbed_e2e
//! [-- --pkts <n>] [--cores <n>] [--routers <n>] [--mix <name>]
//! [--wait busy|yield:<n>|backoff] [--json <path>]`
//!
//! Every run writes `BENCH_testbed.json`; `--json <path>` overrides the
//! location, and a failed write exits nonzero.
//!
//! # Testbed schema (`schema = 1`)
//!
//! The binary verifies exact packet conservation (globally, per class
//! and per flow) and zero parse failures for every run before writing,
//! so a checked-in document is also a green light.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "testbed",
//!   "routers": 3,                 // border routers in the chain
//!   "shards": 1,                  // engine shards per router
//!   "pkts_per_run": 1000000,      // datagrams the gateway sends per run
//!   "payload_b": 200,             // L4 payload bytes per packet
//!   "window": 64,                 // credit window per link, frames
//!   "wait": "backoff",            // sender wait strategy (as hotpath)
//!   "records": [
//!     {
//!       "family": "hummingbird",  // EngineFamily name
//!       "mix": "cbr",             // TrafficMix name
//!       "sent": 1000000,          // gateway datagrams
//!       "delivered": 1000000,     // sink datagrams
//!       "engine_drops": 0,        // engine-verdict drops on the chain
//!       "parse_drops": 0,         // structurally invalid datagrams
//!       "wall_ms": 9210.4,        // sink first-delivery → FIN window
//!       "conserved": true,        // sent == delivered + drops, exactly,
//!                                 //   globally and per flow/class
//!       "classes": [
//!         {
//!           "class": "reserved",  // "reserved" | "best_effort"
//!           "sent": 500000,
//!           "delivered": 500000,
//!           "engine_drops": 0,
//!           "goodput_mbps": 78.1, // delivered payload bits / wall time
//!           "p50_us": 127.0,      // end-to-end latency percentiles
//!           "p95_us": 255.0,      //   (log2-bucketed upper bounds,
//!           "p99_us": 511.0,      //   microseconds)
//!           "p999_us": 1023.0
//!         }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! `wall_ms` / `goodput_mbps` / `p*_us` are host-dependent (trend, not
//! truth); the counts and `conserved` are exact. Floats degrade to
//! `null` when non-finite, as everywhere else.

use hummingbird::netsim::EngineFamily;
use hummingbird_bench::json::{self, Value};
use hummingbird_bench::{flag_value, row, u64_from_args, wait_from_args, wait_label};
use hummingbird_testbed::{run_chain, ChainSpec, RunReport, TrafficMix, BEST_EFFORT, RESERVED};

/// Microseconds for a histogram percentile (bucket upper bound).
fn pct_us(h: &hummingbird_dataplane::LatencyHistogram, p: f64) -> f64 {
    h.percentile_ns(p) as f64 / 1_000.0
}

/// One `classes` row of a run.
fn class_record(report: &RunReport, class: usize) -> Value {
    let c = &report.classes[class];
    Value::obj([
        ("class", (if class == RESERVED { "reserved" } else { "best_effort" }).into()),
        ("sent", c.sent.into()),
        ("delivered", c.delivered.into()),
        ("engine_drops", c.engine_dropped.into()),
        ("goodput_mbps", c.goodput_mbps(report.wall_ns).into()),
        ("p50_us", pct_us(&c.latency, 0.50).into()),
        ("p95_us", pct_us(&c.latency, 0.95).into()),
        ("p99_us", pct_us(&c.latency, 0.99).into()),
        ("p999_us", pct_us(&c.latency, 0.999).into()),
    ])
}

fn main() {
    let pkts = u64_from_args("pkts", 1_000_000);
    let shards = u64_from_args("cores", 1) as usize;
    let routers = u64_from_args("routers", 3) as usize;
    let wait = wait_from_args();
    let json_path = flag_value("json").unwrap_or_else(|| "BENCH_testbed.json".to_string());
    let mixes: Vec<TrafficMix> = match flag_value("mix") {
        None => TrafficMix::ALL.to_vec(),
        Some(name) => match TrafficMix::from_name(&name) {
            Some(m) => vec![m],
            None => {
                eprintln!("unknown mix '{name}'; expected cbr|bursty|elephant_mice|flash_crowd");
                std::process::exit(2);
            }
        },
    };

    println!("== real-socket UDP testbed: gateway -> {routers} routers -> sink ==");
    println!(
        "{pkts} datagrams per run over loopback, {shards} shard(s) per router, wait {}\n",
        wait_label(wait)
    );

    let widths = [12usize, 14, 9, 9, 7, 9, 9, 9, 9, 10];
    println!(
        "{}",
        row(
            &[
                "family".into(),
                "mix".into(),
                "sent".into(),
                "delivered".into(),
                "drops".into(),
                "rsv p50us".into(),
                "rsv p99us".into(),
                "be p99us".into(),
                "be p999us".into(),
                "mbps".into(),
            ],
            &widths
        )
    );

    // Every run is this chain with its own family and mix; the document
    // head reads the scale from it.
    let mut base = ChainSpec::new(EngineFamily::ALL[0], mixes[0]);
    base.pkts = pkts;
    base.shards = shards;
    base.routers = routers;
    base.wait = wait;
    let mut records: Vec<Value> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for family in EngineFamily::ALL {
        for &mix in &mixes {
            let spec = ChainSpec { family, mix, ..base.clone() };
            let label = format!("{}/{}", family.name(), mix.name());
            let report = match run_chain(&spec) {
                Ok(r) => r,
                Err(e) => {
                    failures.push(format!("{label}: chain failed: {e}"));
                    continue;
                }
            };
            for v in &report.violations {
                failures.push(format!("{label}: {v}"));
            }
            if report.parse_drops > 0 {
                failures.push(format!("{label}: {} datagrams failed to parse", report.parse_drops));
            }
            let (rsv, be) = (&report.classes[RESERVED], &report.classes[BEST_EFFORT]);
            println!(
                "{}",
                row(
                    &[
                        family.name().into(),
                        mix.name().into(),
                        format!("{}", report.sent),
                        format!("{}", report.delivered()),
                        format!("{}", report.engine_dropped()),
                        format!("{:.0}", pct_us(&rsv.latency, 0.50)),
                        format!("{:.0}", pct_us(&rsv.latency, 0.99)),
                        format!("{:.0}", pct_us(&be.latency, 0.99)),
                        format!("{:.0}", pct_us(&be.latency, 0.999)),
                        format!(
                            "{:.1}",
                            rsv.goodput_mbps(report.wall_ns) + be.goodput_mbps(report.wall_ns)
                        ),
                    ],
                    &widths
                )
            );
            if !report.drop_reasons.is_empty() {
                println!("    drop reasons: {:?}", report.drop_reasons);
            }
            records.push(Value::obj([
                ("family", family.name().into()),
                ("mix", mix.name().into()),
                ("sent", report.sent.into()),
                ("delivered", report.delivered().into()),
                ("engine_drops", report.engine_dropped().into()),
                ("parse_drops", report.parse_drops.into()),
                ("wall_ms", (report.wall_ns as f64 / 1e6).into()),
                ("conserved", report.violations.is_empty().into()),
                (
                    "classes",
                    vec![class_record(&report, RESERVED), class_record(&report, BEST_EFFORT)]
                        .into(),
                ),
            ]));
        }
    }

    println!();
    let doc = Value::obj([
        ("schema", 1u64.into()),
        ("bench", "testbed".into()),
        ("routers", base.routers.into()),
        ("shards", base.shards.into()),
        ("pkts_per_run", base.pkts.into()),
        ("payload_b", base.payload_len.into()),
        ("window", base.window.into()),
        ("wait", wait_label(base.wait).into()),
        ("records", records.into()),
    ]);
    json::write(&json_path, &doc);

    if !failures.is_empty() {
        eprintln!("\ntestbed invariants VIOLATED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!(
        "\nevery run above moved real UDP datagrams through {routers} socket routers with\n\
         exact conservation (sent = delivered + engine drops + parse drops, per class\n\
         and per flow) and zero parse failures — the CI smoke contract."
    );
}
