//! The paper's motivating workload (§1) over *real sockets*: the video
//! call of `examples/videocall.rs`, deployed as a gateway → three border
//! routers → sink chain of threads exchanging real UDP datagrams over
//! loopback (`hummingbird_testbed`).
//!
//! One reserved call flow competes with four best-effort bulk transfers
//! for the chain. Every datagram is a genuine wire packet: generated by
//! the dataplane's `SourceGenerator`, validated at each router with
//! `PacketView::new_checked`, processed by a Hummingbird engine, and
//! forwarded to the next hop's socket. At the end the example prints
//! per-class goodput and the end-to-end tail (p50/p95/p99/p99.9), the
//! frames per datagram on each link (runs of equal-length frames ride
//! one UDP GSO datagram), plus the exact conservation line
//! `sent = delivered + drops`.
//!
//! Run with: `cargo run --release --example videocall_sockets`

use hummingbird::netsim::EngineFamily;
use hummingbird_testbed::{run_chain, ChainSpec, TrafficMix, BEST_EFFORT, RESERVED};

fn main() {
    let mut spec = ChainSpec::new(EngineFamily::Hummingbird, TrafficMix::VideoCall);
    spec.pkts = 200_000;
    spec.payload_len = 1_200; // video-sized frames

    println!("== video call over real UDP sockets: gateway -> 3 routers -> sink ==");
    println!(
        "{} datagrams ({} B payload), 1 reserved call vs 4 best-effort bulk flows\n",
        spec.pkts, spec.payload_len
    );

    let report = match run_chain(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chain failed: {e}");
            std::process::exit(1);
        }
    };

    println!("{:<22} {:>14} {:>14}", "metric", "reserved call", "best effort");
    let (rsv, be) = (&report.classes[RESERVED], &report.classes[BEST_EFFORT]);
    println!("{:<22} {:>14} {:>14}", "sent [pkts]", rsv.sent, be.sent);
    println!("{:<22} {:>14} {:>14}", "delivered [pkts]", rsv.delivered, be.delivered);
    println!("{:<22} {:>14} {:>14}", "engine drops", rsv.engine_dropped, be.engine_dropped);
    println!(
        "{:<22} {:>14.1} {:>14.1}",
        "goodput [Mbps]",
        rsv.goodput_mbps(report.wall_ns),
        be.goodput_mbps(report.wall_ns)
    );
    for (label, p) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p99.9", 0.999)] {
        println!(
            "{:<22} {:>14.2} {:>14.2}",
            format!("{label} latency [ms]"),
            rsv.latency.percentile_ns(p) as f64 / 1e6,
            be.latency.percentile_ns(p) as f64 / 1e6,
        );
    }

    // UDP GSO/GRO: each datagram carries a run of equal-length frames,
    // one loopback stack traversal per run.
    let hops = report.links.len();
    for (hop, link) in report.links.iter().enumerate() {
        let from = if hop == 0 { "gateway".to_owned() } else { format!("router {}", hop - 1) };
        let to = if hop + 1 == hops { "sink".to_owned() } else { format!("router {hop}") };
        println!(
            "{:<22} {:>14.2}   ({} frames in {} datagrams)",
            format!("{from} -> {to}"),
            link.frames_per_datagram(),
            link.frames,
            link.datagrams
        );
    }

    println!();
    if report.clean() {
        println!(
            "OK: exact conservation — {} sent = {} delivered + {} engine drops + {} parse \
             drops, per class and per flow, over real UDP datagrams",
            report.sent,
            report.delivered(),
            report.engine_dropped(),
            report.parse_drops
        );
    } else {
        eprintln!("conservation VIOLATED: {:?}", report.violations);
        std::process::exit(1);
    }
}
