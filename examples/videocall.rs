//! The paper's motivating workload (§1): keeping a video call alive
//! through inter-domain congestion.
//!
//! A 4 Mbps video call crosses three ASes whose 20 Mbps peering links get
//! swamped by a 60 Mbps bulk transfer. We run the call twice — best effort
//! vs. a Hummingbird reservation — and compare goodput, loss and latency.
//!
//! Run with: `cargo run --release --example videocall`

use hummingbird::netsim::{EngineFamily, FlowSpec, LinearTopology, LinkSpec, Route};
use hummingbird::{IsdAs, RouterConfig};

const START_S: u64 = 1_700_000_000;
const START_NS: u64 = START_S * 1_000_000_000;
const SEC: u64 = 1_000_000_000;
const RUN_S: u64 = 3;

struct CallResult {
    goodput_kbps: f64,
    delivery_pct: f64,
    mean_latency_ms: f64,
    max_latency_ms: f64,
}

fn run_call(reserved: bool) -> CallResult {
    let mut net = LinearTopology::build(
        3,
        LinkSpec {
            bandwidth_bps: 20_000_000, // 20 Mbps peering links
            propagation_ns: 5_000_000, // 5 ms per link
            queue_cap_bytes: 256 * 1024,
        },
        START_NS,
        RouterConfig::default(),
    )
    .net;
    let mut add = |src: IsdAs, flow: FlowSpec| {
        let route = Route { src: Some(src), ..Route::new(0, 2) };
        let hb = EngineFamily::Hummingbird;
        net.add_family_flow(hb, route, &flow, START_NS, START_NS + RUN_S * SEC)
    };
    // The video call: 4 Mbps of 1200 B frames.
    let call = add(IsdAs::new(1, 0xa), FlowSpec::cbr(1200, 4_000, reserved.then_some(5_000)));
    // The congestion: a 60 Mbps bulk transfer sharing every link.
    add(IsdAs::new(3, 0xc), FlowSpec::cbr(1500, 60_000, None));
    net.sim.run_until(START_NS + (RUN_S + 1) * SEC);
    let s = net.sim.stats(call);
    CallResult {
        goodput_kbps: s.goodput_kbps(RUN_S as f64),
        delivery_pct: s.delivery_ratio() * 100.0,
        mean_latency_ms: s.mean_latency_ms(),
        max_latency_ms: s.latency_max_ns as f64 / 1e6,
    }
}

fn main() {
    println!("== Video call (4 Mbps) vs bulk transfer (60 Mbps) on 20 Mbps links ==\n");
    let best_effort = run_call(false);
    let reserved = run_call(true);

    println!("{:<22} {:>12} {:>12}", "metric", "best effort", "reserved");
    println!(
        "{:<22} {:>12.0} {:>12.0}",
        "goodput [kbps]", best_effort.goodput_kbps, reserved.goodput_kbps
    );
    println!(
        "{:<22} {:>11.1}% {:>11.1}%",
        "delivery", best_effort.delivery_pct, reserved.delivery_pct
    );
    println!(
        "{:<22} {:>12.2} {:>12.2}",
        "mean latency [ms]", best_effort.mean_latency_ms, reserved.mean_latency_ms
    );
    println!(
        "{:<22} {:>12.2} {:>12.2}",
        "max latency [ms]", best_effort.max_latency_ms, reserved.max_latency_ms
    );

    println!();
    if reserved.delivery_pct > 99.0 && best_effort.delivery_pct < 90.0 {
        println!(
            "OK: the reservation keeps the call at {:.1}% delivery while best effort \
             degrades to {:.1}%",
            reserved.delivery_pct, best_effort.delivery_pct
        );
    } else {
        println!(
            "note: delivery reserved {:.1}% vs best-effort {:.1}%",
            reserved.delivery_pct, best_effort.delivery_pct
        );
    }
}
