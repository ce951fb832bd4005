//! Figure 14: multi-core traffic-generation throughput at the source for
//! 500 B payloads, as a function of core count and number of AS hops,
//! Hummingbird vs SCION best-effort.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin fig14_generation
//! [-- --cores 1,2,4] [--pkts <count>]`

use hummingbird_bench::{
    cores_from_args, generation_throughput, pkts_from_args, row, DataplaneFixture, EPOCH_MS,
    LINE_RATE_GBPS,
};

fn main() {
    let cores_list = cores_from_args(&[1usize, 2, 4, 8, 16, 32]);
    let hop_counts = [1usize, 2, 4, 8, 16];
    let payload = 500usize;
    let pkts: u64 = pkts_from_args(100_000);
    let physical = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("Figure 14: source packet generation throughput [Gbps], payload {payload} B");
    println!("(line rate {LINE_RATE_GBPS} Gbps; {physical} hardware threads available)\n");

    for flyover in [true, false] {
        let label =
            if flyover { "Hummingbird (flyovers on all hops)" } else { "SCION best effort" };
        println!("--- {label} ---");
        let mut widths = vec![6usize];
        widths.extend(std::iter::repeat_n(10, hop_counts.len()));
        let mut header = vec!["cores".to_string()];
        header.extend(hop_counts.iter().map(|h| format!("h={h}")));
        println!("{}", row(&header, &widths));
        for &cores in &cores_list {
            let mut cells = vec![format!("{cores}")];
            for &h in &hop_counts {
                let fx = DataplaneFixture::new(h);
                let t = generation_throughput(
                    || fx.generator(flyover),
                    payload,
                    cores,
                    pkts / cores.max(1) as u64 * 2,
                    EPOCH_MS,
                );
                cells.push(format!("{:.2}", t.gbps_line_capped()));
            }
            println!("{}", row(&cells, &widths));
        }
        println!();
    }
    println!("paper (Fig. 14): 32 cores reach the 160 Gbps line rate for 500 B payloads");
    println!("for both Hummingbird and SCION, even at 8 on-path ASes; throughput falls");
    println!("with hop count (more MACs per packet) and Hummingbird < SCION per core.");
}
