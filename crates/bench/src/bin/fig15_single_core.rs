//! Figure 15: single-core packet-generation throughput at the source for
//! different payload sizes and hop counts, Hummingbird vs SCION.
//!
//! The paper's reference points (single core): at 1 kB payload and 4 hops,
//! Hummingbird 17.90 Gbps vs SCION 28.64 Gbps; at 100 B, 4.65 vs 7.70.
//! The shape: throughput grows with payload (fixed per-packet cost) and
//! falls with hop count; SCION ≈ 1.6x Hummingbird.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin fig15_single_core`

use hummingbird_bench::{generation_throughput, row, DataplaneFixture, EPOCH_MS};

fn main() {
    let payloads = [100usize, 500, 1000, 1500];
    let hop_counts = [1usize, 2, 4, 8, 16];
    let pkts: u64 = 150_000;
    println!("Figure 15: single-core generation throughput [Gbps] by payload and hops\n");

    for flyover in [true, false] {
        let label = if flyover { "Hummingbird" } else { "SCION best effort" };
        println!("--- {label} ---");
        let mut widths = vec![8usize];
        widths.extend(std::iter::repeat_n(9, hop_counts.len()));
        let mut header = vec!["payload".to_string()];
        header.extend(hop_counts.iter().map(|h| format!("h={h}")));
        println!("{}", row(&header, &widths));
        for &payload in &payloads {
            let mut cells = vec![format!("{payload}B")];
            for &h in &hop_counts {
                let fx = DataplaneFixture::new(h);
                let t = generation_throughput(|| fx.generator(flyover), payload, 1, pkts, EPOCH_MS);
                cells.push(format!("{:.2}", t.gbps()));
            }
            println!("{}", row(&cells, &widths));
        }
        println!();
    }
    // The paper's headline comparison point.
    let fx = DataplaneFixture::new(4);
    let hb = generation_throughput(|| fx.generator(true), 1000, 1, pkts, EPOCH_MS);
    let sc = generation_throughput(|| fx.generator(false), 1000, 1, pkts, EPOCH_MS);
    println!(
        "1 kB / 4 hops: Hummingbird {:.2} Gbps vs SCION {:.2} Gbps (ratio {:.2}; paper: 17.90 vs 28.64 = 1.60)",
        hb.gbps(),
        sc.gbps(),
        sc.gbps() / hb.gbps()
    );
}
