//! Ablation benches for the design choices ARCHITECTURE.md maps ("The
//! data-plane pipeline", "Reservation crypto", "The multi-queue worker
//! runtime"):
//!
//! 1. Policing-array size vs per-check cost (§4.4 cache-sizing examples).
//! 2. First-Fit vs Kierstead-Trotter vs offline-optimal ResID allocation
//!    (competitive ratio in practice).
//! 3. Duplicate suppression: router cost with the stage on vs off.
//! 4. Aggregate MAC vs a separate tag field: header bytes saved.
//! 5. Multi-queue runtime: per-core-clone vs RSS-sharded scaling, with
//!    the null engine isolating the harness's own fill/steering cost.
//! 6. Burst size: the runtime's `batch_size` knob swept over the sharded
//!    null + Hummingbird workload (amortization vs cache footprint).
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin ablations
//! [-- --cores 1,2,4] [--pkts <count>] [--batch <n>]`
//!
//! `--batch` pins the burst-size sweep to a single value (handy for
//! profiling one point); without it the sweep covers 4..128.

use hummingbird_bench::{
    batch_from_args, checked_run, cores_from_args, flag_present, row, u64_from_args,
    DataplaneFixture, EngineKind, Throughput, EPOCH_NS,
};
use hummingbird_coloring::{color_optimal, max_overlap, FirstFit, Interval, KiersteadTrotter};
use hummingbird_dataplane::policing::Policer;
use hummingbird_dataplane::{
    BorderRouter, Datapath, ExecMode, PacketBuf, RouterConfig, RuntimeConfig, RuntimeMode,
};
use hummingbird_wire::hopfield::{FLYOVER_FIELD_LEN, HOP_FIELD_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    ablation_policing_array();
    ablation_coloring();
    ablation_dup_suppression();
    ablation_agg_mac();
    ablation_runtime_sharding();
    ablation_batch_size();
}

fn ablation_policing_array() {
    println!("== Ablation 1: policing-array size vs per-check cost ==");
    println!("(§4.4: 75k IDs = 600 kB fits L2; 3M IDs = 24 MB fits L3)\n");
    let widths = [12usize, 12, 12];
    println!("{}", row(&["ResIDmax", "array", "ns/check"], &widths));
    let mut rng = StdRng::seed_from_u64(1);
    for slots in [1_000u32, 75_000, 1_000_000, 3_000_000] {
        let mut p = Policer::new(slots, 50_000_000);
        // Random ResIDs to defeat the cache (the worst case for big arrays).
        let ids: Vec<u32> = (0..4096).map(|_| rng.gen_range(0..slots)).collect();
        let iters = 2_000_000u64;
        let mut t = EPOCH_NS;
        let start = Instant::now();
        for i in 0..iters {
            t += 100;
            black_box(p.check(ids[(i % 4096) as usize], 1_000_000, 500, t));
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        let mb = p.array_bytes() as f64 / 1e6;
        println!(
            "{}",
            row(&[format!("{slots}"), format!("{mb:.1} MB"), format!("{ns:.1}")], &widths)
        );
    }
    println!();
}

fn ablation_coloring() {
    println!("== Ablation 2: ResID allocation — First-Fit vs Kierstead-Trotter ==\n");
    let widths = [10usize, 8, 8, 8, 10, 10];
    println!("{}", row(&["intervals", "omega", "FF", "KT", "FF ratio", "KT ratio"], &widths));
    let mut rng = StdRng::seed_from_u64(2);
    for n in [50usize, 200, 500] {
        let intervals: Vec<Interval> = (0..n)
            .map(|_| {
                let s = rng.gen_range(0u64..10_000);
                Interval::new(s, s + rng.gen_range(60..3600))
            })
            .collect();
        let omega = max_overlap(&intervals);
        let mut ff = FirstFit::new(u32::MAX);
        let mut kt = KiersteadTrotter::new();
        for iv in &intervals {
            ff.assign(*iv).unwrap();
            kt.assign(*iv);
        }
        let (_, opt) = color_optimal(&intervals);
        assert_eq!(opt as usize, omega);
        let ff_used = ff.high_water() + 1;
        let kt_used = kt.high_water() + 1;
        println!(
            "{}",
            row(
                &[
                    format!("{n}"),
                    format!("{omega}"),
                    format!("{ff_used}"),
                    format!("{kt_used}"),
                    format!("{:.2}", ff_used as f64 / omega as f64),
                    format!("{:.2}", kt_used as f64 / omega as f64),
                ],
                &widths
            )
        );
    }
    println!("\n(First-Fit is near-optimal on random workloads — why the client app uses it;");
    println!(" KT guarantees <= 3x worst-case, backing the paper's ResIDmax bound.)\n");
}

fn ablation_dup_suppression() {
    println!("== Ablation 3: duplicate suppression cost at the router ==\n");
    let fx = DataplaneFixture::new(4);
    let iters = 200_000u64;
    let mut results = Vec::new();
    for dup in [false, true] {
        let (sv, hop_key) = fx.hop0_keys();
        let cfg = RouterConfig { duplicate_suppression: dup, ..RouterConfig::default() };
        let mut router = BorderRouter::new(sv.clone(), hop_key.clone(), cfg);
        // Unique packets (the realistic stream) — regenerate timestamps.
        let mut generator = fx.generator(true);
        let mut pkts: Vec<PacketBuf> = (0..64)
            .map(|i| {
                PacketBuf::new(
                    generator.generate(&[0u8; 500], hummingbird_bench::EPOCH_MS + i).unwrap(),
                )
            })
            .collect();
        let start = Instant::now();
        for i in 0..iters {
            let p = &mut pkts[(i % 64) as usize];
            black_box(router.process(p.bytes_mut(), EPOCH_NS));
            p.reset();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        results.push((dup, ns));
        println!("dup suppression {:>5}: {ns:.0} ns/pkt", dup);
    }
    println!(
        "overhead: {:.0} ns ({:.1}%)\n",
        results[1].1 - results[0].1,
        (results[1].1 / results[0].1 - 1.0) * 100.0
    );
}

fn ablation_runtime_sharding() {
    println!("== Ablation 5: multi-queue runtime — clone vs sharded vs harness floor ==\n");
    let fx = DataplaneFixture::new(4);
    let cores_list = cores_from_args(&[1usize, 2, 4]);
    let per_core = u64_from_args("pkts", 100_000);
    let widths = [12usize, 8, 12, 12];
    println!("{}", row(&["engine", "cores", "clone mpps", "sharded mpps"], &widths));
    // The null engine's rows are the harness floor: burst fill,
    // bookkeeping and (sharded) rx steering with zero per-packet work.
    for kind in [EngineKind::Null, EngineKind::Hummingbird] {
        let templates = fx.flow_packets(kind, 500, 64);
        for &cores in &cores_list {
            let total = per_core * cores as u64;
            let mut cfg = RuntimeConfig::new(cores);
            cfg.exec = ExecMode::Auto;
            let [clone, rss] = [RuntimeMode::PerCoreClone, RuntimeMode::Sharded].map(|mode| {
                Throughput::from(&checked_run(&cfg, mode, &fx, kind, &templates, total)).mpps()
            });
            println!(
                "{}",
                row(
                    &[
                        kind.name().into(),
                        format!("{cores}"),
                        format!("{clone:.2}"),
                        format!("{rss:.2}"),
                    ],
                    &widths
                )
            );
        }
    }
    println!("\n(clone scales embarrassingly but polices nothing across cores; sharded");
    println!(" steers at the producer into per-shard rx queues, so one correctly-policed");
    println!(" logical router runs with no dispatcher thread on the hot path.)\n");
}

fn ablation_batch_size() {
    println!("== Ablation 6: burst size — amortization vs cache footprint ==\n");
    let fx = DataplaneFixture::new(4);
    let per_core = u64_from_args("pkts", 100_000);
    let cores = 2usize;
    // One --batch value pins the sweep (profiling a single point);
    // otherwise sweep the interesting range around the default of 32.
    let batches: Vec<usize> =
        if flag_present("batch") { vec![batch_from_args(32)] } else { vec![4, 8, 16, 32, 64, 128] };
    let widths = [8usize, 14, 14];
    println!("{}", row(&["batch", "null mpps", "hbird mpps"], &widths));
    for &batch in &batches {
        let mut cells = vec![format!("{batch}")];
        for kind in [EngineKind::Null, EngineKind::Hummingbird] {
            let templates = fx.flow_packets(kind, 500, 64);
            let total = per_core * cores as u64;
            let mut cfg = RuntimeConfig::new(cores);
            cfg.batch_size = batch;
            cfg.exec = ExecMode::Auto;
            let rss = checked_run(&cfg, RuntimeMode::Sharded, &fx, kind, &templates, total);
            cells.push(format!("{:.2}", Throughput::from(&rss).mpps()));
        }
        println!("{}", row(&cells, &widths));
    }
    println!("\n(small bursts pay the per-burst loop and engine set-up on few packets; huge");
    println!(" bursts spill the per-burst working set out of L1 — the default of 32 sits in");
    println!(" the plateau.)\n");
}

fn ablation_agg_mac() {
    println!("== Ablation 4: aggregate MAC (XOR with hop-field MAC) vs separate tag ==\n");
    // With aggregation, the flyover hop field reuses the 6 MAC bytes; a
    // separate-tag design would add 6 bytes (padded to 8 for alignment).
    let with_agg = FLYOVER_FIELD_LEN;
    let separate = FLYOVER_FIELD_LEN + 8;
    println!(
        "flyover hop field with aggregate MAC:  {with_agg} B ({} B over plain hop)",
        with_agg - HOP_FIELD_LEN
    );
    println!(
        "flyover hop field with separate tag:   {separate} B ({} B over plain hop)",
        separate - HOP_FIELD_LEN
    );
    for h in [4usize, 16] {
        let per_pkt = (separate - with_agg) * h;
        let at_100g = per_pkt as f64 * 8.0 * (100e9 / (8.0 * 600.0)) / 1e9;
        println!(
            "{h} reserved hops: {per_pkt} B/packet saved = {at_100g:.2} Gbps of header overhead avoided at 100 Gbps of 600 B packets"
        );
    }
    println!("(matches the paper's 8 B/hop total overhead claim in §4.)");
}
