//! Figure 5: border-router packet validation and forwarding throughput
//! for different payload sizes and core counts, across every `Datapath`
//! engine (Hummingbird vs SCION best-effort by default; add the Helia,
//! DRKey and EPIC baselines, the gateway or the null calibration engine
//! with `--engine`, including comma lists like `--engine null,hummingbird`).
//!
//! The paper reaches the 160 Gbps line rate with 4 cores at 1500 B and
//! 32 cores at 100 B (AES-NI hardware). This software-AES reproduction is
//! slower in absolute terms; the *shape* to check is (i) near-linear core
//! scaling up to the line-rate cap, (ii) throughput proportional to
//! payload size, (iii) SCION ≈ 2.5x cheaper per packet than Hummingbird.
//!
//! With `--sharded`, each engine additionally runs as **one logical
//! router** on the multi-queue worker runtime: producer-side RSS splits a
//! 64-flow workload into per-shard rx queues so every reservation is
//! policed by exactly one shard — cross-core-correct policing, measured
//! side by side with the per-core-clone mode on the same input, plus a
//! core-scaling curve (clone and sharded at every `--cores` point).
//! `--batch <n>` sets the hot-loop burst size. Every sharded/clone
//! runtime run is checked for packet conservation (processed == offered);
//! a mismatch aborts the process with a nonzero exit, which is what the
//! CI smoke leg asserts.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin fig5_forwarding
//! [-- --engine hummingbird|scion|helia|drkey|epic|gateway|null|all]
//! [--sharded] [--cores 1,2,4] [--pkts <per-core count>]
//! [--batch <n>] [--json <path>]`
//!
//! Every run also writes the measured ns/pkt + Mpps points — and, when
//! `--sharded` is set, the per-engine core-scaling curves — to
//! `BENCH_hotpath.json` (schema 3 in `hummingbird_bench::json`) so the
//! hot-path perf trajectory is tracked machine-readably across PRs;
//! `--json <path>` overrides the output location.

use hummingbird_bench::{
    batch_from_args, cores_from_args, engines_from_args, flag_value, pkts_from_args, row,
    sharded_from_args, write_hotpath_json, BenchRecord, DataplaneFixture, EngineKind, HotpathMeta,
    ScalingCurve, ScalingPoint, EPOCH_NS,
};
use hummingbird_dataplane::{
    forwarding_throughput, run_to_completion, ExecMode, RuntimeConfig, RuntimeMode, RuntimeReport,
    BATCH_SIZE, LINE_RATE_GBPS,
};

fn main() {
    let engines = engines_from_args(&[EngineKind::Hummingbird, EngineKind::Scion]);
    let cores_list = cores_from_args(&[1usize, 2, 4, 8, 16, 32]);
    let payloads = [100usize, 500, 1000, 1500];
    let pkts_per_core: u64 = pkts_from_args(200_000);
    let sharded = sharded_from_args();
    let batch = batch_from_args(BATCH_SIZE);
    let json_path = flag_value("json").unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let physical = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let backend = hummingbird_crypto::active_backend().name();
    println!(
        "Figure 5: forwarding throughput [Gbps] by Datapath engine, line rate {LINE_RATE_GBPS}"
    );
    println!("(machine has {physical} hardware threads; rows beyond that oversubscribe)");
    println!("(AES backend: {backend}; batch: {batch})\n");

    let mut records: Vec<BenchRecord> = Vec::new();
    let mut scaling: Vec<ScalingCurve> = Vec::new();
    for kind in engines {
        println!("--- engine: {} ---", kind.name());
        let mut widths = vec![6usize];
        widths.extend(std::iter::repeat_n(10, payloads.len()));
        let mut header = vec!["cores".to_string()];
        header.extend(payloads.iter().map(|p| format!("p={p}B")));
        println!("{}", row(&header, &widths));
        let fx = DataplaneFixture::new(4);
        for &cores in &cores_list {
            let mut cells = vec![format!("{cores}")];
            for &payload in &payloads {
                let pkt = fx.engine_packet(kind, payload);
                let t = forwarding_throughput(
                    || fx.engine(kind),
                    &pkt,
                    cores,
                    pkts_per_core / cores.max(1) as u64 * 4,
                    EPOCH_NS,
                );
                cells.push(format!("{:.2}", t.gbps_line_capped()));
                records.push(BenchRecord {
                    engine: kind.name(),
                    mode: "clone",
                    cores,
                    payload_b: payload,
                    ns_per_pkt: t.ns_per_pkt(cores),
                    mpps: t.mpps(),
                });
            }
            println!("{}", row(&cells, &widths));
        }
        // Per-packet cost at one core (comparable to Table 3's totals).
        let pkt = fx.engine_packet(kind, 500);
        let t = forwarding_throughput(|| fx.engine(kind), &pkt, 1, pkts_per_core, EPOCH_NS);
        println!("single-core per-packet cost: {:.0} ns\n", t.ns_per_pkt(1));

        if sharded {
            sharded_comparison(
                &fx,
                kind,
                &cores_list,
                pkts_per_core,
                batch,
                &mut records,
                &mut scaling,
            );
        }
    }
    let meta = HotpathMeta { aes_backend: backend, hardware_threads: physical, batch };
    match write_hotpath_json(&json_path, &meta, &records, &scaling) {
        Ok(()) => println!(
            "wrote {} records and {} scaling curves to {json_path}\n",
            records.len(),
            scaling.len()
        ),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
    if sharded {
        println!("(sharded = one logical router: producer-side RSS into per-shard rx queues,");
        println!(" every ResID policed by exactly one shard; clone = independent engine per");
        println!(" core. With fewer hardware threads than cores the runtime falls back to a");
        println!(" dedicated-core critical-path estimate — the speedup column then reports");
        println!(" what dedicated cores would sustain, not concurrent wall clock.)\n");
    }
    println!("paper (Fig. 5): line rate at 4 cores/1500 B and 32 cores/100 B;");
    println!("123 ns per SCION packet, 308 ns per Hummingbird packet (AES-NI).");
}

/// Aborts on a packet-conservation failure: every offered packet must be
/// accounted for by exactly one shard. This is the invariant the CI
/// smoke leg asserts (exit status, not log scraping).
fn assert_conserved(kind: EngineKind, mode: &str, cores: usize, offered: u64, r: &RuntimeReport) {
    let processed: u64 = r.per_shard.iter().map(|s| s.processed).sum();
    if processed != offered || r.packets != offered {
        eprintln!(
            "CONSERVATION FAILURE: engine {} mode {mode} cores {cores}: offered {offered}, \
             processed {processed}, reported {}",
            kind.name(),
            r.packets
        );
        std::process::exit(1);
    }
}

/// Clone vs sharded runtime on the same 64-flow, 500 B workload, plus
/// the core-scaling curves (speedup vs the 1-core point of each mode).
fn sharded_comparison(
    fx: &DataplaneFixture,
    kind: EngineKind,
    cores_list: &[usize],
    pkts_per_core: u64,
    batch: usize,
    records: &mut Vec<BenchRecord>,
    scaling: &mut Vec<ScalingCurve>,
) {
    let templates = fx.flow_packets(kind, 500, 64);
    let widths = [6usize, 12, 12, 10, 10];
    println!(
        "{}",
        row(
            &["cores".into(), "clone".into(), "sharded".into(), "ratio".into(), "scale".into()],
            &widths
        )
    );
    let mut clone_points: Vec<ScalingPoint> = Vec::new();
    let mut rss_points: Vec<ScalingPoint> = Vec::new();
    for &cores in cores_list {
        let total = pkts_per_core / cores.max(1) as u64 * 4 * cores as u64;
        let mut cfg = RuntimeConfig::new(cores);
        cfg.batch_size = batch;
        // Real threads when the host has the cores, dedicated-core
        // critical-path estimate when it doesn't.
        cfg.exec = ExecMode::Auto;
        cfg.steering = kind.steering();
        let clone_report = run_to_completion(
            &cfg,
            RuntimeMode::PerCoreClone,
            |_| fx.engine(kind),
            &templates,
            total,
            EPOCH_NS,
        );
        assert_conserved(kind, "clone", cores, total, &clone_report);
        let clone = clone_report.throughput();
        let rss_report = run_to_completion(
            &cfg,
            RuntimeMode::Sharded,
            |_| fx.engine(kind),
            &templates,
            total,
            EPOCH_NS,
        );
        assert_conserved(kind, "sharded", cores, total, &rss_report);
        let rss = rss_report.throughput();
        let ratio = if clone.gbps() > 0.0 { rss.gbps() / clone.gbps() } else { 0.0 };
        let speedup = |points: &[ScalingPoint], mpps: f64| {
            points.first().map_or(1.0, |p0| if p0.mpps > 0.0 { mpps / p0.mpps } else { 0.0 })
        };
        let rss_speedup = speedup(&rss_points, rss.mpps());
        clone_points.push(ScalingPoint {
            cores,
            mpps: clone.mpps(),
            speedup: speedup(&clone_points, clone.mpps()),
        });
        rss_points.push(ScalingPoint { cores, mpps: rss.mpps(), speedup: rss_speedup });
        records.push(BenchRecord {
            engine: kind.name(),
            mode: "sharded",
            cores,
            payload_b: 500,
            ns_per_pkt: rss.ns_per_pkt(cores),
            mpps: rss.mpps(),
        });
        println!(
            "{}",
            row(
                &[
                    format!("{cores}"),
                    format!("{:.2}", clone.gbps_line_capped()),
                    format!("{:.2}", rss.gbps_line_capped()),
                    format!("{ratio:.2}x"),
                    format!("{rss_speedup:.2}x"),
                ],
                &widths
            )
        );
    }
    scaling.push(ScalingCurve { engine: kind.name(), mode: "clone", points: clone_points });
    scaling.push(ScalingCurve { engine: kind.name(), mode: "sharded", points: rss_points });
    println!();
}
