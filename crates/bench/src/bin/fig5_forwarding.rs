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
//! `--batch <n>` sets the hot-loop burst size. Every runtime run — the
//! table's clone rows, the single-core row and both modes of the
//! sharded comparison — is checked for packet conservation
//! ([`hummingbird_bench::conserved`]); a mismatch aborts the process with
//! a nonzero exit, which is what the CI smoke leg asserts.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin fig5_forwarding
//! [-- --engine hummingbird|scion|helia|drkey|epic|gateway|null|all]
//! [--sharded] [--cores 1,2,4] [--pkts <per-core count>]
//! [--batch <n>] [--json <path>]`
//!
//! Every run also writes the measured ns/pkt + Mpps points — and, when
//! `--sharded` is set, the per-engine core-scaling curves — to
//! `BENCH_hotpath.json` so the hot-path perf trajectory is tracked
//! machine-readably across PRs; `--json <path>` overrides the output
//! location. A failed write exits nonzero.
//!
//! # Hot-path schema (`schema = 4`)
//!
//! ```json
//! {
//!   "schema": 4,
//!   "bench": "hotpath",
//!   "aes_backend": "ni",          // active AES backend: "soft" | "ni"
//!   "hardware_threads": 8,        // available parallelism of the host
//!   "batch": 32,                  // packets per burst in the hot loop
//!   "records": [
//!     {
//!       "engine": "hummingbird",  // EngineKind name
//!       "mode": "clone",          // "clone" | "sharded"
//!       "cores": 1,               // worker cores driving the engine
//!       "payload_b": 500,         // payload bytes per packet
//!       "ns_per_pkt": 308.2,      // per-core-seconds per packet
//!       "mpps": 3.24              // aggregate million packets / second
//!     }
//!   ],
//!   "scaling": [
//!     {
//!       "engine": "null",         // EngineKind name
//!       "mode": "sharded",        // "clone" | "sharded"
//!       "curve": [
//!         {
//!           "cores": 2,           // worker cores at this point
//!           "mpps": 18.1,         // aggregate throughput at this point
//!           "speedup": 1.94,     // mpps relative to the 1-core point
//!                                 //   of the same (engine, mode) curve
//!           "exec": "threaded"    // "threaded": workers ran concurrently
//!         }                       //   (or one worker); "sequential":
//!                                 //   the dedicated-core estimate of a
//!                                 //   host with fewer hardware threads
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Schema 4 is schema 3 with an `exec` label on every scaling point, so
//! a curve says which of its points are concurrent wall clock and which
//! are a sequential estimate; schema 3 dropped two header fields that
//! recorded runtime knobs the runtime no longer has (the worker wait
//! strategy and the rx layout). `records` rows are unchanged since
//! schema 1, the `scaling` section (per-engine core-scaling curves, the
//! Fig. 5 "does N shards buy ~N×?" question in machine-readable form)
//! since schema 2.
//!
//! `ns_per_pkt` / `mpps` / `speedup` are `null` when a degenerate run
//! (zero duration) produced a non-finite value — consumers should drop
//! such points rather than read them as zeros.

use hummingbird_bench::json::{self, Value};
use hummingbird_bench::{
    batch_from_args, conserved, cores_from_args, engines_from_args, flag_value, pkts_from_args,
    row, sharded_from_args, DataplaneFixture, EngineKind, Throughput, EPOCH_NS, LINE_RATE_GBPS,
};
use hummingbird_dataplane::{
    run_to_completion, ExecMode, RuntimeConfig, RuntimeMode, RuntimeReport, BATCH_SIZE,
};

/// One `records` row: `t` measured on `cores` workers.
fn record(kind: EngineKind, mode: &str, cores: usize, payload_b: usize, t: &Throughput) -> Value {
    Value::obj([
        ("engine", kind.name().into()),
        ("mode", mode.into()),
        ("cores", cores.into()),
        ("payload_b", payload_b.into()),
        ("ns_per_pkt", t.ns_per_pkt(cores).into()),
        ("mpps", t.mpps().into()),
    ])
}

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

    let mut records: Vec<Value> = Vec::new();
    let mut scaling: Vec<Value> = Vec::new();
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
                let t = clone_run(&fx, kind, pkt, cores, pkts_per_core / cores as u64 * 4);
                cells.push(format!("{:.2}", t.gbps_line_capped()));
                records.push(record(kind, "clone", cores, payload, &t));
            }
            println!("{}", row(&cells, &widths));
        }
        // Per-packet cost at one core (comparable to Table 3's totals).
        let t = clone_run(&fx, kind, fx.engine_packet(kind, 500), 1, pkts_per_core);
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
    let doc = Value::obj([
        ("schema", 4u64.into()),
        ("bench", "hotpath".into()),
        ("aes_backend", backend.into()),
        ("hardware_threads", physical.into()),
        ("batch", batch.into()),
        ("records", records.into()),
        ("scaling", scaling.into()),
    ]);
    json::write(&json_path, &doc);
    println!();
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

/// Exits 1 on a packet-conservation failure: every offered packet must
/// be accounted for by exactly one shard. This is the invariant the CI
/// smoke leg asserts (exit status, not log scraping).
fn assert_conserved(kind: EngineKind, mode: &str, cores: usize, offered: u64, r: &RuntimeReport) {
    if let Err(e) = conserved(offered, r) {
        eprintln!("CONSERVATION FAILURE: engine {} mode {mode} cores {cores}: {e}", kind.name());
        std::process::exit(1);
    }
}

/// `cores` per-core clones of `kind`'s engine, each driving
/// `pkts_per_core` copies of `pkt` in bursts of up to [`BATCH_SIZE`].
fn clone_run(
    fx: &DataplaneFixture,
    kind: EngineKind,
    pkt: Vec<u8>,
    cores: usize,
    pkts_per_core: u64,
) -> Throughput {
    let mut cfg = RuntimeConfig::new(cores);
    cfg.batch_size = BATCH_SIZE.min(pkts_per_core.max(1) as usize);
    // Real threads when the host has the cores, dedicated-core
    // critical-path estimate when it doesn't.
    cfg.exec = ExecMode::Auto;
    let offered = pkts_per_core * cores as u64;
    let report = run_to_completion(
        &cfg,
        RuntimeMode::PerCoreClone,
        |_| fx.engine(kind),
        &[pkt],
        offered,
        EPOCH_NS,
    );
    assert_conserved(kind, "clone", cores, offered, &report);
    Throughput::from(&report)
}

/// Clone vs sharded runtime on the same 64-flow, 500 B workload, plus
/// the core-scaling curves (speedup vs the 1-core point of each mode).
fn sharded_comparison(
    fx: &DataplaneFixture,
    kind: EngineKind,
    cores_list: &[usize],
    pkts_per_core: u64,
    batch: usize,
    records: &mut Vec<Value>,
    scaling: &mut Vec<Value>,
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
    let (mut clone_curve, mut rss_curve) = (Vec::new(), Vec::new());
    // Each curve's first-point mpps, which its speedups are relative to.
    let (mut clone_mpps0, mut rss_mpps0) = (None, None);
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
        let clone = Throughput::from(&clone_report);
        let rss_report = run_to_completion(
            &cfg,
            RuntimeMode::Sharded,
            |_| fx.engine(kind),
            &templates,
            total,
            EPOCH_NS,
        );
        assert_conserved(kind, "sharded", cores, total, &rss_report);
        let rss = Throughput::from(&rss_report);
        let ratio = if clone.gbps() > 0.0 { rss.gbps() / clone.gbps() } else { 0.0 };
        let speedup = |mpps0: &mut Option<f64>, mpps: f64| match *mpps0 {
            None => {
                *mpps0 = Some(mpps);
                1.0
            }
            Some(p0) if p0 > 0.0 => mpps / p0,
            Some(_) => 0.0,
        };
        let rss_speedup = speedup(&mut rss_mpps0, rss.mpps());
        let exec = if cfg.exec.is_concurrent(cores) { "threaded" } else { "sequential" };
        let point = |mpps: f64, speedup: f64| {
            Value::obj([
                ("cores", cores.into()),
                ("mpps", mpps.into()),
                ("speedup", speedup.into()),
                ("exec", exec.into()),
            ])
        };
        clone_curve.push(point(clone.mpps(), speedup(&mut clone_mpps0, clone.mpps())));
        rss_curve.push(point(rss.mpps(), rss_speedup));
        records.push(record(kind, "sharded", cores, 500, &rss));
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
    for (mode, curve) in [("clone", clone_curve), ("sharded", rss_curve)] {
        scaling.push(Value::obj([
            ("engine", kind.name().into()),
            ("mode", mode.into()),
            ("curve", curve.into()),
        ]));
    }
    println!();
}
