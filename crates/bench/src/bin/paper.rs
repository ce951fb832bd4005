//! The paper's evaluation, one claim per table or figure.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin paper
//! [-- --claim <id>]... [flags]`
//!
//! `--claim` is repeatable; with no `--claim`, every claim runs in paper
//! order. `--help` prints the list below and exits 0; an unknown id
//! prints it and exits 2, and a flag that no selected claim reads exits
//! 2 too. Claims that read the same flag
//! share its value, so `--pkts` sizes both `fig5` and `fig14`:
//!
//! | id | regenerates | flags |
//! |---|---|---|
//! | `sec2` | §2: Hummingbird vs a Helia-style fixed-slot baseline | — |
//! | `table1` | Table 1: atomic buy-and-redeem gas, 1–16 hops | — |
//! | `table2` | Table 2: gas of every asset and market call | — |
//! | `fig4` | Fig. 4: buy-and-redeem latency, 100 runs per path length | — |
//! | `fig5` | Fig. 5: border-router forwarding throughput | `--engine --cores --pkts --sharded --batch` |
//! | `table3` | Table 3: per-step border-router timings | `--engine` |
//! | `table4` | Table 4: per-step source-generation timings | — |
//! | `fig14` | Fig. 14: multi-core source generation throughput | `--cores --pkts` |
//! | `fig15` | Fig. 15: single-core source generation throughput | — |
//!
//! `sec2`, `table1`, `table2` and `fig4` are seeded: they print the same
//! bytes on every run. The other claims time this host.
//!
//! # Fig. 5
//!
//! Border-router packet validation and forwarding throughput for
//! different payload sizes and core counts, across every `Datapath`
//! engine (Hummingbird vs SCION best-effort by default; add the Helia,
//! DRKey and EPIC baselines, the gateway or the null calibration engine
//! with `--engine`, including comma lists like `--engine null,hummingbird`).
//!
//! The paper reaches the 160 Gbps line rate with 4 cores at 1500 B and
//! 32 cores at 100 B (AES-NI hardware). The *shape* to check is (i)
//! near-linear core scaling up to the line-rate cap, (ii) throughput
//! proportional to payload size, (iii) SCION ≈ 2.5x cheaper per packet
//! than Hummingbird.
//!
//! With `--sharded`, each engine additionally runs as **one logical
//! router** on the multi-queue worker runtime: producer-side RSS splits a
//! 64-flow workload into per-shard rx queues so every reservation is
//! policed by exactly one shard — cross-core-correct policing, measured
//! side by side with the per-core-clone mode on the same input, plus a
//! core-scaling curve (clone and sharded at every `--cores` point).
//! `--batch <n>` sets the sharded comparison's burst size. Every runtime
//! run is a [`checked_run`]: a packet-conservation failure exits 1,
//! which is what the CI smoke leg asserts. A point that processed no
//! packet (`--pkts` below its core count) prints `—`, not a measurement.

use hummingbird::world::{World, WorldConfig};
use hummingbird::{Client, ExecPath, ObjectId, PurchaseSpec};
use hummingbird_baselines::helia::flexibility::{helia_slot_coverage, hummingbird_coverage};
use hummingbird_baselines::{slot_of, HeliaService, SLOT_SECS};
use hummingbird_bench::{
    checked_run, clone_run, row, Args, DataplaneFixture, EngineKind, Summary, Throughput, EPOCH_MS,
    EPOCH_NS, EPOCH_S, LINE_RATE_GBPS,
};
use hummingbird_control::{BandwidthAsset, Direction, EncryptedReservation};
use hummingbird_crypto::{aggregate_mac, AuthKey, FlyoverMacInput, ResInfo};
use hummingbird_dataplane::policing::Policer;
use hummingbird_dataplane::{
    BorderRouter, Datapath, ExecMode, FwdClass, PacketBuf, RouterConfig, RuntimeConfig,
    RuntimeMode, SourceGenerator, BATCH_SIZE,
};
use hummingbird_ledger::{GasSummary, LatencyModel};
use hummingbird_wire::common::{AddressHeader, CommonHeader, COMMON_HDR_LEN};
use hummingbird_wire::meta::PathMetaHdr;
use hummingbird_wire::scion_mac::{update_seg_id, HopMacInput};
use hummingbird_wire::IsdAs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Every claim as `(id, caption, flags, run)`, in paper order; `flags`
/// are the flags the claim reads, the `flags` column of the table above.
type Claim = (&'static str, &'static str, &'static [&'static str], fn(&Args));
const CLAIMS: [Claim; 9] = [
    ("sec2", "§2: Hummingbird vs a Helia-style fixed-slot baseline", &[], sec2),
    ("table1", "Table 1: atomic buy-and-redeem gas per path length", &[], table1),
    ("table2", "Table 2: gas of every asset and market call", &[], table2),
    ("fig4", "Fig. 4: atomic buy-and-redeem latency per path length", &[], fig4),
    ("fig5", "Fig. 5: border-router forwarding throughput by engine", &FIG5_FLAGS, fig5),
    ("table3", "Table 3: per-step border-router timings", &["engine"], table3),
    ("table4", "Table 4: per-step source-generation timings", &[], table4),
    ("fig14", "Fig. 14: multi-core source generation throughput", &["cores", "pkts"], fig14),
    ("fig15", "Fig. 15: single-core source generation throughput", &[], fig15),
];
const FIG5_FLAGS: [&str; 5] = ["engine", "cores", "pkts", "sharded", "batch"];

fn main() {
    let args = Args::from_env();
    if args.present("help") {
        println!("usage: paper [--claim <id>]... [flags]; no --claim runs every claim\n");
        print!("{}", claim_list());
        return;
    }
    let mut claims = Vec::new();
    for id in &args.claims {
        let Some(claim) = CLAIMS.iter().find(|(known, ..)| known == id) else {
            eprint!("unknown claim '{id}'; expected one of:\n{}", claim_list());
            std::process::exit(2);
        };
        claims.push(claim);
    }
    if claims.is_empty() {
        claims = CLAIMS.iter().collect();
    }
    let mut read: Vec<&str> = claims.iter().flat_map(|(_, _, flags, _)| *flags).copied().collect();
    read.sort_unstable();
    read.dedup();
    args.reject_unread(&read);
    for (i, (_, _, _, run)) in claims.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        run(&args);
    }
}

/// One line per claim of `CLAIMS`: its id, caption and the flags it
/// reads.
fn claim_list() -> String {
    let mut list = String::new();
    for (id, caption, flags, _) in CLAIMS {
        let flags: Vec<String> = flags.iter().map(|flag| format!("--{flag}")).collect();
        let line = format!("  {id:<7} {caption:<55} {}", flags.join(" "));
        list += line.trim_end();
        list.push('\n');
    }
    list
}

/// §2: Hummingbird against a Helia-style fixed-slot baseline on the
/// dimensions the paper claims — paid vs wanted bandwidth-time,
/// ahead-of-time reservations, who chooses the bandwidth, and atomic
/// path acquisition. The per-packet cost of every engine is `fig5
/// --engine all`'s single-core line.
fn sec2(_: &Args) {
    println!("§2: Hummingbird vs a Helia-style fixed-slot baseline\n");
    let now = EPOCH_S;

    println!("-- 1. reservation flexibility: paid vs wanted bandwidth-time --");
    println!("{:<28} {:>12} {:>12} {:>10}", "scenario", "wanted [s]", "paid [s]", "overhead");
    for (label, start, end) in [
        ("10 s trade burst", now + 8, now + 18),
        ("90 s VoIP call", now + 5, now + 95),
        ("47 min video call", now, now + 47 * 60),
    ] {
        let (want, helia_paid) = helia_slot_coverage(start, end);
        let (_, hb_paid) = hummingbird_coverage(start, end, 1);
        let overhead = |paid: u64| (paid as f64 / want as f64 - 1.0) * 100.0;
        println!(
            "{label:<28} {want:>12} {helia_paid:>12} {:>9.0}%   (Helia, {SLOT_SECS}s slots)",
            overhead(helia_paid)
        );
        println!(
            "{:<28} {want:>12} {hb_paid:>12} {:>9.0}%   (Hummingbird, 1s granularity)",
            "",
            overhead(hb_paid)
        );
    }

    println!("\n-- 2. ahead-of-time reservations --");
    let mut helia = HeliaService::new(IsdAs::new(1, 1), [1u8; 16], 100_000, 100);
    let refused = helia.request(IsdAs::new(2, 2), now, slot_of(now + 86_400));
    println!("Helia: reserving for tomorrow fails: {}", refused.expect_err("a future slot"));
    let mut world = World::build(WorldConfig { n_ases: 1, ..Default::default() }).expect("world");
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 + 86_400, t0 + 86_400 + 3600, 60, 100).expect("stock");
    let mut client = world.new_client("planner", 10_000);
    let spec = PurchaseSpec { start: t0 + 86_400, end: t0 + 86_400 + 600, bandwidth_kbps: 4_000 };
    let grants = world.acquire_path(&mut client, spec).expect("tomorrow's reservation");
    println!(
        "Hummingbird: bought + redeemed tomorrow's reservation today (start in {} h), key in hand",
        (grants[0].res_info.res_start as u64 - t0) / 3600
    );

    println!("\n-- 3. who chooses the bandwidth --");
    let mut helia = HeliaService::new(IsdAs::new(1, 1), [1u8; 16], 100_000, 100);
    let g1 = helia.request(IsdAs::new(2, 1), now, slot_of(now)).expect("current slot");
    let g2 = helia.request(IsdAs::new(2, 2), now, slot_of(now)).expect("current slot");
    println!(
        "Helia: source 1 was handed {} kbps, then demand halved it to {} kbps for source 2 — \
         neither asked for a rate",
        g1.bandwidth_kbps, g2.bandwidth_kbps
    );
    println!(
        "Hummingbird: the client above requested exactly 4000 kbps and was granted class {}",
        grants[0].res_info.bw_encoded
    );

    println!("\n-- 4. atomic path acquisition --");
    println!("Helia: each hop requested independently; a failure on hop k strands k-1 grants");
    println!("       (and their cost) with no rollback — the paper's partial-failure problem.");
    let mut world = World::build(WorldConfig { n_ases: 3, ..Default::default() }).expect("world");
    let t0 = world.cfg.start_unix_s;
    // Stock only a bandwidth that hop purchases can't satisfy: whole-path
    // failure must move nothing.
    world.stock_market(1_000, t0 - 60, t0 + 3540, 60, 100).expect("stock");
    let mut client = world.new_client("atomic", 10_000);
    let before = world.control.ledger.balance(client.account);
    let bad = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 4_000 };
    assert!(world.acquire_path(&mut client, bad).is_err());
    assert_eq!(world.control.ledger.balance(client.account), before);
    println!("Hummingbird: 3-hop purchase failed atomically; client balance unchanged.");

    println!("\npaper (§2): Hummingbird = Helia's per-hop flyovers");
    println!("+ negotiable size/start/duration + ahead-of-time setup + end-host keys");
    println!("+ tradable assets + atomic paths − DRKey − gateways − fixed slots.");
}

/// Table 1: gas and dollar cost of atomically buying and redeeming a full
/// path, for 1-16 hops, with the paper's worst-case split on every asset
/// (two time splits + one bandwidth split).
fn table1(_: &Args) {
    println!("Table 1: atomic buy-and-redeem cost per path length");
    println!("(worst-case split per asset: 2x time, 1x bandwidth; reference prices:");
    println!(" 7.5e-7 SUI/unit computation, 7.6e-6 SUI/byte storage, 1.221 USD/SUI)\n");
    let widths = [5, 13, 11, 11, 9, 9];
    println!("{}", row(&["Hops", "Computation", "Storage", "Rebate", "SUI", "USD"], &widths));

    for hops in [1usize, 2, 4, 8, 16] {
        // Large parent assets so the purchase needs the full worst-case
        // split: buy an interior window with partial bandwidth.
        let (mut world, mut client, hop_list) =
            stocked_path(WorldConfig { n_ases: hops, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(1);
        let rx = client
            .buy_and_redeem_path(&mut world.control, world.market, &hop_list, &mut rng)
            .expect("atomic purchase");
        let g = rx.gas;
        println!(
            "{}",
            row(
                &[
                    format!("{hops}"),
                    format!("{:.5}", g.computation_cost as f64 / 1e9),
                    format!("{:.4}", g.storage_cost as f64 / 1e9),
                    format!("{:.4}", g.storage_rebate as f64 / 1e9),
                    format!("{:.4}", g.total_sui()),
                    format!("{:.4}", g.total_usd(&world.control.ledger.gas)),
                ],
                &widths
            )
        );
    }
    println!("\npaper (Table 1): 1 hop 0.031 SUI/0.038 USD ... 16 hops 0.49 SUI/0.60 USD,");
    println!(
        "computation buckets 0.00075 SUI (1-4 hops), 0.0015 (8), 0.0030 (16); linear in hops."
    );
}

/// A world whose market lists one large asset pair per hop, a funded
/// client, and the listings a 10-minute, 4 Mbps purchase over every hop
/// buys: Table 1's and Fig. 4's path.
fn stocked_path(cfg: WorldConfig) -> (World, Client, Vec<(ObjectId, ObjectId, PurchaseSpec)>) {
    let hops = cfg.n_ases;
    let mut world = World::build(cfg).expect("world");
    let t0 = world.cfg.start_unix_s;
    world.stock_market(100_000, t0 - 3600, t0 + 36_000, 60, 100).expect("stock");
    let client = world.new_client("bench", 100_000);
    let spec = PurchaseSpec { start: t0, end: t0 + 600, bandwidth_kbps: 4_000 };
    let all_hops: Vec<usize> = (0..hops).collect();
    let hop_list = world.hop_listings(spec, &all_hops).expect("listing");
    (world, client, hop_list)
}

/// Table 2: gas cost of every individual asset- and market-contract call.
fn table2(_: &Args) {
    const HOUR: u64 = 3600;
    let widths = [22usize, 12, 9, 9, 9, 9];
    println!("Table 2: per-call gas cost (negative totals = net credit from rebates)\n");
    println!(
        "{}",
        row(&["Contract call", "Computation", "Storage", "Rebate", "SUI", "USD"], &widths)
    );

    let mut world = World::build(WorldConfig { n_ases: 1, ..Default::default() }).expect("world");
    let usd = world.control.ledger.gas.usd_per_sui_micros as f64 / 1e6;
    let print_row = |name: &str, g: &GasSummary| {
        println!(
            "{}",
            row(
                &[
                    name.to_string(),
                    format!("{:.5}", g.computation_cost as f64 / 1e9),
                    format!("{:.4}", g.storage_cost as f64 / 1e9),
                    format!("{:.4}", g.storage_rebate as f64 / 1e9),
                    format!("{:+.4}", g.total_sui()),
                    format!("{:+.4}", g.total_sui() * usd),
                ],
                &widths
            )
        );
    };
    let t0 = world.cfg.start_unix_s;
    let account = world.services[0].account;
    let as_id = World::as_id(0);
    let mut rng = StdRng::seed_from_u64(2);

    println!("-- asset functions --");
    let template = |interface: u16, dir: Direction| BandwidthAsset {
        as_id,
        bandwidth_kbps: 100_000,
        start_time: t0,
        expiry_time: t0 + 10 * HOUR,
        interface,
        direction: dir,
        time_granularity: 60,
        min_bandwidth_kbps: 100,
    };
    let rx =
        world.services[0].issue_asset(&mut world.control, template(0, Direction::Ingress)).unwrap();
    print_row("issue", &rx.gas);
    let asset = rx.value;

    let rx = world.control.split_time(account, asset, t0 + 2 * HOUR).unwrap();
    print_row("split_time", &rx.gas);
    let (head, tail) = rx.value;

    let rx = world.control.split_bandwidth(account, head, 40_000).unwrap();
    print_row("split_bandwidth", &rx.gas);
    let (left, right) = rx.value;

    let rx = world.control.fuse_bandwidth(account, left, right).unwrap();
    print_row("fuse_bandwidth", &rx.gas);
    let fused = rx.value;

    let rx = world.control.fuse_time(account, fused, tail).unwrap();
    print_row("fuse_time", &rx.gas);
    let ingress_asset = rx.value;

    // Redeem needs a matching egress asset.
    let egress_asset = world.services[0]
        .issue_asset(&mut world.control, template(0, Direction::Egress))
        .unwrap()
        .value;
    let eph = hummingbird_crypto::sig::SecretKey::generate(&mut rng);
    let rx = world.control.redeem(account, ingress_asset, egress_asset, eph.public()).unwrap();
    print_row("redeem", &rx.gas);
    let request = rx.value;

    let pending = world.control.pending_requests(account);
    let delivery = EncryptedReservation {
        as_id,
        request,
        sealed: hummingbird_crypto::sealed::seal(&pending[0].1.ephemeral_pk, &[0u8; 48], &mut rng),
    };
    let rx = world.control.deliver_reservation(account, request, delivery).unwrap();
    print_row("deliver_reservation", &rx.gas);

    println!("-- market functions --");
    let rx = world.control.create_marketplace(account).unwrap();
    print_row("create_marketplace", &rx.gas);
    let market = rx.value;

    let rx = world.control.register_seller(account, market).unwrap();
    print_row("register_seller", &rx.gas);

    // Four buy variants against four fresh listings.
    let variants: [(&str, PurchaseSpec); 4] = [
        ("buy (full)", PurchaseSpec { start: t0, end: t0 + 10 * HOUR, bandwidth_kbps: 100_000 }),
        ("buy (split bw)", PurchaseSpec { start: t0, end: t0 + 10 * HOUR, bandwidth_kbps: 40_000 }),
        (
            "buy (split time)",
            PurchaseSpec { start: t0 + HOUR, end: t0 + 2 * HOUR, bandwidth_kbps: 100_000 },
        ),
        (
            "buy (split both)",
            PurchaseSpec { start: t0 + HOUR, end: t0 + 2 * HOUR, bandwidth_kbps: 40_000 },
        ),
    ];
    for (i, (name, spec)) in variants.into_iter().enumerate() {
        let asset = world.services[0]
            .issue_asset(&mut world.control, template(1, Direction::Ingress))
            .unwrap()
            .value;
        let rx = world.control.create_listing(account, market, asset, 1).unwrap();
        if i == 0 {
            print_row("create_listing", &rx.gas);
        }
        let listing = rx.value;
        let mut buyer = world.new_client(&format!("buyer-{name}"), 100_000);
        let rx = buyer.buy(&mut world.control, market, listing, spec).unwrap();
        print_row(name, &rx.gas);
    }

    println!("\npaper (Table 2): issue 0.0029 SUI, splits 0.0029, fuses -0.0013,");
    println!("redeem 0.00012, deliver -0.0027, create_listing 0.0050,");
    println!("buy full/-0.0023, split bw 0.0039, split time 0.010, split both 0.016.");
}

/// Figure 4: end-to-end latency of an atomic buy-and-redeem for different
/// path lengths, 100 runs each.
///
/// The purchase transaction goes through consensus (shared marketplace);
/// the per-AS reservation deliveries ride the fast path in parallel. Each
/// run executes the real transactions against the ledger and samples the
/// calibrated Sui-testnet latency model for the network component.
fn fig4(_: &Args) {
    const RUNS: usize = 100;
    println!("Figure 4: atomic buy-and-redeem latency (request=consensus, responses=fast path)");
    println!("{RUNS} runs per path length; milliseconds\n");
    let widths = [5usize, 8, 8, 8, 8, 8];
    println!("{}", row(&["Hops", "p5", "median", "p83", "p95", "mean"], &widths));

    let model = LatencyModel::default();
    let mut lat_rng = StdRng::seed_from_u64(4);
    let mut pooled: Vec<f64> = Vec::new();

    for hops in [1usize, 2, 4, 8, 16] {
        let mut samples = Vec::with_capacity(RUNS);
        for run in 0..RUNS {
            let cfg = WorldConfig { n_ases: hops, seed: run as u64, ..Default::default() };
            let (mut world, mut client, hop_list) = stocked_path(cfg);
            let mut rng = StdRng::seed_from_u64(run as u64);
            // Request: the real purchase transaction (consensus).
            let rx = client
                .buy_and_redeem_path(&mut world.control, world.market, &hop_list, &mut rng)
                .expect("purchase");
            assert_eq!(rx.path, ExecPath::Consensus);
            let request_ms = model.sample(ExecPath::Consensus, &mut lat_rng);
            // Responses: the real per-AS deliveries (fast path), measured
            // until the last one lands.
            for service in world.services.iter_mut() {
                let rxs = service.process_requests(&mut world.control, &mut rng).expect("deliver");
                assert_eq!(rxs.len(), 1);
            }
            client.collect_deliveries(&world.control).expect("collect");
            let response_ms = model.sample_parallel_fast(hops, &mut lat_rng);
            samples.push(request_ms + response_ms);
        }
        pooled.extend(samples.iter().copied());
        let s = Summary::of(samples);
        println!(
            "{}",
            row(
                &[
                    format!("{hops}"),
                    format!("{:.0}", s.p5),
                    format!("{:.0}", s.p50),
                    format!("{:.0}", s.p83),
                    format!("{:.0}", s.p95),
                    format!("{:.0}", s.mean),
                ],
                &widths
            )
        );
    }
    let below_3s = pooled.iter().filter(|&&p| p < 3000.0).count() as f64 / pooled.len() as f64;
    println!("\npaper (Fig. 4): total < 3 s in 83% of measurements, largely independent of hops.");
    println!("measured: total < 3 s in {:.0}% of all measurements.", below_3s * 100.0);
}

/// Figure 5 (see the module doc): forwarding throughput per engine,
/// payload and core count, optionally next to the sharded runtime.
fn fig5(args: &Args) {
    let engines = args.engines(&[EngineKind::Hummingbird, EngineKind::Scion]);
    let cores_list = args.cores(&[1usize, 2, 4, 8, 16, 32]);
    let payloads = [100usize, 500, 1000, 1500];
    let pkts_per_core = args.u64("pkts", 200_000);
    let sharded = args.present("sharded");
    let batch = args.batch(BATCH_SIZE);
    let physical = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let backend = hummingbird_crypto::active_backend().name();
    println!(
        "Figure 5: forwarding throughput [Gbps] by Datapath engine, line rate {LINE_RATE_GBPS}"
    );
    println!("(machine has {physical} hardware threads; rows beyond that oversubscribe)");
    println!("(AES backend: {backend}; batch: {batch})\n");

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
                cells.push(measured(&t, format!("{:.2}", t.gbps_line_capped())));
            }
            println!("{}", row(&cells, &widths));
        }
        // Per-packet cost at one core (comparable to Table 3's totals).
        let t = clone_run(&fx, kind, fx.engine_packet(kind, 500), 1, pkts_per_core);
        println!("single-core per-packet cost: {:.0} ns\n", t.ns_per_pkt(1));

        if sharded {
            sharded_comparison(&fx, kind, &cores_list, pkts_per_core, batch);
        }
    }
    println!();
    if sharded {
        println!("(sharded = one logical router: producer-side RSS into per-shard rx queues,");
        println!(" every ResID policed by exactly one shard; clone = independent engine per");
        println!(" core. With fewer hardware threads than cores the runtime falls back to a");
        println!(" dedicated-core critical-path estimate, marked `sequential` in the exec");
        println!(" column — the speedup then reports what dedicated cores would sustain, not");
        println!(" concurrent wall clock.)\n");
    }
    println!("paper (Fig. 5): line rate at 4 cores/1500 B and 32 cores/100 B;");
    println!("123 ns per SCION packet, 308 ns per Hummingbird packet (AES-NI).");
}

/// `cell`, a measurement of the run `t`; `—` when that run processed no
/// packet, so an empty point never reads as a real 0.
fn measured(t: &Throughput, cell: String) -> String {
    if t.packets == 0 {
        "—".to_string()
    } else {
        cell
    }
}

/// Clone vs sharded runtime on the same 64-flow, 500 B workload, plus
/// the sharded core-scaling curve (speedup vs its first non-empty
/// point).
fn sharded_comparison(
    fx: &DataplaneFixture,
    kind: EngineKind,
    cores_list: &[usize],
    pkts_per_core: u64,
    batch: usize,
) {
    let templates = fx.flow_packets(kind, 500, 64);
    let widths = [6usize, 12, 12, 10, 10, 11];
    println!("{}", row(&["cores", "clone", "sharded", "ratio", "scale", "exec"], &widths));
    // The curve's first non-empty mpps, which its speedups are relative to.
    let mut rss_mpps0 = None;
    for &cores in cores_list {
        let total = pkts_per_core / cores.max(1) as u64 * 4 * cores as u64;
        let mut cfg = RuntimeConfig::new(cores);
        cfg.batch_size = batch;
        // Real threads when the host has the cores, dedicated-core
        // critical-path estimate when it doesn't.
        cfg.exec = ExecMode::Auto;
        cfg.steering = kind.steering();
        let [clone, rss] = [RuntimeMode::PerCoreClone, RuntimeMode::Sharded]
            .map(|mode| Throughput::from(&checked_run(&cfg, mode, fx, kind, &templates, total)));
        let ratio = if clone.gbps() > 0.0 { rss.gbps() / clone.gbps() } else { 0.0 };
        let speedup = (rss.packets > 0).then(|| rss.mpps() / *rss_mpps0.get_or_insert(rss.mpps()));
        let exec = if cfg.exec.is_concurrent(cores) { "threaded" } else { "sequential" };
        println!(
            "{}",
            row(
                &[
                    format!("{cores}"),
                    measured(&clone, format!("{:.2}", clone.gbps_line_capped())),
                    measured(&rss, format!("{:.2}", rss.gbps_line_capped())),
                    measured(&rss, format!("{ratio:.2}x")),
                    speedup.map_or("—".to_string(), |x| format!("{x:.2}x")),
                    exec.to_string(),
                ],
                &widths
            )
        );
    }
    println!();
}

/// The mean wall-clock ns of one call of `f` over `iters` calls, after
/// `iters / 10` warm-up calls.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Table 3: fine-grained packet validation and forwarding timings at the
/// border router.
///
/// Measures each pipeline step in isolation (same decomposition as the
/// paper's Table 3) plus the end-to-end `process` call per `--engine`.
/// The shape to check is which steps dominate (the crypto: hop-field
/// MAC, A_i derivation + AES extension, flyover MAC).
fn table3(args: &Args) {
    const ITERS: u64 = 300_000;
    let backend = hummingbird_crypto::active_backend().name();
    println!(
        "Table 3: per-step border-router timings (AES backend: {backend}; {ITERS} iters/step)\n"
    );
    let widths = [46usize, 10];
    println!("{}", row(&["Task", "Time [ns]"], &widths));

    let fx = DataplaneFixture::new(4);
    let pkt = fx.packet(500, true);
    let (sv, hop_key) = fx.hop0_keys();
    let res_info = ResInfo {
        ingress: 0,
        egress: 1,
        res_id: 1,
        bw_encoded: 1000,
        res_start: EPOCH_S as u32 - 50,
        duration: 36_000,
    };
    let auth_key = sv.derive_key(&res_info);
    let mac_input = FlyoverMacInput {
        dst_isd: 2,
        dst_as: 0x20,
        pkt_len: 600,
        res_start_offset: 50,
        millis_ts: 0,
        counter: 0,
    };
    let hop_input = HopMacInput {
        seg_id: 0x7777,
        timestamp: EPOCH_S as u32 - 100,
        exp_time: 63,
        cons_ingress: 0,
        cons_egress: 1,
    };
    let mut results: Vec<(&str, f64)> = Vec::new();

    results.push((
        "Check packet size",
        time_ns(ITERS, || {
            black_box(black_box(&pkt).len() >= 48);
        }),
    ));
    results.push((
        "Parse packet headers (common+addr+meta)",
        time_ns(ITERS, || {
            let c = CommonHeader::parse(black_box(&pkt)).unwrap();
            let a = AddressHeader::parse(&pkt[COMMON_HDR_LEN..]).unwrap();
            let m = PathMetaHdr::parse(&pkt[36..]).unwrap();
            black_box((c, a, m));
        }),
    ));
    results.push((
        "Check whether hop field is expired",
        time_ns(ITERS, || {
            black_box(
                hummingbird_dataplane::beacon::hop_field_expiry(
                    black_box(EPOCH_S as u32 - 100),
                    63,
                ) > EPOCH_S,
            );
        }),
    ));
    results.push((
        "Recompute SCION hop field MAC",
        time_ns(ITERS, || {
            black_box(hop_key.hop_mac(black_box(&hop_input)));
        }),
    ));
    results.push((
        "Update segment identifier (SegID)",
        time_ns(ITERS, || {
            black_box(update_seg_id(black_box(0x7777), black_box(&[1, 2, 3, 4, 5, 6])));
        }),
    ));
    results.push((
        "Compute authentication key (A_i)",
        time_ns(ITERS, || {
            black_box(sv.derive_key_bytes(black_box(&res_info)));
        }),
    ));
    results.push((
        "AES-extend authentication key (A_i)",
        time_ns(ITERS, || {
            black_box(AuthKey::new(black_box([7u8; 16])));
        }),
    ));
    results.push((
        "Recompute flyover MAC",
        time_ns(ITERS, || {
            black_box(auth_key.flyover_mac(black_box(&mac_input)));
        }),
    ));
    results.push((
        "Compute aggregate MAC (XOR)",
        time_ns(ITERS, || {
            black_box(aggregate_mac(
                black_box(&[1, 2, 3, 4, 5, 6]),
                black_box(&[9, 9, 9, 9, 9, 9]),
            ));
        }),
    ));
    let mut policer = Policer::paper_default();
    let mut t = EPOCH_NS;
    results.push((
        "Check for overuse (Algorithm 1)",
        time_ns(ITERS, || {
            t += 1000;
            let _ = black_box(policer.check(black_box(1), 1_000_000, 600, t)) == FwdClass::Flyover;
        }),
    ));

    for (name, ns) in &results {
        println!("{}", row(&[name.to_string(), format!("{ns:.0}")], &widths));
    }

    // End-to-end pipeline cost per engine (the Table 3 totals), measured
    // exclusively through the Datapath trait.
    let engines = args.engines(&[EngineKind::Scion, EngineKind::Hummingbird]);
    let mut totals = Vec::new();
    for kind in engines {
        let mut engine = fx.engine(kind);
        let mut hot = PacketBuf::new(fx.engine_packet(kind, 500));
        let total = time_ns(ITERS, || {
            black_box(engine.process(hot.bytes_mut(), EPOCH_NS));
            hot.reset();
        });
        println!(
            "{}",
            row(&[format!("— total: {} pipeline", kind.name()), format!("{total:.0}")], &widths)
        );
        totals.push((kind, total));
    }
    let find = |k: EngineKind| totals.iter().find(|(kind, _)| *kind == k).map(|(_, t)| *t);
    if find(EngineKind::Hummingbird).is_some() {
        // The optional §5.4 duplicate filter: the same pipeline with the
        // stage on, over packets that are each new to it.
        let (sv, hop_key) = fx.hop0_keys();
        let cfg = RouterConfig { duplicate_suppression: true, ..RouterConfig::default() };
        let mut router = BorderRouter::new(sv.clone(), hop_key.clone(), cfg);
        let total = distinct_packets_ns(&mut router, &mut fx.generator(true), ITERS);
        assert_eq!(router.stats().dropped, 0, "the filter dropped a packet that was no replay");
        println!(
            "{}",
            row(
                &["— total: hummingbird pipeline, dup filter on".into(), format!("{total:.0}")],
                &widths
            )
        );
    }
    if let (Some(hb), Some(scion)) = (find(EngineKind::Hummingbird), find(EngineKind::Scion)) {
        println!(
            "\nHummingbird/SCION per-packet cost ratio: {:.2}x (paper: 308/123 = 2.5x)",
            hb / scion
        );
    }
    println!("paper totals: 123 ns SCION, +185 ns Hummingbird overhead (AES-NI hardware).");
}

/// The mean ns of one `engine.process` over `n` distinct packets from
/// `generator`, each processed once at its own send time. Packets are
/// generated, untimed, in bursts of 1 024 that stay in cache; the first
/// burst is the warm-up. No identity repeats, so a duplicate filter
/// inserts every packet and drops none.
fn distinct_packets_ns(engine: &mut dyn Datapath, generator: &mut SourceGenerator, n: u64) -> f64 {
    const BURST: u64 = 1024;
    let payload = [0u8; 500];
    let mut burst = vec![Vec::new(); BURST as usize];
    let mut timed = (0u64, 0u128);
    for first in (0..n + BURST).step_by(BURST as usize) {
        for (i, pkt) in (first..).zip(&mut burst) {
            generator.generate_into(&payload, EPOCH_MS + i / 1000, pkt).expect("generation");
        }
        let start = Instant::now();
        for (i, pkt) in (first..).zip(&mut burst) {
            black_box(engine.process(pkt, EPOCH_NS + i / 1000 * 1_000_000));
        }
        if first > 0 {
            timed = (timed.0 + BURST, timed.1 + start.elapsed().as_nanos());
        }
    }
    timed.1 as f64 / timed.0 as f64
}

/// Table 4: fine-grained packet-generation timings at the source for a
/// four-hop path (the additional Hummingbird operations highlighted).
fn table4(_: &Args) {
    const ITERS: u64 = 200_000;
    println!("Table 4: per-step source-generation timings, 4 AS-level hops\n");
    let widths = [46usize, 12];
    println!("{}", row(&["Task", "Time [ns]"], &widths));

    let fx = DataplaneFixture::new(4);
    let payload_500 = vec![0u8; 500];
    let payload_1500 = vec![0u8; 1500];
    // One generator's cost per packet at `payload`, on a millisecond
    // clock slow enough that the per-ms counter provides uniqueness.
    let generate_ns = |generator: &mut SourceGenerator, payload: &[u8]| {
        let mut i = 0u64;
        time_ns(ITERS, || {
            i += 1;
            black_box(generator.generate(payload, EPOCH_MS + i / 1000).unwrap());
        })
    };

    // Header assembly without any reservation work (SCION baseline).
    let scion_500 = generate_ns(&mut fx.generator(false), &payload_500);
    println!(
        "{}",
        row(
            &["Add SCION headers + hop fields + 500 B payload".into(), format!("{scion_500:.0}")],
            &widths
        )
    );

    // The four flyover MACs in isolation.
    let key = AuthKey::new([9u8; 16]);
    let input = FlyoverMacInput {
        dst_isd: 2,
        dst_as: 0x20,
        pkt_len: 600,
        res_start_offset: 50,
        millis_ts: 1,
        counter: 2,
    };
    let one_mac = time_ns(ITERS, || {
        black_box(key.flyover_mac(black_box(&input)));
    });
    println!(
        "{}",
        row(
            &["Compute flyover MACs (4 on-path ASes)".into(), format!("{:.0}", 4.0 * one_mac)],
            &widths
        )
    );

    // Full Hummingbird generation at two payload sizes.
    let mut hb_gen = fx.generator(true);
    let hb_500 = generate_ns(&mut hb_gen, &payload_500);
    let hb_1500 = generate_ns(&mut hb_gen, &payload_1500);
    println!("{}", row(&["Total SCION, 500 B payload".into(), format!("{scion_500:.0}")], &widths));
    println!(
        "{}",
        row(&["Total Hummingbird, 500 B payload".into(), format!("{hb_500:.0}")], &widths)
    );
    println!(
        "{}",
        row(&["Total Hummingbird, 1500 B payload".into(), format!("{hb_1500:.0}")], &widths)
    );
    println!(
        "\nHummingbird/SCION generation cost ratio: {:.2}x (paper: 494/293 = 1.69x)",
        hb_500 / scion_500
    );
    println!("paper totals (4 hops): SCION 293 ns, Hummingbird 494 ns (500 B), 519 ns (1500 B);");
    println!("flyover MACs 201 ns of the difference.");
}

/// Source traffic-generation throughput: `cores` threads each generate
/// `pkts_per_core` packets with their own generator.
fn generation_throughput<F>(
    make_generator: F,
    payload_len: usize,
    cores: usize,
    pkts_per_core: u64,
) -> Throughput
where
    F: Fn() -> SourceGenerator + Sync,
{
    let payload = vec![0u8; payload_len];
    let bits = std::sync::atomic::AtomicU64::new(0);
    let seconds = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cores);
        for _ in 0..cores {
            let make_generator = &make_generator;
            let payload = &payload;
            let bits = &bits;
            handles.push(s.spawn(move || {
                let mut generator = make_generator();
                let mut local_bits = 0u64;
                let start = Instant::now();
                for i in 0..pkts_per_core {
                    // Advance the millisecond clock slowly so the per-ms
                    // counter provides uniqueness.
                    let now_ms = EPOCH_MS + i / 1000;
                    let pkt = generator.generate(payload, now_ms).expect("generation failed");
                    local_bits += pkt.len() as u64 * 8;
                    black_box(&pkt);
                }
                bits.fetch_add(local_bits, std::sync::atomic::Ordering::Relaxed);
                start.elapsed().as_secs_f64()
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).fold(0.0f64, f64::max)
    });
    Throughput { packets: pkts_per_core * cores as u64, bits: bits.into_inner(), seconds }
}

/// Figure 14: multi-core traffic-generation throughput at the source for
/// 500 B payloads, as a function of core count and number of AS hops,
/// Hummingbird vs SCION best-effort.
fn fig14(args: &Args) {
    let cores_list = args.cores(&[1usize, 2, 4, 8, 16, 32]);
    let hop_counts = [1usize, 2, 4, 8, 16];
    let payload = 500usize;
    let pkts = args.u64("pkts", 100_000);
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
                let per_core = pkts / cores.max(1) as u64 * 2;
                let t = generation_throughput(|| fx.generator(flyover), payload, cores, per_core);
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

/// Figure 15: single-core packet-generation throughput at the source for
/// different payload sizes and hop counts, Hummingbird vs SCION.
///
/// The paper's reference points (single core): at 1 kB payload and 4 hops,
/// Hummingbird 17.90 Gbps vs SCION 28.64 Gbps; at 100 B, 4.65 vs 7.70.
/// The shape: throughput grows with payload (fixed per-packet cost) and
/// falls with hop count; SCION ≈ 1.6x Hummingbird.
fn fig15(_: &Args) {
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
                let t = generation_throughput(|| fx.generator(flyover), payload, 1, pkts);
                cells.push(format!("{:.2}", t.gbps()));
            }
            println!("{}", row(&cells, &widths));
        }
        println!();
    }
    // The paper's headline comparison point.
    let fx = DataplaneFixture::new(4);
    let hb = generation_throughput(|| fx.generator(true), 1000, 1, pkts);
    let sc = generation_throughput(|| fx.generator(false), 1000, 1, pkts);
    println!(
        "1 kB / 4 hops: Hummingbird {:.2} Gbps vs SCION {:.2} Gbps (ratio {:.2}; paper: 17.90 vs 28.64 = 1.60)",
        hb.gbps(),
        sc.gbps(),
        sc.gbps() / hb.gbps()
    );
}
