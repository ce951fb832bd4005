//! The paper's §2 comparison, made executable: Hummingbird vs a
//! Helia-style fixed-slot baseline on the dimensions the paper claims.
//!
//! 1. Reservation flexibility: bandwidth-time paid vs actually wanted.
//! 2. Ahead-of-time reservations: possible at all?
//! 3. Bandwidth choice: can the source pick its rate?
//! 4. Atomic path acquisition: partial-failure cost.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin baseline_comparison`

use hummingbird::testbed::{Testbed, TestbedConfig};
use hummingbird::PurchaseSpec;
use hummingbird_baselines::helia::flexibility::{helia_slot_coverage, hummingbird_coverage};
use hummingbird_baselines::{slot_of, HeliaService, SLOT_SECS};
use hummingbird_bench::{clone_run, DataplaneFixture, EngineKind};
use hummingbird_wire::IsdAs;

fn main() {
    println!("== Hummingbird vs Helia-style baseline (paper §2) ==\n");
    let now = 1_700_000_000u64;

    // ------------------------------------------------------------------
    println!("-- 1. reservation flexibility: paid vs wanted bandwidth-time --");
    println!("{:<28} {:>12} {:>12} {:>10}", "scenario", "wanted [s]", "paid [s]", "overhead");
    for (label, start, end) in [
        ("10 s trade burst", now + 8, now + 18),
        ("90 s VoIP call", now + 5, now + 95),
        ("47 min video call", now, now + 47 * 60),
    ] {
        let (want, helia_paid) = helia_slot_coverage(start, end);
        let (_, hb_paid) = hummingbird_coverage(start, end, 1);
        println!(
            "{:<28} {:>12} {:>12} {:>9.0}%   (Helia, {SLOT_SECS}s slots)",
            label,
            want,
            helia_paid,
            (helia_paid as f64 / want as f64 - 1.0) * 100.0
        );
        println!(
            "{:<28} {:>12} {:>12} {:>9.0}%   (Hummingbird, 1s granularity)",
            "",
            want,
            hb_paid,
            (hb_paid as f64 / want as f64 - 1.0) * 100.0
        );
    }

    // ------------------------------------------------------------------
    println!("\n-- 2. ahead-of-time reservations --");
    let mut helia = HeliaService::new(IsdAs::new(1, 1), [1u8; 16], 100_000, 100);
    let tomorrow_slot = slot_of(now + 86_400);
    match helia.request(IsdAs::new(2, 2), now, tomorrow_slot) {
        Err(e) => println!("Helia: reserving for tomorrow fails: {e}"),
        Ok(_) => unreachable!(),
    }
    let mut tb = Testbed::build(TestbedConfig { n_ases: 1, ..Default::default() }).unwrap();
    let t0 = tb.cfg.start_unix_s;
    tb.stock_market(100_000, t0 + 86_400, t0 + 86_400 + 3600, 60, 100).unwrap();
    let mut client = tb.new_client("planner", 10_000);
    let spec = PurchaseSpec { start: t0 + 86_400, end: t0 + 86_400 + 600, bandwidth_kbps: 4_000 };
    let grants = tb.acquire_path(&mut client, spec).unwrap();
    println!(
        "Hummingbird: bought + redeemed tomorrow's reservation today (start in {} h), key in hand",
        (grants[0].res_info.res_start as u64 - t0) / 3600
    );

    // ------------------------------------------------------------------
    println!("\n-- 3. who chooses the bandwidth --");
    let mut helia = HeliaService::new(IsdAs::new(1, 1), [1u8; 16], 100_000, 100);
    let g1 = helia.request(IsdAs::new(2, 1), now, slot_of(now)).unwrap();
    let g2 = helia.request(IsdAs::new(2, 2), now, slot_of(now)).unwrap();
    println!(
        "Helia: source 1 was handed {} kbps, then demand halved it to {} kbps for source 2 — \
         neither asked for a rate",
        g1.bandwidth_kbps, g2.bandwidth_kbps
    );
    println!(
        "Hummingbird: the client above requested exactly 4000 kbps and was granted class {}",
        grants[0].res_info.bw_encoded
    );

    // ------------------------------------------------------------------
    println!("\n-- 4. atomic path acquisition --");
    println!("Helia: each hop requested independently; a failure on hop k strands k-1 grants");
    println!("       (and their cost) with no rollback — the paper's partial-failure problem.");
    let mut tb = Testbed::build(TestbedConfig { n_ases: 3, ..Default::default() }).unwrap();
    let t0 = tb.cfg.start_unix_s;
    // Stock only a bandwidth that hop purchases can't satisfy: whole-path
    // failure must move nothing.
    tb.stock_market(1_000, t0 - 60, t0 + 3540, 60, 100).unwrap();
    let mut client = tb.new_client("atomic", 10_000);
    let before = tb.control.ledger.balance(client.account);
    let bad = PurchaseSpec { start: t0 - 60, end: t0 + 540, bandwidth_kbps: 4_000 };
    assert!(tb.acquire_path(&mut client, bad).is_err());
    assert_eq!(tb.control.ledger.balance(client.account), before);
    println!("Hummingbird: 3-hop purchase failed atomically; client balance unchanged.");

    // ------------------------------------------------------------------
    println!("\n-- 5. per-packet datapath cost, one interface through one `Datapath` trait --");
    let fx = DataplaneFixture::new(4);
    println!("{:<14} {:>14} {:>12}", "engine", "ns/pkt (1core)", "verdict class");
    for kind in EngineKind::ALL {
        let t = clone_run(&fx, kind, fx.engine_packet(kind, 500), 1, 50_000);
        let class = match kind.family() {
            Some(family) if family.has_priority_class() => "priority",
            Some(_) => "best effort",
            // The bench-only kinds: the gateway stamps its admitted
            // host onto a reservation, scion is plain traffic, null
            // validates nothing.
            None => match kind {
                EngineKind::Gateway => "priority",
                EngineKind::Null => "pass-through",
                _ => "best effort",
            },
        };
        println!("{:<14} {:>14.0} {:>12}", kind.name(), t.ns_per_pkt(1), class);
    }

    println!("\nsummary (paper §2): Hummingbird = Helia's per-hop flyovers");
    println!("+ negotiable size/start/duration + ahead-of-time setup + end-host keys");
    println!("+ tradable assets + atomic paths − DRKey − gateways − fixed slots.");
}
