//! Control-plane scale bench: admits, renews and auction-clears
//! reservations by the million, then verifies the run's conservation
//! invariants before writing `BENCH_control.json`.
//!
//! Three timed phases against one in-process [`ControlPlane`] ledger:
//!
//! 1. **admit** — every reservation goes through the full paper flow:
//!    the AS issues an ingress/egress asset pair, lists both on the
//!    marketplace, a client buys and redeems the path atomically, the AS
//!    batch-processes the redeem requests (steering-aware ResID
//!    assignment from the least-loaded shard of a data-plane
//!    [`ShardMap`]), and the client collects the sealed deliveries.
//!    Every 8th purchase carves a half-window slice out of a wider
//!    asset, so time-splits (and their remainders) are part of the run.
//!    Consumed delivery objects are swept for their storage rebate at
//!    the end of each wave, keeping the committed object store compact.
//! 2. **renew** — every reservation is renewed once through the O(1)
//!    fast path: each wave client posts its whole renewal portfolio in
//!    one batched request transaction, then the AS serves the wave in
//!    one batched `process_renewals` transaction. No market round-trip,
//!    no re-coloring, no public-key crypto. The timed section is the
//!    on-chain serving path; collection, key verification and delivery
//!    sweeping run off the clock (and cover *every* delivery).
//! 3. **clear** — a round of sealed-bid Vickrey auctions (commit →
//!    close → reveal) settled by the [`ClearingEngine`] in a single
//!    epoch-clearing transaction.
//!
//! Before writing the document the binary *verifies* (and exits nonzero
//! on any violation — this is the CI smoke leg's contract):
//!
//! * **bandwidth × time conservation** — Σ issued bandwidth×time equals
//!   the bandwidth×time still live in on-chain assets plus what redeem
//!   consumed, recomputed by scanning every committed object.
//! * **coin supply conservation** — minted MIST equals remaining supply
//!   plus net burned gas, to the MIST, and no MIST is stranded outside
//!   the known participant accounts (auction escrows must drain).
//! * **steering** — ResIDs land across data-plane shards with max/min
//!   skew ≤ 1.1, and the admitted count matches the shard loads.
//! * **renewal keys** — every renewal delivery unwraps with the
//!   client-side ratchet and matches the border router's independent
//!   `A_K` derivation; renewals never change ResID or hop set.
//!
//! Run with: `cargo run --release -p hummingbird-bench --bin
//! control_scale [-- --reservations <n>] [--shards <n>] [--auctions <n>]
//! [--wave <n>] [--seed <n>] [--json <path>]`

use hummingbird_bench::{
    flag_value, row, u64_from_args, write_control_json, ControlInvariants, ControlMeta,
    ControlPhase, ControlState,
};
use hummingbird_control::auction::{TAG_AUCTION, TAG_BID};
use hummingbird_control::pki::TrustAnchors;
use hummingbird_control::types::TAG_ASSET;
use hummingbird_control::{
    bid_commitment, AsService, BandwidthAsset, ClearingEngine, Client, ControlPlane, Direction,
    PurchaseSpec,
};
use hummingbird_crypto::sig::SecretKey;
use hummingbird_dataplane::runtime::{ShardMap, Steering};
use hummingbird_ledger::Address;
use hummingbird_wire::IsdAs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const HOUR: u64 = 3600;
/// Purchased bandwidth per reservation, kbps.
const BW_KBPS: u64 = 1000;
/// Renewal fee the client attaches, MIST.
const RENEW_FEE: u64 = 100;
/// Auction reserve price, MIST.
const RESERVE_PRICE: u64 = 500;
/// Bidders per auction.
const BIDDERS: usize = 4;

struct Phase {
    name: &'static str,
    ops: u64,
    txs: u64,
    wall_ms: f64,
}

impl Phase {
    fn record(&self) -> ControlPhase {
        ControlPhase {
            phase: self.name,
            ops: self.ops,
            txs: self.txs,
            wall_ms: self.wall_ms,
            ops_per_sec: self.ops as f64 / (self.wall_ms / 1000.0),
        }
    }
}

fn asset(dir: Direction, interface: u16, bw: u64, start: u64, end: u64) -> BandwidthAsset {
    BandwidthAsset {
        as_id: IsdAs::new(1, 0x1_0001),
        bandwidth_kbps: bw,
        start_time: start,
        expiry_time: end,
        interface,
        direction: dir,
        time_granularity: 60,
        min_bandwidth_kbps: 100,
    }
}

fn bwt(a: &BandwidthAsset) -> u128 {
    u128::from(a.bandwidth_kbps) * u128::from(a.expiry_time - a.start_time)
}

fn main() {
    let reservations = u64_from_args("reservations", 20_000);
    let shards = u64_from_args("shards", 8) as usize;
    let auctions = u64_from_args("auctions", 256);
    let wave = u64_from_args("wave", 10_000).max(1);
    let seed = u64_from_args("seed", 7);
    let json_path = flag_value("json").unwrap_or_else(|| "BENCH_control.json".to_string());

    let mut failures: Vec<String> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);

    // World: one registered AS aligned with a data-plane shard map, one
    // marketplace, one wave client per admission wave.
    let as_id = IsdAs::new(1, 0x1_0001);
    let cert_key = SecretKey::from_seed(&seed.to_be_bytes());
    let mut anchors = TrustAnchors::new();
    anchors.install(as_id, cert_key.public());
    let mut cp = ControlPlane::new(anchors);
    let res_id_cap = (reservations.max(1024).next_power_of_two() * 2) as u32;
    let mut service = AsService::new(as_id, cert_key, [7u8; 16], res_id_cap);
    let map = ShardMap::new(shards, res_id_cap, Steering::ByReservation);
    service.align_with_shard_map(&map);
    cp.faucet(service.account, 10_000_000);
    service.register(&mut cp, &mut rng).expect("AS registration");
    let market = cp.create_marketplace(service.account).expect("marketplace").value;
    cp.register_seller(service.account, market).expect("seller registration");

    let ingress_if = 1u16;
    let egress_if = 2u16;
    let mut issued_bwt: u128 = 0;
    let mut redeemed_bwt: u128 = 0;

    let aes_backend = hummingbird_crypto::active_backend().name();
    let sha_backend = hummingbird_crypto::sha256::active_backend();
    println!(
        "control_scale: {reservations} reservations, {shards} shards, \
         {auctions} auctions, wave {wave}, seed {seed}, aes {aes_backend}, sha256 {sha_backend}"
    );

    // ---- Phase 1: admit -------------------------------------------------
    let t0 = Instant::now();
    let txs_before = cp.ledger.tx_count();
    let mut clients: Vec<Client> = Vec::new();
    let mut admitted = 0u64;
    while admitted < reservations {
        let n = wave.min(reservations - admitted);
        let label = format!("client-{}", clients.len());
        let mut client = Client::new(Address::from_label(&label));
        cp.faucet(client.account, 100_000);
        for i in 0..n {
            // Every 8th purchase slices half a 2-hour asset (time split
            // + live remainder); the rest consume their listing exactly.
            let wide = (admitted + i).is_multiple_of(8);
            let end = if wide { 2 * HOUR } else { HOUR };
            let a_in = asset(Direction::Ingress, ingress_if, BW_KBPS, 0, end);
            let a_eg = asset(Direction::Egress, egress_if, BW_KBPS, 0, end);
            issued_bwt += bwt(&a_in) + bwt(&a_eg);
            let ing = service.issue_asset(&mut cp, a_in).expect("issue ingress").value;
            let eg = service.issue_asset(&mut cp, a_eg).expect("issue egress").value;
            let l_in = cp.create_listing(service.account, market, ing, 1).expect("list").value;
            let l_eg = cp.create_listing(service.account, market, eg, 1).expect("list").value;
            let spec = PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: BW_KBPS };
            client
                .buy_and_redeem_path(&mut cp, market, &[(l_in, l_eg, spec)], &mut rng)
                .expect("buy and redeem");
            redeemed_bwt += 2 * u128::from(BW_KBPS) * u128::from(HOUR);
        }
        service.process_requests(&mut cp, &mut rng).expect("process requests");
        let got = client.collect_deliveries(&cp).expect("collect deliveries");
        if got as u64 != n {
            failures.push(format!("admit: wave {} delivered {got}/{n}", clients.len()));
        }
        // Consumed deliveries are dead weight: sweep them for the rebate.
        client.sweep_collected(&mut cp).expect("sweep deliveries");
        clients.push(client);
        admitted += n;
    }
    let admit = Phase {
        name: "admit",
        ops: reservations,
        txs: cp.ledger.tx_count() - txs_before,
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
    };
    println!(
        "  admit: {} reservations in {:.1}s ({:.0}/s)",
        admit.ops,
        admit.wall_ms / 1000.0,
        admit.record().ops_per_sec
    );

    // Steering: every admission drew from the least-loaded shard range.
    let loads = service.shard_loads(ingress_if);
    let shard_skew = service.shard_skew(ingress_if).unwrap_or(f64::INFINITY);
    if loads.iter().sum::<usize>() as u64 != reservations {
        failures.push(format!("steering: shard loads {:?} do not sum to {reservations}", loads));
    }
    if shard_skew > 1.1 {
        failures.push(format!("steering: shard skew {shard_skew:.4} > 1.1 ({loads:?})"));
    }

    // ---- Phase 2: renew -------------------------------------------------
    // The timed section is the on-chain serving path: one batched request
    // transaction per wave client plus one batched `process_renewals`
    // transaction per wave. Collection, key verification and delivery
    // sweeping run between waves off the clock — covering every delivery.
    let as_acct = service.account;
    let mut renewed = 0u64;
    let mut rejected = 0u64;
    let mut renew_txs = 0u64;
    let mut request_s = 0.0f64;
    let mut process_s = 0.0f64;
    let mut renewal_keys_ok = true;
    let mut checked = 0u64;
    for client in clients.iter_mut() {
        let targets: Vec<(u16, u32, u32)> = client
            .reservations()
            .iter()
            .map(|g| (g.res_info.ingress, g.res_info.res_id, 0))
            .collect();
        let txs_before = cp.ledger.tx_count();
        let t = Instant::now();
        client.request_renewals(&mut cp, as_acct, &targets, RENEW_FEE).expect("renewal requests");
        request_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = service.process_renewals(&mut cp, &mut rng).expect("process renewals");
        process_s += t.elapsed().as_secs_f64();
        renew_txs += cp.ledger.tx_count() - txs_before;
        renewed += report.delivered.len() as u64;
        rejected += report.rejected as u64;

        // Off-clock verification: every renewal delivery must unwrap with
        // the client-side ratchet, match the border router's independent
        // `A_K` derivation, and extend an unchanged (ResID, hop) pair one
        // window later. Swept afterwards like any consumed delivery.
        let before = client.reservations().len();
        let original_hops: std::collections::HashSet<(u32, u16, u16)> = client
            .reservations()
            .iter()
            .map(|o| (o.res_info.res_id, o.res_info.ingress, o.res_info.egress))
            .collect();
        let got = client.collect_renewals(&cp).expect("collect renewals");
        if got != before {
            renewal_keys_ok = false;
            failures.push(format!("renew: collected {got}/{before} renewal deliveries"));
        }
        for g in client.reservations().iter().skip(before) {
            let expect = service.secret_value().derive_key(&g.res_info);
            if g.key != expect {
                renewal_keys_ok = false;
                failures.push(format!("renew: ResID {} key mismatch", g.res_info.res_id));
            }
            if g.res_info.res_start as u64 != HOUR {
                renewal_keys_ok = false;
                failures.push(format!("renew: ResID {} wrong window start", g.res_info.res_id));
            }
            if !original_hops.contains(&(g.res_info.res_id, g.res_info.ingress, g.res_info.egress))
            {
                renewal_keys_ok = false;
                failures.push(format!("renew: ResID {} changed hops", g.res_info.res_id));
            }
            checked += 1;
        }
        client.sweep_collected(&mut cp).expect("sweep renewals");
    }
    let renew = Phase {
        name: "renew",
        ops: renewed,
        txs: renew_txs,
        wall_ms: (request_s + process_s) * 1000.0,
    };
    println!(
        "  renew: {} renewals in {:.1}s ({:.0}/s; batched requests {:.1}s, batched service {:.1}s)",
        renew.ops,
        renew.wall_ms / 1000.0,
        renew.record().ops_per_sec,
        request_s,
        process_s
    );
    if renewed != reservations || rejected != 0 {
        failures.push(format!("renew: {renewed}/{reservations} renewed, {rejected} rejected"));
    }
    println!("  renew: {checked} deliveries key-checked");

    // ---- Phase 3: clear -------------------------------------------------
    let bidders: Vec<Address> =
        (0..BIDDERS).map(|i| Address::from_label(&format!("bidder-{i}"))).collect();
    for b in &bidders {
        cp.faucet(*b, 100_000);
    }
    let t0 = Instant::now();
    let txs_before = cp.ledger.tx_count();
    let mut engine = ClearingEngine::new();
    let epoch = 1u64;
    let mut reveals = Vec::new();
    for a in 0..auctions {
        let tmpl = asset(Direction::Ingress, ingress_if, BW_KBPS, 3 * HOUR, 4 * HOUR);
        issued_bwt += bwt(&tmpl);
        let asset_id = service.issue_asset(&mut cp, tmpl).expect("auction asset").value;
        let auction_id = engine
            .create_auction(&mut cp, as_acct, asset_id, RESERVE_PRICE, epoch)
            .expect("create auction")
            .value;
        for (bi, bidder) in bidders.iter().enumerate() {
            // Deterministic spread of amounts above the reserve.
            let amount = RESERVE_PRICE + (a * 31 + bi as u64 * 17) % 1000;
            let mut salt = [0u8; 32];
            salt[..8].copy_from_slice(&(a * BIDDERS as u64 + bi as u64).to_be_bytes());
            let commitment = bid_commitment(amount, &salt, *bidder);
            let bid_id = cp
                .commit_bid(*bidder, auction_id, commitment, amount + 50)
                .expect("commit bid")
                .value;
            reveals.push((auction_id, bid_id, *bidder, amount, salt));
        }
        cp.close_bidding(as_acct, auction_id).expect("close bidding");
    }
    for &(auction_id, bid_id, bidder, amount, salt) in &reveals {
        cp.reveal_bid(bidder, auction_id, bid_id, amount, salt).expect("reveal bid");
    }
    let outcomes = engine.clear_epoch(&mut cp, as_acct, epoch).expect("clear epoch").value;
    let clear = Phase {
        name: "clear",
        ops: outcomes.len() as u64,
        txs: cp.ledger.tx_count() - txs_before,
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
    };
    println!(
        "  clear: {} auctions in {:.2}s ({:.0}/s, one settlement tx)",
        clear.ops,
        clear.wall_ms / 1000.0,
        clear.record().ops_per_sec
    );
    if outcomes.len() as u64 != auctions {
        failures.push(format!("clear: {}/{auctions} auctions settled", outcomes.len()));
    }
    for (id, o) in &outcomes {
        match o.winner {
            Some(_) if o.price >= RESERVE_PRICE => {}
            _ => failures.push(format!("clear: auction {id:?} settled wrong: {o:?}")),
        }
    }

    // ---- Conservation audit (full-chain scan) ---------------------------
    let mut live_bwt: u128 = 0;
    let mut auction_objects = 0u64;
    for e in cp.ledger.objects() {
        if e.meta.type_tag == TAG_ASSET {
            let a = BandwidthAsset::decode(&e.data).expect("asset decode");
            live_bwt += bwt(&a);
        } else if e.meta.type_tag == TAG_AUCTION || e.meta.type_tag == TAG_BID {
            auction_objects += 1;
        }
    }
    let bandwidth_time_conserved = issued_bwt == live_bwt + redeemed_bwt;
    if !bandwidth_time_conserved {
        failures.push(format!(
            "conservation: issued {issued_bwt} != live {live_bwt} + redeemed {redeemed_bwt} \
             (bandwidth x time)"
        ));
    }

    let minted = cp.ledger.total_minted() as i128;
    let supply = cp.ledger.total_supply() as i128;
    let burned = cp.ledger.gas_burned();
    let coin_supply_conserved = minted == supply + burned;
    if !coin_supply_conserved {
        failures.push(format!(
            "conservation: minted {minted} != supply {supply} + burned gas {burned}"
        ));
    }
    // No MIST stranded outside the participant accounts (escrows drained).
    let mut known: u128 = u128::from(cp.ledger.balance(service.account));
    for c in &clients {
        known += u128::from(cp.ledger.balance(c.account));
    }
    for b in &bidders {
        known += u128::from(cp.ledger.balance(*b));
    }
    let auction_escrows_drained = auction_objects == 0 && known == cp.ledger.total_supply();
    if !auction_escrows_drained {
        failures.push(format!(
            "clear: {auction_objects} auction/bid objects remain, known balances {known} \
             vs supply {}",
            cp.ledger.total_supply()
        ));
    }

    let shard_skew_ok = shard_skew <= 1.1;
    let state = ControlState {
        ledger_objects: cp.ledger.object_count() as u64,
        ledger_bytes: cp.ledger.total_object_bytes(),
        bytes_per_reservation: cp.ledger.total_object_bytes() as f64 / reservations as f64,
        ledger_txs: cp.ledger.tx_count(),
        res_id_high_water: u64::from(service.res_id_high_water(ingress_if).unwrap_or(0)),
        shard_skew,
    };
    let invariants = ControlInvariants {
        bandwidth_time_conserved,
        coin_supply_conserved,
        shard_skew_ok,
        renewal_keys_ok,
        auction_escrows_drained,
    };

    // ---- Report ---------------------------------------------------------
    let phases = [admit, renew, clear];
    let widths = [8, 12, 12, 12, 12];
    println!();
    println!("{}", row(&["phase", "ops", "txs", "wall_ms", "ops/s"].map(String::from), &widths));
    for p in &phases {
        let r = p.record();
        println!(
            "{}",
            row(
                &[
                    r.phase.to_string(),
                    r.ops.to_string(),
                    r.txs.to_string(),
                    format!("{:.1}", r.wall_ms),
                    format!("{:.0}", r.ops_per_sec),
                ],
                &widths
            )
        );
    }
    println!(
        "\nstate: {} objects, {} bytes ({:.0} B/reservation), {} txs, \
         ResID high water {}, shard skew {:.4}",
        state.ledger_objects,
        state.ledger_bytes,
        state.bytes_per_reservation,
        state.ledger_txs,
        state.res_id_high_water,
        state.shard_skew
    );

    let meta = ControlMeta { seed, reservations, shards, auctions, aes_backend, sha_backend };
    let records: Vec<ControlPhase> = phases.iter().map(Phase::record).collect();
    write_control_json(&json_path, &meta, &records, &state, &invariants)
        .expect("write BENCH_control.json");
    println!("wrote {json_path}");

    if !failures.is_empty() {
        eprintln!("\n{} invariant violation(s):", failures.len());
        for f in &failures {
            eprintln!("  FAIL {f}");
        }
        std::process::exit(1);
    }
    println!("all invariants held");
}
