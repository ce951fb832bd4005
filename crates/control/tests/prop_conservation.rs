//! Conservation property suite for the control plane (ISSUE 9).
//!
//! Three families of seeded property tests pin the economics the
//! control plane must never violate, no matter how reservations are
//! sliced, traded, renewed, or auctioned:
//!
//! 1. **Bandwidth × time conservation** — arbitrary seeded sequences of
//!    issue / split / fuse / transfer / redeem never mint or destroy
//!    capacity: Σ issued bandwidth×time always equals the capacity
//!    still live in on-chain assets plus what delivery consumed,
//!    recomputed from a full chain scan after every operation.
//! 2. **Coin conservation under auction settlement** — every MIST a
//!    winner is debited shows up at the seller or as refunded change;
//!    escrows drain to zero; the ledger's mint/burn identity holds to
//!    the MIST, with per-account balances predicted analytically from
//!    the transaction receipts (including gas).
//! 3. **Renewal stability** — the O(1) renewal fast path never changes
//!    a reservation's hop set (ingress/egress interfaces), ResID, or
//!    data-plane shard, across consecutive generations.

use hummingbird_control::pki::TrustAnchors;
use hummingbird_control::types::TAG_ASSET;
use hummingbird_control::{
    bid_commitment, AsService, BandwidthAsset, ClearingEngine, Client, ControlPlane, Direction,
    PurchaseSpec,
};
use hummingbird_crypto::sig::SecretKey;
use hummingbird_dataplane::runtime::{ShardMap, Steering};
use hummingbird_ledger::{Address, ObjectId, TxReceipt};
use hummingbird_wire::IsdAs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const HOUR: u64 = 3600;
const GRAN: u64 = 60;
const MIN_BW: u64 = 100;

fn as_id() -> IsdAs {
    IsdAs::new(1, 0x1_0001)
}

/// One registered AS with plenty of gas; no market.
fn world(seed: u64) -> (ControlPlane, AsService, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cert_key = SecretKey::from_seed(&seed.to_be_bytes());
    let mut anchors = TrustAnchors::new();
    anchors.install(as_id(), cert_key.public());
    let mut cp = ControlPlane::new(anchors);
    let mut service = AsService::new(as_id(), cert_key, [7u8; 16], 1 << 20);
    cp.faucet(service.account, 1_000_000);
    service.register(&mut cp, &mut rng).expect("AS registration");
    (cp, service, rng)
}

fn bwt(a: &BandwidthAsset) -> u128 {
    u128::from(a.bandwidth_kbps) * u128::from(a.expiry_time - a.start_time)
}

/// Ground truth: Σ bandwidth×time over every committed asset object,
/// including assets wrapped under in-flight redeem requests.
fn live_bwt(cp: &ControlPlane) -> u128 {
    cp.ledger
        .objects()
        .filter(|e| e.meta.type_tag == TAG_ASSET)
        .map(|e| bwt(&BandwidthAsset::decode(&e.data).expect("asset decode")))
        .sum()
}

#[test]
fn asset_algebra_conserves_bandwidth_time() {
    for seed in [1u64, 2, 3] {
        let (mut cp, mut service, mut rng) = world(seed);
        let traders = [Address::from_label("trader-a"), Address::from_label("trader-b")];
        for t in traders {
            cp.faucet(t, 1_000_000);
        }

        // Pool of (asset id, current owner). Asset payloads are re-read
        // from the chain before every use, so splits/fuses done earlier
        // in the sequence are always visible.
        let mut pool: Vec<(ObjectId, Address)> = Vec::new();
        let mut issued: u128 = 0;
        let mut consumed: u128 = 0;

        for step in 0..200 {
            match rng.gen_range(0..6) {
                // Issue a fresh ingress/egress pair and hand it to a
                // random trader.
                0 => {
                    let owner = traders[rng.gen_range(0..2)];
                    let bw = MIN_BW * rng.gen_range(1..=40);
                    let start = GRAN * rng.gen_range(0..=50);
                    let dur = GRAN * rng.gen_range(2..=120);
                    for (dir, interface) in [(Direction::Ingress, 1u16), (Direction::Egress, 2u16)]
                    {
                        let a = BandwidthAsset {
                            as_id: as_id(),
                            bandwidth_kbps: bw,
                            start_time: start,
                            expiry_time: start + dur,
                            interface,
                            direction: dir,
                            time_granularity: GRAN,
                            min_bandwidth_kbps: MIN_BW,
                        };
                        issued += bwt(&a);
                        let id = service.issue_asset(&mut cp, a).expect("issue").value;
                        cp.transfer_asset(service.account, id, owner).expect("hand over");
                        pool.push((id, owner));
                    }
                }
                // Split a random asset in time at a granule boundary.
                1 if !pool.is_empty() => {
                    let (id, owner) = pool[rng.gen_range(0..pool.len())];
                    let Some(a) = cp.asset(id) else { continue };
                    let granules = (a.expiry_time - a.start_time) / GRAN;
                    if granules < 2 {
                        continue;
                    }
                    let split_at = a.start_time + GRAN * rng.gen_range(1..granules);
                    let (_, tail) = cp.split_time(owner, id, split_at).expect("split_time").value;
                    pool.push((tail, owner));
                }
                // Split a random asset in bandwidth.
                2 if !pool.is_empty() => {
                    let (id, owner) = pool[rng.gen_range(0..pool.len())];
                    let Some(a) = cp.asset(id) else { continue };
                    if a.bandwidth_kbps < 2 * MIN_BW {
                        continue;
                    }
                    let keep = rng.gen_range(MIN_BW..=a.bandwidth_kbps - MIN_BW);
                    let (_, rest) =
                        cp.split_bandwidth(owner, id, keep).expect("split_bandwidth").value;
                    pool.push((rest, owner));
                }
                // Fuse the first compatible pair found (time-adjacent or
                // same-window twins under one owner).
                3 => {
                    let mut fused = None;
                    'outer: for i in 0..pool.len() {
                        for j in 0..pool.len() {
                            if i == j || pool[i].1 != pool[j].1 {
                                continue;
                            }
                            let (Some(a), Some(b)) = (cp.asset(pool[i].0), cp.asset(pool[j].0))
                            else {
                                continue;
                            };
                            let twins = a.as_id == b.as_id
                                && a.interface == b.interface
                                && a.direction == b.direction;
                            if !twins {
                                continue;
                            }
                            if a.bandwidth_kbps == b.bandwidth_kbps && a.expiry_time == b.start_time
                            {
                                cp.fuse_time(pool[i].1, pool[i].0, pool[j].0).expect("fuse_time");
                                fused = Some(j);
                                break 'outer;
                            }
                            if a.start_time == b.start_time && a.expiry_time == b.expiry_time {
                                cp.fuse_bandwidth(pool[i].1, pool[i].0, pool[j].0)
                                    .expect("fuse_bandwidth");
                                fused = Some(j);
                                break 'outer;
                            }
                        }
                    }
                    if let Some(j) = fused {
                        pool.swap_remove(j);
                    }
                }
                // Transfer a random asset to the other trader.
                4 if !pool.is_empty() => {
                    let k = rng.gen_range(0..pool.len());
                    let (id, owner) = pool[k];
                    let to = if owner == traders[0] { traders[1] } else { traders[0] };
                    cp.transfer_asset(owner, id, to).expect("transfer");
                    pool[k].1 = to;
                }
                // Redeem a matching ingress/egress pair and deliver it:
                // the only operation that consumes capacity.
                _ => {
                    let mut found = None;
                    'outer: for i in 0..pool.len() {
                        for j in 0..pool.len() {
                            if i == j || pool[i].1 != pool[j].1 {
                                continue;
                            }
                            let (Some(a), Some(b)) = (cp.asset(pool[i].0), cp.asset(pool[j].0))
                            else {
                                continue;
                            };
                            if a.direction == Direction::Ingress
                                && b.direction == Direction::Egress
                                && a.matches_for_redeem(&b)
                            {
                                found = Some((i, j, bwt(&a) + bwt(&b)));
                                break 'outer;
                            }
                        }
                    }
                    let Some((i, j, pair_bwt)) = found else { continue };
                    let owner = pool[i].1;
                    let eph = SecretKey::generate(&mut rng);
                    cp.redeem(owner, pool[i].0, pool[j].0, eph.public()).expect("redeem");
                    // Wrapped assets still count as live until delivery
                    // destroys them.
                    assert_eq!(
                        issued,
                        live_bwt(&cp) + consumed,
                        "seed {seed} step {step}: redeem wrap leaked capacity"
                    );
                    service.process_requests(&mut cp, &mut rng).expect("deliver");
                    consumed += pair_bwt;
                    for k in [i.max(j), i.min(j)] {
                        pool.swap_remove(k);
                    }
                }
            }
            assert_eq!(
                issued,
                live_bwt(&cp) + consumed,
                "seed {seed} step {step}: bandwidth x time not conserved"
            );
        }
        assert!(issued > 0, "seed {seed}: sequence issued nothing");
        assert!(consumed > 0, "seed {seed}: sequence never redeemed");
    }
}

/// Accumulates a receipt's net gas effect on the sender's balance.
fn gas_delta<T>(rx: &TxReceipt<T>) -> i128 {
    i128::from(rx.gas.storage_rebate)
        - i128::from(rx.gas.computation_cost)
        - i128::from(rx.gas.storage_cost)
}

#[test]
fn auction_settlement_conserves_coin_balances() {
    for seed in [5u64, 6] {
        let (mut cp, mut service, mut rng) = world(seed);
        let seller = service.account;
        let settler = Address::from_label("settler");
        cp.faucet(settler, 10_000);
        let bidders: Vec<Address> =
            (0..4).map(|i| Address::from_label(&format!("bidder-{i}"))).collect();
        for b in &bidders {
            cp.faucet(*b, 50_000);
        }

        // Predicted balances, updated from every receipt below.
        let mut expected: HashMap<Address, i128> = HashMap::new();
        for a in [seller, settler].iter().chain(&bidders) {
            expected.insert(*a, i128::from(cp.ledger.balance(*a)));
        }

        let reserve = 500u64;
        let mut engine = ClearingEngine::new();
        // Per auction: the deposits escrowed (bidder, amount) and the
        // revealed amounts meeting the reserve, for predicting settlement.
        type Escrowed = (Vec<(Address, u64)>, Vec<u64>);
        let mut auctions: Vec<(ObjectId, Escrowed)> = Vec::new();
        for n in 0..6u64 {
            let a = BandwidthAsset {
                as_id: as_id(),
                bandwidth_kbps: 1_000,
                start_time: 0,
                expiry_time: HOUR,
                interface: 1,
                direction: Direction::Ingress,
                time_granularity: GRAN,
                min_bandwidth_kbps: MIN_BW,
            };
            let rx = service.issue_asset(&mut cp, a).expect("issue");
            *expected.get_mut(&seller).unwrap() += gas_delta(&rx);
            let rx = engine
                .create_auction(&mut cp, seller, rx.value, reserve, 1)
                .expect("create auction");
            *expected.get_mut(&seller).unwrap() += gas_delta(&rx);
            let auction_id = rx.value;

            // Bid shapes per auction: ties, losers below reserve,
            // unrevealed commitments, and a no-bid auction.
            let mut revealed: Vec<(ObjectId, Address, u64, [u8; 32])> = Vec::new();
            let mut deposits: Vec<(Address, u64)> = Vec::new();
            let mut winning: Vec<u64> = Vec::new();
            if n != 5 {
                for (bi, bidder) in bidders.iter().enumerate() {
                    let amount = match (n, bi) {
                        (2, 0) | (2, 1) => reserve + 300, // deliberate top tie
                        (3, _) => reserve.saturating_sub(100 + bi as u64), // all lose
                        _ => reserve + rng.gen_range(0..1000),
                    };
                    let mut salt = [0u8; 32];
                    rng.fill(&mut salt);
                    let deposit = amount + rng.gen_range(0..200);
                    let rx = cp
                        .commit_bid(
                            *bidder,
                            auction_id,
                            bid_commitment(amount, &salt, *bidder),
                            deposit,
                        )
                        .expect("commit");
                    *expected.get_mut(bidder).unwrap() += gas_delta(&rx) - i128::from(deposit);
                    deposits.push((*bidder, deposit));
                    // Auction 4 keeps bidder 3's commitment unrevealed.
                    if !(n == 4 && bi == 3) {
                        revealed.push((rx.value, *bidder, amount, salt));
                        if amount >= reserve {
                            winning.push(amount);
                        }
                    }
                }
            }
            let rx = cp.close_bidding(seller, auction_id).expect("close");
            *expected.get_mut(&seller).unwrap() += gas_delta(&rx);
            for (bid_id, bidder, amount, salt) in &revealed {
                let rx =
                    cp.reveal_bid(*bidder, auction_id, *bid_id, *amount, *salt).expect("reveal");
                *expected.get_mut(bidder).unwrap() += gas_delta(&rx);
            }
            auctions.push((auction_id, (deposits, winning)));
        }

        // Settle the whole epoch in one batched clearing transaction and
        // fold the outcome into the predictions: every deposit comes back
        // out of escrow (so the winner is debited exactly the clearing
        // price, which lands at the seller; everyone else is made whole).
        let rx = engine.clear_epoch(&mut cp, settler, 1).expect("clear");
        *expected.get_mut(&settler).unwrap() += gas_delta(&rx);
        assert_eq!(rx.value.len(), auctions.len(), "seed {seed}: not every auction settled");
        // clear_epoch settles in ascending auction-ID order, not the
        // creation order `auctions` is in — match outcomes by ID.
        let by_id: HashMap<ObjectId, &Escrowed> =
            auctions.iter().map(|(id, dw)| (*id, dw)).collect();
        for (auction_id, outcome) in rx.value.iter() {
            let (deposits, winning) = by_id[auction_id];
            for (bidder, deposit) in deposits {
                *expected.get_mut(bidder).unwrap() += i128::from(*deposit);
            }
            let mut ranked = winning.clone();
            ranked.sort_unstable_by(|a, b| b.cmp(a));
            match ranked.first() {
                Some(_) => {
                    let price = ranked.get(1).copied().unwrap_or(reserve);
                    let (winner, _) = outcome.winner.expect("expected a winner");
                    assert_eq!(outcome.price, price, "seed {seed}: wrong clearing price");
                    *expected.get_mut(&seller).unwrap() += i128::from(price);
                    *expected.get_mut(&winner).unwrap() -= i128::from(price);
                }
                None => assert!(outcome.winner.is_none(), "seed {seed}: phantom winner"),
            }
        }

        // Per-account conservation: predicted == on-chain, to the MIST.
        for (addr, want) in &expected {
            assert_eq!(
                i128::from(cp.ledger.balance(*addr)),
                *want,
                "seed {seed}: balance drift at {addr:?}"
            );
        }
        // Global conservation: mint/burn identity and no stranded escrow.
        let minted = cp.ledger.total_minted() as i128;
        let supply = cp.ledger.total_supply() as i128;
        let burned = cp.ledger.gas_burned();
        assert_eq!(minted, supply + burned, "seed {seed}: mint/burn identity broken");
        let known: u128 = [seller, settler]
            .iter()
            .chain(&bidders)
            .map(|a| u128::from(cp.ledger.balance(*a)))
            .sum();
        assert_eq!(known, cp.ledger.total_supply(), "seed {seed}: stranded escrow MIST");
    }
}

#[test]
fn renewals_preserve_hops_res_id_and_shard() {
    let shards = 4usize;
    let slots = 1u32 << 16;
    let (mut cp, mut service, mut rng) = world(9);
    let map = ShardMap::new(shards, slots, Steering::ByReservation);
    service.align_with_shard_map(&map);
    let market = cp.create_marketplace(service.account).expect("market").value;
    cp.register_seller(service.account, market).expect("seller");
    let mut client = Client::new(Address::from_label("renewer"));
    cp.faucet(client.account, 100_000);

    // Admit 40 reservations through the full market flow.
    for _ in 0..40 {
        let mut listed = Vec::new();
        for (dir, interface) in [(Direction::Ingress, 1u16), (Direction::Egress, 2u16)] {
            let a = BandwidthAsset {
                as_id: as_id(),
                bandwidth_kbps: 1_000,
                start_time: 0,
                expiry_time: HOUR,
                interface,
                direction: dir,
                time_granularity: GRAN,
                min_bandwidth_kbps: MIN_BW,
            };
            let id = service.issue_asset(&mut cp, a).expect("issue").value;
            listed.push(cp.create_listing(service.account, market, id, 1).expect("list").value);
        }
        let spec = PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: 1_000 };
        client
            .buy_and_redeem_path(&mut cp, market, &[(listed[0], listed[1], spec)], &mut rng)
            .expect("buy");
    }
    service.process_requests(&mut cp, &mut rng).expect("deliver");
    assert_eq!(client.collect_deliveries(&cp).expect("collect"), 40);

    let ranges = map.res_id_ranges();
    let shard_of = |res_id: u32| ranges.iter().position(|r| r.contains(&res_id));
    let baseline: Vec<(u32, u16, u16, usize)> = client
        .reservations()
        .iter()
        .map(|g| {
            let s = shard_of(g.res_info.res_id).expect("ResID outside every shard range");
            (g.res_info.res_id, g.res_info.ingress, g.res_info.egress, s)
        })
        .collect();

    // Two consecutive renewal generations; each must reproduce the exact
    // (ResID, ingress, egress, shard) tuple one window later, under the
    // key the border router derives for it on its own.
    for generation in 0..2u32 {
        let before = client.reservations().len();
        let targets: Vec<(u16, u32, u32)> =
            baseline.iter().map(|&(res_id, ingress, _, _)| (ingress, res_id, generation)).collect();
        client.request_renewals(&mut cp, service.account, &targets, 100).expect("request");
        let report = service.process_renewals(&mut cp, &mut rng).expect("process");
        assert_eq!(report.delivered.len(), 40, "generation {generation}: not all renewed");
        assert_eq!(report.rejected, 0, "generation {generation}: spurious rejections");
        assert_eq!(client.collect_renewals(&cp).expect("collect"), 40);

        for g in client.reservations().iter().skip(before) {
            let res_id = g.res_info.res_id;
            let shard = shard_of(res_id).expect("renewed ResID outside every shard range");
            assert!(
                baseline.contains(&(res_id, g.res_info.ingress, g.res_info.egress, shard)),
                "generation {generation}: renewal changed ResID/hops/shard for ResID {res_id}"
            );
            assert_eq!(
                g.res_info.res_start as u64,
                (u64::from(generation) + 1) * HOUR,
                "generation {generation}: window did not advance"
            );
            assert_eq!(
                g.key,
                service.secret_value().derive_key(&g.res_info),
                "generation {generation}: ResID {res_id} key differs from the router's A_K"
            );
        }
    }
}
