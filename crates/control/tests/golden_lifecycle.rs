//! Bit-identity of the whole control-plane lifecycle (ISSUE 19).
//!
//! One seeded world runs the flows the benchmark's `control_lifecycle`
//! and `control_steady` workloads run — wave admits (every 8th a time
//! split), wave-1 admits, a renewal round, an auction epoch — and is
//! reduced to one SHA-256 over everything an observer of the chain can
//! see: the counters, every committed object in ID order, every
//! receipt's gas summary and digest, every delivery ID in the order the
//! AS posted it (ResID assignment order) and every granted
//! `(ResInfo, A_K)` in collection order.
//!
//! The constant was computed on the tree *before* the object-store
//! rewrite; a change to it means object IDs, gas, query order or ResID
//! assignment changed, not speed.

use hummingbird_control::pki::TrustAnchors;
use hummingbird_control::{
    bid_commitment, AsService, BandwidthAsset, ClearingEngine, Client, ControlPlane, Direction,
    PurchaseSpec,
};
use hummingbird_crypto::sha256::Sha256;
use hummingbird_crypto::sig::SecretKey;
use hummingbird_dataplane::runtime::{ShardMap, Steering};
use hummingbird_ledger::{Address, ObjectId, Owner, TxReceipt};
use hummingbird_wire::IsdAs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN: &str = "4a27ab5d7cd760ff0761d0ed86150d43f353daadda1ad5612fab9309e87cc696";

const HOUR: u64 = 3600;
const AS_ID: IsdAs = IsdAs::new(1, 0x1_0001);
const RES_ID_CAP: u32 = 1 << 12;

fn asset(dir: Direction, interface: u16, start: u64, end: u64) -> BandwidthAsset {
    BandwidthAsset {
        as_id: AS_ID,
        bandwidth_kbps: 1000,
        start_time: start,
        expiry_time: end,
        interface,
        direction: dir,
        time_granularity: 60,
        min_bandwidth_kbps: 100,
    }
}

struct World {
    cp: ControlPlane,
    service: AsService,
    market: ObjectId,
    rng: StdRng,
    admitted: u64,
    h: Sha256,
}

impl World {
    /// Folds a receipt's gas summary and digest into the running hash
    /// and hands back the value.
    fn receipt<T>(&mut self, rx: TxReceipt<T>) -> T {
        let g = rx.gas;
        for v in [g.computation_units, g.computation_cost, g.storage_cost, g.storage_rebate] {
            self.h.update(&v.to_be_bytes());
        }
        self.h.update(&rx.digest);
        rx.value
    }

    fn ids(&mut self, ids: &[ObjectId]) {
        self.h.update(&(ids.len() as u64).to_be_bytes());
        for id in ids {
            self.h.update(&id.0);
        }
    }

    /// One wave of `n` admits for `client`, the benchmark's flow.
    fn admit(&mut self, client: &mut Client, n: u64) {
        let account = self.service.account;
        for _ in 0..n {
            let end = if self.admitted.is_multiple_of(8) { 2 * HOUR } else { HOUR };
            self.admitted += 1;
            let rx = self.service.issue_asset(&mut self.cp, asset(Direction::Ingress, 1, 0, end));
            let ing = self.receipt(rx.expect("issue ingress"));
            let rx = self.service.issue_asset(&mut self.cp, asset(Direction::Egress, 2, 0, end));
            let eg = self.receipt(rx.expect("issue egress"));
            let rx = self.cp.create_listing(account, self.market, ing, 1);
            let l_in = self.receipt(rx.expect("list ingress"));
            let rx = self.cp.create_listing(account, self.market, eg, 1);
            let l_eg = self.receipt(rx.expect("list egress"));
            let spec = PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: 1000 };
            let rx = client.buy_and_redeem_path(
                &mut self.cp,
                self.market,
                &[(l_in, l_eg, spec)],
                &mut self.rng,
            );
            let requests = self.receipt(rx.expect("buy and redeem"));
            self.ids(&requests);
        }
        let delivered =
            self.service.process_requests(&mut self.cp, &mut self.rng).expect("process requests");
        assert_eq!(delivered.len() as u64, n);
        self.ids(&delivered);
        assert_eq!(client.collect_deliveries(&self.cp).expect("collect") as u64, n);
        assert_eq!(client.sweep_collected(&mut self.cp).expect("sweep") as u64, n);
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn lifecycle_digest_is_unchanged() {
    let mut rng = StdRng::seed_from_u64(19);
    let cert_key = SecretKey::from_seed(b"golden-as");
    let mut anchors = TrustAnchors::new();
    anchors.install(AS_ID, cert_key.public());
    let mut cp = ControlPlane::new(anchors);
    let mut service = AsService::new(AS_ID, cert_key, rng.gen(), RES_ID_CAP);
    service.align_with_shard_map(&ShardMap::new(8, RES_ID_CAP, Steering::ByReservation));
    cp.faucet(service.account, 10_000_000);
    let mut w =
        World { cp, service, market: ObjectId([0; 32]), rng, admitted: 0, h: Sha256::new() };
    let rx = w.service.register(&mut w.cp, &mut w.rng).expect("register");
    w.receipt(rx);
    let rx = w.cp.create_marketplace(w.service.account).expect("marketplace");
    w.market = w.receipt(rx);
    let rx = w.cp.register_seller(w.service.account, w.market).expect("seller");
    w.receipt(rx);

    // 64 wave admits, then 8 wave-1 admits by a second client.
    let mut waver = Client::new(Address::from_label("golden-wave"));
    let mut single = Client::new(Address::from_label("golden-single"));
    w.cp.faucet(waver.account, 100_000);
    w.cp.faucet(single.account, 100_000);
    w.admit(&mut waver, 64);
    for _ in 0..8 {
        w.admit(&mut single, 1);
    }

    // One renewal round over every live reservation.
    let as_account = w.service.account;
    for client in [&mut waver, &mut single] {
        let targets: Vec<(u16, u32, u32)> = client
            .reservations()
            .iter()
            .map(|g| (g.res_info.ingress, g.res_info.res_id, 0))
            .collect();
        let rx = client.request_renewals(&mut w.cp, as_account, &targets, 100);
        let requests = w.receipt(rx.expect("request renewals"));
        w.ids(&requests);
        let report = w.service.process_renewals(&mut w.cp, &mut w.rng).expect("renewals");
        assert_eq!(report.rejected, 0);
        w.ids(&report.delivered);
        assert_eq!(client.collect_renewals(&w.cp).expect("collect renewals"), targets.len());
        client.sweep_collected(&mut w.cp).expect("sweep renewals");
    }

    // One epoch of 4 sealed-bid auctions × 4 bidders, two of them tied
    // (the tie is broken by bid object ID).
    let bidders: Vec<Address> =
        (0..4).map(|i| Address::from_label(&format!("golden-bidder-{i}"))).collect();
    for &b in &bidders {
        w.cp.faucet(b, 100_000);
    }
    let mut engine = ClearingEngine::new();
    let mut reveals = Vec::new();
    for a in 0..4u64 {
        let template = asset(Direction::Ingress, 1, 3 * HOUR, 4 * HOUR);
        let rx = w.service.issue_asset(&mut w.cp, template).expect("auction asset");
        let asset_id = w.receipt(rx);
        let rx = engine.create_auction(&mut w.cp, as_account, asset_id, 500, 1).expect("auction");
        let auction_id = w.receipt(rx);
        for (bi, &bidder) in bidders.iter().enumerate() {
            let amount = 500 + (a * 31 + (bi as u64 / 2) * 17) % 1000;
            let mut salt = [0u8; 32];
            salt[..8].copy_from_slice(&(a * 4 + bi as u64).to_be_bytes());
            let commitment = bid_commitment(amount, &salt, bidder);
            let rx = w.cp.commit_bid(bidder, auction_id, commitment, amount + 50).expect("commit");
            let bid_id = w.receipt(rx);
            reveals.push((auction_id, bid_id, bidder, amount, salt));
        }
        let rx = w.cp.close_bidding(as_account, auction_id).expect("close");
        w.receipt(rx);
    }
    for (auction_id, bid_id, bidder, amount, salt) in reveals {
        let rx = w.cp.reveal_bid(bidder, auction_id, bid_id, amount, salt).expect("reveal");
        w.receipt(rx);
    }
    let rx = engine.clear_epoch(&mut w.cp, as_account, 1).expect("clear epoch");
    for (auction_id, outcome) in w.receipt(rx) {
        w.h.update(&auction_id.0);
        w.h.update(&outcome.winner.expect("every auction has a winner").0 .0);
        w.h.update(&outcome.price.to_be_bytes());
        w.h.update(&(outcome.revealed_bids as u64).to_be_bytes());
    }

    // Every granted (ResInfo, A_K), in collection order.
    for client in [&waver, &single] {
        for g in client.reservations() {
            let r = g.res_info;
            w.h.update(&r.ingress.to_be_bytes());
            w.h.update(&r.egress.to_be_bytes());
            w.h.update(&r.res_id.to_be_bytes());
            w.h.update(&r.bw_encoded.to_be_bytes());
            w.h.update(&r.res_start.to_be_bytes());
            w.h.update(&r.duration.to_be_bytes());
            w.h.update(&g.key.to_bytes());
        }
    }

    // The chain itself: counters, then every committed object by ID.
    let ledger = &w.cp.ledger;
    w.h.update(&ledger.tx_count().to_be_bytes());
    w.h.update(&ledger.gas_burned().to_be_bytes());
    w.h.update(&(ledger.object_count() as u64).to_be_bytes());
    w.h.update(&ledger.total_object_bytes().to_be_bytes());
    let mut objects: Vec<_> = ledger.objects().collect();
    objects.sort_by_key(|e| e.meta.id);
    for e in objects {
        w.h.update(&e.meta.id.0);
        w.h.update(&e.meta.version.to_be_bytes());
        let (kind, owner_bytes) = match e.meta.owner {
            Owner::Address(a) => (0u8, a.0),
            Owner::Shared => (1, [0; 32]),
            Owner::Immutable => (2, [0; 32]),
            Owner::Object(p) => (3, p.0),
        };
        w.h.update(&[kind]);
        w.h.update(&owner_bytes);
        w.h.update(e.meta.type_tag.as_bytes());
        w.h.update(&(e.data.len() as u64).to_be_bytes());
        w.h.update(&e.data);
    }
    assert_eq!(
        hex(&w.h.finalize()),
        GOLDEN,
        "the control-plane lifecycle is no longer bit-identical"
    );
}
