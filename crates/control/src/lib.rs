//! # hummingbird-control
//!
//! The Hummingbird control plane (paper §4.2 and §6): bandwidth assets as
//! tradable on-chain objects, a marketplace, atomic path purchases, and the
//! redeem flow that turns an asset pair into data-plane reservation keys.
//!
//! * [`types`] — on-chain object types (assets, auth tokens, redeem
//!   requests, deliveries, listings).
//! * `plane` — the [`ControlPlane`] facade over the ledger with the
//!   asset-contract entry points (issue / split / fuse / redeem / deliver).
//! * `market` — the marketplace contract and the one-transaction atomic
//!   buy-and-redeem for whole paths.
//! * `service` — the AS-side service: ResID assignment (interval
//!   coloring), `A_K` derivation, sealed delivery.
//! * `client` — the end-host client: purchases, ephemeral keys,
//!   collecting deliveries into usable reservations.
//! * [`pki`] — trust anchors and AS registration possession proofs.
//! * `clearing` — epoch-batched auction settlement: one transaction
//!   clears every auction of a settlement round.
//! * `renewal` — the O(1) renewal fast path: extend a live reservation
//!   without a market purchase or re-coloring.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod auction;
mod clearing;
mod client;
mod market;
pub mod pki;
mod plane;
mod renewal;
mod service;
pub mod types;

pub use auction::{bid_commitment, Auction, AuctionOutcome};
pub use clearing::ClearingEngine;
pub use client::{Client, GrantedReservation};
pub use market::{HopPurchase, PurchaseSpec};
pub use plane::ControlPlane;
pub use renewal::RenewalRequest;
pub use service::{AsService, IssuedReservation, RenewalReport, ServiceError};
pub use types::{BandwidthAsset, Direction, EncryptedReservation, Listing};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::TrustAnchors;
    use hummingbird_crypto::sig::SecretKey;
    use hummingbird_ledger::{Address, ExecPath, ObjectId};
    use hummingbird_wire::IsdAs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const HOUR: u64 = 3600;

    struct World {
        cp: ControlPlane,
        service: AsService,
        market: ObjectId,
        client: Client,
        rng: StdRng,
    }

    fn asset_template(dir: Direction, interface: u16) -> BandwidthAsset {
        BandwidthAsset {
            as_id: IsdAs::new(1, 0x1_0001),
            bandwidth_kbps: 100_000,
            start_time: 0,
            expiry_time: 10 * HOUR,
            interface,
            direction: dir,
            time_granularity: 60,
            min_bandwidth_kbps: 100,
        }
    }

    /// One registered AS, one marketplace, one funded client.
    fn setup() -> World {
        let mut rng = StdRng::seed_from_u64(42);
        let cert_key = SecretKey::from_seed(b"as-1");
        let as_id = IsdAs::new(1, 0x1_0001);
        let mut anchors = TrustAnchors::new();
        anchors.install(as_id, cert_key.public());
        let mut cp = ControlPlane::new(anchors);
        let mut service = AsService::new(as_id, cert_key, [7u8; 16], 1 << 20);
        cp.faucet(service.account, 1000);
        service.register(&mut cp, &mut rng).unwrap();

        let market = cp.create_marketplace(service.account).unwrap().value;
        cp.register_seller(service.account, market).unwrap();

        let client_addr = Address::from_label("client-1");
        cp.faucet(client_addr, 1000);
        let client = Client::new(client_addr);
        World { cp, service, market, client, rng }
    }

    fn list_pair(w: &mut World, interface_in: u16, interface_eg: u16) -> (ObjectId, ObjectId) {
        let ing = w
            .service
            .issue_asset(&mut w.cp, asset_template(Direction::Ingress, interface_in))
            .unwrap()
            .value;
        let eg = w
            .service
            .issue_asset(&mut w.cp, asset_template(Direction::Egress, interface_eg))
            .unwrap()
            .value;
        let account = w.service.account;
        let l_in = w.cp.create_listing(account, w.market, ing, 1).unwrap().value;
        let l_eg = w.cp.create_listing(account, w.market, eg, 1).unwrap().value;
        (l_in, l_eg)
    }

    #[test]
    fn registration_requires_valid_proof() {
        let mut rng = StdRng::seed_from_u64(1);
        let honest = SecretKey::from_seed(b"honest-as");
        let as_id = IsdAs::new(1, 5);
        let mut anchors = TrustAnchors::new();
        anchors.install(as_id, honest.public());
        let mut cp = ControlPlane::new(anchors);

        // An attacker with a different key cannot register AS 1-5.
        let attacker = SecretKey::from_seed(b"attacker");
        let attacker_addr = Address::from_pubkey(&attacker.public());
        cp.faucet(attacker_addr, 10);
        let bad_proof = crate::pki::sign_registration(&attacker, as_id, attacker_addr, &mut rng);
        assert!(cp.register_as(attacker_addr, as_id, &bad_proof).is_err());
    }

    #[test]
    fn issue_requires_matching_auth_token() {
        let mut w = setup();
        // Token is for AS 1-0x10001; issuing for another AS must fail.
        let mut foreign = asset_template(Direction::Ingress, 1);
        foreign.as_id = IsdAs::new(9, 9);
        let err = w.service.issue_asset(&mut w.cp, foreign).unwrap_err();
        assert!(matches!(err, hummingbird_ledger::ExecError::Contract(_)));
    }

    #[test]
    fn split_and_fuse_roundtrip() {
        let mut w = setup();
        let asset =
            w.service.issue_asset(&mut w.cp, asset_template(Direction::Ingress, 1)).unwrap().value;
        let account = w.service.account;
        let (head, tail) = w.cp.split_time(account, asset, 2 * HOUR).unwrap().value;
        assert_eq!(w.cp.asset(head).unwrap().expiry_time, 2 * HOUR);
        assert_eq!(w.cp.asset(tail).unwrap().start_time, 2 * HOUR);

        let (left, right) = w.cp.split_bandwidth(account, head, 40_000).unwrap().value;
        assert_eq!(w.cp.asset(left).unwrap().bandwidth_kbps, 40_000);
        assert_eq!(w.cp.asset(right).unwrap().bandwidth_kbps, 60_000);

        // Fuse back.
        let fused = w.cp.fuse_bandwidth(account, left, right).unwrap().value;
        assert_eq!(w.cp.asset(fused).unwrap().bandwidth_kbps, 100_000);
        assert!(w.cp.asset(right).is_none(), "fused-away asset destroyed");
        let refused = w.cp.fuse_time(account, fused, tail).unwrap().value;
        assert_eq!(w.cp.asset(refused).unwrap().expiry_time, 10 * HOUR);
    }

    #[test]
    fn split_respects_granularity() {
        let mut w = setup();
        let asset =
            w.service.issue_asset(&mut w.cp, asset_template(Direction::Ingress, 1)).unwrap().value;
        let err = w.cp.split_time(w.service.account, asset, 90).unwrap_err();
        assert!(matches!(err, hummingbird_ledger::ExecError::Contract(_)));
    }

    #[test]
    fn buy_full_listing() {
        let mut w = setup();
        let (l_in, _) = list_pair(&mut w, 1, 2);
        let spec = PurchaseSpec { start: 0, end: 10 * HOUR, bandwidth_kbps: 100_000 };
        let seller_before = w.cp.ledger.balance(w.service.account);
        let bought = w.client.buy(&mut w.cp, w.market, l_in, spec).unwrap().value;
        let asset = w.cp.asset(bought).unwrap();
        assert_eq!(asset.bandwidth_kbps, 100_000);
        // Payment arrived.
        let seller_after = w.cp.ledger.balance(w.service.account);
        assert!(seller_after > seller_before);
        // Listing is gone.
        assert!(w.cp.listings(w.market).iter().all(|(id, _, _)| *id != l_in));
    }

    #[test]
    fn buy_worst_case_split_relists_three_pieces() {
        let mut w = setup();
        let (l_in, _) = list_pair(&mut w, 1, 2);
        // Interior window + fraction of bandwidth: 2 time splits + 1 bw.
        let spec = PurchaseSpec { start: HOUR, end: 2 * HOUR, bandwidth_kbps: 10_000 };
        let rx = w.client.buy(&mut w.cp, w.market, l_in, spec).unwrap();
        assert_eq!(rx.path, ExecPath::Consensus, "market purchase needs consensus");
        let bought = w.cp.asset(rx.value).unwrap();
        assert_eq!(bought.start_time, HOUR);
        assert_eq!(bought.expiry_time, 2 * HOUR);
        assert_eq!(bought.bandwidth_kbps, 10_000);
        // Leftovers re-listed: head, back, bandwidth remainder (+1 egress
        // listing untouched) = 4 listings total.
        let listings = w.cp.listings(w.market);
        assert_eq!(listings.len(), 4);
        let total_listed_ingress: u64 = listings
            .iter()
            .filter(|(_, _, a)| a.direction == Direction::Ingress)
            .map(|(_, _, a)| a.bandwidth_kbps * a.duration())
            .sum();
        // Conservation of bandwidth-time: original 100000*36000 minus
        // bought 10000*3600.
        assert_eq!(total_listed_ingress, 100_000 * 36_000 - 10_000 * 3_600);
    }

    #[test]
    fn buy_rejects_misaligned_and_oversized_requests() {
        let mut w = setup();
        let (l_in, _) = list_pair(&mut w, 1, 2);
        for bad in [
            PurchaseSpec { start: 30, end: HOUR, bandwidth_kbps: 1000 }, // misaligned
            PurchaseSpec { start: 0, end: 11 * HOUR, bandwidth_kbps: 1000 }, // outside
            PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: 200_000 }, // too big
            PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: 50 },    // below min
            PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: 99_950 }, // remainder < min
        ] {
            assert!(
                w.client.buy(&mut w.cp, w.market, l_in, bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn end_to_end_buy_redeem_deliver() {
        let mut w = setup();
        let (l_in, l_eg) = list_pair(&mut w, 1, 2);
        let spec = PurchaseSpec { start: HOUR, end: 2 * HOUR, bandwidth_kbps: 4_000 };
        let mut rng = StdRng::seed_from_u64(7);
        let rx = w
            .client
            .buy_and_redeem_path(&mut w.cp, w.market, &[(l_in, l_eg, spec)], &mut rng)
            .unwrap();
        assert_eq!(rx.value.len(), 1);
        assert_eq!(w.client.pending_count(), 1);

        // AS answers the redeem request (fast path).
        let delivered = w.service.process_requests(&mut w.cp, &mut w.rng).unwrap();
        assert_eq!(delivered.len(), 1);

        // Client collects and decrypts.
        let n = w.client.collect_deliveries(&w.cp).unwrap();
        assert_eq!(n, 1);
        assert_eq!(w.client.pending_count(), 0);
        let granted = &w.client.reservations()[0];
        assert_eq!(granted.res_info.ingress, 1);
        assert_eq!(granted.res_info.egress, 2);
        assert_eq!(granted.res_info.res_start, HOUR as u32);
        assert_eq!(granted.res_info.duration, HOUR as u16);
        // Key matches what the AS's border routers will derive (Eq. 2).
        let expected = w.service.secret_value().derive_key(&granted.res_info);
        assert_eq!(granted.key, expected);
    }

    #[test]
    fn delivery_is_fast_path_and_destroys_assets() {
        let mut w = setup();
        let (l_in, l_eg) = list_pair(&mut w, 1, 2);
        let spec = PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: 4_000 };
        let mut rng = StdRng::seed_from_u64(8);
        w.client.buy_and_redeem_path(&mut w.cp, w.market, &[(l_in, l_eg, spec)], &mut rng).unwrap();
        let pending = w.cp.pending_requests(w.service.account);
        assert_eq!(pending.len(), 1);
        let (req_id, req) = pending[0].clone();

        w.service.process_requests(&mut w.cp, &mut w.rng).unwrap();
        // Assets wrapped in the request are destroyed (no longer tradable).
        assert!(w.cp.asset(req.ingress_asset).is_none());
        assert!(w.cp.asset(req.egress_asset).is_none());
        assert!(w.cp.ledger.object(req_id).is_none());
    }

    #[test]
    fn atomic_path_purchase_is_all_or_nothing() {
        let mut w = setup();
        let (l_in, l_eg) = list_pair(&mut w, 1, 2);
        let good = PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: 4_000 };
        // Second hop references a bogus listing: whole tx must fail.
        let bogus = ObjectId([0xee; 32]);
        let mut rng = StdRng::seed_from_u64(9);
        let before_balance = w.cp.ledger.balance(w.client.account);
        let before_listings = w.cp.listings(w.market).len();
        let err = w.client.buy_and_redeem_path(
            &mut w.cp,
            w.market,
            &[(l_in, l_eg, good), (bogus, bogus, good)],
            &mut rng,
        );
        assert!(err.is_err());
        assert_eq!(w.cp.ledger.balance(w.client.account), before_balance);
        assert_eq!(w.cp.listings(w.market).len(), before_listings);
        assert_eq!(w.client.pending_count(), 0, "no dangling ephemeral keys");
    }

    #[test]
    fn res_ids_are_unique_while_overlapping() {
        let mut w = setup();
        let mut rng = StdRng::seed_from_u64(10);
        // Three overlapping purchases on the same interface pair.
        for _ in 0..3 {
            let (l_in, l_eg) = list_pair(&mut w, 1, 2);
            let spec = PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: 4_000 };
            w.client
                .buy_and_redeem_path(&mut w.cp, w.market, &[(l_in, l_eg, spec)], &mut rng)
                .unwrap();
        }
        w.service.process_requests(&mut w.cp, &mut w.rng).unwrap();
        w.client.collect_deliveries(&w.cp).unwrap();
        let ids: Vec<u32> = w.client.reservations().iter().map(|g| g.res_info.res_id).collect();
        assert_eq!(ids.len(), 3);
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "overlapping reservations must get distinct ResIDs");
    }

    #[test]
    fn end_to_end_renewal_fast_path() {
        let mut w = setup();
        let mut rng = StdRng::seed_from_u64(13);
        let (l_in, l_eg) = list_pair(&mut w, 1, 2);
        let spec = PurchaseSpec { start: 0, end: HOUR, bandwidth_kbps: 4_000 };
        w.client.buy_and_redeem_path(&mut w.cp, w.market, &[(l_in, l_eg, spec)], &mut rng).unwrap();
        w.service.process_requests(&mut w.cp, &mut w.rng).unwrap();
        w.client.collect_deliveries(&w.cp).unwrap();
        let first = w.client.reservations()[0].clone();

        // Renew twice: each renewal appends one more window, same ResID.
        let as_acct = w.service.account;
        for generation in 0..2u32 {
            let item = (first.res_info.ingress, first.res_info.res_id, generation);
            w.client.request_renewals(&mut w.cp, as_acct, &[item], 500).unwrap();
            let report = w.service.process_renewals(&mut w.cp, &mut w.rng).unwrap();
            assert_eq!(report.delivered.len(), 1);
            assert_eq!(report.rejected, 0);
            assert_eq!(w.client.collect_renewals(&w.cp).unwrap(), 1);
        }
        let all = w.client.reservations();
        assert_eq!(all.len(), 3);
        for (i, g) in all.iter().enumerate() {
            // Same ResID and hop set; consecutive windows.
            assert_eq!(g.res_info.res_id, first.res_info.res_id);
            assert_eq!(g.res_info.ingress, first.res_info.ingress);
            assert_eq!(g.res_info.egress, first.res_info.egress);
            assert_eq!(g.res_info.res_start as u64, i as u64 * HOUR);
            // Each window's key matches the border-router derivation.
            assert_eq!(g.key, w.service.secret_value().derive_key(&g.res_info));
        }

        // A stale (replayed) generation is rejected and the fee refunded.
        let balance_before = w.cp.ledger.balance(w.client.account);
        let item = (first.res_info.ingress, first.res_info.res_id, 0);
        let rx = w.client.request_renewals(&mut w.cp, as_acct, &[item], 500).unwrap();
        let report = w.service.process_renewals(&mut w.cp, &mut w.rng).unwrap();
        assert_eq!(report.delivered.len(), 0);
        assert_eq!(report.rejected, 1);
        // Fee came back; only the request's gas was spent.
        let spent = i128::from(balance_before) - i128::from(w.cp.ledger.balance(w.client.account));
        assert_eq!(spent, rx.gas.total_mist(), "fee refunded, only gas spent");
        assert_eq!(w.client.collect_renewals(&w.cp).unwrap(), 0);
    }
}
