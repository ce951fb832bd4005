//! The end-host market client (paper §6.1, "Market Client Application").
//!
//! Handles buying and redeeming assets, holds the ephemeral decryption keys
//! for in-flight redeem requests, and collects the sealed deliveries into
//! usable [`GrantedReservation`]s for the data plane.

use crate::market::{HopPurchase, PurchaseSpec};
use crate::plane::{ControlPlane, CpResult};
use crate::renewal::{renewal_wrap_key, RenewalRequest};
use crate::service::ReservationPayload;
use hummingbird_crypto::sealed;
use hummingbird_crypto::sig::SecretKey;
use hummingbird_crypto::{AuthKey, ResInfo};
use hummingbird_ledger::{Address, DigestMap, DigestSet, ExecError, ObjectId};
use hummingbird_wire::IsdAs;
use rand::Rng;
use std::collections::HashMap;

/// A reservation the client can use on the data plane: the `ResInfo` to put
/// in the flyover hop field plus the authentication key `A_K`.
#[derive(Clone, Debug)]
pub struct GrantedReservation {
    /// The granting AS.
    pub as_id: IsdAs,
    /// Data-plane reservation description.
    pub res_info: ResInfo,
    /// The expanded authentication key.
    pub key: AuthKey,
}

/// The end-host client state.
pub struct Client {
    /// On-chain account.
    pub account: Address,
    /// Ephemeral secret keys of in-flight redeem requests, keyed by the
    /// request object they belong to — deliveries echo that ID, so each
    /// one is opened with exactly its key (no trial decryption).
    pending_eph: DigestMap<ObjectId, SecretKey>,
    granted: Vec<GrantedReservation>,
    /// Latest granted window per `(as, ingress, res_id)` — the entry a
    /// renewal delivery's unwrap key ratchets from.
    latest: HashMap<(IsdAs, u16, u32), usize>,
    /// Renewal deliveries already unwrapped (they stay on chain, so a
    /// later collect pass must not ingest them twice).
    seen_renewals: DigestSet<ObjectId>,
    /// Delivery objects (redeem and renewal) whose payload has been
    /// ingested — dead weight on chain until [`Self::sweep_collected`]
    /// deletes them for the storage rebate.
    reclaimable: Vec<ObjectId>,
}

impl Client {
    /// Creates a client for `account`.
    pub fn new(account: Address) -> Self {
        Client {
            account,
            pending_eph: DigestMap::default(),
            granted: Vec::new(),
            latest: HashMap::new(),
            seen_renewals: DigestSet::default(),
            reclaimable: Vec::new(),
        }
    }

    /// Appends a granted window and points the renewal index at it.
    fn push_granted(&mut self, g: GrantedReservation) {
        let key = (g.as_id, g.res_info.ingress, g.res_info.res_id);
        self.latest.insert(key, self.granted.len());
        self.granted.push(g);
    }

    /// Reservations collected so far.
    pub fn reservations(&self) -> &[GrantedReservation] {
        &self.granted
    }

    /// Number of redeem requests still awaiting delivery.
    pub fn pending_count(&self) -> usize {
        self.pending_eph.len()
    }

    /// Buys a fraction of one listing (no redeem).
    pub fn buy(
        &mut self,
        cp: &mut ControlPlane,
        market: ObjectId,
        listing: ObjectId,
        spec: PurchaseSpec,
    ) -> CpResult<ObjectId> {
        cp.buy(self.account, market, listing, spec)
    }

    /// Atomically buys and redeems reservations for a whole path in one
    /// transaction. Each hop gets a fresh ephemeral key; the matching
    /// secrets are retained to open the deliveries later.
    pub fn buy_and_redeem_path<R: Rng + ?Sized>(
        &mut self,
        cp: &mut ControlPlane,
        market: ObjectId,
        hops: &[(ObjectId, ObjectId, PurchaseSpec)],
        rng: &mut R,
    ) -> CpResult<Vec<ObjectId>> {
        let mut eph_secrets = Vec::with_capacity(hops.len());
        let purchases: Vec<HopPurchase> = hops
            .iter()
            .map(|&(ingress_listing, egress_listing, spec)| {
                let sk = SecretKey::generate(rng);
                let pk = sk.public();
                eph_secrets.push(sk);
                HopPurchase { ingress_listing, egress_listing, spec, ephemeral_pk: pk }
            })
            .collect();
        let receipt = cp.buy_and_redeem_path(self.account, market, &purchases)?;
        // Only remember the ephemeral secrets if the purchase committed —
        // keyed by the per-hop request IDs the receipt returns.
        for (request_id, sk) in receipt.value.iter().zip(eph_secrets) {
            self.pending_eph.insert(*request_id, sk);
        }
        Ok(receipt)
    }

    /// Redeems an already-owned ingress/egress asset pair.
    pub fn redeem<R: Rng + ?Sized>(
        &mut self,
        cp: &mut ControlPlane,
        ingress: ObjectId,
        egress: ObjectId,
        rng: &mut R,
    ) -> CpResult<ObjectId> {
        let sk = SecretKey::generate(rng);
        let pk = sk.public();
        let receipt = cp.redeem(self.account, ingress, egress, pk)?;
        self.pending_eph.insert(receipt.value, sk);
        Ok(receipt)
    }

    /// Requests a renewal of a reservation this client holds: same hop
    /// set, same ResID, one more duration window (the O(1) fast path —
    /// no market purchase, no re-coloring, no key exchange). `generation`
    /// is the number of renewals already served for this reservation; the
    /// fee is paid up front and refunded by the AS if the renewal is
    /// rejected. The renewed key arrives as a [`RenewedReservation`]
    /// delivery, collected with [`Self::collect_renewals`].
    ///
    /// [`RenewedReservation`]: crate::renewal::RenewedReservation
    pub fn request_renewal(
        &mut self,
        cp: &mut ControlPlane,
        as_account: Address,
        ingress: u16,
        res_id: u32,
        generation: u32,
        fee: u64,
    ) -> CpResult<ObjectId> {
        let request = RenewalRequest { requester: self.account, ingress, res_id, generation, fee };
        cp.request_renewal(self.account, as_account, request)
    }

    /// Requests renewals for a whole batch of reservations in **one
    /// transaction** (see [`ControlPlane::request_renewals`]): each item is
    /// `(ingress, res_id, generation)`; `fee` is paid per renewal.
    pub fn request_renewals(
        &mut self,
        cp: &mut ControlPlane,
        as_account: Address,
        items: &[(u16, u32, u32)],
        fee: u64,
    ) -> CpResult<Vec<ObjectId>> {
        let requests = items
            .iter()
            .map(|&(ingress, res_id, generation)| RenewalRequest {
                requester: self.account,
                ingress,
                res_id,
                generation,
                fee,
            })
            .collect();
        cp.request_renewals(self.account, as_account, requests)
    }

    /// Collects every renewed-reservation delivery currently owned by this
    /// client: for each, finds the granted reservation it extends, derives
    /// the unwrap key from that reservation's `A_K` and the delivery's
    /// generation, and — if the tag verifies — adds the new window as a
    /// fresh [`GrantedReservation`]. Returns how many were collected.
    /// Deliveries that match no held reservation are left untouched.
    pub fn collect_renewals(&mut self, cp: &ControlPlane) -> Result<usize, ExecError> {
        let deliveries = cp.renewal_deliveries_for(self.account);
        let mut collected = 0;
        for (id, delivery) in deliveries {
            if self.seen_renewals.contains(&id) {
                continue;
            }
            // The latest granted window for this (as, ingress, res_id) is
            // the one whose key the AS ratcheted.
            let key = (delivery.as_id, delivery.ingress, delivery.res_id);
            let Some(&idx) = self.latest.get(&key) else { continue };
            let wrap = renewal_wrap_key(&self.granted[idx].key.to_bytes(), delivery.generation);
            let Ok(plain) = sealed::open_with_key(&wrap, &delivery.boxed) else { continue };
            let payload = ReservationPayload::decode(&plain)?;
            self.push_granted(GrantedReservation {
                as_id: delivery.as_id,
                res_info: payload.res_info,
                key: AuthKey::new(payload.key),
            });
            self.seen_renewals.insert(id);
            self.reclaimable.push(id);
            collected += 1;
        }
        Ok(collected)
    }

    /// Collects and decrypts every delivery currently owned by this client,
    /// turning them into usable reservations. Returns how many were
    /// collected. Each delivery names the redeem request it answers, so it
    /// is opened with exactly that request's ephemeral key; deliveries for
    /// requests this instance did not make (or that fail to open) are left
    /// untouched.
    pub fn collect_deliveries(&mut self, cp: &ControlPlane) -> Result<usize, ExecError> {
        let deliveries = cp.deliveries_for(self.account);
        let mut collected = 0;
        for (id, delivery) in deliveries {
            let Some(sk) = self.pending_eph.get(&delivery.request) else { continue };
            let Ok(plain) = sealed::open(sk, &delivery.sealed) else { continue };
            let payload = ReservationPayload::decode(&plain)?;
            self.push_granted(GrantedReservation {
                as_id: delivery.as_id,
                res_info: payload.res_info,
                key: AuthKey::new(payload.key),
            });
            self.pending_eph.remove(&delivery.request);
            self.reclaimable.push(id);
            collected += 1;
        }
        Ok(collected)
    }

    /// Deletes every delivery object whose payload this client has already
    /// ingested, in one transaction, collecting the storage rebates
    /// (see [`ControlPlane::reclaim`]). Returns how many were reclaimed.
    pub fn sweep_collected(&mut self, cp: &mut ControlPlane) -> Result<usize, ExecError> {
        if self.reclaimable.is_empty() {
            return Ok(0);
        }
        let ids = std::mem::take(&mut self.reclaimable);
        let n = ids.len();
        cp.reclaim(self.account, ids)?;
        Ok(n)
    }

    /// Convenience: the subset of granted reservations issued by `as_id`.
    pub fn reservations_at(&self, as_id: IsdAs) -> Vec<&GrantedReservation> {
        self.granted.iter().filter(|g| g.as_id == as_id).collect()
    }

    /// Shares a reservation with another party (paper §4.1: reservations
    /// are not bound to network identities, so the key can simply be
    /// handed over — e.g. to the destination for a reverse path, App. C).
    pub fn export_reservation(&self, index: usize) -> Option<(IsdAs, ResInfo, [u8; 16])> {
        self.granted.get(index).map(|g| (g.as_id, g.res_info, g.key.to_bytes()))
    }

    /// Imports a reservation shared by another party.
    pub fn import_reservation(&mut self, as_id: IsdAs, res_info: ResInfo, key: [u8; 16]) {
        self.push_granted(GrantedReservation { as_id, res_info, key: AuthKey::new(key) });
    }
}
