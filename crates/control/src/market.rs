//! The marketplace contract and the atomic buy-and-redeem flow (§4.2).
//!
//! The marketplace is a *shared* object — every purchase therefore goes
//! through consensus (paper §6.1), while redeem deliveries ride the fast
//! path. Listed assets are escrowed as children of the marketplace object,
//! and buying a fraction of a listing splits the asset and re-lists the
//! unsold pieces, exactly the worst case the paper benchmarks in Table 1.

use crate::plane::{
    exec_on, read_asset, redeem_inner, split_bandwidth_inner, split_time_inner, ControlPlane,
    CpResult,
};
use crate::types::*;
use hummingbird_crypto::sig::PublicKey;
use hummingbird_ledger::{Address, ExecError, ObjectId, Owner, TxContext};
use hummingbird_wire::IsdAs;

/// What a buyer wants out of a listing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PurchaseSpec {
    /// Desired start (Unix seconds).
    pub start: u64,
    /// Desired end (exclusive).
    pub end: u64,
    /// Desired bandwidth, kbps.
    pub bandwidth_kbps: u64,
}

/// One hop of an atomic path purchase: matching ingress and egress
/// listings plus the desired dimensions and the ephemeral key for the
/// redeem request.
#[derive(Clone, Debug)]
pub struct HopPurchase {
    /// Listing for the ingress-direction asset.
    pub ingress_listing: ObjectId,
    /// Listing for the egress-direction asset.
    pub egress_listing: ObjectId,
    /// Desired window and bandwidth (applied to both assets).
    pub spec: PurchaseSpec,
    /// Ephemeral public key sealed into this hop's redeem request.
    pub ephemeral_pk: PublicKey,
}

impl ControlPlane {
    /// Creates a marketplace (a shared object anyone can trade on).
    pub fn create_marketplace(&mut self, sender: Address) -> CpResult<ObjectId> {
        self.exec(sender, |ctx| {
            // Small config payload: protocol version + fee placeholder.
            Ok(ctx.create(Owner::Shared, TAG_MARKET, vec![1, 0, 0, 0, 0, 0, 0, 0]))
        })
    }

    /// Registers `sender` as a seller on `market`.
    pub fn register_seller(&mut self, sender: Address, market: ObjectId) -> CpResult<ObjectId> {
        self.exec(sender, move |ctx| {
            ctx.read_ref(market, TAG_MARKET)?;
            let mut data = Vec::with_capacity(32);
            data.extend_from_slice(&ctx.sender().0);
            Ok(ctx.create(Owner::Object(market), TAG_SELLER, data))
        })
    }

    /// Lists an asset for sale: the asset is escrowed under the market and
    /// a listing child object records seller and ask price.
    pub fn create_listing(
        &mut self,
        sender: Address,
        market: ObjectId,
        asset_id: ObjectId,
        price_per_kbps_sec: u64,
    ) -> CpResult<ObjectId> {
        self.exec(sender, move |ctx| {
            ctx.read_ref(market, TAG_MARKET)?;
            // Reading the asset checks the sender owns it.
            read_asset(ctx, asset_id)?;
            ctx.transfer(asset_id, Owner::Object(market))?;
            let listing = Listing { seller: ctx.sender(), asset: asset_id, price_per_kbps_sec };
            Ok(ctx.create(Owner::Object(market), TAG_LISTING, listing.encode()))
        })
    }

    /// Buys (a fraction of) a listing. Pays the seller, splits the asset as
    /// needed and re-lists the unsold pieces. Returns the bought asset.
    pub fn buy(
        &mut self,
        sender: Address,
        market: ObjectId,
        listing_id: ObjectId,
        spec: PurchaseSpec,
    ) -> CpResult<ObjectId> {
        self.exec(sender, move |ctx| buy_inner(ctx, market, listing_id, spec))
    }

    /// The paper's flagship control-plane operation: atomically buys and
    /// redeems reservations for a whole path in **one transaction**
    /// (Table 1, Fig. 4). If any hop fails — no bandwidth, wrong window,
    /// insufficient funds — the entire transaction aborts and no money or
    /// assets move (§4.2, "Atomic End-to-End Guarantees").
    ///
    /// Returns one redeem-request object per hop.
    pub fn buy_and_redeem_path(
        &mut self,
        sender: Address,
        market: ObjectId,
        hops: &[HopPurchase],
    ) -> CpResult<Vec<ObjectId>> {
        let as_accounts = &self.as_accounts;
        exec_on(&mut self.ledger, &mut self.gas_coins, sender, |ctx| {
            let mut requests = Vec::with_capacity(hops.len());
            for hop in hops {
                let ingress = buy_inner(ctx, market, hop.ingress_listing, hop.spec)?;
                let egress = buy_inner(ctx, market, hop.egress_listing, hop.spec)?;
                let request = redeem_inner(ctx, as_accounts, ingress, egress, hop.ephemeral_pk)?;
                requests.push(request);
            }
            Ok(requests)
        })
    }

    /// All listings on `market`, joined with their escrowed assets
    /// (public state: how clients browse the market), in object-ID order.
    /// Served from the ledger's owner/type index — O(listings of this
    /// market), not O(total objects).
    pub fn listings(&self, market: ObjectId) -> Vec<(ObjectId, Listing, BandwidthAsset)> {
        self.ledger
            .objects_owned_by(Owner::Object(market), TAG_LISTING)
            .filter_map(|e| {
                let listing = Listing::decode(&e.data).ok()?;
                let asset = self.asset(listing.asset)?;
                Some((e.meta.id, listing, asset))
            })
            .collect()
    }

    /// All registered ASes and their accounts (the registry maintained by
    /// [`ControlPlane::register_as`]), sorted by AS identifier.
    pub fn registered_ases(&self) -> Vec<(IsdAs, Address)> {
        let mut out: Vec<(IsdAs, Address)> =
            self.as_accounts.iter().map(|(as_id, addr)| (*as_id, *addr)).collect();
        out.sort_by_key(|(as_id, _)| *as_id);
        out
    }
}

/// Contract logic of a (possibly fractional) purchase, usable standalone or
/// inside an atomic path transaction. Returns the bought asset object.
pub(crate) fn buy_inner(
    ctx: &mut TxContext,
    market: ObjectId,
    listing_id: ObjectId,
    spec: PurchaseSpec,
) -> Result<ObjectId, ExecError> {
    ctx.read_ref(market, TAG_MARKET)?;
    let listing = Listing::decode(ctx.read_ref(listing_id, TAG_LISTING)?)?;
    let asset = read_asset(ctx, listing.asset)?;

    // Validate the requested dimensions.
    if spec.start >= spec.end {
        return Err(ExecError::Contract("empty purchase window".into()));
    }
    if spec.start < asset.start_time || spec.end > asset.expiry_time {
        return Err(ExecError::Contract("purchase window outside the asset".into()));
    }
    if !(spec.start - asset.start_time).is_multiple_of(asset.time_granularity)
        || !(asset.expiry_time - spec.end).is_multiple_of(asset.time_granularity)
    {
        return Err(ExecError::Contract("purchase window violates the time granularity".into()));
    }
    if spec.bandwidth_kbps < asset.min_bandwidth_kbps {
        return Err(ExecError::Contract("purchase below the minimum bandwidth".into()));
    }
    if spec.bandwidth_kbps > asset.bandwidth_kbps {
        return Err(ExecError::Contract("purchase exceeds the listed bandwidth".into()));
    }
    let bw_rest = asset.bandwidth_kbps - spec.bandwidth_kbps;
    if bw_rest != 0 && bw_rest < asset.min_bandwidth_kbps {
        return Err(ExecError::Contract(
            "bandwidth remainder would violate the minimum bandwidth".into(),
        ));
    }

    // Pay the seller.
    let price = listing.price(spec.bandwidth_kbps, spec.start, spec.end);
    ctx.pay(listing.seller, price);

    let escrow = Owner::Object(market);
    let relist = |ctx: &mut TxContext, piece: ObjectId| {
        let new_listing = Listing {
            seller: listing.seller,
            asset: piece,
            price_per_kbps_sec: listing.price_per_kbps_sec,
        };
        ctx.create(escrow, TAG_LISTING, new_listing.encode());
    };

    // Head split: the original object keeps the head leftover and remains
    // referenced by the original listing; the tail becomes the working
    // object the purchase continues on.
    let (working, original_listing_consumed) = if spec.start > asset.start_time {
        let tail = split_time_inner(ctx, listing.asset, spec.start, escrow)?;
        (tail, false)
    } else {
        (listing.asset, true)
    };

    // Back split: working keeps [spec.start, spec.end); re-list the tail.
    let current = read_asset(ctx, working)?;
    if spec.end < current.expiry_time {
        let back = split_time_inner(ctx, working, spec.end, escrow)?;
        relist(ctx, back);
    }

    // Bandwidth split: working keeps the bought bandwidth.
    let current = read_asset(ctx, working)?;
    if spec.bandwidth_kbps < current.bandwidth_kbps {
        let rest = split_bandwidth_inner(ctx, working, spec.bandwidth_kbps, escrow)?;
        relist(ctx, rest);
    }

    if original_listing_consumed {
        ctx.delete(listing_id)?;
    }
    ctx.transfer(working, Owner::Address(ctx.sender()))?;
    Ok(working)
}
