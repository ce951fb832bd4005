//! The control-plane facade: a ledger plus the asset-contract entry points
//! (paper §4.2). Market functions live in [`crate::market`].
//!
//! Every public method is one on-chain transaction. Like every real Sui
//! transaction, each call also mutates the sender's gas coin object — this
//! matters for gas accounting because the coin mutation contributes a
//! storage fee and a rebate to every call (visible throughout Table 2).

use crate::pki::TrustAnchors;
use crate::types::*;
use hummingbird_crypto::sig::{PublicKey, Signature};
use hummingbird_ledger::{
    Address, DigestMap, ExecError, Ledger, ObjectId, Owner, TxContext, TxReceipt, MIST_PER_SUI,
};
use hummingbird_wire::IsdAs;
use std::collections::HashMap;

/// Result alias for contract calls.
pub(crate) type CpResult<T> = Result<TxReceipt<T>, ExecError>;

/// Payload size of the simulated gas coin object. With the ~100 B object
/// envelope this gives the ~0.0025 SUI per-tx storage fee / rebate cycle
/// visible in the paper's Table 2.
const GAS_COIN_PAYLOAD: usize = 230;

/// The Hummingbird control plane: ledger, PKI anchors, and the contract
/// entry points.
pub struct ControlPlane {
    /// The underlying object ledger.
    pub ledger: Ledger,
    /// Trust anchors for AS registration proofs.
    pub anchors: TrustAnchors,
    pub(crate) gas_coins: DigestMap<Address, ObjectId>,
    pub(crate) as_accounts: HashMap<IsdAs, Address>,
}

impl Default for ControlPlane {
    fn default() -> Self {
        Self::new(TrustAnchors::new())
    }
}

impl ControlPlane {
    /// Creates a control plane over a fresh ledger.
    pub fn new(anchors: TrustAnchors) -> Self {
        ControlPlane {
            ledger: Ledger::new(),
            anchors,
            gas_coins: DigestMap::default(),
            as_accounts: HashMap::new(),
        }
    }

    /// Funds an account with `sui` whole SUI (testnet faucet).
    pub fn faucet(&mut self, addr: Address, sui: u64) {
        self.ledger.mint(addr, sui * MIST_PER_SUI);
    }

    /// On-chain account registered for `as_id`, if any.
    pub fn as_account(&self, as_id: IsdAs) -> Option<Address> {
        self.as_accounts.get(&as_id).copied()
    }

    /// Executes `f` as a transaction that, like every Sui transaction,
    /// additionally mutates the sender's gas coin object.
    pub fn exec<T>(
        &mut self,
        sender: Address,
        f: impl FnOnce(&mut TxContext) -> Result<T, ExecError>,
    ) -> CpResult<T> {
        exec_on(&mut self.ledger, &mut self.gas_coins, sender, f)
    }

    // ------------------------------------------------------------------
    // Asset contract
    // ------------------------------------------------------------------

    /// Registers `sender` as the on-chain account of `as_id`, verifying the
    /// PKI possession proof, and mints the authorization token (§4.2,
    /// "AS Registration").
    pub fn register_as(
        &mut self,
        sender: Address,
        as_id: IsdAs,
        proof: &Signature,
    ) -> CpResult<ObjectId> {
        if !self.anchors.verify_registration(as_id, sender, proof) {
            return Err(ExecError::Contract(format!(
                "registration proof for {as_id} did not verify"
            )));
        }
        let receipt = self.exec(sender, |ctx| {
            ctx.charge(50); // signature verification is the expensive part
            let token = AuthToken { as_id };
            Ok(ctx.create(Owner::Address(sender), TAG_AUTH_TOKEN, token.encode()))
        })?;
        self.as_accounts.insert(as_id, sender);
        Ok(receipt)
    }

    /// Issues a bandwidth asset. Only the holder of the auth token for
    /// `asset.as_id` can issue, and the asset's AS identifier is forced to
    /// match the token.
    pub fn issue(
        &mut self,
        sender: Address,
        token_id: ObjectId,
        asset: BandwidthAsset,
    ) -> CpResult<ObjectId> {
        self.exec(sender, move |ctx| {
            let token = AuthToken::decode(ctx.read_ref(token_id, TAG_AUTH_TOKEN)?)?;
            if token.as_id != asset.as_id {
                return Err(ExecError::Contract(
                    "auth token does not match asset AS identifier".into(),
                ));
            }
            asset.check_invariants().map_err(ExecError::Contract)?;
            Ok(ctx.create(Owner::Address(ctx.sender()), TAG_ASSET, asset.encode()))
        })
    }

    /// Splits an asset in the time dimension at `split_at`. The original
    /// object keeps `[start, split_at)`; a new object holds
    /// `[split_at, expiry)`. Returns `(original, new)`.
    pub fn split_time(
        &mut self,
        sender: Address,
        asset_id: ObjectId,
        split_at: u64,
    ) -> CpResult<(ObjectId, ObjectId)> {
        self.exec(sender, move |ctx| {
            let owner = Owner::Address(ctx.sender());
            let new_id = split_time_inner(ctx, asset_id, split_at, owner)?;
            Ok((asset_id, new_id))
        })
    }

    /// Splits an asset in the bandwidth dimension. The original keeps
    /// `keep_kbps`; a new object receives the rest. Returns
    /// `(original, new)`.
    pub fn split_bandwidth(
        &mut self,
        sender: Address,
        asset_id: ObjectId,
        keep_kbps: u64,
    ) -> CpResult<(ObjectId, ObjectId)> {
        self.exec(sender, move |ctx| {
            let owner = Owner::Address(ctx.sender());
            let new_id = split_bandwidth_inner(ctx, asset_id, keep_kbps, owner)?;
            Ok((asset_id, new_id))
        })
    }

    /// Fuses two time-adjacent, otherwise identical assets back into one
    /// (the `first` object absorbs `second`, which is destroyed).
    pub fn fuse_time(
        &mut self,
        sender: Address,
        first: ObjectId,
        second: ObjectId,
    ) -> CpResult<ObjectId> {
        self.exec(sender, move |ctx| {
            let mut a = read_asset(ctx, first)?;
            let b = read_asset(ctx, second)?;
            let compatible = a.as_id == b.as_id
                && a.interface == b.interface
                && a.direction == b.direction
                && a.bandwidth_kbps == b.bandwidth_kbps
                && a.time_granularity == b.time_granularity
                && a.min_bandwidth_kbps == b.min_bandwidth_kbps
                && a.expiry_time == b.start_time;
            if !compatible {
                return Err(ExecError::Contract("assets are not time-adjacent twins".into()));
            }
            a.expiry_time = b.expiry_time;
            ctx.write(first, TAG_ASSET, a.encode())?;
            ctx.delete(second)?;
            Ok(first)
        })
    }

    /// Fuses two same-window assets, summing their bandwidth.
    pub fn fuse_bandwidth(
        &mut self,
        sender: Address,
        first: ObjectId,
        second: ObjectId,
    ) -> CpResult<ObjectId> {
        self.exec(sender, move |ctx| {
            let mut a = read_asset(ctx, first)?;
            let b = read_asset(ctx, second)?;
            let compatible = a.as_id == b.as_id
                && a.interface == b.interface
                && a.direction == b.direction
                && a.start_time == b.start_time
                && a.expiry_time == b.expiry_time
                && a.time_granularity == b.time_granularity
                && a.min_bandwidth_kbps == b.min_bandwidth_kbps;
            if !compatible {
                return Err(ExecError::Contract("assets are not same-window twins".into()));
            }
            a.bandwidth_kbps += b.bandwidth_kbps;
            ctx.write(first, TAG_ASSET, a.encode())?;
            ctx.delete(second)?;
            Ok(first)
        })
    }

    /// Transfers an asset (free trade outside any market).
    pub fn transfer_asset(
        &mut self,
        sender: Address,
        asset_id: ObjectId,
        to: Address,
    ) -> CpResult<()> {
        self.exec(sender, move |ctx| ctx.transfer(asset_id, Owner::Address(to)))
    }

    /// Redeems a matching ingress/egress asset pair: wraps them, together
    /// with the host's ephemeral public key, into a redeem request owned by
    /// the issuing AS (§4.2, steps ❺-❻). Returns the request object.
    pub fn redeem(
        &mut self,
        sender: Address,
        ingress_id: ObjectId,
        egress_id: ObjectId,
        ephemeral_pk: PublicKey,
    ) -> CpResult<ObjectId> {
        let as_accounts = &self.as_accounts;
        exec_on(&mut self.ledger, &mut self.gas_coins, sender, |ctx| {
            redeem_inner(ctx, as_accounts, ingress_id, egress_id, ephemeral_pk)
        })
    }

    /// AS-side: answers a redeem request with a sealed reservation,
    /// destroying the request and the wrapped bandwidth assets (§4.2,
    /// steps ❼-❽).
    pub fn deliver_reservation(
        &mut self,
        sender: Address,
        request_id: ObjectId,
        delivery: EncryptedReservation,
    ) -> CpResult<ObjectId> {
        self.exec(sender, move |ctx| {
            if delivery.request != request_id {
                return Err(ExecError::Contract("delivery answers a different request".into()));
            }
            let request = RedeemRequest::decode(ctx.read_ref(request_id, TAG_REDEEM)?)?;
            // Destroy the wrapped assets: they can no longer be traded.
            ctx.delete(request.ingress_asset)?;
            ctx.delete(request.egress_asset)?;
            ctx.delete(request_id)?;
            Ok(ctx.create(Owner::Address(request.requester), TAG_DELIVERY, delivery.encode()))
        })
    }

    /// Deletes a batch of consumed objects the sender owns, collecting
    /// their storage rebates in one transaction. Deliveries and renewal
    /// deliveries are dead weight once their payload has been decrypted;
    /// reclaiming them keeps the committed object store — and every
    /// hash-map probe against it — small at millions of reservations.
    /// Ownership is enforced per object by the ledger: a sender cannot
    /// reclaim objects it cannot use.
    pub(crate) fn reclaim(&mut self, sender: Address, ids: Vec<ObjectId>) -> CpResult<usize> {
        self.exec(sender, move |ctx| {
            for &id in &ids {
                ctx.delete(id)?;
            }
            Ok(ids.len())
        })
    }

    // ------------------------------------------------------------------
    // Chain inspection (public state; no gas)
    // ------------------------------------------------------------------

    /// All pending redeem requests owned by `as_account`, in object-ID
    /// order. Served from the ledger's owner/type index — O(requests of
    /// this AS), not O(total objects).
    pub fn pending_requests(&self, as_account: Address) -> Vec<(ObjectId, RedeemRequest)> {
        self.ledger
            .objects_owned_by(Owner::Address(as_account), TAG_REDEEM)
            .filter_map(|e| RedeemRequest::decode(&e.data).ok().map(|r| (e.meta.id, r)))
            .collect()
    }

    /// All encrypted reservation deliveries owned by `addr`, in object-ID
    /// order (index-backed, like [`Self::pending_requests`]).
    pub fn deliveries_for(&self, addr: Address) -> Vec<(ObjectId, EncryptedReservation)> {
        self.ledger
            .objects_owned_by(Owner::Address(addr), TAG_DELIVERY)
            .filter_map(|e| EncryptedReservation::decode(&e.data).ok().map(|d| (e.meta.id, d)))
            .collect()
    }

    /// Reads a committed asset by ID (public chain state).
    pub fn asset(&self, id: ObjectId) -> Option<BandwidthAsset> {
        let entry = self.ledger.object(id)?;
        if entry.meta.type_tag != TAG_ASSET {
            return None;
        }
        BandwidthAsset::decode(&entry.data).ok()
    }
}

// ----------------------------------------------------------------------
// Inner contract logic shared with the market contract
// ----------------------------------------------------------------------

/// [`ControlPlane::exec`] over the two fields it needs, so a contract
/// closure can borrow the rest of the control plane (the AS registry)
/// instead of copying it.
pub(crate) fn exec_on<T>(
    ledger: &mut Ledger,
    gas_coins: &mut DigestMap<Address, ObjectId>,
    sender: Address,
    f: impl FnOnce(&mut TxContext) -> Result<T, ExecError>,
) -> CpResult<T> {
    let known_coin = gas_coins.get(&sender).copied();
    let mut created_coin = None;
    let receipt = ledger.execute(sender, |ctx| {
        match known_coin {
            // Version-bump the coin without moving its payload; `touch`
            // charges the same gas as the read+write it replaces.
            Some(id) => ctx.touch(id, TAG_GAS_COIN)?,
            None => {
                let payload = vec![0u8; GAS_COIN_PAYLOAD];
                created_coin = Some(ctx.create(Owner::Address(sender), TAG_GAS_COIN, payload));
            }
        }
        f(ctx)
    })?;
    // The coin's ID only changes on the sender's first transaction.
    if let Some(coin) = created_coin {
        gas_coins.insert(sender, coin);
    }
    Ok(receipt)
}

/// Reads and decodes a bandwidth asset (borrowed read: the payload is
/// decoded in place, never cloned).
pub(crate) fn read_asset(ctx: &mut TxContext, id: ObjectId) -> Result<BandwidthAsset, ExecError> {
    Ok(BandwidthAsset::decode(ctx.read_ref(id, TAG_ASSET)?)?)
}

/// Splits `asset_id` in time at `split_at`; the new `[split_at, expiry)`
/// piece is created with `new_owner`. Returns the new object's ID.
pub(crate) fn split_time_inner(
    ctx: &mut TxContext,
    asset_id: ObjectId,
    split_at: u64,
    new_owner: Owner,
) -> Result<ObjectId, ExecError> {
    let mut asset = read_asset(ctx, asset_id)?;
    if split_at <= asset.start_time || split_at >= asset.expiry_time {
        return Err(ExecError::Contract("split point outside the asset window".into()));
    }
    if !(split_at - asset.start_time).is_multiple_of(asset.time_granularity) {
        return Err(ExecError::Contract("split point violates the time granularity".into()));
    }
    let mut tail = asset.clone();
    tail.start_time = split_at;
    asset.expiry_time = split_at;
    debug_assert!(asset.check_invariants().is_ok());
    debug_assert!(tail.check_invariants().is_ok());
    ctx.write(asset_id, TAG_ASSET, asset.encode())?;
    Ok(ctx.create(new_owner, TAG_ASSET, tail.encode()))
}

/// Splits `asset_id` in bandwidth: the original keeps `keep_kbps`, the new
/// piece (owned by `new_owner`) gets the remainder.
pub(crate) fn split_bandwidth_inner(
    ctx: &mut TxContext,
    asset_id: ObjectId,
    keep_kbps: u64,
    new_owner: Owner,
) -> Result<ObjectId, ExecError> {
    let mut asset = read_asset(ctx, asset_id)?;
    if keep_kbps >= asset.bandwidth_kbps {
        return Err(ExecError::Contract("bandwidth split must shrink the asset".into()));
    }
    let rest = asset.bandwidth_kbps - keep_kbps;
    if keep_kbps < asset.min_bandwidth_kbps || rest < asset.min_bandwidth_kbps {
        return Err(ExecError::Contract("bandwidth split violates the minimum bandwidth".into()));
    }
    let mut tail = asset.clone();
    tail.bandwidth_kbps = rest;
    asset.bandwidth_kbps = keep_kbps;
    ctx.write(asset_id, TAG_ASSET, asset.encode())?;
    Ok(ctx.create(new_owner, TAG_ASSET, tail.encode()))
}

/// Redeem logic: validates the pair, wraps assets into a request owned by
/// the issuing AS.
pub(crate) fn redeem_inner(
    ctx: &mut TxContext,
    as_accounts: &HashMap<IsdAs, Address>,
    ingress_id: ObjectId,
    egress_id: ObjectId,
    ephemeral_pk: PublicKey,
) -> Result<ObjectId, ExecError> {
    let ingress = read_asset(ctx, ingress_id)?;
    let egress = read_asset(ctx, egress_id)?;
    if ingress.direction != Direction::Ingress || egress.direction != Direction::Egress {
        return Err(ExecError::Contract("redeem needs one ingress and one egress asset".into()));
    }
    if !ingress.matches_for_redeem(&egress) {
        return Err(ExecError::Contract(
            "ingress/egress assets do not match (AS, window, bandwidth)".into(),
        ));
    }
    let as_account = as_accounts
        .get(&ingress.as_id)
        .copied()
        .ok_or_else(|| ExecError::Contract(format!("AS {} is not registered", ingress.as_id)))?;
    let request = RedeemRequest {
        requester: ctx.sender(),
        ephemeral_pk,
        ingress_asset: ingress_id,
        egress_asset: egress_id,
        asset: ingress,
        egress_interface: egress.interface,
    };
    let request_id = ctx.create(Owner::Address(as_account), TAG_REDEEM, request.encode());
    // Wrap the assets: they become children of the request, no longer
    // independently tradable.
    ctx.transfer(ingress_id, Owner::Object(request_id))?;
    ctx.transfer(egress_id, Owner::Object(request_id))?;
    Ok(request_id)
}
