//! Epoch-batched auction clearing (paper §5.3).
//!
//! The paper notes that auction mechanisms "require … discrete rounds in
//! which the auctions complete". Settling each auction as its own
//! transaction makes every round cost O(auctions) transactions — each
//! with its own gas-coin mutation, digest computation, and effects
//! commit. The [`ClearingEngine`] instead settles **every auction whose
//! `close_epoch` matches the round in a single transaction**: one pass
//! over the revealed bids of the whole epoch, with the per-transaction
//! overhead amortized across all of them.
//!
//! The batched settlement is equivalent to running
//! [`ControlPlane::settle_auction`] sequentially over the same auctions
//! in ascending object-ID order: same winners, same clearing prices, and
//! the same final ledger object set. Both paths share one settlement
//! function ([`crate::auction`]'s `settle_auction_inner`), and a
//! differential test pins the equivalence end to end — including amount
//! ties and auctions with no valid bid. The only divergence is the
//! caller's gas coin, which the batch mutates once instead of N times.

use crate::auction::{settle_auction_inner, AuctionOutcome};
use crate::plane::{ControlPlane, CpResult};
use hummingbird_ledger::{Address, ObjectId};
use std::collections::BTreeMap;

/// Schedules auctions into settlement epochs and clears each epoch in one
/// batched transaction.
///
/// The engine is off-chain bookkeeping (which auctions belong to which
/// epoch); all money and asset movement happens inside the clearing
/// transaction, exactly as in per-auction settlement.
#[derive(Debug, Default)]
pub struct ClearingEngine {
    /// Auctions pending settlement, per epoch; each epoch's list is kept
    /// sorted so a cleared epoch processes auctions in ascending
    /// object-ID order — the same order a sequential settler iterating
    /// the chain would use.
    by_epoch: BTreeMap<u64, Vec<ObjectId>>,
}

impl ClearingEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an auction scheduled to settle in `close_epoch` and tracks
    /// it (see `ControlPlane::create_auction_at`).
    pub fn create_auction(
        &mut self,
        cp: &mut ControlPlane,
        seller: Address,
        asset_id: ObjectId,
        reserve_price: u64,
        close_epoch: u64,
    ) -> CpResult<ObjectId> {
        let receipt = cp.create_auction_at(seller, asset_id, reserve_price, close_epoch)?;
        self.track(receipt.value, close_epoch);
        Ok(receipt)
    }

    /// Registers an existing auction for settlement in `close_epoch`.
    pub fn track(&mut self, auction_id: ObjectId, close_epoch: u64) {
        let slot = self.by_epoch.entry(close_epoch).or_default();
        if let Err(pos) = slot.binary_search(&auction_id) {
            slot.insert(pos, auction_id);
        }
    }

    /// Number of auctions awaiting settlement in `epoch`.
    pub fn pending(&self, epoch: u64) -> usize {
        self.by_epoch.get(&epoch).map(Vec::len).unwrap_or(0)
    }

    /// Settles every tracked auction of `epoch` in **one transaction**.
    ///
    /// Every auction must already be in the reveal phase: the whole
    /// transaction aborts otherwise (atomically — no partial settlement)
    /// and the epoch stays tracked so the caller can close stragglers and
    /// retry. Returns the per-auction outcomes in ascending auction-ID
    /// order.
    pub fn clear_epoch(
        &mut self,
        cp: &mut ControlPlane,
        caller: Address,
        epoch: u64,
    ) -> CpResult<Vec<(ObjectId, AuctionOutcome)>> {
        let auctions = self.by_epoch.get(&epoch).cloned().unwrap_or_default();
        // Collect each auction's bid objects from the committed chain
        // state (index-backed; already in object-ID order).
        let bid_sets: Vec<Vec<ObjectId>> = auctions.iter().map(|&id| cp.auction_bids(id)).collect();
        let receipt = cp.exec(caller, move |ctx| {
            let mut outcomes = Vec::with_capacity(auctions.len());
            for (&auction_id, bid_ids) in auctions.iter().zip(&bid_sets) {
                let outcome = settle_auction_inner(ctx, auction_id, bid_ids)?;
                outcomes.push((auction_id, outcome));
            }
            Ok(outcomes)
        })?;
        self.by_epoch.remove(&epoch);
        Ok(receipt)
    }
}
