//! A sealed-bid second-price (Vickrey) auction for bandwidth assets.
//!
//! The paper's prototype uses a posted-price spot market; §5.3 discusses
//! auctions (VCG) as the alternative mechanism for price discovery,
//! noting they "require additional rounds of communication with a smart
//! contract as well as discrete rounds in which the auctions complete".
//! This module implements that extension: a commit-reveal Vickrey auction
//! as a contract over the same ledger, demonstrating the extra rounds and
//! providing the strategy-proof allocation the paper cites.
//!
//! Protocol (each step one transaction):
//! 1. `create_auction` — seller escrows the asset under a shared auction
//!    object with a reserve price.
//! 2. `commit_bid` — bidders post `H(amount ∥ salt ∥ bidder)` along with a
//!    deposit that upper-bounds their bid (sealed: the amount is hidden).
//! 3. `close_bidding` — seller ends the commit phase.
//! 4. `reveal_bid` — bidders open their commitments.
//! 5. `settle` — highest revealed bid wins, pays the *second* price (or
//!    the reserve), everyone else is refunded; unrevealed deposits are
//!    refunded too (honest-but-forgetful bidders lose nothing but the
//!    asset).

use crate::plane::{read_asset, ControlPlane, CpResult};
use crate::types::TAG_ASSET;
use hummingbird_crypto::sha256::Sha256;
use hummingbird_ledger::codec::{DecodeError, Reader, Writer};
use hummingbird_ledger::{Address, ExecError, ObjectId, Owner, TxContext};

/// Type tag of auction shared objects.
pub const TAG_AUCTION: &str = "hummingbird::auction::Auction";
/// Type tag of bid child objects.
pub const TAG_BID: &str = "hummingbird::auction::Bid";

/// Auction phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Accepting sealed commitments.
    Commit,
    /// Accepting reveals.
    Reveal,
}

impl Phase {
    fn encode(self) -> u8 {
        match self {
            Phase::Commit => 0,
            Phase::Reveal => 1,
        }
    }
    fn decode(v: u8) -> Result<Self, DecodeError> {
        match v {
            0 => Ok(Phase::Commit),
            1 => Ok(Phase::Reveal),
            _ => Err(DecodeError),
        }
    }
}

/// On-chain auction state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Auction {
    /// Seller receiving the proceeds.
    pub seller: Address,
    /// The escrowed asset.
    pub asset: ObjectId,
    /// Minimum acceptable price, MIST.
    pub reserve_price: u64,
    /// Current phase.
    pub phase: Phase,
    /// The settlement epoch this auction belongs to (§5.3's "discrete
    /// rounds in which the auctions complete"). The [`crate::clearing`]
    /// engine settles every auction of an epoch in one batched
    /// transaction; 0 means "unscheduled" (settled individually).
    pub close_epoch: u64,
}

impl Auction {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.seller.0);
        w.bytes(&self.asset.0);
        w.u64(self.reserve_price);
        w.u8(self.phase.encode());
        w.u64(self.close_epoch);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let a = Auction {
            seller: Address(r.array::<32>()?),
            asset: ObjectId(r.array::<32>()?),
            reserve_price: r.u64()?,
            phase: Phase::decode(r.u8()?)?,
            close_epoch: r.u64()?,
        };
        r.finish()?;
        Ok(a)
    }
}

/// On-chain bid state (crate-visible so the clearing engine can settle
/// batches with the exact same ranking logic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Bid {
    pub(crate) bidder: Address,
    pub(crate) commitment: [u8; 32],
    pub(crate) deposit: u64,
    pub(crate) revealed_amount: Option<u64>,
}

impl Bid {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.bidder.0);
        w.bytes(&self.commitment);
        w.u64(self.deposit);
        match self.revealed_amount {
            Some(a) => {
                w.bool(true);
                w.u64(a);
            }
            None => w.bool(false),
        }
        w.finish()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let bidder = Address(r.array::<32>()?);
        let commitment = r.array::<32>()?;
        let deposit = r.u64()?;
        let revealed_amount = if r.bool()? { Some(r.u64()?) } else { None };
        r.finish()?;
        Ok(Bid { bidder, commitment, deposit, revealed_amount })
    }
}

/// The auction escrow account (derived from the auction object ID): bids'
/// deposits are held here until settlement.
pub(crate) fn escrow_address(auction: ObjectId) -> Address {
    let mut h = Sha256::new();
    h.update(b"hummingbird-auction-escrow");
    h.update(&auction.0);
    Address(h.finalize())
}

/// Computes a bid commitment: `H(amount ∥ salt ∥ bidder)`.
pub fn bid_commitment(amount: u64, salt: &[u8; 32], bidder: Address) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"hummingbird-bid-commitment");
    h.update(&amount.to_be_bytes());
    h.update(salt);
    h.update(&bidder.0);
    h.finalize()
}

/// Settlement outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuctionOutcome {
    /// Winning bidder and the asset they received, if any bid met the
    /// reserve.
    pub winner: Option<(Address, ObjectId)>,
    /// The clearing (second) price paid.
    pub price: u64,
    /// Number of revealed bids considered.
    pub revealed_bids: usize,
}

pub(crate) fn read_auction(ctx: &mut TxContext, id: ObjectId) -> Result<Auction, ExecError> {
    Ok(Auction::decode(ctx.read_ref(id, TAG_AUCTION)?)?)
}

/// Settlement contract logic for one auction, usable standalone
/// ([`ControlPlane::settle_auction`]) or inside an epoch-clearing batch
/// transaction ([`crate::ClearingEngine::clear_epoch`]), so both paths
/// produce identical winners, prices, and ledger effects by construction.
pub(crate) fn settle_auction_inner(
    ctx: &mut TxContext,
    auction_id: ObjectId,
    bid_ids: &[ObjectId],
) -> Result<AuctionOutcome, ExecError> {
    let auction = read_auction(ctx, auction_id)?;
    if auction.phase != Phase::Reveal {
        return Err(ExecError::Contract("close bidding first".into()));
    }
    let escrow = escrow_address(auction_id);

    // Load all bids.
    let mut bids = Vec::with_capacity(bid_ids.len());
    for &id in bid_ids {
        bids.push((id, Bid::decode(ctx.read_ref(id, TAG_BID)?)?));
    }
    // Rank revealed bids meeting the reserve; ties break by bid
    // object ID for determinism.
    let mut ranked: Vec<(u64, usize)> = bids
        .iter()
        .enumerate()
        .filter_map(|(i, (_, b))| {
            b.revealed_amount.filter(|&a| a >= auction.reserve_price).map(|a| (a, i))
        })
        .collect();
    ranked.sort_by(|a, b| b.cmp(a));
    let revealed_bids = ranked.len();

    let outcome = if let Some(&(top, winner_idx)) = ranked.first() {
        // Vickrey price: second-highest revealed bid or reserve.
        let price = ranked.get(1).map(|&(a, _)| a).unwrap_or(auction.reserve_price);
        debug_assert!(price <= top);
        let winner = bids[winner_idx].1.bidder;
        // Pay the seller from escrow, refund the winner's change.
        ctx.pay_from(escrow, auction.seller, price);
        ctx.pay_from(escrow, winner, bids[winner_idx].1.deposit - price);
        // Refund every other deposit (revealed or not).
        for (i, (_, b)) in bids.iter().enumerate() {
            if i != winner_idx {
                ctx.pay_from(escrow, b.bidder, b.deposit);
            }
        }
        ctx.transfer(auction.asset, Owner::Address(winner))?;
        AuctionOutcome { winner: Some((winner, auction.asset)), price, revealed_bids }
    } else {
        // No valid bid: refund everyone, return the asset.
        for (_, b) in &bids {
            ctx.pay_from(escrow, b.bidder, b.deposit);
        }
        ctx.transfer(auction.asset, Owner::Address(auction.seller))?;
        AuctionOutcome { winner: None, price: 0, revealed_bids }
    };
    // Tear down: delete bids and the auction (storage rebates).
    for (id, _) in &bids {
        ctx.delete(*id)?;
    }
    ctx.delete(auction_id)?;
    Ok(outcome)
}

impl ControlPlane {
    /// Step 1: creates an auction, escrowing the seller's asset.
    pub fn create_auction(
        &mut self,
        seller: Address,
        asset_id: ObjectId,
        reserve_price: u64,
    ) -> CpResult<ObjectId> {
        self.create_auction_at(seller, asset_id, reserve_price, 0)
    }

    /// Like [`Self::create_auction`], but stamps the auction with the
    /// settlement epoch it belongs to so a [`crate::ClearingEngine`] can
    /// batch-settle it together with every other auction of that epoch.
    pub fn create_auction_at(
        &mut self,
        seller: Address,
        asset_id: ObjectId,
        reserve_price: u64,
        close_epoch: u64,
    ) -> CpResult<ObjectId> {
        self.exec(seller, move |ctx| {
            read_asset(ctx, asset_id)?; // ownership check
            let auction = Auction {
                seller: ctx.sender(),
                asset: asset_id,
                reserve_price,
                phase: Phase::Commit,
                close_epoch,
            };
            let auction_id = ctx.create(Owner::Shared, TAG_AUCTION, auction.encode());
            ctx.transfer(asset_id, Owner::Object(auction_id))?;
            Ok(auction_id)
        })
    }

    /// Step 2: posts a sealed bid with a deposit (the bid upper bound).
    pub fn commit_bid(
        &mut self,
        bidder: Address,
        auction_id: ObjectId,
        commitment: [u8; 32],
        deposit: u64,
    ) -> CpResult<ObjectId> {
        self.exec(bidder, move |ctx| {
            let auction = read_auction(ctx, auction_id)?;
            if auction.phase != Phase::Commit {
                return Err(ExecError::Contract("bidding is closed".into()));
            }
            ctx.pay(escrow_address(auction_id), deposit);
            let bid = Bid { bidder: ctx.sender(), commitment, deposit, revealed_amount: None };
            Ok(ctx.create(Owner::Object(auction_id), TAG_BID, bid.encode()))
        })
    }

    /// Step 3: the seller closes the commit phase.
    pub fn close_bidding(&mut self, seller: Address, auction_id: ObjectId) -> CpResult<()> {
        self.exec(seller, move |ctx| {
            let mut auction = read_auction(ctx, auction_id)?;
            if auction.seller != ctx.sender() {
                return Err(ExecError::Contract("only the seller can close bidding".into()));
            }
            if auction.phase != Phase::Commit {
                return Err(ExecError::Contract("already closed".into()));
            }
            auction.phase = Phase::Reveal;
            ctx.write(auction_id, TAG_AUCTION, auction.encode())
        })
    }

    /// Step 4: opens a commitment. Rejects amounts above the deposit and
    /// commitments that do not verify.
    pub fn reveal_bid(
        &mut self,
        bidder: Address,
        auction_id: ObjectId,
        bid_id: ObjectId,
        amount: u64,
        salt: [u8; 32],
    ) -> CpResult<()> {
        self.exec(bidder, move |ctx| {
            let auction = read_auction(ctx, auction_id)?;
            if auction.phase != Phase::Reveal {
                return Err(ExecError::Contract("not in the reveal phase".into()));
            }
            let mut bid = Bid::decode(ctx.read_ref(bid_id, TAG_BID)?)?;
            if bid.bidder != ctx.sender() {
                return Err(ExecError::Contract("not your bid".into()));
            }
            if bid.revealed_amount.is_some() {
                return Err(ExecError::Contract("already revealed".into()));
            }
            if amount > bid.deposit {
                return Err(ExecError::Contract("bid exceeds the deposit".into()));
            }
            if bid_commitment(amount, &salt, ctx.sender()) != bid.commitment {
                return Err(ExecError::Contract("commitment does not verify".into()));
            }
            bid.revealed_amount = Some(amount);
            ctx.write(bid_id, TAG_BID, bid.encode())
        })
    }

    /// Step 5: settles the auction. Callable by anyone once in the reveal
    /// phase; pass every bid object (the chain scan is public).
    pub fn settle_auction(
        &mut self,
        caller: Address,
        auction_id: ObjectId,
        bid_ids: &[ObjectId],
    ) -> CpResult<AuctionOutcome> {
        self.exec(caller, |ctx| settle_auction_inner(ctx, auction_id, bid_ids))
    }

    /// Public chain scan: bid objects of an auction, in object-ID order.
    /// Served from the ledger's owner/type index — O(bids of this
    /// auction), not O(total objects).
    pub fn auction_bids(&self, auction_id: ObjectId) -> Vec<ObjectId> {
        self.ledger
            .objects_owned_by(Owner::Object(auction_id), TAG_BID)
            .map(|e| e.meta.id)
            .collect()
    }

    /// Public chain scan: the asset escrowed under an auction (checked
    /// against [`TAG_ASSET`]).
    pub fn auction_state(&self, auction_id: ObjectId) -> Option<Auction> {
        let entry = self.ledger.object(auction_id)?;
        if entry.meta.type_tag != TAG_AUCTION {
            return None;
        }
        let a = Auction::decode(&entry.data).ok()?;
        debug_assert_eq!(self.ledger.object(a.asset)?.meta.type_tag, TAG_ASSET);
        Some(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::TrustAnchors;
    use crate::types::{BandwidthAsset, Direction};
    use crate::AsService;
    use hummingbird_crypto::sig::SecretKey;
    use hummingbird_wire::IsdAs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct AuctionWorld {
        cp: ControlPlane,
        seller: Address,
        asset: ObjectId,
    }

    fn setup() -> AuctionWorld {
        let mut rng = StdRng::seed_from_u64(21);
        let cert = SecretKey::from_seed(b"auction-as");
        let as_id = IsdAs::new(1, 0x5005);
        let mut anchors = TrustAnchors::new();
        anchors.install(as_id, cert.public());
        let mut cp = ControlPlane::new(anchors);
        let mut service = AsService::new(as_id, cert, [2u8; 16], 100);
        cp.faucet(service.account, 1000);
        service.register(&mut cp, &mut rng).unwrap();
        let asset = service
            .issue_asset(
                &mut cp,
                BandwidthAsset {
                    as_id,
                    bandwidth_kbps: 10_000,
                    start_time: 0,
                    expiry_time: 3600,
                    interface: 1,
                    direction: Direction::Ingress,
                    time_granularity: 60,
                    min_bandwidth_kbps: 100,
                },
            )
            .unwrap()
            .value;
        AuctionWorld { cp, seller: service.account, asset }
    }

    fn bidder(w: &mut AuctionWorld, name: &str) -> Address {
        let a = Address::from_label(name);
        w.cp.faucet(a, 1000);
        a
    }

    #[test]
    fn vickrey_winner_pays_second_price() {
        let mut w = setup();
        let auction = w.cp.create_auction(w.seller, w.asset, 1_000).unwrap().value;
        let alice = bidder(&mut w, "alice");
        let bob = bidder(&mut w, "bob");
        let carol = bidder(&mut w, "carol");

        let salt = [7u8; 32];
        let bids = [(alice, 50_000u64), (bob, 30_000), (carol, 10_000)];
        let mut bid_ids = Vec::new();
        for (who, amount) in bids {
            let c = bid_commitment(amount, &salt, who);
            bid_ids.push(w.cp.commit_bid(who, auction, c, amount).unwrap().value);
        }
        w.cp.close_bidding(w.seller, auction).unwrap();
        for ((who, amount), &bid_id) in bids.iter().zip(&bid_ids) {
            w.cp.reveal_bid(*who, auction, bid_id, *amount, salt).unwrap();
        }
        let seller_before = w.cp.ledger.balance(w.seller);
        let outcome = w.cp.settle_auction(w.seller, auction, &bid_ids).unwrap().value;
        assert_eq!(outcome.winner.map(|(a, _)| a), Some(alice));
        assert_eq!(outcome.price, 30_000, "winner pays the second price");
        // Asset went to alice.
        let asset = outcome.winner.unwrap().1;
        assert_eq!(w.cp.ledger.object(asset).unwrap().meta.owner, Owner::Address(alice));
        // Seller received exactly the clearing price.
        assert!(w.cp.ledger.balance(w.seller) >= seller_before + 30_000);
        // Auction and bids were destroyed.
        assert!(w.cp.auction_state(auction).is_none());
    }

    #[test]
    fn losers_and_winner_change_are_refunded() {
        let mut w = setup();
        let auction = w.cp.create_auction(w.seller, w.asset, 100).unwrap().value;
        let alice = bidder(&mut w, "alice");
        let bob = bidder(&mut w, "bob");
        let alice_start = w.cp.ledger.balance(alice);
        let bob_start = w.cp.ledger.balance(bob);
        let salt = [1u8; 32];
        let a_bid =
            w.cp.commit_bid(alice, auction, bid_commitment(5_000, &salt, alice), 5_000)
                .unwrap()
                .value;
        let b_bid =
            w.cp.commit_bid(bob, auction, bid_commitment(2_000, &salt, bob), 2_000).unwrap().value;
        w.cp.close_bidding(w.seller, auction).unwrap();
        w.cp.reveal_bid(alice, auction, a_bid, 5_000, salt).unwrap();
        w.cp.reveal_bid(bob, auction, b_bid, 2_000, salt).unwrap();
        w.cp.settle_auction(w.seller, auction, &[a_bid, b_bid]).unwrap();
        // Bob got his whole deposit back; Alice paid 2000 (plus gas).
        let gas_slack = 100_000_000; // generous bound on gas fees in MIST
        assert!(bob_start - w.cp.ledger.balance(bob) < gas_slack);
        let alice_spent = alice_start - w.cp.ledger.balance(alice);
        assert!(alice_spent >= 2_000 && alice_spent < 2_000 + gas_slack);
    }

    #[test]
    fn reserve_price_is_enforced() {
        let mut w = setup();
        let auction = w.cp.create_auction(w.seller, w.asset, 10_000).unwrap().value;
        let alice = bidder(&mut w, "alice");
        let salt = [2u8; 32];
        let bid_id =
            w.cp.commit_bid(alice, auction, bid_commitment(5_000, &salt, alice), 5_000)
                .unwrap()
                .value;
        w.cp.close_bidding(w.seller, auction).unwrap();
        w.cp.reveal_bid(alice, auction, bid_id, 5_000, salt).unwrap();
        let outcome = w.cp.settle_auction(w.seller, auction, &[bid_id]).unwrap().value;
        assert_eq!(outcome.winner, None, "below-reserve bid cannot win");
        // Asset returned to the seller.
        assert_eq!(w.cp.ledger.object(w.asset).unwrap().meta.owner, Owner::Address(w.seller));
    }

    #[test]
    fn lying_about_the_commitment_fails() {
        let mut w = setup();
        let auction = w.cp.create_auction(w.seller, w.asset, 100).unwrap().value;
        let alice = bidder(&mut w, "alice");
        let salt = [3u8; 32];
        let bid_id =
            w.cp.commit_bid(alice, auction, bid_commitment(5_000, &salt, alice), 5_000)
                .unwrap()
                .value;
        w.cp.close_bidding(w.seller, auction).unwrap();
        // Revealing a different amount than committed is rejected.
        assert!(w.cp.reveal_bid(alice, auction, bid_id, 4_000, salt).is_err());
        // Revealing above the deposit is rejected even with a matching
        // commitment.
        {
            // No second asset in this world; just verify the deposit rule
            // with a fresh commit in a new auction isn't needed — the
            // amount>deposit check precedes commitment verification.
            assert!(w.cp.reveal_bid(alice, auction, bid_id, 6_000, salt).is_err());
        }
    }

    #[test]
    fn phases_are_enforced() {
        let mut w = setup();
        let auction = w.cp.create_auction(w.seller, w.asset, 100).unwrap().value;
        let alice = bidder(&mut w, "alice");
        let salt = [4u8; 32];
        let bid_id =
            w.cp.commit_bid(alice, auction, bid_commitment(500, &salt, alice), 500).unwrap().value;
        // Cannot reveal or settle during the commit phase.
        assert!(w.cp.reveal_bid(alice, auction, bid_id, 500, salt).is_err());
        assert!(w.cp.settle_auction(w.seller, auction, &[bid_id]).is_err());
        // Only the seller can close.
        assert!(w.cp.close_bidding(alice, auction).is_err());
        w.cp.close_bidding(w.seller, auction).unwrap();
        // No more commits after closing.
        let bob = bidder(&mut w, "bob");
        assert!(w.cp.commit_bid(bob, auction, bid_commitment(900, &salt, bob), 900).is_err());
    }

    #[test]
    fn unrevealed_bids_are_refunded_and_cannot_win() {
        let mut w = setup();
        let auction = w.cp.create_auction(w.seller, w.asset, 100).unwrap().value;
        let alice = bidder(&mut w, "alice");
        let bob = bidder(&mut w, "bob");
        let bob_start = w.cp.ledger.balance(bob);
        let salt = [5u8; 32];
        let a_bid =
            w.cp.commit_bid(alice, auction, bid_commitment(1_000, &salt, alice), 1_000)
                .unwrap()
                .value;
        let b_bid =
            w.cp.commit_bid(bob, auction, bid_commitment(9_999, &salt, bob), 9_999).unwrap().value;
        w.cp.close_bidding(w.seller, auction).unwrap();
        // Bob never reveals — his (higher) bid cannot win.
        w.cp.reveal_bid(alice, auction, a_bid, 1_000, salt).unwrap();
        let outcome = w.cp.settle_auction(w.seller, auction, &[a_bid, b_bid]).unwrap().value;
        assert_eq!(outcome.winner.map(|(a, _)| a), Some(alice));
        assert_eq!(outcome.price, 100, "single valid bid pays the reserve");
        // Bob's deposit came back (minus his own gas).
        let gas_slack = 100_000_000;
        assert!(bob_start - w.cp.ledger.balance(bob) < gas_slack);
    }

    #[test]
    fn commitments_hide_the_amount() {
        // Same amount, different salts and bidders → unlinkable digests.
        let a = Address::from_label("x");
        let b = Address::from_label("y");
        let c1 = bid_commitment(1000, &[1u8; 32], a);
        let c2 = bid_commitment(1000, &[2u8; 32], a);
        let c3 = bid_commitment(1000, &[1u8; 32], b);
        assert_ne!(c1, c2);
        assert_ne!(c1, c3);
    }
}
