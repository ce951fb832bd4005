//! # hummingbird-ledger
//!
//! A Sui-like object ledger, built from scratch as the substrate for the
//! Hummingbird control plane (paper §4.2 and §6).
//!
//! The paper's control plane is a set of Move smart contracts on Sui. This
//! crate reproduces the properties those contracts depend on:
//!
//! * **object model** — versioned objects with address / shared / immutable
//!   / object owners ([`object`]);
//! * **atomic transactions** — closure-based programmable transactions with
//!   all-or-nothing commit ([`exec`]), giving atomic path reservations;
//! * **gas model** — Sui's computation buckets, per-byte storage fees and
//!   99 % storage rebates ([`gas`]), reproducing Tables 1 and 2;
//! * **execution paths** — owned-only transactions take the fast path,
//!   shared-object transactions take consensus, with a latency model
//!   calibrated to Fig. 4 ([`latency`]).
//!
//! ## Digest keys skip SipHash
//!
//! Every table here is keyed by an [`ObjectId`] or an [`Address`], and
//! both are SHA-256 outputs the ledger (or a key holder) derived — the ID
//! of the `n`-th object of a transaction, the hash of a public key — so
//! any eight of their bytes already are a uniform hash, and a peer cannot
//! choose them to collide without breaking SHA-256. [`DigestMap`] hashes
//! them by taking eight bytes; the owner/type index goes one step further
//! and *places* IDs in sorted tables by their leading bytes. What would
//! make this unsafe is a key a peer picks freely: both types have a public
//! field, so code that builds IDs or addresses from wire input (instead of
//! deriving them) must not feed them to these tables — the worst case is
//! not a wrong answer but every key in one bucket, O(n) per probe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod exec;
pub mod gas;
mod index;
pub mod latency;
pub mod object;

pub use exec::{ExecError, ExecPath, TxContext, TxReceipt};
pub use gas::{GasSchedule, GasSummary, MIST_PER_SUI};
pub use latency::LatencyModel;
pub use object::{Address, DigestMap, DigestSet, ObjectEntry, ObjectId, ObjectMeta, Owner};

use exec::{Scratch, Staged};
use hummingbird_crypto::sha256::Sha256;
use index::OwnerIndex;

/// The in-process ledger: object store, account balances, gas schedule.
#[derive(Debug, Default)]
pub struct Ledger {
    objects: DigestMap<ObjectId, ObjectEntry>,
    /// (owner, type tag) → committed object IDs in ID order, kept in
    /// sync by [`Ledger::execute`]'s commit loop.
    index: OwnerIndex,
    balances: DigestMap<Address, u64>,
    /// The tables of the transaction in flight, kept between
    /// transactions so a small one allocates none.
    scratch: Scratch,
    tx_counter: u64,
    /// Cumulative minted MIST (faucet) and net burned gas (fees − rebates),
    /// for exact supply-conservation checks: at any point
    /// `minted == total_supply + burned`.
    minted: u128,
    burned: i128,
    /// Gas schedule used to price every transaction.
    pub gas: GasSchedule,
}

impl Ledger {
    /// Creates an empty ledger with the paper's reference gas prices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credits `amount` MIST to `addr` (test/faucet functionality).
    pub fn mint(&mut self, addr: Address, amount: u64) {
        *self.balances.entry(addr).or_insert(0) += amount;
        self.minted += u128::from(amount);
    }

    /// Total MIST ever minted via [`Self::mint`].
    pub fn total_minted(&self) -> u128 {
        self.minted
    }

    /// Net gas burned so far (fees − storage rebates) across every
    /// committed transaction. Supply conservation holds exactly:
    /// `total_minted() == total_supply() + gas_burned()`.
    pub fn gas_burned(&self) -> i128 {
        self.burned
    }

    /// Current balance of `addr` in MIST.
    pub fn balance(&self, addr: Address) -> u64 {
        self.balances.get(&addr).copied().unwrap_or(0)
    }

    /// Sum of all balances (conservation checks in tests).
    pub fn total_supply(&self) -> u128 {
        self.balances.values().map(|&b| u128::from(b)).sum()
    }

    /// Reads a committed object (out-of-band inspection; no gas, no
    /// ownership checks — this models reading the public chain state).
    pub fn object(&self, id: ObjectId) -> Option<&ObjectEntry> {
        self.objects.get(&id)
    }

    /// Iterates over all committed objects (market scans, tests).
    pub fn objects(&self) -> impl Iterator<Item = &ObjectEntry> {
        self.objects.values()
    }

    /// Iterates, in ObjectId order, over the committed objects with the
    /// given owner and type tag. Served from the secondary index, so the
    /// cost is O(result size), not O(store size).
    pub fn objects_owned_by(
        &self,
        owner: Owner,
        type_tag: &'static str,
    ) -> impl Iterator<Item = &ObjectEntry> {
        self.index.ids(owner, type_tag).filter_map(move |id| self.objects.get(&id))
    }

    /// Number of committed objects with the given owner and type tag
    /// (index lookup; no iteration).
    pub fn count_owned_by(&self, owner: Owner, type_tag: &'static str) -> usize {
        self.index.count(owner, type_tag)
    }

    /// Total serialized payload bytes across all committed objects
    /// (bytes-per-reservation reporting; O(store size), call sparingly).
    pub fn total_object_bytes(&self) -> u64 {
        self.objects.values().map(|e| e.data.len() as u64).sum()
    }

    /// Number of committed objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of executed (committed) transactions.
    pub fn tx_count(&self) -> u64 {
        self.tx_counter
    }

    /// Executes `f` as an atomic transaction from `sender`.
    ///
    /// On `Ok`, all staged object changes and balance movements are applied
    /// and gas is charged (gas fees are burned; rebates are minted back to
    /// the sender, mirroring Sui's storage-fund flow). On `Err`, no state
    /// changes at all.
    pub fn execute<T, F>(&mut self, sender: Address, f: F) -> Result<TxReceipt<T>, ExecError>
    where
        F: FnOnce(&mut TxContext) -> Result<T, ExecError>,
    {
        let digest = self.next_digest(sender);
        let mut ctx = TxContext {
            committed: &self.objects,
            sender,
            digest,
            tables: std::mem::take(&mut self.scratch),
            raw_units: 0,
            touched_shared: false,
            created_count: 0,
        };
        let result = f(&mut ctx);
        let TxContext { mut tables, raw_units, touched_shared, .. } = ctx;
        let path = if touched_shared { ExecPath::Consensus } else { ExecPath::FastPath };
        let receipt = result.and_then(|value| {
            let gas = self.commit(sender, raw_units, &mut tables)?;
            Ok(TxReceipt { value, gas, path, digest })
        });
        tables.reset();
        self.scratch = tables;
        receipt
    }

    /// Prices and applies what a successful closure staged, or refuses
    /// it whole if a balance would go negative.
    fn commit(
        &mut self,
        sender: Address,
        raw_units: u64,
        tx: &mut Scratch,
    ) -> Result<GasSummary, ExecError> {
        let gas = exec::price(&tx.staged, raw_units, &self.gas);

        // Apply gas to the sender's balance delta: fees debit, rebate
        // credits.
        let fee = i128::from(gas.computation_cost) + i128::from(gas.storage_cost);
        let rebate = i128::from(gas.storage_rebate);
        *tx.balance_deltas.entry(sender).or_insert(0) -= fee - rebate;

        // Validate all balances stay non-negative before touching state.
        for (addr, delta) in &tx.balance_deltas {
            if i128::from(self.balance(*addr)) + delta < 0 {
                return Err(ExecError::InsufficientFunds(*addr));
            }
        }

        self.burned += fee - rebate;
        for (addr, delta) in tx.balance_deltas.drain() {
            let entry = self.balances.entry(addr).or_insert(0);
            *entry = (i128::from(*entry) + delta) as u64;
        }
        // One probe of the store per staged object.
        for (id, slot) in tx.staged.drain() {
            let storage_paid = self.gas.storage_fee(slot.len() as u64);
            let Staged { meta, deleted, data, old } = slot;
            match (deleted, old) {
                (true, None) => {}
                (true, Some(_)) => {
                    let old = self.objects.remove(&id).expect("staged from the store");
                    self.index.remove(&old.meta);
                }
                (false, None) => {
                    let data = data.expect("created objects carry their payload");
                    self.objects.insert(id, ObjectEntry { meta, data, storage_paid });
                    self.index.insert(&meta);
                }
                (false, Some(_)) => {
                    let entry = self.objects.get_mut(&id).expect("staged from the store");
                    let old_meta = std::mem::replace(&mut entry.meta, meta);
                    entry.storage_paid = storage_paid;
                    if let Some(data) = data {
                        entry.data = data;
                    }
                    // Re-key only if the owner changed (transfers, escrow
                    // moves); plain writes leave the index untouched.
                    if old_meta.owner != meta.owner {
                        self.index.remove(&old_meta);
                        self.index.insert(&meta);
                    }
                }
            }
        }
        self.tx_counter += 1;
        Ok(gas)
    }

    fn next_digest(&self, sender: Address) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"hummingbird-tx");
        h.update(&sender.0);
        h.update(&self.tx_counter.to_be_bytes());
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecPath;

    fn alice() -> Address {
        Address::from_label("alice")
    }
    fn bob() -> Address {
        Address::from_label("bob")
    }

    fn funded_ledger() -> Ledger {
        let mut l = Ledger::new();
        l.mint(alice(), 100 * MIST_PER_SUI);
        l.mint(bob(), 100 * MIST_PER_SUI);
        l
    }

    #[test]
    fn create_read_owned_object() {
        let mut l = funded_ledger();
        let rx = l
            .execute(alice(), |ctx| {
                Ok(ctx.create(Owner::Address(ctx.sender()), "test::T", vec![1, 2, 3]))
            })
            .unwrap();
        assert_eq!(rx.path, ExecPath::FastPath);
        let id = rx.value;
        let rx2 = l.execute(alice(), |ctx| ctx.read(id, "test::T")).unwrap();
        assert_eq!(rx2.value, vec![1, 2, 3]);
    }

    #[test]
    fn non_owner_cannot_use_object() {
        let mut l = funded_ledger();
        let id = l
            .execute(alice(), |ctx| Ok(ctx.create(Owner::Address(ctx.sender()), "test::T", vec![])))
            .unwrap()
            .value;
        let err = l.execute(bob(), |ctx| ctx.read(id, "test::T")).unwrap_err();
        assert_eq!(err, ExecError::NotOwner(id));
        // Transfer to Bob, then Bob can.
        l.execute(alice(), |ctx| ctx.transfer(id, Owner::Address(bob()))).unwrap();
        assert!(l.execute(bob(), |ctx| ctx.read(id, "test::T")).is_ok());
    }

    #[test]
    fn shared_objects_force_consensus() {
        let mut l = funded_ledger();
        let id = l
            .execute(alice(), |ctx| Ok(ctx.create(Owner::Shared, "test::Mkt", vec![0])))
            .unwrap()
            .value;
        let rx = l.execute(bob(), |ctx| ctx.read(id, "test::Mkt")).unwrap();
        assert_eq!(rx.path, ExecPath::Consensus);
    }

    #[test]
    fn child_objects_require_parent_access() {
        let mut l = funded_ledger();
        let (market, child) = l
            .execute(alice(), |ctx| {
                let market = ctx.create(Owner::Shared, "test::Mkt", vec![]);
                let child = ctx.create(Owner::Object(market), "test::Asset", vec![9]);
                Ok((market, child))
            })
            .unwrap()
            .value;
        // Direct child access fails.
        let err = l.execute(bob(), |ctx| ctx.read(child, "test::Asset")).unwrap_err();
        assert_eq!(err, ExecError::ParentNotAccessed(child));
        // Access via parent works.
        let rx = l
            .execute(bob(), |ctx| {
                ctx.read(market, "test::Mkt")?;
                ctx.read(child, "test::Asset")
            })
            .unwrap();
        assert_eq!(rx.value, vec![9]);
        assert_eq!(rx.path, ExecPath::Consensus);
    }

    #[test]
    fn supply_conservation_tracks_mint_and_burn() {
        let mut l = funded_ledger();
        assert_eq!(l.total_minted(), l.total_supply());
        assert_eq!(l.gas_burned(), 0);
        // Creates (storage fees), a payment, and a delete (rebate).
        let id = l
            .execute(alice(), |ctx| {
                ctx.pay(bob(), 1234);
                Ok(ctx.create(Owner::Address(ctx.sender()), "test::T", vec![7; 64]))
            })
            .unwrap()
            .value;
        l.execute(alice(), |ctx| ctx.delete(id)).unwrap();
        l.mint(bob(), 999);
        // Exact identity: everything minted is either a balance or burned
        // gas — payments and rebates cancel out.
        assert!(l.gas_burned() > 0);
        assert_eq!(l.total_minted(), l.total_supply() + l.gas_burned() as u128);
        // A failed transaction burns and mints nothing.
        let minted = l.total_minted();
        let burned = l.gas_burned();
        let r: Result<TxReceipt<()>, _> =
            l.execute(alice(), |_| Err(ExecError::Contract("abort".into())));
        assert!(r.is_err());
        assert_eq!((l.total_minted(), l.gas_burned()), (minted, burned));
    }

    #[test]
    fn failed_tx_changes_nothing() {
        let mut l = funded_ledger();
        let before_balance = l.balance(alice());
        let before_objects = l.object_count();
        let result: Result<TxReceipt<()>, _> = l.execute(alice(), |ctx| {
            ctx.create(Owner::Address(ctx.sender()), "test::T", vec![1; 100]);
            ctx.pay(bob(), 5);
            Err(ExecError::Contract("abort".into()))
        });
        assert!(result.is_err());
        assert_eq!(l.balance(alice()), before_balance);
        assert_eq!(l.object_count(), before_objects);
        assert_eq!(l.tx_count(), 0);
    }

    #[test]
    fn gas_is_charged_and_rebated() {
        let mut l = funded_ledger();
        let before = l.balance(alice());
        let rx = l
            .execute(alice(), |ctx| {
                Ok(ctx.create(Owner::Address(ctx.sender()), "test::T", vec![0; 400]))
            })
            .unwrap();
        let id = rx.value;
        let fee = rx.gas.computation_cost + rx.gas.storage_cost;
        assert_eq!(l.balance(alice()), before - fee);
        assert_eq!(rx.gas.storage_cost, l.gas.storage_fee(400));

        // Deleting rebates 99 % of the storage fee.
        let rx2 = l.execute(alice(), |ctx| ctx.delete(id)).unwrap();
        assert_eq!(rx2.gas.storage_rebate, l.gas.rebate(rx.gas.storage_cost));
        assert!(rx2.gas.total_mist() < 0, "deletion nets a credit");
    }

    #[test]
    fn payments_move_balances_atomically() {
        let mut l = funded_ledger();
        let rx = l
            .execute(alice(), |ctx| {
                ctx.pay(bob(), 3 * MIST_PER_SUI);
                Ok(())
            })
            .unwrap();
        assert!(rx.gas.computation_cost > 0);
        assert_eq!(l.balance(bob()), 103 * MIST_PER_SUI);
    }

    #[test]
    fn insufficient_funds_rejected() {
        let mut l = Ledger::new();
        l.mint(alice(), 100); // far less than gas
        let err = l
            .execute(alice(), |ctx| {
                ctx.pay(bob(), 50);
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::InsufficientFunds(_)));
        assert_eq!(l.balance(alice()), 100);
    }

    #[test]
    fn version_bumps_on_mutation() {
        let mut l = funded_ledger();
        let id = l
            .execute(alice(), |ctx| {
                Ok(ctx.create(Owner::Address(ctx.sender()), "test::T", vec![1]))
            })
            .unwrap()
            .value;
        assert_eq!(l.object(id).unwrap().meta.version, 1);
        l.execute(alice(), |ctx| ctx.write(id, "test::T", vec![2])).unwrap();
        assert_eq!(l.object(id).unwrap().meta.version, 2);
        assert_eq!(l.object(id).unwrap().data, vec![2]);
    }

    #[test]
    fn wrong_type_rejected() {
        let mut l = funded_ledger();
        let id = l
            .execute(alice(), |ctx| Ok(ctx.create(Owner::Address(ctx.sender()), "test::A", vec![])))
            .unwrap()
            .value;
        let err = l.execute(alice(), |ctx| ctx.read(id, "test::B")).unwrap_err();
        assert!(matches!(err, ExecError::WrongType { .. }));
    }

    #[test]
    fn touch_bumps_version_and_keeps_data() {
        let mut l = funded_ledger();
        let id = l
            .execute(alice(), |ctx| {
                Ok(ctx.create(Owner::Address(ctx.sender()), "test::T", vec![7; 64]))
            })
            .unwrap()
            .value;
        // touch charges like the read+write round trip it replaces.
        let rw = {
            let mut probe = funded_ledger();
            let pid = probe
                .execute(alice(), |ctx| {
                    Ok(ctx.create(Owner::Address(ctx.sender()), "test::T", vec![7; 64]))
                })
                .unwrap()
                .value;
            probe
                .execute(alice(), |ctx| {
                    let data = ctx.read(pid, "test::T")?;
                    ctx.write(pid, "test::T", data)
                })
                .unwrap()
                .gas
        };
        let rx = l.execute(alice(), |ctx| ctx.touch(id, "test::T")).unwrap();
        assert_eq!(rx.gas, rw);
        assert_eq!(l.object(id).unwrap().meta.version, 2);
        assert_eq!(l.object(id).unwrap().data, vec![7; 64]);
        // Wrong tag and wrong owner are still rejected.
        assert!(l.execute(alice(), |ctx| ctx.touch(id, "test::B")).is_err());
        assert!(l.execute(bob(), |ctx| ctx.touch(id, "test::T")).is_err());
    }

    #[test]
    fn mutation_rebates_old_storage() {
        let mut l = funded_ledger();
        let id = l
            .execute(alice(), |ctx| {
                Ok(ctx.create(Owner::Address(ctx.sender()), "test::T", vec![0; 1000]))
            })
            .unwrap()
            .value;
        let first_fee = l.object(id).unwrap().storage_paid;
        let rx = l.execute(alice(), |ctx| ctx.write(id, "test::T", vec![0; 10])).unwrap();
        assert_eq!(rx.gas.storage_rebate, l.gas.rebate(first_fee));
        assert_eq!(rx.gas.storage_cost, l.gas.storage_fee(10));
    }
}
