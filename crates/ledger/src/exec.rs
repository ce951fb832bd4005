//! Atomic transaction execution against the object store.
//!
//! A transaction is a Rust closure over a [`TxContext`] — the analogue of a
//! Sui programmable transaction block. All object reads/writes are staged;
//! the ledger commits them only if the closure returns `Ok`, giving the
//! all-or-nothing semantics the paper's atomic path reservations rely on
//! (§4.2, "Atomic End-to-End Guarantees").
//!
//! Ownership rules mirror Sui:
//! * objects owned by an address can only be used by that address;
//! * shared objects are usable by anyone but route the transaction through
//!   consensus instead of the fast path;
//! * objects owned by another object (dynamic fields, e.g. assets held in
//!   escrow by the marketplace) are accessible only after the parent shared
//!   object has been accessed in the same transaction.

use crate::gas::{GasSchedule, GasSummary};
use crate::object::{Address, DigestMap, DigestSet, ObjectEntry, ObjectId, ObjectMeta, Owner};
use std::collections::hash_map::Entry;

/// Errors surfaced by transaction execution. Any error aborts the whole
/// transaction with no state change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Referenced object does not exist (or was consumed in this tx).
    ObjectNotFound(ObjectId),
    /// Sender does not own the object it tried to use.
    NotOwner(ObjectId),
    /// Object type tag did not match the expected tag.
    WrongType {
        /// The object in question.
        id: ObjectId,
        /// Tag the caller expected.
        expected: &'static str,
        /// Tag actually stored.
        actual: &'static str,
    },
    /// Child object accessed without first accessing its parent.
    ParentNotAccessed(ObjectId),
    /// Object contents failed to decode.
    Decode,
    /// A balance went negative (payment or gas).
    InsufficientFunds(Address),
    /// Contract-level assertion failure.
    Contract(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ObjectNotFound(id) => write!(f, "object not found: {id:?}"),
            ExecError::NotOwner(id) => write!(f, "sender does not own {id:?}"),
            ExecError::WrongType { id, expected, actual } => {
                write!(f, "{id:?}: expected type {expected}, found {actual}")
            }
            ExecError::ParentNotAccessed(id) => {
                write!(f, "child object {id:?} accessed without its parent")
            }
            ExecError::Decode => f.write_str("object decode error"),
            ExecError::InsufficientFunds(a) => write!(f, "insufficient funds for {a}"),
            ExecError::Contract(msg) => write!(f, "contract error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<crate::codec::DecodeError> for ExecError {
    fn from(_: crate::codec::DecodeError) -> Self {
        ExecError::Decode
    }
}

/// Which execution path the transaction took (paper §6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecPath {
    /// Owned-objects-only: Byzantine consistent broadcast, low latency.
    FastPath,
    /// Touched a shared object: full consensus.
    Consensus,
}

/// Result of a committed transaction.
#[derive(Clone, Debug)]
pub struct TxReceipt<T> {
    /// Closure return value.
    pub value: T,
    /// Gas accounting.
    pub gas: GasSummary,
    /// Fast path or consensus.
    pub path: ExecPath,
    /// Transaction digest.
    pub digest: [u8; 32],
}

/// What a transaction leaves of one object it used mutably.
#[derive(Debug)]
pub(crate) struct Staged {
    /// Metadata after the transaction.
    pub meta: ObjectMeta,
    /// Whether the transaction deleted the object.
    pub deleted: bool,
    /// New payload; `None` = the committed payload stays (or goes with
    /// the deleted object), so bumping a version moves no bytes.
    pub data: Option<Vec<u8>>,
    /// Storage fee and payload length of the committed version, noted
    /// when it was staged so pricing never looks it up again; `None` =
    /// created by this transaction.
    pub old: Option<(u64, usize)>,
}

impl Staged {
    /// Payload length after the transaction.
    pub fn len(&self) -> usize {
        match (&self.data, self.old) {
            (Some(data), _) => data.len(),
            (None, old) => old.map_or(0, |(_, len)| len),
        }
    }
}

type Committed = DigestMap<ObjectId, ObjectEntry>;
type StagedMap = DigestMap<ObjectId, Staged>;

/// The tables a transaction fills, owned by the ledger and lent to one
/// context at a time: a small transaction allocates none of them.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub staged: StagedMap,
    pub balance_deltas: DigestMap<Address, i128>,
    /// Objects used so far: each unlocks its children.
    parents: DigestSet<ObjectId>,
}

impl Scratch {
    /// Entries a table keeps room for between transactions. Every
    /// transaction on the admit path stays below it; a 5 000-entry sweep
    /// gives its capacity back instead of leaving it for the next
    /// one-entry call to clear.
    const KEEP: usize = 16;

    /// Empties the tables for the next transaction.
    pub fn reset(&mut self) {
        self.staged.clear();
        self.staged.shrink_to(Self::KEEP);
        self.balance_deltas.clear();
        self.balance_deltas.shrink_to(Self::KEEP);
        self.parents.clear();
        self.parents.shrink_to(Self::KEEP);
    }
}

/// The mutable view a transaction closure operates on.
pub struct TxContext<'l> {
    pub(crate) committed: &'l Committed,
    pub(crate) sender: Address,
    pub(crate) digest: [u8; 32],
    pub(crate) tables: Scratch,
    pub(crate) raw_units: u64,
    pub(crate) touched_shared: bool,
    pub(crate) created_count: u32,
}

/// Computation units charged per object operation (in addition to explicit
/// [`TxContext::charge`] calls by contract code). Calibrated so the paper's
/// atomic buy-and-redeem lands in the computation buckets of Table 1
/// (1-4 hops → 1000 units, 8 hops → 2000, 16 hops → 4000).
const UNITS_PER_OP: u64 = 6;

fn check_type(meta: &ObjectMeta, type_tag: &'static str) -> Result<(), ExecError> {
    if meta.type_tag != type_tag {
        return Err(ExecError::WrongType {
            id: meta.id,
            expected: type_tag,
            actual: meta.type_tag,
        });
    }
    Ok(())
}

/// Checks the sender (or an accessed parent) is allowed to use the object
/// mutably, updating the fast-path/consensus flag. Like [`lookup`] it
/// takes the context's fields one by one, so it can run while a borrow of
/// the store is alive.
fn check_usable(
    sender: Address,
    touched_shared: &mut bool,
    parents: &mut DigestSet<ObjectId>,
    meta: &ObjectMeta,
) -> Result<(), ExecError> {
    match meta.owner {
        Owner::Address(a) if a == sender => {}
        Owner::Address(_) | Owner::Immutable => return Err(ExecError::NotOwner(meta.id)),
        Owner::Shared => *touched_shared = true,
        Owner::Object(parent) => {
            if !parents.contains(&parent) {
                return Err(ExecError::ParentNotAccessed(meta.id));
            }
        }
    }
    // Any successfully used object can act as parent for its children
    // later in the same transaction (wrapped assets, dynamic fields).
    parents.insert(meta.id);
    Ok(())
}

/// Current metadata and payload of an object: one probe of the staged
/// table, then one of the committed store.
fn lookup<'a>(
    staged: &'a StagedMap,
    committed: &'a Committed,
    id: ObjectId,
) -> Result<(&'a ObjectMeta, &'a [u8]), ExecError> {
    let missing = ExecError::ObjectNotFound(id);
    match staged.get(&id) {
        Some(Staged { deleted: true, .. }) => Err(missing),
        Some(Staged { meta, data: Some(data), .. }) => Ok((meta, data)),
        Some(Staged { meta, data: None, .. }) => {
            Ok((meta, &committed.get(&id).ok_or(missing)?.data))
        }
        None => committed.get(&id).map(|e| (&e.meta, &e.data[..])).ok_or(missing),
    }
}

impl<'l> TxContext<'l> {
    /// The transaction sender.
    pub fn sender(&self) -> Address {
        self.sender
    }

    /// The transaction digest (object IDs are derived from it).
    pub fn digest(&self) -> [u8; 32] {
        self.digest
    }

    /// Charges extra computation units.
    pub fn charge(&mut self, units: u64) {
        self.raw_units += units;
    }

    /// Runs the type and ownership checks of a mutating use and hands
    /// back the object's staged slot, staging the committed version
    /// (metadata only) on first use.
    fn stage(
        &mut self,
        id: ObjectId,
        type_tag: Option<&'static str>,
    ) -> Result<&mut Staged, ExecError> {
        let Scratch { staged, parents, .. } = &mut self.tables;
        let (sender, touched_shared) = (self.sender, &mut self.touched_shared);
        let mut check = |meta: &ObjectMeta| {
            type_tag.map_or(Ok(()), |tag| check_type(meta, tag))?;
            check_usable(sender, touched_shared, parents, meta)
        };
        match staged.entry(id) {
            Entry::Occupied(slot) if slot.get().deleted => Err(ExecError::ObjectNotFound(id)),
            Entry::Occupied(slot) => {
                check(&slot.get().meta)?;
                Ok(slot.into_mut())
            }
            Entry::Vacant(slot) => {
                let old = self.committed.get(&id).ok_or(ExecError::ObjectNotFound(id))?;
                check(&old.meta)?;
                let old_cost = Some((old.storage_paid, old.data.len()));
                Ok(slot.insert(Staged {
                    meta: old.meta,
                    deleted: false,
                    data: None,
                    old: old_cost,
                }))
            }
        }
    }

    /// Returns the metadata of an object without using it.
    pub fn object_meta(&self, id: ObjectId) -> Result<ObjectMeta, ExecError> {
        Ok(*lookup(&self.tables.staged, self.committed, id)?.0)
    }

    /// Whether the object currently exists.
    pub fn exists(&self, id: ObjectId) -> bool {
        lookup(&self.tables.staged, self.committed, id).is_ok()
    }

    /// Reads an object's contents, enforcing ownership/consensus rules.
    pub fn read(&mut self, id: ObjectId, type_tag: &'static str) -> Result<Vec<u8>, ExecError> {
        self.read_ref(id, type_tag).map(|data| data.to_vec())
    }

    /// Borrowed read: like [`TxContext::read`], but returns a reference
    /// into the staged/committed store instead of copying the payload
    /// out. Hot query paths (asset decodes, bid loads) use this so a
    /// read costs one lookup and no allocation.
    pub fn read_ref(&mut self, id: ObjectId, type_tag: &'static str) -> Result<&[u8], ExecError> {
        self.charge(UNITS_PER_OP);
        let (meta, data) = lookup(&self.tables.staged, self.committed, id)?;
        check_type(meta, type_tag)?;
        if !matches!(meta.owner, Owner::Immutable) {
            check_usable(self.sender, &mut self.touched_shared, &mut self.tables.parents, meta)?;
        }
        Ok(data)
    }

    /// Overwrites an object's contents, bumping its version.
    pub fn write(
        &mut self,
        id: ObjectId,
        type_tag: &'static str,
        data: Vec<u8>,
    ) -> Result<(), ExecError> {
        self.charge(UNITS_PER_OP);
        let slot = self.stage(id, Some(type_tag))?;
        slot.meta.version += 1;
        slot.data = Some(data);
        Ok(())
    }

    /// Uses an object without reading or replacing its contents: runs the
    /// full ownership/type checks and bumps the version, leaving the
    /// payload where it is. This is the gas-coin mutation every
    /// control-plane call makes; it charges the same units as the
    /// read-then-write round trip it replaces (so Table 1/2 gas totals
    /// are unchanged) without copying a byte.
    pub fn touch(&mut self, id: ObjectId, type_tag: &'static str) -> Result<(), ExecError> {
        self.charge(2 * UNITS_PER_OP);
        self.stage(id, Some(type_tag))?.meta.version += 1;
        Ok(())
    }

    /// Transfers an object to a new owner.
    pub fn transfer(&mut self, id: ObjectId, new_owner: Owner) -> Result<(), ExecError> {
        self.charge(UNITS_PER_OP);
        let slot = self.stage(id, None)?;
        slot.meta.owner = new_owner;
        slot.meta.version += 1;
        Ok(())
    }

    /// Creates a fresh object, returning its ID.
    pub fn create(&mut self, owner: Owner, type_tag: &'static str, data: Vec<u8>) -> ObjectId {
        self.charge(UNITS_PER_OP);
        let id = ObjectId::derive(&self.digest, self.created_count);
        self.created_count += 1;
        let meta = ObjectMeta { id, version: 1, owner, type_tag };
        self.tables.staged.insert(id, Staged { meta, deleted: false, data: Some(data), old: None });
        // Objects created in this transaction are usable by it regardless
        // of their owner (e.g. wrapping assets under a fresh redeem
        // request), matching Sui semantics.
        self.tables.parents.insert(id);
        id
    }

    /// Deletes an object, crediting the storage rebate at commit.
    pub fn delete(&mut self, id: ObjectId) -> Result<(), ExecError> {
        self.charge(UNITS_PER_OP);
        let slot = self.stage(id, None)?;
        (slot.deleted, slot.data) = (true, None);
        Ok(())
    }

    /// Moves `amount` MIST from the sender to `to`.
    pub fn pay(&mut self, to: Address, amount: u64) {
        self.pay_from(self.sender, to, amount);
    }

    /// Moves `amount` MIST between two arbitrary parties — used by contract
    /// code forwarding an escrowed payment (the escrow was debited from the
    /// sender earlier in the same or an earlier call).
    pub fn pay_from(&mut self, from: Address, to: Address, amount: u64) {
        self.charge(UNITS_PER_OP);
        *self.tables.balance_deltas.entry(from).or_insert(0) -= i128::from(amount);
        *self.tables.balance_deltas.entry(to).or_insert(0) += i128::from(amount);
    }
}

/// Prices what a transaction staged (called by the ledger before it
/// commits): every version that goes rebates its fee, every version that
/// stays pays for its bytes. Needs no store lookup — [`Staged::old`]
/// carries what the committed version paid.
pub(crate) fn price(staged: &StagedMap, raw_units: u64, schedule: &GasSchedule) -> GasSummary {
    let mut gas = GasSummary {
        computation_units: schedule.bucket_computation(raw_units),
        ..GasSummary::default()
    };
    gas.computation_cost = gas.computation_units * schedule.computation_price;
    for slot in staged.values() {
        if let Some((paid, _)) = slot.old {
            gas.storage_rebate += schedule.rebate(paid);
        }
        if !slot.deleted {
            gas.storage_cost += schedule.storage_fee(slot.len() as u64);
        }
    }
    gas
}
