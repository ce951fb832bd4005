//! The (owner, type tag) → object IDs index behind
//! [`Ledger::objects_owned_by`](crate::Ledger::objects_owned_by).
//!
//! Queries come out in ObjectId order, so each set is ordered — but its
//! members are SHA-256 outputs, uniform over the ID space, and that makes
//! order cheap: an ID's leading bytes say *where* in a sorted table it
//! belongs. [`IdSet`] is such a table with gaps (linear probing whose hash
//! is monotone in the key): an insert or remove goes straight to its slot
//! and shifts the few neighbours in its run — O(1) expected at any size,
//! one or two cache lines — where a B-tree walks a root-to-leaf path of
//! 32-byte comparisons. Reading the slots in order is the sorted scan.
//! Hot-loop ns per insert or remove, `BTreeSet` under a SipHash map → this:
//! 107 → 75 at set size 2, 175 → 46 at 5 000, 893 → 309 at 10^6.

use crate::object::{Address, DigestMap, ObjectId, ObjectMeta, Owner};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

/// Every committed object is findable by (owner, type tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IndexKey(Owner, &'static str);

impl Hash for IndexKey {
    /// Eight owner bytes (a digest, or nothing for the two ownerless
    /// kinds) folded with the tag's contents — `const` strings have no
    /// stable address to hash instead.
    fn hash<H: Hasher>(&self, state: &mut H) {
        if let Owner::Address(Address(bytes)) | Owner::Object(ObjectId(bytes)) = &self.0 {
            state.write(bytes);
        }
        let mut words = self.1.as_bytes().chunks_exact(8);
        let mut tag = self.1.len() as u64;
        for word in &mut words {
            tag = tag.rotate_left(11) ^ u64::from_le_bytes(word.try_into().expect("8 bytes"));
        }
        for &byte in words.remainder() {
            tag = tag.rotate_left(8) ^ u64::from(byte);
        }
        state.write_u64(tag.wrapping_mul(0x517c_c1b7_2722_0a95));
    }
}

/// An ID as four big-endian words: the bytes' order, without `memcmp`.
type Slot = [u64; 4];

/// A free slot. It compares above every ID, so a probe for the first slot
/// holding nothing smaller stops at a gap by itself; no digest is all ones.
const GAP: Slot = [u64::MAX; 4];

fn slot_of(id: &ObjectId) -> Slot {
    std::array::from_fn(|i| u64::from_be_bytes(id.0[8 * i..][..8].try_into().expect("8 bytes")))
}

fn id_of(slot: &Slot) -> ObjectId {
    let mut id = [0u8; 32];
    for (bytes, word) in id.chunks_exact_mut(8).zip(slot) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    ObjectId(id)
}

/// A set of object IDs, read in ID order: a sorted table with gaps.
///
/// An ID's home slot is its leading word scaled to the table's `width`
/// (monotone in the ID); it sits at its home or, when that is taken,
/// displaced to the right within a gap-free run. Runs may spill past
/// `width`; the last slot is always a gap. Occupied slots therefore read
/// in ascending order. The table is kept between 1/8 and 1/2 full, so a
/// scan is O(members).
#[derive(Debug, Default)]
struct IdSet {
    slots: Vec<Slot>,
    width: usize,
    len: usize,
}

impl IdSet {
    const MIN_WIDTH: usize = 4;

    fn home(&self, id: &Slot) -> usize {
        ((u128::from(id[0]) * self.width as u128) >> 64) as usize
    }

    /// First slot at or after `id`'s home holding nothing smaller.
    fn seek(&self, id: &Slot) -> usize {
        let mut at = self.home(id);
        while self.slots[at] < *id {
            at += 1;
        }
        at
    }

    fn insert(&mut self, id: Slot) {
        debug_assert_ne!(id, GAP);
        if (self.len + 1) * 2 > self.width {
            self.rebuild((self.width * 2).max(Self::MIN_WIDTH));
        }
        let at = self.seek(&id);
        if self.slots[at] == id {
            return;
        }
        // Shift the rest of the run one slot right, into the next gap.
        let mut gap = at;
        while self.slots[gap] != GAP {
            gap += 1;
        }
        if gap + 1 == self.slots.len() {
            self.slots.push(GAP);
        }
        self.slots.copy_within(at..gap, at + 1);
        self.slots[at] = id;
        self.len += 1;
    }

    fn remove(&mut self, id: &Slot) {
        let at = if self.len == 0 { return } else { self.seek(id) };
        if self.slots[at] != *id {
            return;
        }
        // Pull the displaced part of the run back over the hole.
        let mut end = at + 1;
        while self.slots[end] != GAP && self.home(&self.slots[end]) < end {
            end += 1;
        }
        self.slots.copy_within(at + 1..end, at);
        self.slots[end - 1] = GAP;
        self.len -= 1;
        if self.len * 8 < self.width && self.width > Self::MIN_WIDTH {
            self.rebuild(self.width / 2);
        }
    }

    /// Lays the members out afresh in a table `width` slots wide.
    fn rebuild(&mut self, width: usize) {
        let old = std::mem::replace(&mut self.slots, vec![GAP; width + 1]);
        (self.width, self.len) = (width, 0);
        old.into_iter().filter(|slot| *slot != GAP).for_each(|id| self.insert(id));
    }
}

/// The index: one [`IdSet`] per (owner, type tag) that owns anything.
#[derive(Debug, Default)]
pub(crate) struct OwnerIndex(DigestMap<IndexKey, IdSet>);

impl OwnerIndex {
    /// IDs owned by `owner` under `type_tag`, ascending.
    pub(crate) fn ids(
        &self,
        owner: Owner,
        type_tag: &'static str,
    ) -> impl Iterator<Item = ObjectId> + '_ {
        let set = self.0.get(&IndexKey(owner, type_tag));
        set.into_iter().flat_map(|set| &set.slots).filter(|slot| **slot != GAP).map(id_of)
    }

    /// How many there are.
    pub(crate) fn count(&self, owner: Owner, type_tag: &'static str) -> usize {
        self.0.get(&IndexKey(owner, type_tag)).map_or(0, |set| set.len)
    }

    /// Files a committed object under its owner and tag.
    pub(crate) fn insert(&mut self, of: &ObjectMeta) {
        self.0.entry(IndexKey(of.owner, of.type_tag)).or_default().insert(slot_of(&of.id));
    }

    /// Removes an object from where `of` (its metadata when it was
    /// filed) put it — one hash of the key; a set that empties goes too.
    pub(crate) fn remove(&mut self, of: &ObjectMeta) {
        if let Entry::Occupied(mut set) = self.0.entry(IndexKey(of.owner, of.type_tag)) {
            set.get_mut().remove(&slot_of(&of.id));
            if set.get().len == 0 {
                set.remove();
            }
        }
    }
}
