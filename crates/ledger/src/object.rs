//! Objects, owners and addresses — the Sui-like data model.
//!
//! Sui organizes all on-chain state as versioned *objects* with an explicit
//! owner. Transactions touching only objects owned by the sender take the
//! low-latency *fast path* (Byzantine consistent broadcast); transactions
//! touching *shared* objects (like the marketplace) go through consensus
//! (paper §6.1, "Blockchain Platform & Atomic Transactions").

use hummingbird_crypto::sha256::Sha256;
use hummingbird_crypto::sig::PublicKey;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for keys that are SHA-256 outputs ([`Address`], [`ObjectId`]):
/// any eight bytes of a digest already are a hash, so it takes the first
/// eight and stops. See the crate docs for when this is safe.
#[derive(Clone, Copy, Debug, Default)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut word = [0u8; 8];
        let n = bytes.len().min(8);
        word[..n].copy_from_slice(&bytes[..n]);
        self.0 ^= u64::from_le_bytes(word);
    }
    fn write_u64(&mut self, word: u64) {
        self.0 ^= word;
    }
    /// The length prefix `[u8; 32]` writes before its bytes says nothing.
    fn write_usize(&mut self, _: usize) {}
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by a digest ([`Address`] or [`ObjectId`]).
pub type DigestMap<K, V> = HashMap<K, V, BuildHasherDefault<DigestHasher>>;
/// A hash set of digests.
pub type DigestSet<K> = HashSet<K, BuildHasherDefault<DigestHasher>>;

/// A 32-byte account address (hash of the account's public key).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(pub [u8; 32]);

impl Address {
    /// Derives an address from a public key.
    pub fn from_pubkey(pk: &PublicKey) -> Self {
        let mut h = Sha256::new();
        h.update(b"hummingbird-address");
        h.update(&pk.to_bytes());
        Address(h.finalize())
    }

    /// Deterministic test address from a label.
    pub fn from_label(label: &str) -> Self {
        let mut h = Sha256::new();
        h.update(b"hummingbird-label-address");
        h.update(label.as_bytes());
        Address(h.finalize())
    }
}

impl std::fmt::Debug for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:02x}{:02x}{:02x}{:02x}…", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

/// A 32-byte object identifier (hash of creating tx digest + index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub [u8; 32]);

impl ObjectId {
    /// Derives the ID of the `index`-th object created by a transaction.
    pub fn derive(tx_digest: &[u8; 32], index: u32) -> Self {
        let mut h = Sha256::new();
        h.update(b"hummingbird-object-id");
        h.update(tx_digest);
        h.update(&index.to_be_bytes());
        ObjectId(h.finalize())
    }
}

impl std::fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj:{:02x}{:02x}{:02x}{:02x}…", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// Who may use an object in a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Owner {
    /// Exclusively owned: only this address can use the object; such
    /// transactions ride the fast path.
    Address(Address),
    /// Shared: anyone may use it, but every use goes through consensus.
    Shared,
    /// Immutable: anyone may read it; reads never force consensus.
    Immutable,
    /// Owned by another object (Sui dynamic fields): accessible only in a
    /// transaction that has already accessed the parent — how the
    /// marketplace escrows listed assets.
    Object(ObjectId),
}

/// Object metadata maintained by the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Identifier, stable across versions.
    pub id: ObjectId,
    /// Version, bumped on every mutation or transfer.
    pub version: u64,
    /// Current owner.
    pub owner: Owner,
    /// Type tag (e.g. `"asset::BandwidthAsset"`), checked on access.
    pub type_tag: &'static str,
}

/// A stored object: metadata plus serialized contents, plus the storage fee
/// paid for it (needed to compute the 99 % rebate on deletion).
#[derive(Clone, Debug)]
pub struct ObjectEntry {
    /// Metadata.
    pub meta: ObjectMeta,
    /// Serialized contents.
    pub data: Vec<u8>,
    /// Storage fee paid, in MIST (for rebates).
    pub storage_paid: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummingbird_crypto::sig::SecretKey;

    #[test]
    fn address_is_stable_and_distinct() {
        let a = Address::from_label("alice");
        assert_eq!(a, Address::from_label("alice"));
        assert_ne!(a, Address::from_label("bob"));
        let pk = SecretKey::from_seed(b"k").public();
        assert_eq!(Address::from_pubkey(&pk), Address::from_pubkey(&pk));
    }

    #[test]
    fn object_ids_differ_by_index_and_tx() {
        let d1 = [1u8; 32];
        let d2 = [2u8; 32];
        assert_ne!(ObjectId::derive(&d1, 0), ObjectId::derive(&d1, 1));
        assert_ne!(ObjectId::derive(&d1, 0), ObjectId::derive(&d2, 0));
    }

    #[test]
    fn debug_formats_are_short() {
        let a = Address::from_label("x");
        assert!(format!("{a:?}").starts_with("0x"));
        let o = ObjectId::derive(&[0u8; 32], 0);
        assert!(format!("{o:?}").starts_with("obj:"));
    }
}
