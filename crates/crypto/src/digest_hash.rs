//! Hash tables keyed by values that already are uniform hashes.
//!
//! std's `HashMap` runs SipHash over every key so that a peer who chooses
//! the keys cannot make them collide. When the key is the output of a
//! hash or a PRF that nobody can steer, that protection is already in the
//! key: any eight of its bytes are a uniform hash. [`DigestHasher`] takes
//! the first eight bytes it is given and stops.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for keys that are digests or PRF outputs: XORs in the first
/// eight bytes of each `write`.
///
/// # Which keys may be hashed this way
///
/// * **SHA-256 outputs** the ledger derives — object IDs and addresses.
///   Choosing two that collide in 64 bits means finding a SHA-256 partial
///   collision on inputs the ledger, not the peer, assembles.
/// * **Reservation authentication keys `A_K = PRF_SV(ResInfo)`** (Eq. 2)
///   as a border router derives them. AES under `SV` is a permutation, so
///   `A_K` identifies its `ResInfo` exactly as well as the `ResInfo`
///   itself, and without `SV` nobody can predict which bytes a `ResInfo`
///   maps to.
///
/// # Which keys must not
///
/// Anything a peer picks freely: a [`ResInfo`](crate::ResInfo) read off a
/// packet, the baselines' `(source AS, host, epoch)` tuples, an ID or
/// address built from wire bytes instead of derived. Those stay on std's
/// hasher. Fed to these tables they give no wrong answer, but an attacker
/// can put every key into one bucket and make each probe O(n).
#[derive(Clone, Copy, Debug, Default)]
pub struct DigestHasher(u64);

// `#[inline]` throughout: every caller (ledger, control plane)
// is in another crate, where a non-generic function is not inlined
// without it — and a call per hash is most of what this type saves.
impl Hasher for DigestHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut word = [0u8; 8];
        let n = bytes.len().min(8);
        word[..n].copy_from_slice(&bytes[..n]);
        self.0 ^= u64::from_le_bytes(word);
    }
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 ^= word;
    }
    /// The length prefix a byte array writes before its bytes says nothing.
    #[inline]
    fn write_usize(&mut self, _: usize) {}
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`DigestMap`] and
/// [`DigestSet`].
pub(crate) type DigestState = BuildHasherDefault<DigestHasher>;
/// A hash map keyed by a digest.
pub type DigestMap<K, V> = HashMap<K, V, DigestState>;
/// A hash set of digests.
pub type DigestSet<K> = HashSet<K, DigestState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn hashes_a_byte_array_by_its_first_eight_bytes() {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        key[8..].fill(0xff);
        assert_eq!(DigestState::default().hash_one(key), 0x0123_4567_89ab_cdef);
        let mut short = DigestHasher::default();
        [7u8, 9].hash(&mut short);
        assert_eq!(short.finish(), 0x0907);
    }
}
