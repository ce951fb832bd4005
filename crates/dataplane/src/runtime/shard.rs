//! RSS-style flow steering: which worker shard owns a packet.
//!
//! The invariant the whole sharded datapath rests on is **ResID
//! ownership**: every packet carrying reservation `r` must be policed by
//! the same shard, because the policer's token bucket for `r` (Algorithm
//! 1's `TSArray[r]`) is per-shard state and must never split. [`ShardMap`]
//! therefore partitions the ResID space `[0, slots)` into contiguous
//! per-shard ranges — the natural fit for the paper's interval-coloring
//! story, which keeps live ResIDs compact — and steers every flyover
//! packet by the (authenticated) ResID in its hop field. Range
//! partitioning also makes placement auditable: an operator can say
//! "shard 2 owns ResIDs 25 000-49 999" the way the related iBGP overlay
//! work sizes per-node responsibility up front.
//!
//! Packets without a reservation carry no ResID, so they steer by a hash
//! of *exactly* the fields that key the router's only other per-packet
//! state, the duplicate filter: `(src AS, BaseTS, MillisTS, Counter)`.
//! Every pair of packets with one duplicate identity therefore lands on
//! one shard, which keeps duplicate suppression of plain traffic exact
//! under sharding (not merely effective for bit-identical replays).
//! Unparseable packets hash their leading bytes — they drop in any
//! shard, the choice only spreads the parsing cost.
//!
//! [`Steering::BySource`] replaces all of the above with a pure
//! source-address hash, for engines whose state is keyed by sender
//! rather than reservation (the gateway's per-host token buckets).

use crate::router::stages::{self, HopKind};

/// How a [`ShardMap`] assigns packets to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steering {
    /// Reservation-aware RSS (the default): flyover packets steer by
    /// ResID range so each reservation's policer state lives on exactly
    /// one shard; plain packets steer by the duplicate-filter key; junk
    /// steers by a byte hash.
    ByReservation,
    /// Pure source-address steering (`src` AS + host), for engines keyed
    /// by sender — e.g. a sharded gateway, where the per-host admission
    /// buckets must not split. The aggregate bucket becomes per-shard,
    /// i.e. each shard polices its slice of the uplink.
    BySource,
}

/// The flow class [`ShardMap::classify`] extracts from a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowClass {
    /// A flyover packet on reservation `res_id`.
    Reservation(u32),
    /// A plain packet; the hash covers the duplicate-filter key.
    Plain(u64),
    /// Structurally unparseable; the hash covers the leading bytes.
    Opaque(u64),
}

/// FNV-1a over `bytes` — cheap, deterministic, good avalanche for the
/// handful of header bytes a flow key covers.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Maps packets onto `shards` workers over a ResID space of `slots`.
#[derive(Clone, Copy, Debug)]
pub struct ShardMap {
    shards: usize,
    slots: u32,
    steering: Steering,
}

impl ShardMap {
    /// Creates a map of `shards` workers over ResIDs `[0, slots)` —
    /// `slots` should match the engines' policer capacity so ranges line
    /// up with real reservations. Shard and slot counts are clamped to at
    /// least 1.
    pub fn new(shards: usize, slots: u32, steering: Steering) -> Self {
        ShardMap { shards: shards.max(1), slots: slots.max(1), steering }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The steering policy.
    pub fn steering(&self) -> Steering {
        self.steering
    }

    /// The shard owning reservation `res_id` (contiguous ranges;
    /// out-of-range ResIDs clamp into the last shard — the policer
    /// demotes them identically everywhere, so only the stats location
    /// is affected).
    #[inline]
    pub fn shard_of_res_id(&self, res_id: u32) -> usize {
        let idx = u64::from(res_id.min(self.slots - 1));
        (idx * self.shards as u64 / u64::from(self.slots)) as usize
    }

    /// The ResID range shard `shard` owns.
    pub fn res_id_range(&self, shard: usize) -> std::ops::Range<u32> {
        let per = |s: u64| (s * u64::from(self.slots)).div_ceil(self.shards as u64) as u32;
        per(shard as u64)..per(shard as u64 + 1)
    }

    /// All per-shard ResID ranges, in shard order. They tile `[0, slots)`
    /// exactly — this is the hand-off the control plane's steering-aware
    /// allocator (`ShardedFirstFit` in `hummingbird-coloring`) consumes
    /// so admission draws ResIDs from the least-loaded shard's range.
    pub fn res_id_ranges(&self) -> Vec<std::ops::Range<u32>> {
        (0..self.shards).map(|s| self.res_id_range(s)).collect()
    }

    /// Extracts the flow class steering operates on.
    pub fn classify(&self, pkt: &[u8]) -> FlowClass {
        match stages::parse(pkt) {
            Ok(parsed) => match parsed.hop {
                HopKind::Flyover(fly) => FlowClass::Reservation(fly.res_id),
                HopKind::Plain(_) => {
                    // Exactly the duplicate-filter identity — (src AS,
                    // BaseTS, MillisTS, Counter), see
                    // `stages::duplicate_check` — and nothing more: any
                    // extra field (ISD, source host) would let two
                    // packets with one dup identity steer to different
                    // shards, and the sharded router would forward what
                    // a single engine drops as a duplicate.
                    let mut key = [0u8; 16];
                    key[0..8].copy_from_slice(&parsed.addr.src.asn.to_be_bytes());
                    key[8..12].copy_from_slice(&parsed.meta.base_ts.to_be_bytes());
                    key[12..14].copy_from_slice(&parsed.meta.millis_ts.to_be_bytes());
                    key[14..16].copy_from_slice(&parsed.meta.counter.to_be_bytes());
                    FlowClass::Plain(fnv1a(&key))
                }
            },
            Err(_) => FlowClass::Opaque(fnv1a(&pkt[..pkt.len().min(24)])),
        }
    }

    /// Producer-side RSS: partitions a template workload into per-shard
    /// injection plans, so no thread steers on the hot path. Template
    /// `j` of `T` contributes exactly `total_pkts / T` packets (+1 when `j < total_pkts % T`, the
    /// largest-remainder rule a round-robin generator realizes), and
    /// lands whole on the shard [`ShardMap::shard_of`] assigns it —
    /// steering is per *flow*, and a template is one flow. Returns one
    /// `(template index, packet count)` plan per shard; counts sum to
    /// `total_pkts` (packet conservation) and the assignment is a pure
    /// function of the bytes, so every run over the same workload
    /// splits identically.
    pub fn partition_templates(
        &self,
        templates: &[Vec<u8>],
        total_pkts: u64,
    ) -> Vec<Vec<(usize, u64)>> {
        let n = templates.len().max(1) as u64;
        let mut plans = vec![Vec::new(); self.shards];
        for (j, t) in templates.iter().enumerate() {
            let count = total_pkts / n + u64::from((j as u64) < total_pkts % n);
            plans[self.shard_of(t)].push((j, count));
        }
        plans
    }

    /// The shard that must process `pkt` — the RSS function of the model
    /// NIC. Deterministic in the packet bytes, so retransmissions and
    /// replays always revisit the same shard.
    pub fn shard_of(&self, pkt: &[u8]) -> usize {
        match self.steering {
            Steering::ByReservation => match self.classify(pkt) {
                FlowClass::Reservation(res_id) => self.shard_of_res_id(res_id),
                FlowClass::Plain(h) | FlowClass::Opaque(h) => (h % self.shards as u64) as usize,
            },
            Steering::BySource => match stages::parse(pkt) {
                Ok(parsed) => {
                    let mut key = [0u8; 14];
                    key[0..2].copy_from_slice(&parsed.addr.src.isd.to_be_bytes());
                    key[2..10].copy_from_slice(&parsed.addr.src.asn.to_be_bytes());
                    key[10..14].copy_from_slice(&parsed.addr.src_host);
                    (fnv1a(&key) % self.shards as u64) as usize
                }
                Err(_) => (fnv1a(&pkt[..pkt.len().min(24)]) % self.shards as u64) as usize,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn res_id_ranges_partition_the_slot_space() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            let map = ShardMap::new(shards, 100_000, Steering::ByReservation);
            // Ranges tile [0, slots) without gap or overlap.
            let mut next = 0u32;
            for s in 0..shards {
                let r = map.res_id_range(s);
                assert_eq!(r.start, next, "{shards} shards, shard {s}");
                next = r.end;
                for probe in [r.start, (r.start + r.end.saturating_sub(1)) / 2] {
                    if r.contains(&probe) {
                        assert_eq!(map.shard_of_res_id(probe), s);
                    }
                }
            }
            assert_eq!(next, 100_000);
            // The bulk accessor agrees with the per-shard one.
            let ranges = map.res_id_ranges();
            assert_eq!(ranges.len(), shards);
            for (s, r) in ranges.iter().enumerate() {
                assert_eq!(*r, map.res_id_range(s));
            }
        }
    }

    #[test]
    fn every_res_id_has_exactly_one_owner() {
        let map = ShardMap::new(4, 1000, Steering::ByReservation);
        for res_id in 0..1000 {
            let owner = map.shard_of_res_id(res_id);
            assert!(owner < 4);
            assert!(map.res_id_range(owner).contains(&res_id), "res_id {res_id}");
        }
        // Out-of-range ResIDs clamp to the last shard.
        assert_eq!(map.shard_of_res_id(1000), 3);
        assert_eq!(map.shard_of_res_id(u32::MAX), 3);
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(1, 100_000, Steering::ByReservation);
        for res_id in [0u32, 1, 99_999, u32::MAX] {
            assert_eq!(map.shard_of_res_id(res_id), 0);
        }
        assert_eq!(map.shard_of(&[0u8; 8]), 0);
    }

    #[test]
    fn partition_conserves_packets_and_matches_shard_of() {
        let map = ShardMap::new(4, 100_000, Steering::ByReservation);
        // Opaque templates steer by byte hash; counts follow the
        // largest-remainder rule regardless of where they land.
        let templates: Vec<Vec<u8>> =
            (0..7u8).map(|i| vec![i, 0xA5, i.wrapping_mul(31), 9, 9, 0, 1, 2]).collect();
        let plans = map.partition_templates(&templates, 1_003);
        assert_eq!(plans.len(), 4);
        let total: u64 = plans.iter().flatten().map(|&(_, c)| c).sum();
        assert_eq!(total, 1_003, "packet conservation");
        // Each template appears exactly once, on the shard shard_of picks,
        // with its largest-remainder count.
        let mut seen = vec![false; templates.len()];
        for (shard, plan) in plans.iter().enumerate() {
            for &(j, count) in plan {
                assert!(!seen[j], "template {j} assigned twice");
                seen[j] = true;
                assert_eq!(map.shard_of(&templates[j]), shard);
                let expected = 1_003 / 7 + u64::from((j as u64) < 1_003 % 7);
                assert_eq!(count, expected, "template {j}");
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Deterministic: the same workload partitions identically.
        assert_eq!(plans, map.partition_templates(&templates, 1_003));
        // Zero packets still yields a structurally complete plan.
        let empty = map.partition_templates(&templates, 0);
        assert_eq!(empty.iter().flatten().map(|&(_, c)| c).sum::<u64>(), 0);
        assert_eq!(empty.iter().map(|p| p.len()).sum::<usize>(), templates.len());
    }

    #[test]
    fn junk_steering_is_deterministic() {
        let map = ShardMap::new(8, 100_000, Steering::ByReservation);
        let junk = vec![0xA5u8; 40];
        let first = map.shard_of(&junk);
        for _ in 0..4 {
            assert_eq!(map.shard_of(&junk), first);
        }
        assert!(matches!(map.classify(&junk), FlowClass::Opaque(_)));
        assert!(map.shard_of(&[]) < 8, "empty packets steer somewhere");
    }
}
