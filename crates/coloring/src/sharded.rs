//! Steering-aware ResID allocation across dataplane shards.
//!
//! The sharded runtime steers packets to workers by contiguous ResID
//! range (`ShardMap` in `hummingbird-dataplane`), so *where* the control
//! plane draws a ResID from decides which shard carries the flow. A
//! [`ShardedFirstFit`] partitions the color space into those per-shard
//! ranges and always allocates from the currently least-loaded shard,
//! balancing shard load at admission time instead of hoping the ID
//! distribution comes out even.
//!
//! Within a shard the allocator keeps First-Fit's structure (per-color
//! sorted active intervals) but adds two O(log n)/O(1) fast paths so a
//! million-reservation ingress does not degenerate into First-Fit's
//! O(colors) scan per assignment:
//!
//! 1. a `BTreeSet` of *empty* colors — a recycled ResID is found in
//!    O(log colors);
//! 2. a fresh-color bump pointer — an unused ResID is found in O(1).
//!
//! Only when every color in the shard is partially occupied (some active
//! interval, but maybe compatible gaps) does it fall back to the linear
//! first-fit scan. The trade-off versus pure First-Fit: a *partially*
//! occupied low color with a compatible gap may be skipped in favor of an
//! empty or fresh color, so IDs can run slightly higher; the coloring
//! invariant (no two active intervals share a ResID) is identical, and
//! [`FirstFit`](crate::FirstFit) keeps the paper-exact behavior for
//! callers that want it.

use crate::interval::Interval;
use std::collections::BTreeSet;
use std::ops::Range;

/// One shard's slice of the ResID space.
#[derive(Clone, Debug)]
struct ShardSlice {
    /// First ResID of the shard's range.
    base: u32,
    /// Number of ResIDs in the range.
    cap: u32,
    /// Active intervals per local color, each sorted by start.
    colors: Vec<Vec<Interval>>,
    /// Local colors in `colors` that currently hold no interval.
    empty: BTreeSet<u32>,
    /// Number of active reservations in this shard.
    active: usize,
    /// Highest local color ever handed out.
    high_water: Option<u32>,
}

impl ShardSlice {
    fn new(range: &Range<u32>) -> Self {
        ShardSlice {
            base: range.start,
            cap: range.end.saturating_sub(range.start),
            colors: Vec::new(),
            empty: BTreeSet::new(),
            active: 0,
            high_water: None,
        }
    }

    fn contains(&self, res_id: u32) -> bool {
        res_id >= self.base && res_id < self.base + self.cap
    }

    /// Assigns a local color for `iv`, or `None` if the shard is full for
    /// this interval.
    fn assign(&mut self, iv: Interval) -> Option<u32> {
        // Fast path 1: reuse the smallest fully-free color.
        if let Some(&c) = self.empty.iter().next() {
            self.empty.remove(&c);
            self.colors[c as usize].push(iv);
            self.bump(c);
            return Some(c);
        }
        // Fast path 2: open a fresh color.
        if (self.colors.len() as u32) < self.cap {
            self.colors.push(vec![iv]);
            let c = (self.colors.len() - 1) as u32;
            self.bump(c);
            return Some(c);
        }
        // Fallback: classic first-fit scan over partially occupied colors.
        for (c, actives) in self.colors.iter_mut().enumerate() {
            if !actives.iter().any(|a| a.overlaps(&iv)) {
                let pos = actives.partition_point(|a| a.start < iv.start);
                actives.insert(pos, iv);
                let c = c as u32;
                self.bump(c);
                return Some(c);
            }
        }
        None
    }

    fn bump(&mut self, color: u32) {
        self.active += 1;
        self.high_water = Some(self.high_water.map_or(color, |hw| hw.max(color)));
    }

    fn release(&mut self, local: u32, iv: &Interval) -> bool {
        let Some(actives) = self.colors.get_mut(local as usize) else {
            return false;
        };
        let Some(pos) = actives.iter().position(|a| a == iv) else {
            return false;
        };
        actives.remove(pos);
        self.active -= 1;
        if actives.is_empty() {
            self.empty.insert(local);
        }
        true
    }

    fn try_extend(&mut self, local: u32, iv: &Interval, new_end: u64) -> bool {
        if new_end <= iv.end {
            return false;
        }
        let Some(actives) = self.colors.get_mut(local as usize) else {
            return false;
        };
        let Some(pos) = actives.iter().position(|a| a == iv) else {
            return false;
        };
        if let Some(next) = actives.get(pos + 1) {
            if next.start < new_end {
                return false;
            }
        }
        actives[pos].end = new_end;
        true
    }
}

/// A steering-aware First-Fit variant: the ResID space is split into the
/// dataplane's per-shard ranges, new reservations are colored from the
/// least-loaded shard, and renewals extend their interval in place.
///
/// Construct it from `ShardMap::res_id_ranges()` (or any disjoint set of
/// ranges); a single range reproduces one-allocator behavior.
#[derive(Clone, Debug)]
pub struct ShardedFirstFit {
    shards: Vec<ShardSlice>,
}

impl ShardedFirstFit {
    /// Creates an allocator over the given per-shard ResID ranges. The
    /// ranges must be disjoint; empty ranges are allowed and never used.
    pub fn new(ranges: &[Range<u32>]) -> Self {
        ShardedFirstFit { shards: ranges.iter().map(ShardSlice::new).collect() }
    }

    /// Single-shard convenience: colors drawn from `[0, max_ids)`.
    pub fn single(max_ids: u32) -> Self {
        Self::new(&[Range { start: 0, end: max_ids }])
    }

    /// The shard whose range contains `res_id`, if any.
    pub fn shard_of(&self, res_id: u32) -> Option<usize> {
        self.shards.iter().position(|s| s.contains(res_id))
    }

    /// Assigns a ResID for `iv` from the least-loaded shard (ties break
    /// toward the lowest shard index). Falls over to the next-least-loaded
    /// shard when a shard is full for this interval; returns `None` only
    /// when every shard is.
    pub fn assign(&mut self, iv: Interval) -> Option<u32> {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        order.sort_by_key(|&i| (self.shards[i].active, i));
        for i in order {
            let shard = &mut self.shards[i];
            if let Some(local) = shard.assign(iv) {
                return Some(shard.base + local);
            }
        }
        None
    }

    /// Extends the active reservation `(res_id, iv)` to `new_end` without
    /// changing its color — the renewal fast path. See
    /// [`FirstFit::try_extend`](crate::FirstFit::try_extend).
    pub fn try_extend(&mut self, res_id: u32, iv: &Interval, new_end: u64) -> bool {
        match self.shard_of(res_id) {
            Some(i) => {
                let shard = &mut self.shards[i];
                shard.try_extend(res_id - shard.base, iv, new_end)
            }
            None => false,
        }
    }

    /// Removes a specific reservation, returning whether it was present.
    pub fn release(&mut self, res_id: u32, iv: &Interval) -> bool {
        match self.shard_of(res_id) {
            Some(i) => {
                let shard = &mut self.shards[i];
                shard.release(res_id - shard.base, iv)
            }
            None => false,
        }
    }

    /// Number of reservations held; an ended one stays until
    /// [`release`](Self::release)d.
    pub fn active_count(&self) -> usize {
        self.shards.iter().map(|s| s.active).sum()
    }

    /// Active reservations per shard, in shard order.
    pub fn active_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.active).collect()
    }

    /// Highest ResID handed out so far, if any (drives the policing-array
    /// size, like [`FirstFit::high_water`](crate::FirstFit::high_water)).
    pub fn high_water(&self) -> Option<u32> {
        self.shards.iter().filter_map(|s| s.high_water.map(|hw| s.base + hw)).max()
    }

    /// Max/min ratio of per-shard active counts over the non-empty-range
    /// shards — the load-balance figure the scale bench checks against
    /// its ≤ 1.1 budget. 1.0 when balanced; ∞ when some shard is empty
    /// while another is not.
    pub fn skew(&self) -> f64 {
        let counts: Vec<usize> =
            self.shards.iter().filter(|s| s.cap > 0).map(|s| s.active).collect();
        let (min, max) = match (counts.iter().min(), counts.iter().max()) {
            (Some(&min), Some(&max)) => (min, max),
            _ => return 1.0,
        };
        if max == 0 {
            1.0
        } else if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }

    /// Checks the coloring invariant (no two active intervals share a
    /// ResID) plus the internal bookkeeping (empty-set and active counts).
    pub fn is_valid(&self) -> bool {
        self.shards.iter().all(|s| {
            let non_overlapping = s.colors.iter().all(|actives| {
                actives
                    .iter()
                    .enumerate()
                    .all(|(i, a)| actives[i + 1..].iter().all(|b| !a.overlaps(b)))
            });
            let empties_are_empty =
                s.empty.iter().all(|&c| s.colors.get(c as usize).is_some_and(|v| v.is_empty()));
            let active_matches = s.active == s.colors.iter().map(|c| c.len()).sum::<usize>();
            non_overlapping && empties_are_empty && active_matches
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn even_ranges(shards: u32, slots: u32) -> Vec<Range<u32>> {
        (0..shards).map(|s| (s * slots / shards)..((s + 1) * slots / shards)).collect()
    }

    #[test]
    fn single_shard_behaves_like_first_fit_on_fast_paths() {
        let mut sf = ShardedFirstFit::single(10);
        assert_eq!(sf.assign(Interval::new(0, 10)), Some(0));
        assert_eq!(sf.assign(Interval::new(5, 15)), Some(1));
        assert_eq!(sf.assign(Interval::new(9, 12)), Some(2));
        assert!(sf.is_valid());
        assert_eq!(sf.high_water(), Some(2));
    }

    #[test]
    fn expired_ids_recycle_through_the_empty_set() {
        let mut sf = ShardedFirstFit::single(4);
        let iv = Interval::new(0, 10);
        assert_eq!(sf.assign(iv), Some(0));
        assert_eq!(sf.assign(Interval::new(0, 10)), Some(1));
        assert!(sf.release(1, &Interval::new(0, 10)));
        assert!(sf.release(0, &iv));
        // Smallest recycled color wins over a fresh one.
        assert_eq!(sf.assign(Interval::new(20, 30)), Some(0));
        assert!(sf.is_valid());
    }

    #[test]
    fn assignments_balance_across_shards() {
        let ranges = even_ranges(4, 100);
        let mut sf = ShardedFirstFit::new(&ranges);
        for i in 0..40 {
            let id = sf.assign(Interval::new(0, 100 + i)).unwrap();
            let shard = sf.shard_of(id).unwrap();
            assert!(ranges[shard].contains(&id), "ResID in its shard's range");
        }
        assert_eq!(sf.active_per_shard(), vec![10, 10, 10, 10]);
        assert!((sf.skew() - 1.0).abs() < 1e-9);
        assert!(sf.is_valid());
    }

    #[test]
    fn full_shard_falls_over_to_next_least_loaded() {
        // Shard 0 has 2 slots, shard 1 has 8.
        let mut sf = ShardedFirstFit::new(&[0..2, 2..10]);
        let mut ids = Vec::new();
        for _ in 0..6 {
            ids.push(sf.assign(Interval::new(0, 10)).unwrap());
        }
        // 2 land in shard 0 (its capacity), the rest in shard 1.
        assert_eq!(ids.iter().filter(|&&id| id < 2).count(), 2);
        assert_eq!(sf.active_per_shard(), vec![2, 4]);
    }

    #[test]
    fn exhausted_space_returns_none() {
        let mut sf = ShardedFirstFit::new(&[0..1, 1..2]);
        assert!(sf.assign(Interval::new(0, 10)).is_some());
        assert!(sf.assign(Interval::new(0, 10)).is_some());
        assert_eq!(sf.assign(Interval::new(5, 8)), None);
        // A disjoint interval still fits via the first-fit fallback.
        assert!(sf.assign(Interval::new(10, 20)).is_some());
    }

    #[test]
    fn extend_keeps_color_and_respects_successor() {
        let mut sf = ShardedFirstFit::single(4);
        let iv = Interval::new(0, 10);
        let id = sf.assign(iv).unwrap();
        // Same color has a later interval starting at 20.
        let blocker = Interval::new(20, 30);
        assert!(sf.release_then_place_at(id, blocker));
        assert!(sf.try_extend(id, &iv, 20), "extend up to the successor");
        assert!(!sf.try_extend(id, &Interval::new(0, 20), 25), "into the successor fails");
        assert!(!sf.try_extend(99, &iv, 30), "unknown ResID fails");
        assert!(sf.is_valid());
    }

    #[test]
    fn release_returns_presence() {
        let mut sf = ShardedFirstFit::new(&even_ranges(2, 10));
        let iv = Interval::new(0, 5);
        let id = sf.assign(iv).unwrap();
        assert!(sf.release(id, &iv));
        assert!(!sf.release(id, &iv));
        assert_eq!(sf.active_count(), 0);
        assert!((sf.skew() - 1.0).abs() < 1e-9);
    }

    impl ShardedFirstFit {
        /// Test helper: force-place `iv` on `res_id`'s color.
        fn release_then_place_at(&mut self, res_id: u32, iv: Interval) -> bool {
            let Some(i) = self.shard_of(res_id) else { return false };
            let shard = &mut self.shards[i];
            let local = (res_id - shard.base) as usize;
            if shard.colors[local].iter().any(|a| a.overlaps(&iv)) {
                return false;
            }
            let pos = shard.colors[local].partition_point(|a| a.start < iv.start);
            shard.colors[local].insert(pos, iv);
            shard.active += 1;
            true
        }
    }
}
