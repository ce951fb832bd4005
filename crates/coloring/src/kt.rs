//! Kierstead-Trotter online interval coloring (3-competitive).
//!
//! The paper (§4.4) bounds the policing array by `ResIDmax = R ·
//! TotalBW/MinBW` where `R` is the competitiveness of the coloring
//! algorithm, citing the optimal online algorithm with `R = 3`
//! [Kierstead-Trotter 1981]. This module implements that algorithm:
//!
//! 1. Each arriving interval `v` is assigned the smallest *level* `m ≥ 1`
//!    such that `v` together with the already-present intervals of level
//!    `≤ m` that intersect it has clique number `≤ m`.
//! 2. Kierstead and Trotter prove the intervals within one level form a
//!    graph with clique number ≤ 2 (a union of paths), which First-Fit
//!    colors online with at most 3 colors; level 1 is an independent set
//!    needing 1 color.
//!
//! Colors are mapped to ResIDs as `level 1 → 0` and
//! `level m ≥ 2 → 1 + 3·(m-2) + sub` with `sub ∈ {0,1,2}`, giving at most
//! `3ω - 2` ResIDs for maximum overlap `ω`.

use crate::interval::{max_overlap, Interval};

#[derive(Clone, Debug)]
struct Entry {
    iv: Interval,
    level: usize,
    sub: usize,
}

/// The Kierstead-Trotter allocator.
#[derive(Clone, Debug, Default)]
pub struct KiersteadTrotter {
    entries: Vec<Entry>,
    high_water: u32,
}

impl KiersteadTrotter {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    fn level_of(&self, iv: &Interval) -> usize {
        let mut m = 1;
        loop {
            // Clique number of {u : level(u) <= m, u ∩ iv} ∪ {iv}.
            let mut others: Vec<Interval> = self
                .entries
                .iter()
                .filter(|e| e.level <= m && e.iv.overlaps(iv))
                .map(|e| e.iv)
                .collect();
            others.push(*iv);
            if max_overlap(&others) <= m {
                return m;
            }
            m += 1;
        }
    }

    /// Assigns a ResID to `iv`.
    pub fn assign(&mut self, iv: Interval) -> u32 {
        let level = self.level_of(&iv);
        // First-Fit within the level.
        let mut sub = 0usize;
        loop {
            let conflict =
                self.entries.iter().any(|e| e.level == level && e.sub == sub && e.iv.overlaps(&iv));
            if !conflict {
                break;
            }
            sub += 1;
        }
        self.entries.push(Entry { iv, level, sub });
        let color = Self::color_index(level, sub);
        self.high_water = self.high_water.max(color);
        color
    }

    /// Maps `(level, sub)` to a global ResID.
    fn color_index(level: usize, sub: usize) -> u32 {
        if level == 1 {
            debug_assert_eq!(sub, 0, "level-1 intervals are independent");
            0
        } else {
            (1 + 3 * (level - 2) + sub) as u32
        }
    }

    /// Number of intervals colored so far.
    pub fn active_count(&self) -> usize {
        self.entries.len()
    }

    /// Highest ResID handed out.
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Validates that no two overlapping intervals share a color.
    pub fn is_valid(&self) -> bool {
        for (i, a) in self.entries.iter().enumerate() {
            for b in &self.entries[i + 1..] {
                if a.level == b.level && a.sub == b.sub && a.iv.overlaps(&b.iv) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn independent_intervals_all_get_zero() {
        let mut kt = KiersteadTrotter::new();
        for i in 0..10 {
            assert_eq!(kt.assign(Interval::new(i * 10, i * 10 + 5)), 0);
        }
        assert!(kt.is_valid());
    }

    #[test]
    fn nested_overlaps_use_higher_levels() {
        let mut kt = KiersteadTrotter::new();
        let c1 = kt.assign(Interval::new(0, 100));
        let c2 = kt.assign(Interval::new(10, 90));
        let c3 = kt.assign(Interval::new(20, 80));
        assert_eq!(c1, 0);
        assert_ne!(c2, c1);
        assert_ne!(c3, c2);
        assert_ne!(c3, c1);
        assert!(kt.is_valid());
    }

    #[test]
    fn coloring_is_always_valid_on_random_sequences() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let mut kt = KiersteadTrotter::new();
            let mut intervals = Vec::new();
            for _ in 0..60 {
                let start = rng.gen_range(0u64..1000);
                let len = rng.gen_range(1u64..200);
                let iv = Interval::new(start, start + len);
                intervals.push(iv);
                kt.assign(iv);
            }
            assert!(kt.is_valid());
        }
    }

    #[test]
    fn competitive_ratio_within_three() {
        // On random instances the KT bound (3ω - 2) must hold.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let mut kt = KiersteadTrotter::new();
            let mut intervals = Vec::new();
            for _ in 0..100 {
                let start = rng.gen_range(0u64..500);
                let len = rng.gen_range(1u64..100);
                let iv = Interval::new(start, start + len);
                intervals.push(iv);
                kt.assign(iv);
            }
            let omega = max_overlap(&intervals) as u32;
            let used = kt.high_water() + 1;
            assert!(
                used <= 3 * omega.saturating_sub(1).max(1),
                "KT used {used} colors for omega {omega}"
            );
        }
    }
}
