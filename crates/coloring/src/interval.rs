//! Time intervals for reservation validity periods.

/// A half-open time interval `[start, end)` in seconds.
///
/// Two reservations may share a ResID iff their validity intervals do not
/// overlap (§4.4: a ResID must be unique for an interface pair *during the
/// reservation's validity period*).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
}

impl Interval {
    /// Creates an interval; panics if `end <= start`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end > start, "interval must be non-empty: [{start}, {end})");
        Interval { start, end }
    }

    /// Whether two intervals overlap.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Interval length.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Always false (intervals are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Computes the maximum point overlap ("clique number" of the interval
/// graph) — the chromatic number an offline optimal coloring achieves.
pub fn max_overlap(intervals: &[Interval]) -> usize {
    let mut events: Vec<(u64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for iv in intervals {
        events.push((iv.start, 1));
        events.push((iv.end, -1));
    }
    // Ends sort before starts at the same coordinate (half-open intervals).
    events.sort_by_key(|&(t, delta)| (t, delta));
    let mut cur = 0i32;
    let mut best = 0i32;
    for (_, delta) in events {
        cur += delta;
        best = best.max(cur);
    }
    best as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_semantics_half_open() {
        let a = Interval::new(0, 10);
        let b = Interval::new(10, 20); // touching, not overlapping
        let c = Interval::new(9, 11);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
        assert!(a.overlaps(&a));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_interval_panics() {
        Interval::new(5, 5);
    }

    #[test]
    fn max_overlap_counts_cliques() {
        let ivs = vec![
            Interval::new(0, 10),
            Interval::new(5, 15),
            Interval::new(9, 12),
            Interval::new(20, 30),
        ];
        assert_eq!(max_overlap(&ivs), 3);
        assert_eq!(max_overlap(&[]), 0);
        // Touching intervals don't stack.
        assert_eq!(max_overlap(&[Interval::new(0, 5), Interval::new(5, 9)]), 1);
    }
}
