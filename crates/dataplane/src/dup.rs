//! Optional duplicate suppression (paper §5.4, Appendix A.1).
//!
//! Hummingbird deliberately does *not* require duplicate suppression — the
//! header's unique `(BaseTimestamp, MillisTimestamp, Counter)` triple merely
//! makes it possible for ASes that want it. This module implements it so
//! the netsim experiments can quantify what it buys against
//! on-reservation-set replay adversaries (ablation 3 of the `ablations`
//! binary; ARCHITECTURE.md, "The data-plane pipeline", row §5.4).
//!
//! Implementation: two-epoch rotating hash sets. Entries live at least one
//! full packet-validity window (`Δ + 2δ`) and at most two, using bounded
//! memory without per-entry timers.

use std::collections::HashSet;

/// A packet identity: `(BaseTimestamp, MillisTimestamp, Counter)` plus the
/// source-identifying flow information the AS chooses to scope by.
pub type PacketId = (u32, u16, u16, u64);

/// Two-epoch duplicate suppressor.
#[derive(Clone, Debug)]
pub struct DuplicateSuppressor {
    current: HashSet<PacketId>,
    previous: HashSet<PacketId>,
    epoch_len_ns: u64,
    epoch_start_ns: u64,
    /// Capacity cap per epoch; beyond it entries are dropped (fail-open:
    /// duplicates might pass, but memory stays bounded).
    max_entries: usize,
}

impl DuplicateSuppressor {
    /// Creates a suppressor whose entries survive at least `window_ns`.
    pub fn new(window_ns: u64, max_entries: usize) -> Self {
        DuplicateSuppressor {
            current: HashSet::new(),
            previous: HashSet::new(),
            epoch_len_ns: window_ns.max(1),
            epoch_start_ns: 0,
            max_entries,
        }
    }

    fn rotate_if_needed(&mut self, now_ns: u64) {
        if now_ns >= self.epoch_start_ns + self.epoch_len_ns {
            self.previous = std::mem::take(&mut self.current);
            // Skip forward over idle gaps.
            if now_ns >= self.epoch_start_ns + 2 * self.epoch_len_ns {
                self.previous.clear();
            }
            self.epoch_start_ns = now_ns - (now_ns % self.epoch_len_ns);
        }
    }

    /// Records `id`; returns `true` if it was seen before (a duplicate).
    pub fn check_and_insert(&mut self, id: PacketId, now_ns: u64) -> bool {
        self.rotate_if_needed(now_ns);
        if self.current.contains(&id) || self.previous.contains(&id) {
            return true;
        }
        if self.current.len() < self.max_entries {
            self.current.insert(id);
        }
        false
    }

    /// Number of tracked identities.
    pub fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty() && self.previous.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn detects_duplicates_within_window() {
        let mut d = DuplicateSuppressor::new(1500 * MS, 1 << 16);
        let id = (100, 5, 1, 42);
        assert!(!d.check_and_insert(id, 0));
        assert!(d.check_and_insert(id, 700 * MS));
        assert!(d.check_and_insert(id, 1400 * MS));
    }

    #[test]
    fn distinct_counters_are_not_duplicates() {
        let mut d = DuplicateSuppressor::new(1500 * MS, 1 << 16);
        assert!(!d.check_and_insert((100, 5, 1, 42), 0));
        assert!(!d.check_and_insert((100, 5, 2, 42), 0));
        assert!(!d.check_and_insert((100, 6, 1, 42), 0));
    }

    #[test]
    fn entries_expire_after_two_epochs() {
        let mut d = DuplicateSuppressor::new(1000 * MS, 1 << 16);
        let id = (1, 1, 1, 1);
        assert!(!d.check_and_insert(id, 0));
        // Two full epochs later (and an idle gap), the entry is gone.
        assert!(!d.check_and_insert(id, 3500 * MS));
    }

    #[test]
    fn memory_is_bounded() {
        let mut d = DuplicateSuppressor::new(1000 * MS, 100);
        for i in 0..1000u16 {
            d.check_and_insert((0, 0, i, 0), 0);
        }
        assert!(d.len() <= 100);
    }

    #[test]
    fn idle_gap_clears_old_epochs() {
        let mut d = DuplicateSuppressor::new(1000 * MS, 1 << 16);
        d.check_and_insert((1, 0, 0, 0), 0);
        d.check_and_insert((2, 0, 0, 0), 100 * MS);
        assert_eq!(d.len(), 2);
        d.check_and_insert((3, 0, 0, 0), 10_000 * MS);
        assert!(d.len() <= 2);
    }
}
