//! Optional duplicate suppression (paper §5.4, Appendix A.1).
//!
//! Hummingbird deliberately does *not* require duplicate suppression — the
//! header's unique `(BaseTimestamp, MillisTimestamp, Counter)` triple merely
//! makes it possible for ASes that want it. This module implements it so
//! the netsim experiments can quantify what it buys against
//! on-reservation-set replay adversaries (its per-packet cost is a total
//! row of `paper --claim table3`; ARCHITECTURE.md, "The data-plane
//! pipeline", row §5.4).
//!
//! Implementation: two-epoch rotating hash sets. Entries live at least one
//! full packet-validity window (`Δ + 2δ`) and at most two, using bounded
//! memory without per-entry timers.

use hummingbird_wire::IsdAs;
use std::collections::HashSet;

/// A packet identity: `(BaseTimestamp, MillisTimestamp, Counter)` plus the
/// source ISD-AS, so two sources' packets never collide (the counter is
/// unique per source only).
pub(crate) type PacketId = (u32, u16, u16, IsdAs);

/// What [`DuplicateSuppressor::check_and_insert`] made of an identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Seen {
    /// New, and now recorded.
    Fresh,
    /// Seen within the window.
    Duplicate,
    /// New, but the epoch is full: it passes unrecorded (fail-open), and
    /// so will a replay of it.
    Unrecorded,
}

/// Two-epoch duplicate suppressor.
#[derive(Clone, Debug)]
pub(crate) struct DuplicateSuppressor {
    current: HashSet<PacketId>,
    previous: HashSet<PacketId>,
    epoch_len_ns: u64,
    epoch_start_ns: u64,
    /// Capacity cap per epoch; beyond it identities go unrecorded
    /// (fail-open: duplicates might pass, but memory stays bounded).
    max_entries: usize,
}

impl DuplicateSuppressor {
    /// Creates a suppressor whose entries survive at least `window_ns`.
    pub(crate) fn new(window_ns: u64, max_entries: usize) -> Self {
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

    /// Checks `id` against the window and records it if there is room.
    pub(crate) fn check_and_insert(&mut self, id: PacketId, now_ns: u64) -> Seen {
        self.rotate_if_needed(now_ns);
        if self.current.contains(&id) || self.previous.contains(&id) {
            Seen::Duplicate
        } else if self.current.len() < self.max_entries {
            self.current.insert(id);
            Seen::Fresh
        } else {
            Seen::Unrecorded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// Source AS `asn` of ISD 1.
    fn src(asn: u64) -> IsdAs {
        IsdAs::new(1, asn)
    }

    /// Number of tracked identities.
    fn tracked(d: &DuplicateSuppressor) -> usize {
        d.current.len() + d.previous.len()
    }

    #[test]
    fn detects_duplicates_within_window() {
        let mut d = DuplicateSuppressor::new(1500 * MS, 1 << 16);
        let id = (100, 5, 1, src(42));
        assert_eq!(d.check_and_insert(id, 0), Seen::Fresh);
        assert_eq!(d.check_and_insert(id, 700 * MS), Seen::Duplicate);
        assert_eq!(d.check_and_insert(id, 1400 * MS), Seen::Duplicate);
    }

    #[test]
    fn distinct_counters_are_not_duplicates() {
        let mut d = DuplicateSuppressor::new(1500 * MS, 1 << 16);
        assert_eq!(d.check_and_insert((100, 5, 1, src(42)), 0), Seen::Fresh);
        assert_eq!(d.check_and_insert((100, 5, 2, src(42)), 0), Seen::Fresh);
        assert_eq!(d.check_and_insert((100, 6, 1, src(42)), 0), Seen::Fresh);
    }

    #[test]
    fn entries_expire_after_two_epochs() {
        let mut d = DuplicateSuppressor::new(1000 * MS, 1 << 16);
        let id = (1, 1, 1, src(1));
        assert_eq!(d.check_and_insert(id, 0), Seen::Fresh);
        // Two full epochs later (and an idle gap), the entry is gone.
        assert_eq!(d.check_and_insert(id, 3500 * MS), Seen::Fresh);
    }

    #[test]
    fn memory_is_bounded() {
        let mut d = DuplicateSuppressor::new(1000 * MS, 100);
        for i in 0..1000u16 {
            d.check_and_insert((0, 0, i, src(0)), 0);
        }
        assert!(tracked(&d) <= 100);
    }

    /// Past its cap the filter fails open, but says so: the router
    /// counts each `Unrecorded`.
    #[test]
    fn a_replay_past_the_cap_is_dropped_or_counted() {
        let mut d = DuplicateSuppressor::new(1000 * MS, 8);
        for i in 0..8 {
            assert_eq!(d.check_and_insert((0, 0, i, src(0)), 0), Seen::Fresh);
        }
        assert_eq!(d.check_and_insert((0, 0, 8, src(0)), 0), Seen::Unrecorded);
        let replay = d.check_and_insert((0, 0, 8, src(0)), 0);
        assert_ne!(replay, Seen::Fresh, "a replay past the cap passed uncounted");
    }

    #[test]
    fn idle_gap_clears_old_epochs() {
        let mut d = DuplicateSuppressor::new(1000 * MS, 1 << 16);
        d.check_and_insert((1, 0, 0, src(0)), 0);
        d.check_and_insert((2, 0, 0, src(0)), 100 * MS);
        assert_eq!(tracked(&d), 2);
        d.check_and_insert((3, 0, 0, src(0)), 10_000 * MS);
        assert!(tracked(&d) <= 2);
    }
}
