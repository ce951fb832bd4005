//! A Helia-style fixed-slot flyover baseline (Wyss et al., CCS 2022).
//!
//! Helia introduced per-AS flyover reservations — the idea Hummingbird
//! adopts — but with the limitations the paper lists in §2:
//!
//! * reservations live in **fixed time slots**; the start/expiration
//!   cannot be negotiated;
//! * the reserved **bandwidth is computed by the AS** from its capacity
//!   and the number of active sources — the source cannot request a size;
//! * reservations **cannot be obtained ahead of time**: a request is only
//!   valid for the current slot (and primes the next);
//! * authorization is **per source AS** via DRKey, so end hosts need an
//!   AS-level gateway and the granting AS must know the requester's
//!   identity (no control-plane independence, no transferable assets);
//! * there are **no atomic path reservations** — each hop is requested
//!   independently with no coordination.
//!
//! This module implements that model faithfully enough to compare against
//! Hummingbird in the `baseline_comparison` bench: slot-based grants,
//! demand-proportional bandwidth shares, DRKey-based authenticators, and
//! per-slot request/renewal.

use crate::drkey::DrKeySecret;
use hummingbird_crypto::aes::Aes128;
use hummingbird_wire::IsdAs;
use std::collections::HashMap;

/// Helia's fixed reservation-slot length in seconds. (Helia grants
/// per-slot; Colibri's analogue is its fixed 16 s renewal interval.)
pub const SLOT_SECS: u64 = 16;

/// The slot index covering `unix_s`.
pub fn slot_of(unix_s: u64) -> u64 {
    unix_s / SLOT_SECS
}

/// Errors from the Helia-style service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeliaError {
    /// Request for a slot other than the current one: Helia cannot grant
    /// reservations ahead of time (paper §2).
    NotCurrentSlot {
        /// The slot that was requested.
        requested: u64,
        /// The only slot that can be granted.
        current: u64,
    },
    /// The AS has no capacity left this slot.
    NoCapacity,
}

impl std::fmt::Display for HeliaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeliaError::NotCurrentSlot { requested, current } => {
                write!(f, "Helia grants only the current slot {current}, not {requested}")
            }
            HeliaError::NoCapacity => f.write_str("no flyover capacity this slot"),
        }
    }
}

impl std::error::Error for HeliaError {}

/// A granted Helia reservation: one slot, AS-chosen bandwidth, a DRKey
/// authenticator bound to the requesting *AS* (not host).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeliaGrant {
    /// Slot index the grant is valid for.
    pub slot: u64,
    /// Bandwidth assigned by the AS, kbps. The source has no say.
    pub bandwidth_kbps: u64,
    /// Authentication key, derived from DRKey (the source-AS gateway
    /// holds it; end hosts never see it).
    pub key: [u8; 16],
}

/// One AS's Helia service for a single interface pair.
pub struct HeliaService {
    as_id: IsdAs,
    drkey_master: [u8; 16],
    /// Total flyover capacity per slot, kbps.
    capacity_kbps: u64,
    /// Minimum share an AS must receive, kbps (bounds the number of
    /// concurrent sources, like Hummingbird's MinBW).
    min_share_kbps: u64,
    /// Active source ASes in the current slot (demand drives shares).
    active: HashMap<IsdAs, ()>,
    current_slot: u64,
}

impl HeliaService {
    /// Creates the service.
    pub fn new(
        as_id: IsdAs,
        drkey_master: [u8; 16],
        capacity_kbps: u64,
        min_share_kbps: u64,
    ) -> Self {
        HeliaService {
            as_id,
            drkey_master,
            capacity_kbps,
            min_share_kbps,
            active: HashMap::new(),
            current_slot: 0,
        }
    }

    /// The AS this service belongs to.
    pub fn as_id(&self) -> IsdAs {
        self.as_id
    }

    /// The bandwidth share each active source receives right now.
    ///
    /// Helia sizes reservations so every source can obtain one: the
    /// capacity is divided equally among active sources (a simplification
    /// of Helia's per-neighbor allocation formula that preserves the
    /// property under test: the *source cannot choose*).
    pub fn current_share_kbps(&self) -> u64 {
        let n = self.active.len().max(1) as u64;
        self.capacity_kbps / n
    }

    /// Requests a flyover for `source_as` covering the slot containing
    /// `now_s`. Helia has no negotiation: the slot must be current, the
    /// bandwidth is whatever falls out of the allocation.
    pub fn request(
        &mut self,
        source_as: IsdAs,
        now_s: u64,
        requested_slot: u64,
    ) -> Result<HeliaGrant, HeliaError> {
        let current = slot_of(now_s);
        if requested_slot != current {
            return Err(HeliaError::NotCurrentSlot { requested: requested_slot, current });
        }
        if current != self.current_slot {
            // New slot: demand resets.
            self.current_slot = current;
            self.active.clear();
        }
        // Admission: adding this source must keep shares above the floor.
        let would_be = self.capacity_kbps / (self.active.len() as u64 + 1);
        if would_be < self.min_share_kbps {
            return Err(HeliaError::NoCapacity);
        }
        self.active.insert(source_as, ());
        let share = self.current_share_kbps();
        let key = self.grant_key(source_as, current);
        Ok(HeliaGrant { slot: current, bandwidth_kbps: share, key })
    }

    /// The per-slot DRKey-derived authenticator for `source_as`
    /// (`K_{A→B}` bound to the slot index).
    fn grant_key(&self, source_as: IsdAs, slot: u64) -> [u8; 16] {
        slot_key(&self.drkey_master, source_as, slot)
    }

    /// Router-side check: verifies a grant key (the router re-derives it
    /// from DRKey, like Hummingbird routers re-derive `A_K`).
    pub fn verify_grant(&self, source_as: IsdAs, grant: &HeliaGrant) -> bool {
        self.grant_key(source_as, grant.slot) == grant.key
    }

    /// Number of sources holding a grant this slot.
    pub fn active_sources(&self) -> usize {
        self.active.len()
    }
}

/// The Helia per-slot authenticator key for `source_as` covering `slot`:
/// `PRF_{K_{A→B}}(slot ‖ "helia")` with `K_{A→B}` from the DRKey
/// hierarchy. Shared by [`HeliaService::verify_grant`] and the sender's
/// `helia_packet_key`; the per-packet [`crate::engine::HeliaDatapath`]
/// derives it inside its key chain.
pub(crate) fn slot_key(drkey_master: &[u8; 16], source_as: IsdAs, slot: u64) -> [u8; 16] {
    let sv = DrKeySecret::derive(drkey_master, crate::drkey::epoch_of(slot * SLOT_SECS));
    Aes128::new(&sv.as_to_as(source_as)).encrypt(&slot_block(slot))
}

/// The PRF input of the slot key under `K_{A→B}`.
pub(crate) fn slot_block(slot: u64) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..8].copy_from_slice(&slot.to_be_bytes());
    block[8..13].copy_from_slice(b"helia");
    block
}

/// Flexibility comparison helpers used by the baseline bench: how much of
/// a desired reservation window a system can actually cover, and how much
/// bandwidth-time is wasted to cover it.
pub mod flexibility {
    use super::SLOT_SECS;

    /// Helia must cover `[start, end)` with whole slots; returns
    /// `(covered_secs, paid_secs)`: the request is padded to slot
    /// boundaries and cannot start before "now" — callers pass
    /// `start >= now`.
    pub fn helia_slot_coverage(start: u64, end: u64) -> (u64, u64) {
        let first = start / SLOT_SECS;
        let last = end.div_ceil(SLOT_SECS);
        let covered = end - start;
        let paid = (last - first) * SLOT_SECS;
        (covered, paid)
    }

    /// Hummingbird covers any window aligned to the AS's advertised
    /// granularity `g` (the AS chooses `g`, often 60 s, but the *market*
    /// lets the buyer choose any multiple).
    pub fn hummingbird_coverage(start: u64, end: u64, granularity: u64) -> (u64, u64) {
        let first = start / granularity;
        let last = end.div_ceil(granularity);
        let covered = end - start;
        let paid = (last - first) * granularity;
        (covered, paid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> HeliaService {
        HeliaService::new(IsdAs::new(1, 10), [9u8; 16], 100_000, 1_000)
    }

    #[test]
    fn grants_only_the_current_slot() {
        let mut s = svc();
        let now = 1_700_000_000;
        let current = slot_of(now);
        assert!(s.request(IsdAs::new(2, 2), now, current).is_ok());
        // Ahead-of-time requests are impossible (unlike Hummingbird).
        let err = s.request(IsdAs::new(2, 2), now, current + 10).unwrap_err();
        assert!(matches!(err, HeliaError::NotCurrentSlot { .. }));
    }

    #[test]
    fn bandwidth_is_assigned_not_negotiated() {
        let mut s = svc();
        let now = 1_700_000_000;
        let slot = slot_of(now);
        let g1 = s.request(IsdAs::new(2, 1), now, slot).unwrap();
        assert_eq!(g1.bandwidth_kbps, 100_000, "single source gets everything");
        let g2 = s.request(IsdAs::new(2, 2), now, slot).unwrap();
        assert_eq!(g2.bandwidth_kbps, 50_000, "share shrinks as demand arrives");
        assert_eq!(s.active_sources(), 2);
    }

    #[test]
    fn admission_respects_the_share_floor() {
        let mut s = HeliaService::new(IsdAs::new(1, 10), [9u8; 16], 10_000, 4_000);
        let now = 1_700_000_000;
        let slot = slot_of(now);
        assert!(s.request(IsdAs::new(2, 1), now, slot).is_ok());
        assert!(s.request(IsdAs::new(2, 2), now, slot).is_ok());
        // A third source would push shares below 4 Mbps.
        assert_eq!(s.request(IsdAs::new(2, 3), now, slot), Err(HeliaError::NoCapacity));
    }

    #[test]
    fn grants_verify_and_are_slot_bound() {
        let mut s = svc();
        let now = 1_700_000_000;
        let slot = slot_of(now);
        let src = IsdAs::new(2, 7);
        let g = s.request(src, now, slot).unwrap();
        assert!(s.verify_grant(src, &g));
        // Wrong source AS or stale slot fails.
        assert!(!s.verify_grant(IsdAs::new(2, 8), &g));
        let stale = HeliaGrant { slot: slot - 1, ..g };
        assert!(!s.verify_grant(src, &stale));
    }

    #[test]
    fn demand_resets_each_slot() {
        let mut s = svc();
        let now = 1_700_000_000;
        s.request(IsdAs::new(2, 1), now, slot_of(now)).unwrap();
        s.request(IsdAs::new(2, 2), now, slot_of(now)).unwrap();
        let later = now + SLOT_SECS;
        let g = s.request(IsdAs::new(2, 1), later, slot_of(later)).unwrap();
        assert_eq!(g.bandwidth_kbps, 100_000, "new slot, demand forgotten");
        assert_eq!(s.active_sources(), 1);
    }

    #[test]
    fn slot_padding_wastes_bandwidth_time() {
        use super::flexibility::*;
        // A 10-second call starting mid-slot: Helia pays 2 slots (32 s).
        let (covered, paid) = helia_slot_coverage(1_700_000_008, 1_700_000_018);
        assert_eq!(covered, 10);
        assert_eq!(paid, 32);
        // Hummingbird at 1 s granularity pays exactly what it covers.
        let (covered, paid) = hummingbird_coverage(1_700_000_008, 1_700_000_018, 1);
        assert_eq!(covered, paid);
    }
}
