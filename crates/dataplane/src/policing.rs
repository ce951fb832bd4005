//! Deterministic token-bucket traffic policing (paper §4.4, Algorithm 1).
//!
//! One 8-byte deadline per ResID in a flat array, plus a global `BurstTime`.
//! Processing a packet is: read the slot, one division (packet transmission
//! time at the reserved rate), two comparisons, one store. The array is
//! indexed directly by the ResID carried in the (authenticated) packet
//! header, which is why ResID compactness (interval coloring) matters.
//!
//! The configured ResIDmax is a bound, not an allocation: the array starts
//! empty and grows to `res_id + 1` on the first packet of a ResID below the
//! bound, so an engine pays for the ResIDs it polices rather than for the
//! §7.1 footprint (10⁵ slots, 800 kB), which is the ceiling. An untouched
//! slot reads as deadline 0 whether or not it is resident, so growth never
//! changes a verdict.

/// Forwarding class decided by the policer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FwdClass {
    /// Within the reservation: forward with priority.
    Flyover,
    /// Over the reservation (or no reservation): forward best-effort.
    /// Packets are *not* dropped on overuse (§4.3 step 5), so benign
    /// bursts never degrade below best-effort service.
    BestEffort,
}

/// The policer state for one ingress interface.
#[derive(Clone, Debug)]
pub struct Policer {
    /// `TSArray`: one deadline (ns since epoch) per ResID, resident up to
    /// the highest ResID policed so far (never beyond `max_res_ids`).
    ts_array: Vec<u64>,
    /// ResIDmax: ResIDs at or above it are never assigned.
    max_res_ids: u32,
    /// `BurstTime` in nanoseconds (paper suggests ~50 ms).
    burst_time_ns: u64,
}

/// Default `BurstTime`: 50 ms (§4.4, "a value of roughly 50 ms seems
/// reasonable" given current router buffer trends).
pub(crate) const DEFAULT_BURST_TIME_NS: u64 = 50_000_000;

/// Transmission time of `pkt_len` bytes at `bw_kbps`, in nanoseconds:
/// `PktLen / BW` of Algorithm 1 line 3.
#[inline]
pub fn transmission_time_ns(pkt_len: u16, bw_kbps: u64) -> u64 {
    if bw_kbps == 0 {
        return u64::MAX;
    }
    // bits * 1e6 / kbps = ns
    (u64::from(pkt_len) * 8).saturating_mul(1_000_000) / bw_kbps
}

impl Policer {
    /// Creates a policer for ResIDs below `max_res_ids` (ResIDmax; the
    /// §7.1 evaluation uses 10⁵) with the given burst budget.
    ///
    /// Allocates nothing: the deadline array grows on the first packet of
    /// each new highest ResID, up to `max_res_ids` slots.
    pub fn new(max_res_ids: u32, burst_time_ns: u64) -> Self {
        Policer { ts_array: Vec::new(), max_res_ids, burst_time_ns }
    }

    /// Creates the paper's evaluation configuration: 10⁵ ResIDs, 50 ms.
    pub fn paper_default() -> Self {
        Self::new(100_000, DEFAULT_BURST_TIME_NS)
    }

    /// Number of ResID slots the policer serves (ResIDmax).
    pub fn capacity(&self) -> usize {
        self.max_res_ids as usize
    }

    /// Memory footprint of the full deadline array in bytes — the ceiling
    /// the resident array grows towards (§4.4 sizing examples: 24 MB for
    /// 3M IDs, 600 kB for 75k).
    #[cfg(test)]
    fn array_bytes(&self) -> usize {
        self.capacity() * 8
    }

    /// Algorithm 1, `BandwidthMonitoring`: decides the forwarding class of
    /// a packet of `pkt_len` bytes on reservation `res_id` at `bw_kbps`.
    ///
    /// Returns [`FwdClass::BestEffort`] for ResIDs beyond ResIDmax (the AS
    /// never assigns them, so such packets cannot be legitimate) and for
    /// packets exceeding the burst budget — including every packet of a
    /// 0 kbps reservation.
    #[inline]
    pub fn check(&mut self, res_id: u32, bw_kbps: u64, pkt_len: u16, now_ns: u64) -> FwdClass {
        // No packet fits 0 kbps, however large the burst budget.
        if bw_kbps == 0 {
            return FwdClass::BestEffort;
        }
        let tx_ns = transmission_time_ns(pkt_len, bw_kbps);
        let burst_time_ns = self.burst_time_ns;
        if let Some(slot) = self.ts_array.get_mut(res_id as usize) {
            return monitor(slot, tx_ns, now_ns, burst_time_ns);
        }
        match self.grow_to(res_id) {
            Some(slot) => monitor(slot, tx_ns, now_ns, burst_time_ns),
            None => FwdClass::BestEffort,
        }
    }

    /// The cold half of [`check`](Policer::check): makes `res_id`
    /// resident, or `None` for a ResID at or beyond ResIDmax. Capacity
    /// doubles, capped at ResIDmax, so growth is amortised and the array
    /// never outgrows the configured footprint.
    #[cold]
    fn grow_to(&mut self, res_id: u32) -> Option<&mut u64> {
        if res_id >= self.max_res_ids {
            return None;
        }
        let len = res_id as usize + 1;
        let target = len.max(2 * self.ts_array.capacity()).min(self.capacity());
        self.ts_array.reserve_exact(target - self.ts_array.len());
        self.ts_array.resize(len, 0);
        self.ts_array.last_mut()
    }

    /// Starts loading the deadline slot of `res_id` into cache without
    /// waiting for it, so it is resident when [`check`](Policer::check)
    /// runs: the batch path calls this for a whole burst before its two
    /// AES passes, like the DPDK prefetch the paper's router issues per
    /// burst, and the burst's slot misses overlap each other and the
    /// crypto. A non-blocking hint ([`hummingbird_crypto::prefetch`]): it
    /// may target a slot that a `check` earlier in the same burst then
    /// moves by growing the array, which is harmless because a prefetch
    /// never faults or writes. A no-op for slots not yet resident (`check`
    /// creates them).
    #[inline]
    pub fn prefetch(&self, res_id: u32) {
        if let Some(slot) = self.ts_array.get(res_id as usize) {
            hummingbird_crypto::prefetch(slot);
        }
    }

    /// Resets one slot (e.g. when a ResID is recycled across reservations).
    /// A no-op for slots not yet resident: they already read 0.
    pub fn reset(&mut self, res_id: u32) {
        if let Some(slot) = self.ts_array.get_mut(res_id as usize) {
            *slot = 0;
        }
    }
}

/// Algorithm 1 lines 3-7 on one deadline slot:
/// `max(slot, now) + PktLen/BW <= now + BurstTime`, measured from `now`
/// so that neither side can overflow.
#[inline]
fn monitor(slot: &mut u64, tx_ns: u64, now_ns: u64, burst_time_ns: u64) -> FwdClass {
    match slot.saturating_sub(now_ns).checked_add(tx_ns) {
        Some(ahead) if ahead <= burst_time_ns => {
            *slot = now_ns.saturating_add(ahead);
            FwdClass::Flyover
        }
        _ => FwdClass::BestEffort,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn transmission_time_math() {
        // 1500 B at 240 kbps: 12000 bits / 240 kbps = 50 ms (§4.4: packets
        // of 1500 B max out a 240 kbps reservation's 50 ms burst budget).
        assert_eq!(transmission_time_ns(1500, 240), 50 * 1_000_000);
        // 1000 B at 8 Mbps = 1 ms.
        assert_eq!(transmission_time_ns(1000, 8_000), 1_000_000);
        assert_eq!(transmission_time_ns(100, 0), u64::MAX);
    }

    #[test]
    fn conforming_traffic_stays_flyover() {
        let mut p = Policer::new(16, DEFAULT_BURST_TIME_NS);
        // 10 Mbps reservation, 1000 B packets every ms = 8 Mbps: conforming.
        let mut now = SEC;
        for _ in 0..1000 {
            assert_eq!(p.check(3, 10_000, 1000, now), FwdClass::Flyover);
            now += 1_000_000;
        }
    }

    #[test]
    fn overuse_is_demoted_to_best_effort() {
        let mut p = Policer::new(16, DEFAULT_BURST_TIME_NS);
        // 1 Mbps reservation, 1500 B packets back-to-back = 12 ms each;
        // after ~4 packets the 50 ms burst budget is exhausted.
        let now = SEC;
        let mut flyover = 0;
        let mut best_effort = 0;
        for _ in 0..20 {
            match p.check(0, 1_000, 1500, now) {
                FwdClass::Flyover => flyover += 1,
                FwdClass::BestEffort => best_effort += 1,
            }
        }
        assert_eq!(flyover, 4, "50ms budget / 12ms per packet");
        assert_eq!(best_effort, 16);
    }

    #[test]
    fn bucket_refills_over_time() {
        let mut p = Policer::new(16, DEFAULT_BURST_TIME_NS);
        let now = SEC;
        // Exhaust the budget.
        while p.check(0, 1_000, 1500, now) == FwdClass::Flyover {}
        assert_eq!(p.check(0, 1_000, 1500, now), FwdClass::BestEffort);
        // After enough time, the reservation is usable again.
        let later = now + SEC;
        assert_eq!(p.check(0, 1_000, 1500, later), FwdClass::Flyover);
    }

    #[test]
    fn burst_allowance_is_bounded() {
        let mut p = Policer::new(16, 50_000_000);
        // A long-idle reservation does NOT accumulate unbounded credit:
        // at most BurstTime worth of traffic passes instantaneously.
        let now = 100 * SEC; // idle for 100 s
        let mut passed = 0u64;
        while p.check(0, 10_000, 1500, now) == FwdClass::Flyover {
            passed += 1500 * 8;
        }
        // 50 ms at 10 Mbps = 500 kbit ceiling.
        assert!(passed <= 500_000, "passed {passed} bits in one burst");
    }

    #[test]
    fn res_ids_are_isolated() {
        let mut p = Policer::new(16, DEFAULT_BURST_TIME_NS);
        let now = SEC;
        while p.check(0, 1_000, 1500, now) == FwdClass::Flyover {}
        // Exhausting ResID 0 does not affect ResID 1.
        assert_eq!(p.check(1, 1_000, 1500, now), FwdClass::Flyover);
    }

    #[test]
    fn out_of_range_res_id_is_best_effort() {
        let mut p = Policer::new(4, DEFAULT_BURST_TIME_NS);
        assert_eq!(p.check(4, 1_000_000, 100, SEC), FwdClass::BestEffort);
    }

    #[test]
    fn zero_rate_reservation_is_best_effort() {
        // `bw_encoded = 0` decodes to 0 kbps: no packet fits such a
        // reservation, so it must never get priority — not by wrapping
        // the deadline past `u64::MAX`, and not at the far end of time.
        let mut p = Policer::new(4, DEFAULT_BURST_TIME_NS);
        assert_eq!(p.check(0, 0, 100, SEC), FwdClass::BestEffort);
        assert_eq!(p.check(1, 0, 100, u64::MAX - 1), FwdClass::BestEffort);
        // The demoted packets left their slots untouched.
        assert_eq!(p.check(0, 1_000, 100, SEC), FwdClass::Flyover);
        // Nor does an unbounded burst budget admit one.
        assert_eq!(Policer::new(4, u64::MAX).check(0, 0, 100, SEC), FwdClass::BestEffort);
    }

    #[test]
    fn reset_recycles_slot() {
        let mut p = Policer::new(4, DEFAULT_BURST_TIME_NS);
        let now = SEC;
        while p.check(2, 1_000, 1500, now) == FwdClass::Flyover {}
        p.reset(2);
        assert_eq!(p.check(2, 1_000, 1500, now), FwdClass::Flyover);
    }

    #[test]
    fn slots_become_resident_on_first_use() {
        let mut p = Policer::new(1_000, DEFAULT_BURST_TIME_NS);
        assert_eq!(p.ts_array.len(), 0);
        // Resets and prefetches of untouched slots change nothing.
        p.reset(500);
        p.prefetch(999);
        assert_eq!(p.ts_array.len(), 0);
        assert_eq!(p.check(9, 1_000, 1500, SEC), FwdClass::Flyover);
        assert_eq!(p.ts_array.len(), 10);
        // Growth never spans past ResIDmax, whatever the doubling asks.
        assert_eq!(p.check(600, 1_000, 1500, SEC), FwdClass::Flyover);
        assert_eq!(p.check(999, 1_000, 1500, SEC), FwdClass::Flyover);
        assert_eq!(p.ts_array.len(), 1_000);
        assert!(p.ts_array.capacity() <= 1_000, "capacity {}", p.ts_array.capacity());
        assert_eq!(p.check(1_000, 1_000, 1500, SEC), FwdClass::BestEffort);
        assert_eq!(p.check(u32::MAX, 1_000, 1500, SEC), FwdClass::BestEffort);
        assert_eq!((p.ts_array.len(), p.capacity()), (1_000, 1_000));
    }

    #[test]
    fn paper_array_sizing() {
        let p = Policer::paper_default();
        assert_eq!(p.array_bytes(), 800_000, "§7.1: 10^5 IDs -> 800 kB");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The on-demand `Policer` is Algorithm 1 over a dense, fully
        /// allocated array: same verdict for every operation, at ResIDs
        /// chosen around its growth edges, and never more than ResIDmax
        /// slots resident. Most operations land at the high-water mark ± 1,
        /// so the array grows one slot at a time next to slots in use.
        #[test]
        fn on_demand_policer_matches_dense_reference(
            max in 1u32..300,
            burst_ns in 0u64..30_000_000,
            ops in proptest::collection::vec(
                (0u8..3, 0u8..32, any::<u32>(), 0u64..10_000, 1u16..1500, 0u64..1_000_000),
                1..300,
            ),
        ) {
            let mut p = Policer::new(max, burst_ns);
            let mut dense = DensePolicer { ts: vec![0; max as usize], burst_ns };
            let mut now = 1_000_000_000u64;
            for (i, &(op, at, draw, bw_kbps, pkt_len, dt)) in ops.iter().enumerate() {
                let high_water = p.ts_array.len() as u32;
                let res_id = match at {
                    0 => 0,
                    1 => max - 1,
                    2 => max,
                    3 => u32::MAX,
                    4 => draw % max,
                    _ => (high_water + draw % 3).saturating_sub(1),
                };
                // A tenth of the reservations run at 0 kbps; the rest are
                // slow enough that the burst budget often runs out.
                let bw_kbps = if bw_kbps < 1_000 { 0 } else { bw_kbps };
                now += dt;
                match op {
                    0 => {
                        p.reset(res_id);
                        dense.reset(res_id);
                    }
                    1 => p.prefetch(res_id),
                    _ => {}
                }
                let got = p.check(res_id, bw_kbps, pkt_len, now);
                let want = dense.check(res_id, bw_kbps, pkt_len, now);
                prop_assert_eq!(got, want, "op {} on ResID {} of {}", i, res_id, max);
                prop_assert!(p.ts_array.len() <= max as usize, "{} resident", p.ts_array.len());
            }
        }
    }

    /// Algorithm 1 as §4.4 writes it: a `TSArray` allocated whole, with
    /// exact (128-bit) arithmetic in place of any overflow handling.
    struct DensePolicer {
        ts: Vec<u64>,
        burst_ns: u64,
    }

    impl DensePolicer {
        fn check(&mut self, res_id: u32, bw_kbps: u64, pkt_len: u16, now: u64) -> FwdClass {
            let Some(slot) = self.ts.get_mut(res_id as usize) else {
                return FwdClass::BestEffort;
            };
            if bw_kbps == 0 {
                return FwdClass::BestEffort;
            }
            let tx = u128::from(pkt_len) * 8 * 1_000_000 / u128::from(bw_kbps);
            let ts = u128::from((*slot).max(now)) + tx;
            if ts <= u128::from(now) + u128::from(self.burst_ns) {
                *slot = ts as u64;
                FwdClass::Flyover
            } else {
                FwdClass::BestEffort
            }
        }

        fn reset(&mut self, res_id: u32) {
            if let Some(slot) = self.ts.get_mut(res_id as usize) {
                *slot = 0;
            }
        }
    }
}
