//! The gas model (paper §6.2 / Appendix B.1).
//!
//! Sui splits transaction cost into three parts, all reproduced here:
//!
//! * **computation cost** — raw units bucketed upward, then priced at the
//!   reference gas price (paper: 7.5 × 10⁻⁷ SUI/unit);
//! * **storage cost** — bytes written priced at the storage gas price
//!   (paper: 7.6 × 10⁻⁶ SUI/byte);
//! * **storage rebate** — 99 % of the storage fee originally paid for an
//!   object, credited when it is deleted.
//!
//! All accounting is integer, in MIST (1 SUI = 10⁹ MIST).

/// MIST per SUI.
pub const MIST_PER_SUI: u64 = 1_000_000_000;

/// Gas schedule: unit prices and bucketing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GasSchedule {
    /// Price per computation unit, MIST (paper: 7.5e-7 SUI = 750 MIST).
    pub computation_price: u64,
    /// Price per stored byte, MIST (paper: 7.6e-6 SUI = 7600 MIST).
    pub storage_price: u64,
    /// Rebate numerator out of 100 (paper: 99 %).
    pub rebate_percent: u64,
    /// Fixed per-object storage overhead in bytes (object metadata on
    /// chain: ID, version, owner, type; Sui charges ~100 B of envelope).
    pub object_overhead: u64,
    /// SUI price in USD micro-units for reporting (paper: 1.221 USD as of
    /// 2024-04-18).
    pub usd_per_sui_micros: u64,
}

impl Default for GasSchedule {
    fn default() -> Self {
        GasSchedule {
            computation_price: 750,
            storage_price: 7_600,
            rebate_percent: 99,
            // Sui charges for the full stored object: BCS payload plus the
            // object envelope (ID, version, owner, type string) and — for
            // marketplace children — the dynamic-field wrapper. ~250 B
            // total overhead reproduces the per-object storage fees of
            // Table 2.
            object_overhead: 250,
            usd_per_sui_micros: 1_221_000,
        }
    }
}

impl GasSchedule {
    /// Buckets raw computation units upward, as Sui charges by bucket.
    ///
    /// Buckets double from 1000: {1000, 2000, 4000, ...} — this reproduces
    /// Table 1 where 1-4 hops cost 1000 units, 8 hops 2000, 16 hops 4000.
    pub(crate) fn bucket_computation(&self, raw_units: u64) -> u64 {
        let mut bucket = 1_000u64;
        while bucket < raw_units {
            bucket *= 2;
        }
        bucket
    }

    /// Storage fee for an object with `payload_bytes` of contents, MIST.
    pub fn storage_fee(&self, payload_bytes: u64) -> u64 {
        (payload_bytes + self.object_overhead) * self.storage_price
    }

    /// Rebate for deleting an object whose storage fee was `paid`, MIST.
    pub fn rebate(&self, paid: u64) -> u64 {
        paid * self.rebate_percent / 100
    }
}

/// Per-transaction gas accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GasSummary {
    /// Bucketed computation units.
    pub computation_units: u64,
    /// Computation cost, MIST.
    pub computation_cost: u64,
    /// Storage cost, MIST.
    pub storage_cost: u64,
    /// Storage rebate, MIST.
    pub storage_rebate: u64,
}

impl GasSummary {
    /// Net cost (computation + storage − rebate), MIST. Negative values
    /// mean the sender *earned* MIST (rebate exceeded cost), which the
    /// paper shows for `fuse_*` and `deliver_reservation` (Table 2).
    pub fn total_mist(&self) -> i128 {
        i128::from(self.computation_cost) + i128::from(self.storage_cost)
            - i128::from(self.storage_rebate)
    }

    /// Net cost in SUI (floating point, for reporting only).
    pub fn total_sui(&self) -> f64 {
        self.total_mist() as f64 / MIST_PER_SUI as f64
    }

    /// Net cost in USD at the schedule's exchange rate.
    pub fn total_usd(&self, schedule: &GasSchedule) -> f64 {
        self.total_sui() * schedule.usd_per_sui_micros as f64 / 1e6
    }

    /// Accumulates another summary (for multi-tx flows).
    pub fn accumulate(&mut self, other: &GasSummary) {
        self.computation_units += other.computation_units;
        self.computation_cost += other.computation_cost;
        self.storage_cost += other.storage_cost;
        self.storage_rebate += other.storage_rebate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_prices_match_paper() {
        let g = GasSchedule::default();
        // 7.5e-7 SUI/unit = 750 MIST/unit.
        assert_eq!(g.computation_price, 750);
        // 7.6e-6 SUI/byte = 7600 MIST/byte.
        assert_eq!(g.storage_price, 7600);
    }

    #[test]
    fn bucketing_doubles_from_1000() {
        let g = GasSchedule::default();
        assert_eq!(g.bucket_computation(0), 1000);
        assert_eq!(g.bucket_computation(1000), 1000);
        assert_eq!(g.bucket_computation(1001), 2000);
        assert_eq!(g.bucket_computation(2500), 4000);
    }

    #[test]
    fn paper_computation_costs() {
        // Table 1: 1000 units → 0.00075 SUI; 2000 → 0.0015; 4000 → 0.0030.
        let g = GasSchedule::default();
        assert_eq!(1000 * g.computation_price, 750_000); // 0.00075 SUI
        assert_eq!(2000 * g.computation_price, 1_500_000); // 0.0015 SUI
        assert_eq!(4000 * g.computation_price, 3_000_000); // 0.0030 SUI
    }

    #[test]
    fn rebate_is_99_percent() {
        let g = GasSchedule::default();
        assert_eq!(g.rebate(1_000_000), 990_000);
    }

    #[test]
    fn summary_can_go_negative() {
        let s = GasSummary {
            computation_units: 1000,
            computation_cost: 750_000,
            storage_cost: 1_000_000,
            storage_rebate: 5_000_000,
        };
        assert!(s.total_mist() < 0);
        assert!(s.total_sui() < 0.0);
    }

    #[test]
    fn usd_conversion() {
        let g = GasSchedule::default();
        let s = GasSummary {
            computation_units: 0,
            computation_cost: 0,
            storage_cost: MIST_PER_SUI, // exactly 1 SUI
            storage_rebate: 0,
        };
        assert!((s.total_usd(&g) - 1.221).abs() < 1e-9);
    }
}
