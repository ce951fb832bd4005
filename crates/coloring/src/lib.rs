//! # hummingbird-coloring
//!
//! ResID assignment as online interval coloring (paper §4.4).
//!
//! An AS must hand every reservation a ResID that is unique for its
//! interface pair during its validity period, while keeping the largest
//! assigned ID small enough that the policing array stays cache-resident.
//! This is the online interval coloring problem. We provide:
//!
//! * [`FirstFit`] — the algorithm the paper's client application uses
//!   (§6.1); near-optimal on practical workloads;
//! * [`ShardedFirstFit`] — a steering-aware variant that partitions the
//!   color space into the dataplane's per-shard ResID ranges, always
//!   allocating from the least-loaded shard, with O(log)/O(1) fast paths
//!   for million-reservation ingresses;
//! * [`KiersteadTrotter`] — the optimal 3-competitive online algorithm the
//!   paper cites for its worst-case `ResIDmax = 3 · TotalBW/MinBW` bound;
//! * [`color_optimal`] — the offline optimum (sweep line) as a baseline;
//! * [`res_id_bound`] — the paper's worst-case array-size bound.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod first_fit;
mod interval;
mod kt;
mod offline;
mod sharded;

pub use first_fit::FirstFit;
pub use interval::{max_overlap, Interval};
pub use kt::KiersteadTrotter;
pub use offline::color_optimal;
pub use sharded::ShardedFirstFit;

/// Competitiveness of the optimal online interval coloring algorithm
/// (Kierstead-Trotter): `R = 3`.
pub const R_OPTIMAL_ONLINE: u64 = 3;

/// The paper's worst-case bound on the highest ResID (§4.4):
/// `ResIDmax = R · TotalBW / MinBW`.
///
/// Both bandwidths must use the same unit. Returns `None` when
/// `min_bw == 0`.
pub fn res_id_bound(total_bw: u64, min_bw: u64, r: u64) -> Option<u64> {
    if min_bw == 0 {
        return None;
    }
    Some(r * (total_bw / min_bw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_1_voip() {
        // 100 Gbps link, 100 kbps minimum ⇒ ResIDmax = 3e6 (§4.4 ex. 1).
        let bound = res_id_bound(100_000_000, 100, R_OPTIMAL_ONLINE).unwrap();
        assert_eq!(bound, 3_000_000);
        // 8-byte counters ⇒ 24 MB policing array.
        assert_eq!(bound * 8, 24_000_000);
    }

    #[test]
    fn paper_example_2_video() {
        // 100 Gbps link, 4 Mbps minimum ⇒ ResIDmax = 75 000 (§4.4 ex. 2).
        let bound = res_id_bound(100_000_000, 4_000, R_OPTIMAL_ONLINE).unwrap();
        assert_eq!(bound, 75_000);
        // 600 kB policing array.
        assert_eq!(bound * 8, 600_000);
    }

    #[test]
    fn zero_min_bw_rejected() {
        assert_eq!(res_id_bound(100, 0, 3), None);
    }
}
