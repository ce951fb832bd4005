//! First-Fit online interval coloring.
//!
//! The paper's market client assigns ResIDs "using an online First Fit
//! algorithm [21, 28]" (§6.1). First-Fit has a performance ratio of at
//! least 5 on adversarial interval sequences [Kierstead-Smith-Trotter 2016]
//! but performs close to optimal on most practical workloads [Gyárfás-Lehel
//! 1988], which is why real deployments prefer it.

use crate::interval::Interval;

/// A First-Fit ResID allocator for one ingress interface.
///
/// Maintains, per color (ResID), the set of currently active reservations;
/// a new reservation gets the smallest ResID whose active intervals it does
/// not overlap. Expired intervals are pruned lazily so IDs recycle across
/// validity periods, exactly as §4.1 requires ("unique for the interface
/// pair during the reservation's validity period").
#[derive(Clone, Debug)]
pub struct FirstFit {
    /// Active intervals per color, each kept sorted by start.
    colors: Vec<Vec<Interval>>,
    /// Hard cap on the number of distinct ResIDs (ResIDmax + 1).
    max_ids: u32,
    /// Highest color ever handed out (for competitiveness accounting).
    high_water: u32,
}

impl FirstFit {
    /// Creates an allocator with at most `max_ids` distinct ResIDs.
    ///
    /// The paper bounds `ResIDmax = R · TotalBW / MinBW` (§4.4); callers
    /// compute that bound and pass it here.
    pub fn new(max_ids: u32) -> Self {
        FirstFit { colors: Vec::new(), max_ids, high_water: 0 }
    }

    /// Assigns the smallest available ResID for `iv`, or `None` if all
    /// `max_ids` colors conflict.
    pub fn assign(&mut self, iv: Interval) -> Option<u32> {
        for (color, actives) in self.colors.iter_mut().enumerate() {
            if !actives.iter().any(|a| a.overlaps(&iv)) {
                let pos = actives.partition_point(|a| a.start < iv.start);
                actives.insert(pos, iv);
                self.high_water = self.high_water.max(color as u32);
                return Some(color as u32);
            }
        }
        if (self.colors.len() as u32) < self.max_ids {
            self.colors.push(vec![iv]);
            let color = (self.colors.len() - 1) as u32;
            self.high_water = self.high_water.max(color);
            Some(color)
        } else {
            None
        }
    }

    /// Extends an active reservation's interval in place to `new_end`
    /// without changing its color — the renewal fast path. Succeeds iff
    /// the reservation `(res_id, iv)` is active, `new_end > iv.end`, and
    /// the extension does not run into the next interval on the same
    /// color. Only the successor interval needs checking because the
    /// per-color vectors are non-overlapping and sorted by start.
    pub fn try_extend(&mut self, res_id: u32, iv: &Interval, new_end: u64) -> bool {
        if new_end <= iv.end {
            return false;
        }
        let Some(actives) = self.colors.get_mut(res_id as usize) else {
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

    /// Removes a specific reservation (e.g. cancelled), returning whether
    /// it was present.
    pub fn release(&mut self, res_id: u32, iv: &Interval) -> bool {
        match self.colors.get_mut(res_id as usize) {
            Some(actives) => match actives.iter().position(|a| a == iv) {
                Some(pos) => {
                    actives.remove(pos);
                    true
                }
                None => false,
            },
            None => false,
        }
    }

    /// Number of reservations held; an ended one stays until
    /// [`release`](Self::release)d.
    pub fn active_count(&self) -> usize {
        self.colors.iter().map(|c| c.len()).sum()
    }

    /// Highest ResID handed out so far (drives the policing-array size).
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Checks the coloring invariant: no two active intervals under the
    /// same ResID overlap. Used by tests and debug assertions.
    pub fn is_valid(&self) -> bool {
        self.colors.iter().all(|actives| {
            actives.iter().enumerate().all(|(i, a)| actives[i + 1..].iter().all(|b| !a.overlaps(b)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_intervals_share_color_zero() {
        let mut ff = FirstFit::new(10);
        assert_eq!(ff.assign(Interval::new(0, 10)), Some(0));
        assert_eq!(ff.assign(Interval::new(10, 20)), Some(0));
        assert_eq!(ff.assign(Interval::new(20, 30)), Some(0));
        assert!(ff.is_valid());
    }

    #[test]
    fn overlapping_intervals_get_distinct_ids() {
        let mut ff = FirstFit::new(10);
        assert_eq!(ff.assign(Interval::new(0, 10)), Some(0));
        assert_eq!(ff.assign(Interval::new(5, 15)), Some(1));
        assert_eq!(ff.assign(Interval::new(9, 12)), Some(2));
        // After the first two end, color 0 is free again.
        assert_eq!(ff.assign(Interval::new(15, 20)), Some(0));
        assert!(ff.is_valid());
    }

    #[test]
    fn cap_is_enforced() {
        let mut ff = FirstFit::new(2);
        assert!(ff.assign(Interval::new(0, 10)).is_some());
        assert!(ff.assign(Interval::new(0, 10)).is_some());
        assert_eq!(ff.assign(Interval::new(0, 10)), None);
    }

    #[test]
    fn expiry_recycles_ids() {
        let mut ff = FirstFit::new(1);
        assert_eq!(ff.assign(Interval::new(0, 10)), Some(0));
        assert_eq!(ff.assign(Interval::new(5, 15)), None);
        // [10, 20) starts as [0, 10) ends: the ID is free again.
        assert_eq!(ff.assign(Interval::new(10, 20)), Some(0));
    }

    #[test]
    fn release_specific_reservation() {
        let mut ff = FirstFit::new(5);
        let iv = Interval::new(0, 100);
        assert_eq!(ff.assign(iv), Some(0));
        assert!(ff.release(0, &iv));
        assert!(!ff.release(0, &iv));
        assert_eq!(ff.assign(Interval::new(50, 60)), Some(0));
    }

    #[test]
    fn extend_in_place_respects_successor() {
        let mut ff = FirstFit::new(4);
        let iv = Interval::new(0, 10);
        assert_eq!(ff.assign(iv), Some(0));
        // Color 0 also holds [20, 30): the extension may reach 20, not past.
        assert_eq!(ff.assign(Interval::new(20, 30)), Some(0));
        assert!(!ff.try_extend(0, &iv, 10), "new_end must grow the interval");
        assert!(!ff.try_extend(0, &iv, 25), "cannot run into the successor");
        assert!(ff.try_extend(0, &iv, 20));
        assert!(ff.is_valid());
        // The stored interval changed, so the old handle no longer matches.
        assert!(!ff.try_extend(0, &iv, 30));
        assert!(!ff.try_extend(1, &Interval::new(0, 20), 30), "unknown color fails");
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut ff = FirstFit::new(10);
        for i in 0..5 {
            ff.assign(Interval::new(i, 100)).unwrap();
        }
        assert_eq!(ff.high_water(), 4);
        ff.assign(Interval::new(200, 201)).unwrap();
        assert_eq!(ff.high_water(), 4, "high water never decreases");
    }
}
