//! Exact order statistics, owned by the benchmark.
//!
//! Every percentile the benchmark reports is a nearest-rank pick from
//! the sorted exact samples — never a histogram bucket bound — and is
//! only reported when the sample supports it ("at least ten samples
//! beyond it"). Quartiles follow Python's `statistics.quantiles(n=4)`,
//! because that is what the acceptance driver computes spreads with.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p·n` samples at or below it. `None` for an empty
/// slice or a `p` outside `[0, 1]` (NaN included).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` in a population of `n ≥ 1`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The percentiles the benchmark knows how to name, ascending.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it in a population of `n`; `None` below 20 samples
/// (not even the median qualifies).
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// Sorts `samples` in place (total order; the benchmark never records
/// NaN) and returns them.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of an unsorted population; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method): the three cut points of an unsorted population of at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values.to_vec());
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance driver bounds. `None` for fewer than two values or a zero
/// median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(highest_supported(0), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        for p in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(percentile(&[7.0], p), Some(7.0));
        }
    }

    #[test]
    fn percentile_with_ties_picks_a_recorded_value() {
        let v = [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 9.0];
        assert_eq!(percentile(&v, 0.5), Some(2.0));
        assert_eq!(percentile(&v, 0.9), Some(2.0));
        assert_eq!(percentile(&v, 0.91), Some(9.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn percentile_rejects_p_outside_unit_interval() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -0.01), None);
        assert_eq!(percentile(&v, 1.01), None);
        assert_eq!(percentile(&v, f64::NAN), None);
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(100_000), Some(0.9999));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&v), Some(1.0));
    }
}
