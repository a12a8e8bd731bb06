//! Order statistics for timing samples.

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller times at least one
/// pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(q, sorted.len()) - 1]
}

/// Nearest rank (1-based) of quantile `q` among `n` samples. The small
/// subtraction keeps `0.9 * 100 = 90.00000000000001` at rank 90.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so `compare` reproduces the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// A tail percentile chosen for a sample of a given size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// `p99`, `p95`, `p90`, `p75` or `p50`.
    pub label: &'static str,
    /// The quantile in (0, 1).
    pub q: f64,
}

const TAILS: [Tail; 5] = [
    Tail { label: "p99", q: 0.99 },
    Tail { label: "p95", q: 0.95 },
    Tail { label: "p90", q: 0.90 },
    Tail { label: "p75", q: 0.75 },
    Tail { label: "p50", q: 0.50 },
];

/// The highest percentile, no higher than `cap`, that has at least ten
/// of `n` samples beyond it; the median when none has.
///
/// `cap` is the percentile a workload declares for its tail. A faster
/// program collects more samples in the same time, and without the cap
/// that alone would move the reported tail to a higher percentile and
/// read as a regression.
pub fn pick_tail(n: usize, cap: f64) -> Tail {
    TAILS
        .iter()
        .copied()
        .find(|t| t.q <= cap && n >= 10 && n - rank(t.q, n) >= 10)
        .unwrap_or(TAILS[TAILS.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(pick_tail(3000, 0.99).label, "p99");
        assert_eq!(pick_tail(999, 0.99).label, "p95");
        assert_eq!(pick_tail(1000, 0.99).label, "p99");
        assert_eq!(pick_tail(500, 0.99).label, "p95");
        assert_eq!(pick_tail(199, 0.99).label, "p90");
        assert_eq!(pick_tail(108, 0.99).label, "p90");
        assert_eq!(pick_tail(99, 0.99).label, "p75");
        assert_eq!(pick_tail(40, 0.99).label, "p75");
        assert_eq!(pick_tail(39, 0.99).label, "p50");
        assert_eq!(pick_tail(5, 0.99).label, "p50");
    }

    #[test]
    fn tail_never_exceeds_the_declared_cap() {
        assert_eq!(pick_tail(1_000_000, 0.90).label, "p90");
        assert_eq!(pick_tail(72, 0.75).label, "p75");
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }
}
