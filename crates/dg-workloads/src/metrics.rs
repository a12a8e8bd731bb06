//! Output-error metrics shared by the kernels (paper §4.1, citing the
//! error metrics of prior approximate-computing work).

/// Mean relative error: `mean(|a − p| / max(|p|, eps))`, clamped to 1.
///
/// The metric used for numerical outputs (prices, angles, positions).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mean_relative_error(precise: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(precise.len(), approx.len(), "output lengths differ");
    if precise.is_empty() {
        return 0.0;
    }
    let eps = 1e-9;
    let sum: f64 = precise
        .iter()
        .zip(approx)
        .map(|(&p, &a)| {
            let denom = p.abs().max(eps);
            ((a - p).abs() / denom).min(1.0)
        })
        .sum();
    sum / precise.len() as f64
}

/// Root-mean-square error normalized by `scale` (e.g. 255 for pixel
/// data), clamped to 1. Used for image outputs (jpeg).
///
/// # Panics
///
/// Panics if the slices have different lengths or `scale` is not
/// positive.
pub fn normalized_rmse(precise: &[f64], approx: &[f64], scale: f64) -> f64 {
    assert_eq!(precise.len(), approx.len(), "output lengths differ");
    assert!(scale > 0.0, "scale must be positive");
    if precise.is_empty() {
        return 0.0;
    }
    let mse: f64 = precise
        .iter()
        .zip(approx)
        .map(|(&p, &a)| (a - p) * (a - p))
        .sum::<f64>()
        / precise.len() as f64;
    (mse.sqrt() / scale).min(1.0)
}

/// Fraction of positions where the outputs disagree (exact comparison).
/// Used for classification outputs (jmeint's intersection booleans,
/// ferret's result ranks, kmeans assignments).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mismatch_rate(precise: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(precise.len(), approx.len(), "output lengths differ");
    if precise.is_empty() {
        return 0.0;
    }
    let mismatches = precise.iter().zip(approx).filter(|(p, a)| p != a).count();
    mismatches as f64 / precise.len() as f64
}

/// Relative error of two scalar summaries (e.g. canneal's final routing
/// cost), clamped to 1.
pub fn scalar_relative_error(precise: f64, approx: f64) -> f64 {
    let denom = precise.abs().max(1e-9);
    ((approx - precise).abs() / denom).min(1.0)
}

/// Distribution statistics over per-element relative errors — the
/// quality-of-result detail behind a single mean-error number
/// (approximate-computing papers increasingly report tail error, not
/// just the mean).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ErrorStats {
    /// Mean relative error.
    pub mean: f64,
    /// Median relative error.
    pub median: f64,
    /// 95th-percentile relative error.
    pub p95: f64,
    /// Maximum relative error.
    pub max: f64,
    /// Fraction of elements with any error at all.
    pub affected: f64,
}

impl dg_obs::Snapshot for ErrorStats {
    fn metrics(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    fn float_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("mean", self.mean),
            ("median", self.median),
            ("p95", self.p95),
            ("max", self.max),
            ("affected", self.affected),
        ]
    }
}

/// Compute the per-element relative-error distribution.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn error_stats(precise: &[f64], approx: &[f64]) -> ErrorStats {
    assert_eq!(precise.len(), approx.len(), "output lengths differ");
    if precise.is_empty() {
        return ErrorStats::default();
    }
    let eps = 1e-9;
    let mut errs: Vec<f64> = precise
        .iter()
        .zip(approx)
        .map(|(&p, &a)| ((a - p).abs() / p.abs().max(eps)).min(1.0))
        .collect();
    // total_cmp, not partial_cmp().unwrap(): a NaN error (NaN kernel
    // output) must rank, not panic the whole evaluation.
    errs.sort_by(f64::total_cmp);
    let n = errs.len();
    let pick = |q: f64| errs[((n as f64 - 1.0) * q).round() as usize];
    ErrorStats {
        mean: errs.iter().sum::<f64>() / n as f64,
        median: pick(0.5),
        p95: pick(0.95),
        max: errs[n - 1],
        affected: errs.iter().filter(|&&e| e > 0.0).count() as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mre_zero_for_identical() {
        assert_eq!(mean_relative_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn mre_basic() {
        // 10% error on one of two elements = 5% mean.
        let e = mean_relative_error(&[10.0, 10.0], &[11.0, 10.0]);
        assert!((e - 0.05).abs() < 1e-12);
    }

    #[test]
    fn mre_clamps_blowups() {
        // Tiny precise value with big absolute error clamps at 1.
        let e = mean_relative_error(&[1e-15], &[5.0]);
        assert_eq!(e, 1.0);
    }

    #[test]
    fn mre_empty_is_zero() {
        assert_eq!(mean_relative_error(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mre_length_mismatch() {
        mean_relative_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn rmse_normalized() {
        // Constant error of 25.5 over a 255 scale = 0.1.
        let p = [100.0, 50.0];
        let a = [125.5, 75.5];
        assert!((normalized_rmse(&p, &a, 255.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mismatch_counts_fraction() {
        let p = [1.0, 0.0, 1.0, 1.0];
        let a = [1.0, 1.0, 1.0, 0.0];
        assert_eq!(mismatch_rate(&p, &a), 0.5);
    }

    #[test]
    fn scalar_error() {
        assert!((scalar_relative_error(200.0, 210.0) - 0.05).abs() < 1e-12);
        assert_eq!(scalar_relative_error(0.0, 1.0), 1.0);
    }

    #[test]
    fn error_stats_distribution() {
        // 19 exact elements, one with 100% error.
        let precise = vec![10.0; 20];
        let mut approx = vec![10.0; 20];
        approx[7] = 20.0;
        let s = error_stats(&precise, &approx);
        assert!((s.mean - 0.05).abs() < 1e-12);
        assert_eq!(s.median, 0.0);
        assert_eq!(s.max, 1.0);
        assert!((s.affected - 0.05).abs() < 1e-12);
    }

    #[test]
    fn error_stats_identical_outputs() {
        let v = vec![1.0, 2.0, 3.0];
        let s = error_stats(&v, &v);
        assert_eq!(s, ErrorStats { mean: 0.0, median: 0.0, p95: 0.0, max: 0.0, affected: 0.0 });
    }

    #[test]
    fn error_stats_percentiles_ordered() {
        let precise: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let approx: Vec<f64> = precise.iter().map(|v| v * 1.01).collect();
        let s = error_stats(&precise, &approx);
        assert!(s.median <= s.p95 && s.p95 <= s.max);
        assert!((s.mean - 0.01).abs() < 1e-9);
        assert_eq!(s.affected, 1.0);
    }

    #[test]
    fn error_stats_empty() {
        assert_eq!(error_stats(&[], &[]), ErrorStats::default());
    }
}
