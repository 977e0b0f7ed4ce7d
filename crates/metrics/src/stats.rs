//! Summary statistics and empirical CDFs.

/// Summary statistics over a sample of non-negative measurements
/// (JCTs, queuing delays, …).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryStats {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean (0.0 for an empty sample).
    pub mean: f64,
    /// Median (p50).
    pub median: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Sample standard deviation (0.0 for fewer than two samples).
    pub stddev: f64,
    /// NaN samples dropped before computing the statistics above. A corrupt
    /// measurement is surfaced here instead of panicking the whole sweep
    /// cell (or silently poisoning every aggregate).
    pub nan_count: usize,
}

impl SummaryStats {
    /// Compute statistics over `values`. NaN samples are filtered out and
    /// counted in [`SummaryStats::nan_count`]; the remaining statistics
    /// cover only the finite-or-infinite (comparable) samples.
    pub fn of(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        let nan_count = values.len() - sorted.len();
        if sorted.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                median: 0.0,
                min: 0.0,
                max: 0.0,
                p95: 0.0,
                stddev: 0.0,
                nan_count,
            };
        }
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Self {
            count: n,
            mean,
            median: percentile_sorted(&sorted, 50.0),
            min: sorted[0],
            max: sorted[n - 1],
            p95: percentile_sorted(&sorted, 95.0),
            stddev: var.sqrt(),
            nan_count,
        }
    }
}

/// Linear-interpolated percentile of a sorted slice, `p ∈ [0, 100]`.
///
/// # Panics
/// Panics on an empty slice or out-of-range `p`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Empirical CDF of completion times: returns `(time, fraction)` step points
/// — for each distinct completion time, the cumulative fraction of samples
/// completed by then. This is the Fig. 3 series ("accumulative fraction of
/// jobs completed along the timeline").
pub fn cdf_points(completion_times: &[f64]) -> Vec<(f64, f64)> {
    if completion_times.is_empty() {
        return Vec::new();
    }
    // A NaN completion time cannot be placed on the CDF; drop it rather
    // than panic (it also must not inflate the denominator, or the curve
    // would never reach 1.0).
    let mut sorted: Vec<f64> = completion_times
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .collect();
    if sorted.is_empty() {
        return Vec::new();
    }
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (i, t) in sorted.iter().enumerate() {
        let frac = (i + 1) as f64 / n;
        match out.last_mut() {
            Some(last) if last.0 == *t => last.1 = frac,
            _ => out.push((*t, frac)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = SummaryStats::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // Sample stddev of 1..4 = sqrt(5/3).
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_and_singleton() {
        let e = SummaryStats::of(&[]);
        assert_eq!(e.count, 0);
        assert_eq!(e.mean, 0.0);
        let s = SummaryStats::of(&[7.0]);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn summary_filters_nan_samples() {
        // Regression: a single NaN JCT used to panic the whole summary via
        // `partial_cmp().expect("no NaN")`. It is now dropped and counted.
        let s = SummaryStats::of(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.nan_count, 1);
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);

        let all_nan = SummaryStats::of(&[f64::NAN, f64::NAN]);
        assert_eq!(all_nan.nan_count, 2);
        assert_eq!(all_nan.count, 0);
        assert_eq!(all_nan.mean, 0.0);
    }

    #[test]
    fn cdf_filters_nan_and_still_reaches_one() {
        let pts = cdf_points(&[2.0, f64::NAN, 1.0]);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts.last().unwrap().1, 1.0);
        assert!(cdf_points(&[f64::NAN]).is_empty());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 100.0), 40.0);
        assert!((percentile_sorted(&v, 50.0) - 25.0).abs() < 1e-12);
        assert!((percentile_sorted(&v, 25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let pts = cdf_points(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(pts.len(), 3); // distinct times 1, 2, 3
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
        // Duplicate time 2.0 collapses to its final fraction 0.75.
        assert_eq!(pts[1], (2.0, 0.75));
    }

    #[test]
    fn cdf_of_empty_is_empty() {
        assert!(cdf_points(&[]).is_empty());
    }
}
