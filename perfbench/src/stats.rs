//! The arithmetic behind the reported numbers: medians, weighted
//! nearest-rank percentiles and failure shares. Each is pinned by a test.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank `q`-quantile of samples given as `(value, weight)` pairs:
/// the smallest value whose cumulative weight reaches `ceil(q · total)`.
/// A pair of weight `w` stands for `w` equal samples, e.g. one round's wall
/// time for each transaction that round confirmed. `None` when the total
/// weight is zero.
pub fn weighted_percentile(samples: &[(f64, u64)], q: f64) -> Option<f64> {
    let total: u64 = samples.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (value, weight) in sorted {
        seen += weight;
        if seen >= rank {
            return Some(value);
        }
    }
    unreachable!("rank never exceeds the total weight")
}

/// Share of `offered` transactions that were not confirmed. A run whose
/// correctness checks failed counts every transaction as failed.
pub fn failed_share(offered: u64, confirmed: u64, correct: bool) -> f64 {
    if !correct || offered == 0 {
        return 1.0;
    }
    offered.saturating_sub(confirmed) as f64 / offered as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn weighted_percentile_is_nearest_rank() {
        // 100 samples: 90 at 1.0, 9 at 2.0, 1 at 10.0.
        let samples = [(2.0, 9), (10.0, 1), (1.0, 90)];
        assert_eq!(weighted_percentile(&samples, 0.5), Some(1.0));
        assert_eq!(weighted_percentile(&samples, 0.9), Some(1.0));
        assert_eq!(weighted_percentile(&samples, 0.91), Some(2.0));
        assert_eq!(weighted_percentile(&samples, 0.99), Some(2.0));
        assert_eq!(weighted_percentile(&samples, 1.0), Some(10.0));
        assert_eq!(weighted_percentile(&samples, 0.0), Some(1.0));
        assert_eq!(weighted_percentile(&[(5.0, 0)], 0.5), None);
    }

    #[test]
    fn weighted_percentile_matches_unit_weights() {
        let values: Vec<(f64, u64)> = (1..=200).map(|v| (v as f64, 1)).collect();
        assert_eq!(weighted_percentile(&values, 0.5), Some(100.0));
        assert_eq!(weighted_percentile(&values, 0.99), Some(198.0));
    }

    #[test]
    fn failed_share_counts_unconfirmed_and_failed_checks() {
        assert_eq!(failed_share(400, 380, true), 0.05);
        assert_eq!(failed_share(400, 400, true), 0.0);
        assert_eq!(failed_share(400, 380, false), 1.0);
        assert_eq!(failed_share(0, 0, true), 1.0);
    }
}
