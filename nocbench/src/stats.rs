//! Order statistics and ratios behind the reported figures.

/// Median of `values`; the mean of the two middle values for an even count.
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the smallest
/// sample with at least `p` percent of all samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when nothing was attempted (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanoseconds per unit of work, or 0 for no work.
pub fn per(ns: u64, work: u64) -> f64 {
    ratio(ns as f64, work as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 250.0]), 1.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.5), 1);
        // Small samples: p99 of ten values is the maximum.
        let ten: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&ten, 99.0), 19);
        assert_eq!(percentile(&ten, 50.0), 14);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[42], 99.0), 42);
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(per(1_000, 4), 250.0);
        assert_eq!(per(1_000, 0), 0.0);
    }
}
