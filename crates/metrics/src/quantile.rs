//! The workspace's one quantile implementation.
//!
//! Every percentile the repo reports — the p50/p95/p99 columns of the
//! overload and containment aggregates, and the virtual-time histograms of
//! the `rt-observe` probe layer — goes through the same **nearest-rank**
//! selection rule defined here, so a percentile printed by `repro observe`
//! and one printed by a table can never disagree about what "p95" means.
//!
//! Nearest-rank: the p-th percentile of a population of `n` ordered samples
//! is the sample at 1-based rank `ceil(p/100 · n)` (clamped to `[1, n]`).
//! It is exact (always an observed value, never an interpolation), monotone
//! in `p`, and computable from cumulative counts alone — which is what lets
//! a preallocated fixed-bucket histogram and a sorted `f64` slice share it.

/// The 1-based nearest rank of the `p`-th percentile in a population of
/// `total` ordered samples. Returns 0 only for an empty population.
pub fn nearest_rank(total: u64, p: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = (p / 100.0 * total as f64).ceil() as u64;
    rank.clamp(1, total)
}

/// The `p`-th percentile of an ascending-sorted slice, by nearest rank.
/// Returns 0.0 for an empty slice (the neutral value every aggregate in
/// this crate uses for "no data").
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = nearest_rank(sorted.len() as u64, p);
    if rank == 0 {
        return 0.0;
    }
    sorted[(rank - 1) as usize]
}

/// The (p50, p95, p99) triple of one sample population.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quantiles {
    /// Median (50th percentile, nearest rank).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Quantiles {
    /// Computes the triple from an unsorted sample slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self::from_sorted(&sorted)
    }

    /// Computes the triple from an ascending-sorted slice.
    fn from_sorted(sorted: &[f64]) -> Self {
        Quantiles {
            p50: percentile_sorted(sorted, 50.0),
            p95: percentile_sorted(sorted, 95.0),
            p99: percentile_sorted(sorted, 99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(0, 50.0), 0);
        assert_eq!(nearest_rank(1, 50.0), 1);
        assert_eq!(nearest_rank(1, 99.0), 1);
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(100, 95.0), 95);
        assert_eq!(nearest_rank(100, 99.0), 99);
        assert_eq!(nearest_rank(10, 99.0), 10);
        assert_eq!(nearest_rank(10, 100.0), 10);
    }

    #[test]
    fn percentiles_select_observed_values() {
        let sorted: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 95.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 10.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn quantiles_are_monotone() {
        let samples: Vec<f64> = (0..137).map(|i| (i * 7 % 100) as f64).collect();
        let q = Quantiles::from_samples(&samples);
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99);
    }
}
