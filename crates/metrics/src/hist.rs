//! Fixed-bucket, preallocated virtual-time histograms.
//!
//! The probe layer (`rt-observe`) records distributions *inside* the engine
//! decision loops, which are bound by the zero-allocations-per-decision
//! invariant (`rt-bench/tests/zero_alloc.rs`). A [`TickHistogram`] is
//! therefore a plain inline array of power-of-two buckets: recording is two
//! integer operations and an indexed increment, merging is element-wise
//! `u64` addition (commutative and associative, so per-worker histograms
//! fold bit-identically for any worker count and claim order), and
//! percentiles go through the workspace's one nearest-rank rule
//! ([`crate::quantile::nearest_rank`]).

use crate::quantile::nearest_rank;

/// Number of buckets: one for zero plus one per power of two of `u64`.
const TICK_BUCKETS: usize = 65;

/// A preallocated log₂-bucket histogram over `u64` tick values.
///
/// Bucket 0 holds exact zeros; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. The reported percentile value is the *inclusive upper
/// bound* of the selected bucket (`2^b − 1`), so it is an overestimate by
/// at most 2× — the right trade for a recorder that may not allocate and
/// must merge deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickHistogram {
    buckets: [u64; TICK_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for TickHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl TickHistogram {
    /// An empty histogram. All storage is inline; no heap allocation ever.
    pub const fn new() -> Self {
        TickHistogram {
            buckets: [0; TICK_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Index of the bucket holding `value`.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one observation. Allocation-free and branch-light: this is
    /// the operation the probe layer performs inside the decision loops.
    // rt-lint: zero-alloc
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile by the workspace nearest-rank rule, reported
    /// as the inclusive upper bound of the selected bucket. 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let rank = nearest_rank(self.count, p);
        if rank == 0 {
            return 0;
        }
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match b {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << b) - 1,
                };
            }
        }
        self.max
    }

    /// Absorbs another histogram. Element-wise addition: commutative and
    /// associative except for `max`, which is itself order-free — so any
    /// merge tree over per-worker histograms yields identical bytes.
    pub fn merge(&mut self, other: &TickHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2_with_an_exact_zero_bucket() {
        let mut h = TickHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.max(), 1024);
        // p50 over {0,1,2,3,1024}: rank 3 → third smallest lives in the
        // [2,4) bucket whose upper bound is 3.
        assert_eq!(h.percentile(50.0), 3);
        assert_eq!(h.percentile(99.0), 2047);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn empty_histogram_is_neutral() {
        let h = TickHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(95.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_is_split_invariant() {
        let values: Vec<u64> = (0..500).map(|i| i * i % 7919).collect();
        let mut whole = TickHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        for split in [1usize, 2, 3, 7] {
            let mut parts: Vec<TickHistogram> = vec![TickHistogram::new(); split];
            for (i, &v) in values.iter().enumerate() {
                parts[i % split].record(v);
            }
            // Merge in reverse order to show order-freedom.
            let mut merged = TickHistogram::new();
            for part in parts.iter().rev() {
                merged.merge(part);
            }
            assert_eq!(merged, whole, "split={split}");
        }
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut h = TickHistogram::new();
        for v in [1u64, 5, 9, 40, 900, 33_000, 7] {
            h.record(v);
        }
        assert!(h.percentile(50.0) <= h.percentile(95.0));
        assert!(h.percentile(95.0) <= h.percentile(99.0));
    }
}
