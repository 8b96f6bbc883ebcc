//! Fixed-bucket latency histograms.
//!
//! The tracker needs tail quantiles over request latencies spanning five
//! orders of magnitude (10 µs bookkeeping requests to 100 ms inferences
//! stuck behind a queue) with bounded memory and bit-exact determinism.
//! [`LatencyHistogram`] uses a log-linear bucket layout (64 linear
//! sub-buckets per power of two, the HDR-histogram shape): relative
//! quantile error is bounded by 1/64 ≈ 1.6% at every scale, and every
//! operation is pure integer arithmetic.

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power-of-two group.
const SUB: u64 = 64;
/// Total bucket count: values 0..64 map 1:1, then 64 sub-buckets for each
/// exponent 6..=63.
const BUCKETS: usize = (SUB as usize) * 59;

/// A fixed-bucket histogram of nanosecond latencies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // ≥ 6
    let sub = (v >> (exp - 6)) - SUB; // 0..64
    ((exp - 5) * SUB + sub) as usize
}

/// The lower bound of bucket `idx` — the deterministic representative
/// value quantiles report.
fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let exp = idx / SUB + 5;
    let sub = idx % SUB;
    (SUB + sub) << (exp - 6)
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one latency (in nanoseconds).
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v).min(BUCKETS - 1)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The largest recorded value (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            return 0;
        }
        (self.sum / u128::from(self.total)) as u64
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as the floor of the bucket where
    /// the cumulative count reaches `⌈q·total⌉`; 0 when empty. Within
    /// 1/64 relative error of the true order statistic.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "q out of [0,1]: {q}");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        self.max
    }

    /// The `q`-quantile of an ascending slice of samples, reported
    /// exactly as [`quantile`](Self::quantile) would report it had the
    /// samples been recorded into an empty histogram: the floor of the
    /// bucket holding the `⌈q·len⌉`-th smallest sample; 0 when empty.
    /// Every sample in a lower bucket is smaller and every sample in a
    /// higher one larger, so that bucket is the first whose cumulative
    /// count reaches the rank. Costs one index instead of a bucket scan,
    /// which is what a per-epoch tail over a handful of samples wants.
    ///
    /// `sorted` must be in ascending order (checked in debug builds).
    #[must_use]
    pub fn quantile_of_sorted(sorted: &[u64], q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "q out of [0,1]: {q}");
        debug_assert!(sorted.is_sorted(), "samples must be ascending");
        if sorted.is_empty() {
            return 0;
        }
        let total = sorted.len() as u64;
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        bucket_floor(bucket_of(sorted[(rank - 1) as usize]))
    }

    /// Folds `other`'s samples into this histogram. Because the buckets
    /// are fixed, merging per-chip histograms and then reading quantiles
    /// is exactly equivalent to having recorded every sample into one
    /// histogram — the fleet-level aggregation is order-independent.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_are_monotone_and_invertible() {
        let mut last = 0;
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1 << 20, u64::MAX >> 1] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order broke at {v}");
            last = b;
            assert!(bucket_floor(b) <= v);
        }
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000); // 1 µs .. 10 ms
        }
        for (q, truth) in [(0.5, 5_000_000.0), (0.95, 9_500_000.0), (0.99, 9_900_000.0)] {
            let est = h.quantile(q) as f64;
            assert!((est - truth).abs() / truth < 0.04, "q{q}: {est} vs {truth}");
        }
        assert_eq!(h.max(), 10_000_000);
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut whole = LatencyHistogram::new();
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        for v in 1..=5_000u64 {
            whole.record(v * 37);
            if v.is_multiple_of(2) {
                left.record(v * 37);
            } else {
                right.record(v * 37);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    /// Samples biased towards the bucket layout's edges: the 1:1 range,
    /// its boundary at 64, small values and the full `u64` range.
    fn sample() -> impl Strategy<Value = u64> {
        (0u8..6, any::<u64>()).prop_map(|(kind, v)| match kind {
            0 => [0, 63, 64, u64::MAX][(v % 4) as usize],
            1 => v % 128,
            2 => v % 1_000_000,
            3 => v >> (v % 64),
            _ => v,
        })
    }

    #[test]
    fn sorted_quantile_covers_the_edges() {
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(LatencyHistogram::quantile_of_sorted(&[], q), 0);
        }
        for v in [0, 63, 64, 65, u64::MAX] {
            let mut h = LatencyHistogram::new();
            h.record(v);
            for q in [0.5, 0.95, 0.99, 1.0] {
                assert_eq!(LatencyHistogram::quantile_of_sorted(&[v], q), h.quantile(q));
            }
        }
        assert_eq!(LatencyHistogram::quantile_of_sorted(&[63, 64], 1.0), 64);
        assert_eq!(
            LatencyHistogram::quantile_of_sorted(&[0, u64::MAX], 1.0),
            bucket_floor(BUCKETS - 1)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sorted-slice quantile reports exactly the bucket the
        /// histogram's scan does, at every quantile the serving layer
        /// reads.
        #[test]
        fn sorted_quantile_equals_the_histogram_scan(
            samples in prop::collection::vec(sample(), 0..40),
        ) {
            let mut h = LatencyHistogram::new();
            for &v in &samples {
                h.record(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.95, 0.99, 1.0] {
                prop_assert_eq!(
                    LatencyHistogram::quantile_of_sorted(&sorted, q),
                    h.quantile(q),
                    "q={}",
                    q
                );
            }
        }
    }
}
