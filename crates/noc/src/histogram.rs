//! Log-bucketed latency histogram with percentile estimation.
//!
//! Mean latency hides tails, and DozzNoC's costs (T-Wakeup stalls,
//! low-mode epochs) live exactly in the tail. The histogram buckets
//! latencies by powers of two of base ticks — 1 tick ≈ 55.6 ps up to
//! ≈ 6 µs — which keeps recording O(1) and percentile error below the
//! bucket ratio (2×), plenty for P50/P95/P99 reporting.

use serde::{Deserialize, Serialize};

/// Number of power-of-two buckets (bucket `b` covers `[2^b, 2^(b+1))`
/// ticks; the last bucket absorbs everything from 2³⁶ ticks ≈ 3.8 ms
/// up).
pub const BUCKETS: usize = 37;

/// A histogram over latencies in base ticks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Record one latency (ticks).
    ///
    /// Bucket `b` holds latencies in `[2^b, 2^(b+1))` — `floor(log2)`
    /// bucketing, so an exact power of two lands in its own bucket and
    /// a 1-tick latency lands in bucket 0. Zero latencies (impossible
    /// for real flits, which always spend ≥ 1 tick in flight) share
    /// bucket 0.
    #[inline]
    pub fn record(&mut self, ticks: u64) {
        let bucket = (63 - ticks.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Inclusive upper bound (ticks) of the bucket containing the
    /// `p`-quantile, `p ∈ [0, 1]`: bucket `b` covers `[2^b, 2^(b+1))`,
    /// so this reports `2^(b+1) − 1`. A population of exact 1-tick
    /// samples (bucket 0) therefore reports exactly 1. Returns 0 for an
    /// empty histogram.
    pub fn percentile_ticks(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile out of range");
        if self.total == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_possible_truncation,
            reason = "p ∈ [0, 1], so the rank is a whole number in [1, total]"
        )]
        let rank = (p * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << (bucket + 1)) - 1;
            }
        }
        (1u64 << BUCKETS) - 1
    }

    /// Percentile in nanoseconds.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        self.percentile_ticks(p) as f64 / dozznoc_types::TICKS_PER_NS as f64
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Non-empty `(bucket inclusive upper bound in ns, count)` pairs,
    /// for reports. Bucket `b` covers `[2^b, 2^(b+1))` ticks.
    pub fn buckets_ns(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let hi = (1u64 << (b + 1)) - 1;
                (hi as f64 / dozznoc_types::TICKS_PER_NS as f64, c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::default();
        assert_eq!(h.total(), 0);
        assert_eq!(h.percentile_ticks(0.5), 0);
        assert!(h.buckets_ns().is_empty());
    }

    #[test]
    fn percentiles_bound_samples() {
        let mut h = LatencyHistogram::default();
        for t in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 100_000] {
            h.record(t);
        }
        assert_eq!(h.total(), 10);
        // P50 bucket bound must cover the median sample (160) within 2×.
        let p50 = h.percentile_ticks(0.5);
        assert!((160..=320).contains(&p50), "{p50}");
        // P100 covers the max.
        assert!(h.percentile_ticks(1.0) >= 100_000);
        // P10 is near the small end.
        assert!(h.percentile_ticks(0.1) <= 32);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::default();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 1_000_000);
        }
        let mut prev = 0;
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.percentile_ticks(p);
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(100);
        b.record(200);
        b.record(100_000);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert!(a.percentile_ticks(1.0) >= 100_000);
    }

    #[test]
    fn zero_and_huge_latencies_are_representable() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.total(), 2);
        // Zero shares bucket 0 with the 1-tick latencies.
        assert_eq!(h.percentile_ticks(0.25), 1);
        assert_eq!(h.percentile_ticks(1.0), (1u64 << BUCKETS) - 1);
    }

    #[test]
    fn uniform_one_tick_population_reports_p50_of_one() {
        // Regression: the old `64 - leading_zeros` bucketing put a
        // 1-tick latency in bucket 1, so percentiles reported 2 ticks
        // for a population made entirely of exact 1-tick samples.
        let mut h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(1);
        }
        assert_eq!(h.percentile_ticks(0.5), 1);
        assert_eq!(h.percentile_ticks(0.99), 1);
        assert_eq!(h.percentile_ticks(1.0), 1);
    }

    #[test]
    fn powers_of_two_land_in_their_own_bucket() {
        // floor(log2) bucketing: 2^b opens bucket b, 2^b − 1 closes
        // bucket b−1; the percentile bound of a population of exact
        // 2^b samples is the inclusive top of bucket b.
        for b in 1..10u32 {
            let mut h = LatencyHistogram::default();
            h.record(1u64 << b);
            assert_eq!(h.percentile_ticks(1.0), (1u64 << (b + 1)) - 1, "2^{b}");
            let mut lo = LatencyHistogram::default();
            lo.record((1u64 << b) - 1);
            assert_eq!(lo.percentile_ticks(1.0), (1u64 << b) - 1, "2^{b}-1");
        }
    }

    #[test]
    fn ns_conversion() {
        let mut h = LatencyHistogram::default();
        h.record(18 * 100); // 100 ns → bucket 2048 ticks ≈ 113.8 ns
        let p = h.percentile_ns(1.0);
        assert!((100.0..230.0).contains(&p), "{p}");
    }
}
