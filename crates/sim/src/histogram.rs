//! Latency histograms.
//!
//! Fixed-memory, log-bucketed duration histograms for request latencies —
//! percentile extraction without storing every sample. Buckets are
//! power-of-two microseconds (1 µs, 2 µs, 4 µs, ... ≈ 36 min), which keeps
//! relative error under 100 % per bucket and is ample for comparing
//! cache-hit against disk-miss service times (three orders of magnitude
//! apart).

use std::fmt;

use crate::time::SimDuration;

/// Number of power-of-two buckets (covers 1 µs .. ~2^40 µs).
const BUCKETS: usize = 41;

/// A log-bucketed histogram of durations.
///
/// # Examples
///
/// ```
/// use rh_sim::histogram::LatencyHistogram;
/// use rh_sim::time::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// for ms in [1u64, 2, 3, 100] {
///     h.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 4);
/// // The p50 falls in the 2–4 ms bucket.
/// let p50 = h.percentile(50.0).unwrap();
/// assert!(p50.as_micros() >= 2_000 && p50.as_micros() <= 4_096);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_micros: u128,
    min: Option<SimDuration>,
    max: Option<SimDuration>,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_micros: 0,
            min: None,
            max: None,
        }
    }

    fn bucket_of(d: SimDuration) -> usize {
        let micros = d.as_micros();
        if micros == 0 {
            0
        } else {
            ((64 - micros.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Upper bound of bucket `i` in microseconds.
    fn bucket_limit(i: usize) -> u64 {
        if i == 0 {
            1
        } else {
            1u64 << i
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.buckets[Self::bucket_of(d)] += 1;
        self.count += 1;
        self.sum_micros += d.as_micros() as u128;
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
        self.max = Some(self.max.map_or(d, |m| m.max(d)));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples, in microseconds.
    pub fn sum_micros(&self) -> u128 {
        self.sum_micros
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact mean of all samples.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        Some(SimDuration::from_micros(
            (self.sum_micros / self.count as u128) as u64,
        ))
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<SimDuration> {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> Option<SimDuration> {
        self.max
    }

    /// The `p`-th percentile (0 < p ≤ 100), as the upper bound of the
    /// bucket containing it — an over-estimate by at most 2×.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<SimDuration> {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(SimDuration::from_micros(Self::bucket_limit(i)));
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        *self = LatencyHistogram::new();
    }

    /// One-line summary: count, mean, p50/p99, max.
    pub fn summary(&self) -> String {
        match (
            self.mean(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max,
        ) {
            (Some(mean), Some(p50), Some(p99), Some(max)) => format!(
                "n={} mean={} p50≤{} p99≤{} max={}",
                self.count, mean, p50, p99, max
            ),
            _ => "n=0".to_string(),
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.summary(), "n=0");
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(ms(10));
        h.record(ms(20));
        h.record(ms(30));
        assert_eq!(h.mean(), Some(ms(20)));
        assert_eq!(h.min(), Some(ms(10)));
        assert_eq!(h.max(), Some(ms(30)));
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn percentiles_bracket_within_a_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(ms(1)); // bucket up to 1.024 ms
        }
        h.record(ms(1000)); // one outlier
        let p50 = h.percentile(50.0).unwrap().as_micros();
        assert!(p50 <= 1_024, "p50 {p50}");
        let p99 = h.percentile(99.0).unwrap().as_micros();
        assert!(p99 <= 1_024, "p99 {p99}");
        let p100 = h.percentile(100.0).unwrap().as_micros();
        assert!(p100 >= 524_288, "p100 {p100}");
    }

    #[test]
    fn zero_and_huge_samples_clamp_to_edge_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_secs(1 << 30));
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0).is_some());
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        a.record(ms(5));
        let mut b = LatencyHistogram::new();
        b.record(ms(500));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(ms(5)));
        assert_eq!(a.max(), Some(ms(500)));
        assert_eq!(a.mean(), Some(SimDuration::from_micros(252_500)));
    }

    #[test]
    fn clear_resets() {
        let mut h = LatencyHistogram::new();
        h.record(ms(1));
        h.clear();
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn zero_percentile_rejected() {
        LatencyHistogram::new().percentile(0.0);
    }

    #[test]
    fn distinguishes_cache_hit_from_disk_miss_latencies() {
        // The Fig. 8 story at histogram level: ~0.8 ms cached vs ~90 ms
        // disk-bound responses are separated by many buckets.
        let mut warm = LatencyHistogram::new();
        let mut cold = LatencyHistogram::new();
        for _ in 0..1000 {
            warm.record(SimDuration::from_micros(800));
            cold.record(ms(90));
        }
        let w99 = warm.percentile(99.0).unwrap();
        let c50 = cold.percentile(50.0).unwrap();
        assert!(c50.as_micros() > 50 * w99.as_micros());
    }
}
