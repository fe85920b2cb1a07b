//! The log2-bucketed latency histogram shared across the workspace:
//! scrape health counters, per-stage span summaries, and the `top`
//! dashboard all aggregate through it.
//!
//! This type used to live in `collector::stats`; it moved here so the
//! tracing layer can histogram stage latencies without a dependency
//! cycle (`collector` depends on `obs`, never the reverse).
//! `collector::stats` re-exports it, so existing imports keep working.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Number of log2 latency buckets (1 µs up to ~2^47 µs).
const BUCKETS: usize = 48;

/// A log2-bucketed latency histogram over microseconds.
///
/// Bucket `i` counts observations in `[2^i, 2^(i+1))` µs; quantiles are
/// reported as the upper bound of the containing bucket, clamped to the
/// largest observation, which is enough resolution for scrape-health
/// dashboards.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.record_us(us);
    }

    /// Records one observation already expressed in microseconds.
    pub fn record_us(&mut self, us: u64) {
        let idx = (64 - us.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest recorded observation, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Sum of all recorded observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Cumulative bucket counts in Prometheus histogram form:
    /// `(le_us, observations ≤ le_us)` for every bucket up to the
    /// highest non-empty one (bucket `i` has upper bound `2^(i+1)` µs).
    /// The implicit `+Inf` bucket equals [`LatencyHistogram::count`]
    /// and is left to the exposition layer to emit.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let Some(last) = self.buckets.iter().rposition(|&c| c > 0) else {
            return Vec::new();
        };
        let mut cum = 0;
        self.buckets[..=last]
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                cum += c;
                (1u64 << (i + 1), cum)
            })
            .collect()
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (µs) of the bucket containing quantile `q` in `[0,1]`,
    /// clamped to [`LatencyHistogram::max_us`]: no quantile exceeds the
    /// largest observation it summarises.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << (i + 1)).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Median latency upper bound in microseconds.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 99th-percentile latency upper bound in microseconds.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        // p50 falls in the 100 µs bucket [64,128): upper bound 128.
        assert_eq!(h.p50_us(), 128);
        // p99 still lands in the 100 µs bulk; the max reflects the spike.
        assert!(h.p99_us() <= 128);
        assert!(h.max_us() >= 50_000);
        assert!(h.quantile_us(1.0) >= 50_000 / 2);
    }

    #[test]
    fn quantiles_never_exceed_the_max() {
        let mut h = LatencyHistogram::new();
        h.record_us(1_363);
        assert!(h.p50_us() <= 1_363, "p50 {}", h.p50_us());
        assert!(h.p99_us() <= 1_363, "p99 {}", h.p99_us());
        assert_eq!(h.quantile_us(1.0), 1_363);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max_us() >= 1000);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_cover_the_count() {
        let mut h = LatencyHistogram::new();
        assert!(h.cumulative_buckets().is_empty());
        for us in [1, 3, 100, 100, 5_000] {
            h.record_us(us);
        }
        let buckets = h.cumulative_buckets();
        // Highest observation 5000 µs lands in [4096, 8192): le 8192.
        assert_eq!(buckets.last().unwrap(), &(8192, h.count()));
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "le bounds ascend");
            assert!(w[0].1 <= w[1].1, "counts are cumulative");
        }
        assert_eq!(h.sum_us(), 1 + 3 + 100 + 100 + 5_000);
    }

    #[test]
    fn record_us_matches_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(777));
        b.record_us(777);
        assert_eq!(a, b);
    }
}
