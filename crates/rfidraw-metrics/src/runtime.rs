//! Runtime telemetry primitives for long-running services.
//!
//! The evaluation metrics elsewhere in this crate score *reconstructions*;
//! this module instruments *the system itself* while it serves live
//! traffic: monotonic event [`Counter`]s (reads ingested, frames dropped,
//! sessions evicted, …) and a fixed-bucket [`LatencyHistogram`] for the
//! ingest→position path. Both are lock-free (`AtomicU64`), cheap enough to
//! sit on hot paths, and snapshot into plain serializable structs
//! (a counter snapshots to a plain `u64`; [`HistogramSnapshot`] carries the
//! bucket boundaries so a report is self-describing).
//!
//! Consumers (e.g. `rfidraw-serve`) aggregate these into their own report
//! types; everything here serializes through the vendored serde stack.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter, safe to bump from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bucket boundaries (µs) used by [`LatencyHistogram::default_bounds`]:
/// 50 µs … 1 s in roughly 1-2-5 steps. The histogram always appends an
/// implicit overflow bucket, so every observation lands somewhere.
pub const DEFAULT_LATENCY_BOUNDS_US: [u64; 12] = [
    50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
];

/// A fixed-bucket latency histogram with lock-free recording.
///
/// Buckets are cumulative-upper-bound style: observation `x` lands in the
/// first bucket whose bound (µs) is `>= x`, or in the overflow bucket when
/// it exceeds every bound. Total count and sum are tracked so snapshots can
/// report means alongside quantiles.
#[derive(Debug)]
pub struct LatencyHistogram {
    bounds_us: Vec<u64>,
    /// One per bound, plus a final overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// A histogram over the given strictly-increasing bucket bounds (µs).
    ///
    /// # Panics
    /// Panics if `bounds_us` is empty or not strictly increasing.
    pub fn new(bounds_us: &[u64]) -> Self {
        assert!(!bounds_us.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds_us.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        let mut buckets = Vec::with_capacity(bounds_us.len() + 1);
        buckets.resize_with(bounds_us.len() + 1, AtomicU64::default);
        Self {
            bounds_us: bounds_us.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    /// A histogram over [`DEFAULT_LATENCY_BOUNDS_US`].
    pub fn default_bounds() -> Self {
        Self::new(&DEFAULT_LATENCY_BOUNDS_US)
    }

    /// Records one observation of `latency_us` microseconds.
    pub fn observe_us(&self, latency_us: u64) {
        let idx = self
            .bounds_us
            .iter()
            .position(|&b| latency_us <= b)
            .unwrap_or(self.bounds_us.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(latency_us, Ordering::Relaxed);
    }

    /// Records a duration (saturating at `u64::MAX` µs).
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A serializable snapshot of the current state.
    ///
    /// The snapshot is not atomic across buckets — concurrent observers may
    /// land between loads — but every individual load is consistent, which
    /// is the usual contract for scrape-style telemetry.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds_us: self.bounds_us.clone(),
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time, serializable view of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (µs), in increasing order.
    pub bounds_us: Vec<u64>,
    /// Per-bucket counts; one entry per bound plus a final overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed latencies (µs).
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// An upper bound (µs) on the `q`-quantile (`0.0..=1.0`): the bound of
    /// the bucket where the cumulative count first reaches `q·total`.
    /// Returns `None` when the histogram is empty; the overflow bucket
    /// reports the last finite bound (the histogram cannot resolve beyond
    /// it).
    pub fn quantile_upper_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(*self.bounds_us.get(i).unwrap_or(self.bounds_us.last()?));
            }
        }
        self.bounds_us.last().copied()
    }

    /// Interpolated `q`-quantile estimate (µs): finds the bucket where the
    /// cumulative count crosses `q·total` and interpolates linearly between
    /// the bucket's bounds by how far into the bucket the crossing falls
    /// (the classic Prometheus `histogram_quantile` estimator). Exact when
    /// observations are uniform within a bucket; always bracketed by the
    /// bucket's bounds either way. Observations in the overflow bucket clamp
    /// to the last finite bound. Returns `None` when empty.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev_cum = cum;
            cum += c;
            if cum as f64 >= target && c > 0 {
                let lower = if i == 0 { 0 } else { self.bounds_us[i - 1] };
                let upper = match self.bounds_us.get(i) {
                    Some(&b) => b,
                    // Overflow bucket: the histogram cannot resolve beyond
                    // its last finite bound.
                    None => return Some(*self.bounds_us.last()? as f64),
                };
                let frac = ((target - prev_cum as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lower as f64 + frac * (upper - lower) as f64);
            }
        }
        self.bounds_us.last().map(|&b| b as f64)
    }

    /// Interpolated median (µs); `None` when empty.
    pub fn p50_us(&self) -> Option<f64> {
        self.quantile_us(0.50)
    }

    /// Interpolated 95th percentile (µs); `None` when empty.
    pub fn p95_us(&self) -> Option<f64> {
        self.quantile_us(0.95)
    }

    /// Interpolated 99th percentile (µs); `None` when empty.
    pub fn p99_us(&self) -> Option<f64> {
        self.quantile_us(0.99)
    }

    /// One-line human summary: `count`, mean, interpolated p50/p95/p99.
    pub fn summary(&self) -> String {
        match (self.p50_us(), self.p95_us(), self.p99_us()) {
            (Some(p50), Some(p95), Some(p99)) => format!(
                "{} obs, mean {:.0} µs, p50 ≈ {p50:.0} µs, p95 ≈ {p95:.0} µs, p99 ≈ {p99:.0} µs",
                self.count,
                self.mean_us(),
            ),
            _ => "0 obs".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = LatencyHistogram::new(&[10, 100, 1000]);
        h.observe_us(5); // bucket 0
        h.observe_us(10); // bucket 0 (inclusive upper bound)
        h.observe_us(11); // bucket 1
        h.observe_us(5000); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 0, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_us, 5 + 10 + 11 + 5000);
    }

    #[test]
    fn quantiles_report_bucket_bounds() {
        let h = LatencyHistogram::new(&[10, 100, 1000]);
        for _ in 0..98 {
            h.observe_us(1);
        }
        h.observe_us(50);
        h.observe_us(500);
        let s = h.snapshot();
        assert_eq!(s.quantile_upper_us(0.5), Some(10));
        assert_eq!(s.quantile_upper_us(0.99), Some(100));
        assert_eq!(s.quantile_upper_us(1.0), Some(1000));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default_bounds();
        let s = h.snapshot();
        assert_eq!(s.quantile_upper_us(0.5), None);
        assert_eq!(s.quantile_us(0.5), None);
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.summary(), "0 obs");
    }

    #[test]
    fn interpolated_quantiles_land_inside_their_bucket() {
        let h = LatencyHistogram::new(&[10, 100, 1000]);
        // 100 observations uniform-ish in (10, 100]: p50 interpolates
        // halfway through that bucket.
        for _ in 0..100 {
            h.observe_us(50);
        }
        let s = h.snapshot();
        let p50 = s.quantile_us(0.5).unwrap();
        assert!((10.0..=100.0).contains(&p50), "p50 {p50}");
        assert!((p50 - 55.0).abs() < 1.0, "uniform assumption gives midpoint, got {p50}");
        // With a tail in (100, 1000], p99 moves to the tail bucket.
        for _ in 0..10 {
            h.observe_us(999);
        }
        let s = h.snapshot();
        let p99 = s.quantile_us(0.99).unwrap();
        assert!((100.0..=1000.0).contains(&p99), "p99 {p99}");
        assert!(s.quantile_us(0.5).unwrap() <= p99);
    }

    #[test]
    fn overflow_only_histogram_clamps_to_last_bound() {
        let h = LatencyHistogram::new(&[10, 100]);
        h.observe_us(5000);
        let s = h.snapshot();
        assert_eq!(s.quantile_us(0.5), Some(100.0));
        assert_eq!(s.quantile_us(1.0), Some(100.0));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let h = LatencyHistogram::default_bounds();
        h.observe_us(75);
        h.observe_us(2_000_000);
        let s = h.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_bounds() {
        let _ = LatencyHistogram::new(&[10, 10]);
    }
}
