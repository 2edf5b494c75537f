//! The three primitive metric cells: [`Counter`], [`Gauge`] and
//! [`LogHistogram`].
//!
//! All cells are plain relaxed atomics: publishing from a worker thread is a
//! single `fetch_add`/`store` with `Ordering::Relaxed`, so the cells impose
//! no synchronization on the code paths they instrument. Readers
//! ([`crate::Registry::snapshot`], the exposition formats) see values
//! that are each individually consistent but not mutually synchronized
//! — exactly the contract a monitoring surface needs, and nothing
//! stronger.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Zero the counter. Not synchronized against concurrent `inc`s; for
    /// quiesced windows only.
    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// An instantaneous signed level (pool backlog, arena bytes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Raise the gauge to `v` if it is below it (peak tracking).
    #[inline]
    pub fn raise_to(&self, v: i64) {
        self.0.fetch_max(v, Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// Number of log2 buckets in a [`LogHistogram`].
///
/// Bucket `i` counts observations `v` with `floor(log2(v)) + 1 == i`, i.e.
/// bucket 0 holds `v == 0`, bucket 1 holds `v == 1`, bucket `i` holds
/// `v ∈ [2^(i-1), 2^i)`. 48 buckets cover values up to 2^47 — more than
/// three days in nanoseconds — and anything larger lands in the last bucket.
pub const HIST_BUCKETS: usize = 48;

/// A fixed-footprint log2-bucketed histogram (job latencies).
///
/// `observe` is one relaxed `fetch_add` into the bucket plus two for the
/// running count and sum; quantile queries interpolate the upper bound of
/// the bucket that crosses the requested rank, which is exact to within a
/// factor of two — enough for a p50/p95/p99 dashboard, and cheap enough to
/// sit inside a work-stealing runtime.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the array from an inline const.
        LogHistogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for an observed value.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        let idx = (64 - v.leading_zeros()) as usize;
        idx.min(HIST_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`0`, `1`, `3`, `7`, ...).
    #[inline]
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Zero every bucket. Not synchronized against concurrent `observe`s;
    /// for quiesced windows only.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Relaxed);
        }
        HistSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// An immutable copy of a [`LogHistogram`], taken by a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl HistSnapshot {
    /// Nearest-rank quantile estimate: the upper bound of the bucket in
    /// which the `q`-th observation falls. `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return LogHistogram::bucket_bound(i);
            }
        }
        LogHistogram::bucket_bound(HIST_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Every value lands in the bucket whose bound is >= it (until the
        // clamp bucket).
        for v in [0u64, 1, 2, 5, 100, 1 << 20, (1 << 40) + 17] {
            let b = LogHistogram::bucket_of(v);
            assert!(LogHistogram::bucket_bound(b) >= v, "v={v} b={b}");
            if b > 0 {
                assert!(LogHistogram::bucket_bound(b - 1) < v);
            }
        }
    }

    #[test]
    fn quantiles_monotone() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let (p50, p95, p99) = (s.quantile(0.50), s.quantile(0.95), s.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99);
        // log2 buckets: p50 of 1..=1000 is 500 -> bucket bound 511.
        assert_eq!(p50, 511);
        assert_eq!(p99, 1023);
    }

    #[test]
    fn gauge_peak() {
        let g = Gauge::new();
        g.raise_to(5);
        g.raise_to(3);
        assert_eq!(g.get(), 5);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }
}
