//! Sharded lock-free metric primitives: counters, gauges, and
//! log2-bucketed histograms.
//!
//! All three types are designed to live in `static`s (see
//! [`crate::metrics`]) so instrumentation sites pay no registration or
//! lookup cost. Recording is wait-free: a relaxed-atomic enabled check
//! (one load + branch when telemetry is off) followed by relaxed
//! `fetch_add`s on a per-thread **stripe**, so concurrent shard workers
//! never contend on the same cache line. Reads ([`Counter::value`],
//! [`Histogram::snapshot`]) fold the stripes together; histogram bucket
//! arrays are merged with [`regmon_stats::histogram::add_slots`].
//!
//! Counter arithmetic is wrapping by construction (`AtomicU64` adds
//! never panic in debug builds), which is exactly the hot-path overflow
//! discipline the PR 3 fleet_matrix deadlock taught us to want.

use regmon_stats::histogram::{add_slots, log2_bucket};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Number of independent stripes per metric. Threads hash onto stripes
/// round-robin at first use; 8 comfortably covers the fleet's default
/// shard counts.
pub const STRIPES: usize = 8;

/// Buckets of every registry histogram: bucket `i` counts values in
/// `2^i ..= 2^(i+1) - 1` (bucket 0 also absorbs zero; the last bucket
/// is open-ended).
pub const HISTOGRAM_BUCKETS: usize = 16;

/// One cache-line-padded atomic cell, so different stripes of the same
/// metric (and neighbouring metrics) never false-share.
#[repr(align(64))]
#[derive(Debug)]
struct Cell(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_CELL: Cell = Cell(AtomicU64::new(0));

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// The stripe index of the calling thread (assigned round-robin on
/// first use, stable for the thread's lifetime).
fn stripe() -> usize {
    thread_local! {
        static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// A monotone counter with [`STRIPES`] relaxed-atomic lanes.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    cells: [Cell; STRIPES],
}

impl Counter {
    /// A new zeroed counter; `name` must follow Prometheus conventions
    /// (`regmon_..._total`).
    #[must_use]
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            cells: [ZERO_CELL; STRIPES],
        }
    }

    /// Exposition name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line help text for the `# HELP` exposition comment.
    #[must_use]
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Add `n` to the counter. No-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.cells[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one. No-op while telemetry is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value: the wrapping sum of all stripes.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cells
            .iter()
            .fold(0u64, |acc, c| acc.wrapping_add(c.0.load(Ordering::Relaxed)))
    }

    /// Zero every stripe (tests and benchmark harnesses).
    pub fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time signed gauge (single cell: gauges are set-mostly,
/// not accumulate-mostly, so striping would only blur `set`).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    cell: AtomicI64,
}

impl Gauge {
    /// A new zeroed gauge.
    #[must_use]
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            cell: AtomicI64::new(0),
        }
    }

    /// Exposition name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line help text for the `# HELP` exposition comment.
    #[must_use]
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Set the gauge. No-op while telemetry is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (high-water semantics).
    /// No-op while telemetry is disabled.
    #[inline]
    pub fn set_max(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta. No-op while telemetry is
    /// disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Zero the gauge (tests and benchmark harnesses).
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// Per-stripe state of a [`Histogram`]: the log2 bucket array plus the
/// running count and sum of recorded values.
#[derive(Debug)]
struct HistogramStripe {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: Cell,
    sum: Cell,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_BUCKET: AtomicU64 = AtomicU64::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_STRIPE: HistogramStripe = HistogramStripe {
    buckets: [ZERO_BUCKET; HISTOGRAM_BUCKETS],
    count: ZERO_CELL,
    sum: ZERO_CELL,
};

/// A log2-bucketed histogram of `u64` values with [`STRIPES`]
/// relaxed-atomic lanes. Value `v` lands in bucket
/// `floor(log2(v))` (clamped; zero and one share bucket 0), the same
/// bucketing as the fleet queue's batch-size histogram.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    stripes: [HistogramStripe; STRIPES],
}

/// A folded point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`HISTOGRAM_BUCKETS`] for the bounds).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `i`, or `None` for the final
    /// open-ended bucket (rendered `+Inf` in Prometheus exposition).
    #[must_use]
    pub fn upper_bound(i: usize) -> Option<u64> {
        if i + 1 >= HISTOGRAM_BUCKETS {
            None
        } else {
            Some((1u64 << (i + 1)) - 1)
        }
    }
}

impl Histogram {
    /// A new empty histogram.
    #[must_use]
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            stripes: [ZERO_STRIPE; STRIPES],
        }
    }

    /// Exposition name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line help text for the `# HELP` exposition comment.
    #[must_use]
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Record one observation of `v`. No-op while telemetry is
    /// disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let s = &self.stripes[stripe()];
        let bucket = log2_bucket(v, HISTOGRAM_BUCKETS);
        s.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        s.count.0.fetch_add(1, Ordering::Relaxed);
        s.sum.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Fold all stripes into one snapshot. Bucket arrays are merged
    /// with [`add_slots`].
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot {
            buckets: [0u64; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        };
        let mut local = [0u64; HISTOGRAM_BUCKETS];
        for s in &self.stripes {
            for (dst, src) in local.iter_mut().zip(&s.buckets) {
                *dst = src.load(Ordering::Relaxed);
            }
            add_slots(&mut snap.buckets, &local);
            snap.count = snap.count.wrapping_add(s.count.0.load(Ordering::Relaxed));
            snap.sum = snap.sum.wrapping_add(s.sum.0.load(Ordering::Relaxed));
        }
        snap
    }

    /// Zero every stripe (tests and benchmark harnesses).
    pub fn reset(&self) {
        for s in &self.stripes {
            for b in &s.buckets {
                b.store(0, Ordering::Relaxed);
            }
            s.count.0.store(0, Ordering::Relaxed);
            s.sum.0.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_disabled_is_inert_enabled_accumulates() {
        let _guard = crate::test_guard();
        static C: Counter = Counter::new("regmon_test_total", "test");
        crate::set_enabled(false);
        C.inc();
        assert_eq!(C.value(), 0);
        crate::set_enabled(true);
        C.add(3);
        C.inc();
        assert_eq!(C.value(), 4);
        crate::set_enabled(false);
        C.reset();
    }

    #[test]
    fn gauge_set_max_keeps_high_water() {
        let _guard = crate::test_guard();
        static G: Gauge = Gauge::new("regmon_test_gauge", "test");
        crate::set_enabled(true);
        G.set_max(5);
        G.set_max(3);
        assert_eq!(G.value(), 5);
        G.set(2);
        assert_eq!(G.value(), 2);
        crate::set_enabled(false);
        G.reset();
    }

    #[test]
    fn histogram_buckets_match_log2_rule() {
        let _guard = crate::test_guard();
        static H: Histogram = Histogram::new("regmon_test_hist", "test");
        crate::set_enabled(true);
        for v in [0u64, 1, 2, 3, 4, 31, 32, u64::MAX] {
            H.record(v);
        }
        let snap = H.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.buckets[0], 2); // 0 and 1
        assert_eq!(snap.buckets[1], 2); // 2 and 3
        assert_eq!(snap.buckets[2], 1); // 4
        assert_eq!(snap.buckets[4], 1); // 31
        assert_eq!(snap.buckets[5], 1); // 32
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 1); // u64::MAX clamps
        assert_eq!(HistogramSnapshot::upper_bound(0), Some(1));
        assert_eq!(HistogramSnapshot::upper_bound(1), Some(3));
        assert_eq!(HistogramSnapshot::upper_bound(HISTOGRAM_BUCKETS - 1), None);
        crate::set_enabled(false);
        H.reset();
    }

    #[test]
    fn stripes_fold_across_threads() {
        let _guard = crate::test_guard();
        static C: Counter = Counter::new("regmon_test_threads_total", "test");
        crate::set_enabled(true);
        let handles: Vec<_> = (0..12)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        C.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(C.value(), 12_000);
        crate::set_enabled(false);
        C.reset();
    }
}
