//! Fixed-size count histograms over instruction slots.
//!
//! Each monitored region keeps two of these: the frozen *stable* histogram
//! (`prev_hist` in the paper's Figure 12) and the *current* interval's
//! histogram (`curr_hist`). Slot `i` counts the performance-counter samples
//! attributed to instruction `i` of the region during one sampling
//! interval.

use crate::pearson::{pearson_counts, PearsonError};

/// Adds `src` into `dst` slot-wise: `dst[i] += src[i]`.
///
/// The telemetry registry's snapshot merge folds each per-thread stripe
/// of a histogram into the exported buckets with this.
///
/// Overflow is the *caller's* obligation (debug builds assert): callers
/// must guarantee `dst[i] + src[i]` fits in a `u64`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_slots(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "slot-count mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        debug_assert!(d.checked_add(*s).is_some(), "slot add overflow");
        *d = d.wrapping_add(*s);
    }
}

/// Log2 bucket index of `value` in a `buckets`-wide histogram: bucket
/// `i` covers `2^i ..= 2^(i+1) - 1`, bucket 0 also absorbs zero, and
/// the last bucket is open-ended.
///
/// Shared by the fleet queue's batch-size histogram and the telemetry
/// registry's histograms so both expose identical bucket boundaries.
#[must_use]
pub fn log2_bucket(value: u64, buckets: usize) -> usize {
    debug_assert!(buckets > 0, "log2_bucket needs at least one bucket");
    let bucket = if value <= 1 {
        0
    } else {
        (u64::BITS - 1 - value.leading_zeros()) as usize
    };
    bucket.min(buckets.saturating_sub(1))
}

/// A histogram of sample counts, one slot per instruction of a region.
///
/// # Example
///
/// ```
/// use regmon_stats::CountHistogram;
///
/// let mut h = CountHistogram::new(4);
/// h.record(1);
/// h.record(1);
/// h.record(3);
/// assert_eq!(h.counts(), &[0, 2, 0, 1]);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CountHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl CountHistogram {
    /// Creates a histogram with `slots` zeroed slots.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        Self {
            counts: vec![0; slots],
            total: 0,
        }
    }

    /// Builds a histogram from explicit counts.
    ///
    /// # Example
    ///
    /// ```
    /// let h = regmon_stats::CountHistogram::from_counts(vec![1, 2, 3]);
    /// assert_eq!(h.total(), 6);
    /// ```
    #[must_use]
    pub fn from_counts(counts: Vec<u64>) -> Self {
        let total = counts.iter().sum();
        Self { counts, total }
    }

    /// Number of slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.counts.len()
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The raw per-slot counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Records one sample in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds; region attribution guarantees
    /// in-bounds slots, so an out-of-bounds record is a logic error.
    pub fn record(&mut self, slot: usize) {
        self.record_n(slot, 1);
    }

    /// Records `n` samples in `slot`.
    ///
    /// Counts saturate at `u64::MAX` instead of wrapping: long-lived
    /// arena histograms accumulate across a whole session, and a pinned
    /// count is a recoverable measurement artifact where an overflow
    /// panic (or a silent wrap in release builds) would not be. Debug
    /// builds still flag the saturation as a logic error.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn record_n(&mut self, slot: usize, n: u64) {
        debug_assert!(
            self.counts[slot].checked_add(n).is_some() && self.total.checked_add(n).is_some(),
            "histogram count overflow (slot {slot}, n {n})"
        );
        self.counts[slot] = self.counts[slot].saturating_add(n);
        self.total = self.total.saturating_add(n);
    }

    /// The raw slot buffer, for bulk attribution kernels that bump
    /// counts directly instead of going through
    /// [`CountHistogram::record`] per sample.
    ///
    /// Invariant: `total()` must stay equal to the sum of the counts —
    /// a kernel that writes `n` samples' worth of increments through
    /// this buffer must follow up with
    /// [`CountHistogram::note_bulk_records`]`(n)`.
    pub fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    /// Accounts for `n` samples recorded directly through
    /// [`CountHistogram::counts_mut`] (same saturation behaviour as
    /// [`CountHistogram::record_n`]).
    pub fn note_bulk_records(&mut self, n: u64) {
        debug_assert!(
            self.total.checked_add(n).is_some(),
            "histogram total overflow (bulk n {n})"
        );
        self.total = self.total.saturating_add(n);
    }

    /// Resets every slot to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Copies the counts of `other` into `self`.
    ///
    /// This is the `prev_hist ← curr_hist` operation of the paper's state
    /// machine (Figure 12).
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different slot counts — they must
    /// describe the same region.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histograms describe different regions"
        );
        self.counts.copy_from_slice(&other.counts);
        self.total = other.total;
    }

    /// Per-slot fractions of the total (an all-zero vector when empty).
    #[must_use]
    pub fn normalized(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Index of the most-sampled slot (ties resolve to the lowest index),
    /// or `None` when empty.
    #[must_use]
    pub fn hottest_slot(&self) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        self.counts
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| i)
    }

    /// Pearson's `r` between this histogram and `other`.
    ///
    /// # Errors
    ///
    /// Returns [`PearsonError`] when the slot counts differ or there are
    /// fewer than two slots.
    ///
    /// # Example
    ///
    /// ```
    /// use regmon_stats::CountHistogram;
    ///
    /// let a = CountHistogram::from_counts(vec![10, 80, 40]);
    /// let b = CountHistogram::from_counts(vec![30, 240, 120]); // 3x scale
    /// assert!((a.pearson(&b)? - 1.0).abs() < 1e-12);
    /// # Ok::<(), regmon_stats::PearsonError>(())
    /// ```
    pub fn pearson(&self, other: &Self) -> Result<f64, PearsonError> {
        pearson_counts(&self.counts, &other.counts)
    }
}

impl FromIterator<u64> for CountHistogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self::from_counts(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_histogram_is_empty() {
        let h = CountHistogram::new(8);
        assert!(h.is_empty());
        assert_eq!(h.slots(), 8);
        assert_eq!(h.total(), 0);
        assert_eq!(h.hottest_slot(), None);
    }

    #[test]
    fn record_and_totals() {
        let mut h = CountHistogram::new(3);
        h.record(0);
        h.record_n(2, 5);
        assert_eq!(h.counts(), &[1, 0, 5]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.hottest_slot(), Some(2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn record_out_of_bounds_panics() {
        let mut h = CountHistogram::new(2);
        h.record(2);
    }

    #[test]
    fn clear_keeps_slot_count() {
        let mut h = CountHistogram::from_counts(vec![1, 2, 3]);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.slots(), 3);
    }

    #[test]
    fn copy_from_replicates() {
        let src = CountHistogram::from_counts(vec![4, 5, 6]);
        let mut dst = CountHistogram::new(3);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "different regions")]
    fn copy_from_mismatched_slots_panics() {
        let src = CountHistogram::new(2);
        let mut dst = CountHistogram::new(3);
        dst.copy_from(&src);
    }

    #[test]
    fn add_slots_matches_scalar_for_every_remainder_shape() {
        // Lengths 0..=32 cover empty, tail-only, exact blocks and
        // block+tail for any stride the compiled loop runs in.
        for len in 0..=32usize {
            let mut dst: Vec<u64> = (0..len as u64).map(|i| i * 31 + 7).collect();
            let src: Vec<u64> = (0..len as u64).map(|i| i * 17 + 3).collect();
            let expect: Vec<u64> = dst.iter().zip(&src).map(|(a, b)| a + b).collect();
            add_slots(&mut dst, &src);
            assert_eq!(dst, expect, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "slot-count mismatch")]
    fn add_slots_length_mismatch_panics() {
        add_slots(&mut [0; 3], &[0; 4]);
    }

    #[test]
    fn normalized_sums_to_one() {
        let h = CountHistogram::from_counts(vec![1, 3]);
        let n = h.normalized();
        assert_eq!(n, vec![0.25, 0.75]);
    }

    #[test]
    fn normalized_of_empty_is_zeroes() {
        let h = CountHistogram::new(2);
        assert_eq!(h.normalized(), vec![0.0, 0.0]);
    }

    #[test]
    fn hottest_slot_prefers_lowest_index_on_tie() {
        let h = CountHistogram::from_counts(vec![0, 5, 5]);
        assert_eq!(h.hottest_slot(), Some(1));
    }

    #[test]
    fn pearson_of_scaled_self_is_one() {
        let a = CountHistogram::from_counts(vec![1, 9, 3, 7]);
        let b = CountHistogram::from_counts(vec![2, 18, 6, 14]);
        assert!((a.pearson(&b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_iterator_collects_counts() {
        let h: CountHistogram = [1u64, 2, 3].into_iter().collect();
        assert_eq!(h.total(), 6);
    }

    proptest! {
        #[test]
        fn total_matches_sum(counts in prop::collection::vec(0u64..1000, 0..64)) {
            let h = CountHistogram::from_counts(counts.clone());
            prop_assert_eq!(h.total(), counts.iter().sum::<u64>());
        }

        #[test]
        fn normalized_fractions_sum_to_one_when_nonempty(
            counts in prop::collection::vec(0u64..1000, 1..64)
        ) {
            let h = CountHistogram::from_counts(counts);
            if !h.is_empty() {
                let s: f64 = h.normalized().iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-9);
            }
        }
    }

    // Saturation behavior: release builds pin at u64::MAX instead of
    // wrapping; debug builds treat the overflow as a logic error.

    #[test]
    #[cfg(not(debug_assertions))]
    fn record_n_saturates_instead_of_wrapping() {
        let mut h = CountHistogram::from_counts(vec![u64::MAX - 1, 0]);
        h.record_n(0, 5);
        assert_eq!(h.counts()[0], u64::MAX);
        assert_eq!(h.total(), u64::MAX);
        // Further records stay pinned.
        h.record(0);
        assert_eq!(h.counts()[0], u64::MAX);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "histogram count overflow")]
    fn record_n_overflow_is_a_debug_assertion() {
        let mut h = CountHistogram::from_counts(vec![u64::MAX - 1]);
        h.record_n(0, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot add overflow")]
    fn add_slots_overflow_is_a_debug_assertion() {
        add_slots(&mut [u64::MAX - 2], &[10]);
    }
}
