//! Region pruning: dropping cold regions from the monitor.
//!
//! The paper (§3.2.3) lists pruning — "remove infrequently executing and
//! relatively cold regions from the region monitor" — as a future cost
//! reduction. [`Pruner`] implements it: a region that receives fewer than
//! `min_samples` in each of `cold_intervals` consecutive intervals is
//! evicted.

use std::collections::HashMap;

use crate::monitor::{AttributionView, RegionMonitor};
use crate::region::RegionId;

/// Evicts regions that stay cold for too long.
#[derive(Debug, Clone)]
pub struct Pruner {
    cold_intervals: usize,
    min_samples: u64,
    cold_streak: HashMap<RegionId, usize>,
}

impl Pruner {
    /// Creates a pruner: a region colder than `min_samples` for
    /// `cold_intervals` consecutive intervals is removed.
    ///
    /// # Panics
    ///
    /// Panics if `cold_intervals == 0`.
    #[must_use]
    pub fn new(cold_intervals: usize, min_samples: u64) -> Self {
        assert!(cold_intervals > 0, "cold_intervals must be positive");
        Self {
            cold_intervals,
            min_samples,
            cold_streak: HashMap::new(),
        }
    }

    /// Exports the per-region cold streaks, ascending by region id
    /// (checkpointing; the policy parameters live in the session
    /// config).
    #[must_use]
    pub fn cold_streaks(&self) -> Vec<(RegionId, usize)> {
        let mut streaks: Vec<(RegionId, usize)> =
            self.cold_streak.iter().map(|(id, s)| (*id, *s)).collect();
        streaks.sort_unstable_by_key(|(id, _)| *id);
        streaks
    }

    /// Restores previously exported cold streaks into a fresh pruner.
    pub fn restore_streaks(&mut self, streaks: &[(RegionId, usize)]) {
        self.cold_streak = streaks.iter().copied().collect();
    }

    /// Updates streaks from this interval's report and returns the
    /// regions whose streak reached the limit, **without** removing them
    /// from the monitor. The borrow-based arena report keeps the monitor
    /// immutably borrowed, so eviction is split: `plan` observes, the
    /// caller applies [`RegionMonitor::remove_regions`] afterwards.
    pub fn plan<V: AttributionView>(
        &mut self,
        report: &V,
        monitor: &RegionMonitor,
    ) -> Vec<RegionId> {
        // Update streaks for every *monitored* region, not just active ones.
        let mut evicted = Vec::new();
        for id in monitor.regions().map(crate::region::Region::id) {
            let hot = report
                .histogram(id)
                .is_some_and(|h| h.total() >= self.min_samples);
            if hot {
                self.cold_streak.remove(&id);
                continue;
            }
            let streak = self.cold_streak.entry(id).or_insert(0);
            *streak += 1;
            if *streak >= self.cold_intervals {
                self.cold_streak.remove(&id);
                evicted.push(id);
            }
        }
        evicted
    }

    /// Updates streaks from this interval's report and evicts regions
    /// whose streak reached the limit. Returns the evicted ids.
    pub fn observe<V: AttributionView>(
        &mut self,
        report: &V,
        monitor: &mut RegionMonitor,
    ) -> Vec<RegionId> {
        let evicted = self.plan(report, monitor);
        monitor.remove_regions(&evicted);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::region::RegionKind;
    use regmon_binary::{Addr, AddrRange};
    use regmon_sampling::PcSample;

    fn range(start: u64) -> AddrRange {
        AddrRange::new(Addr::new(start), Addr::new(start + 0x40))
    }

    fn samples(start: u64, n: usize) -> Vec<PcSample> {
        (0..n)
            .map(|i| PcSample {
                addr: Addr::new(start + (i as u64 % 16) * 4),
                cycle: i as u64,
            })
            .collect()
    }

    #[test]
    fn hot_regions_survive() {
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let id = mon.add_region(range(0x1000), RegionKind::Custom, 0);
        let mut pruner = Pruner::new(3, 5);
        for _ in 0..10 {
            let report = mon.distribute(&samples(0x1000, 20));
            assert!(pruner.observe(&report, &mut mon).is_empty());
        }
        assert!(mon.region(id).is_some());
    }

    #[test]
    fn cold_region_evicted_after_streak() {
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let cold = mon.add_region(range(0x1000), RegionKind::Custom, 0);
        let hot = mon.add_region(range(0x2000), RegionKind::Custom, 0);
        let mut pruner = Pruner::new(3, 5);
        let mut evictions = Vec::new();
        for _ in 0..3 {
            let report = mon.distribute(&samples(0x2000, 20));
            evictions.extend(pruner.observe(&report, &mut mon));
        }
        assert_eq!(evictions, vec![cold]);
        assert!(mon.region(cold).is_none());
        assert!(mon.region(hot).is_some());
    }

    #[test]
    fn streak_resets_on_activity() {
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let id = mon.add_region(range(0x1000), RegionKind::Custom, 0);
        let mut pruner = Pruner::new(2, 5);
        // cold, hot, cold, hot ... never two colds in a row.
        for i in 0..8 {
            let report = if i % 2 == 0 {
                mon.distribute(&[])
            } else {
                mon.distribute(&samples(0x1000, 20))
            };
            assert!(pruner.observe(&report, &mut mon).is_empty());
        }
        assert!(mon.region(id).is_some());
    }

    #[test]
    fn below_threshold_counts_as_cold() {
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let id = mon.add_region(range(0x1000), RegionKind::Custom, 0);
        let mut pruner = Pruner::new(2, 10);
        for _ in 0..2 {
            let report = mon.distribute(&samples(0x1000, 3)); // 3 < 10
            pruner.observe(&report, &mut mon);
        }
        assert!(mon.region(id).is_none());
    }
}
