//! A keyed collection of streaming detectors: one per
//! tenant × region × metric series.
//!
//! The fleet driver feeds a [`CpdHub`] from drained telemetry journal
//! events each round; the offline `regmon cpd` analyzer feeds one from
//! a recorded trace. Both paths observe per-series point sequences that
//! are deterministic for a given workload (per-tenant journal streams
//! are FIFO; queue series come off the lockstep driver thread), and the
//! hub stores series in a `BTreeMap`, so the detection report is
//! byte-stable regardless of shard count or batching.

use crate::stream::{StreamConfig, StreamingCpd};
use std::collections::BTreeMap;

/// `tenant` value for series that belong to no tenant (fleet-wide
/// series such as per-shard queue stalls).
pub const NO_TENANT: u64 = u64::MAX;

/// `region` value for series not scoped to a monitored region.
pub const NO_REGION: u64 = u64::MAX;

/// Which telemetry series a detector tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// Per-region Pearson correlation `r` from LPD transitions.
    PearsonR,
    /// Per-region similarity threshold `rt` in force at each transition.
    SimilarityThreshold,
    /// Per-tenant unmonitored-code ratio, one point per interval.
    Ucr,
    /// Per-shard backpressure stalls per round.
    QueueStalls,
}

impl Metric {
    /// Stable lowercase identifier used in reports and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::PearsonR => "r",
            Metric::SimilarityThreshold => "rt",
            Metric::Ucr => "ucr",
            Metric::QueueStalls => "queue_stalls",
        }
    }
}

/// Identity of one tracked series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    /// Owning tenant id, or [`NO_TENANT`] for fleet-wide series (the
    /// queue series reuse `region` as the shard index).
    pub tenant: u64,
    /// Region id within the tenant's session, or [`NO_REGION`].
    pub region: u64,
    /// The tracked metric.
    pub metric: Metric,
}

impl SeriesKey {
    /// Human-readable `tenant/region/metric` label for text reports.
    #[must_use]
    pub fn label(&self) -> String {
        let mut out = String::new();
        if self.tenant == NO_TENANT {
            out.push_str("fleet");
        } else {
            out.push_str(&format!("tenant {}", self.tenant));
        }
        if self.region != NO_REGION {
            if self.metric == Metric::QueueStalls {
                out.push_str(&format!(" shard {}", self.region));
            } else {
                out.push_str(&format!(" region {:x}", self.region));
            }
        }
        out.push(' ');
        out.push_str(self.metric.name());
        out
    }
}

/// One detected change point, attributed to its series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePoint {
    /// The series the change was found in.
    pub series: SeriesKey,
    /// Round (tenant series: interval index; queue series: driver
    /// round) of the first post-change observation.
    pub round: u64,
    /// `mean(after) − mean(before)` in series units.
    pub magnitude: f64,
    /// `1 − p` from the permutation test.
    pub confidence: f64,
}

/// Streaming detectors for a whole fleet of series.
#[derive(Debug)]
pub struct CpdHub {
    config: StreamConfig,
    series: BTreeMap<SeriesKey, StreamingCpd>,
    points: u64,
    pending: Vec<ChangePoint>,
}

impl CpdHub {
    /// Creates an empty hub; every series inherits `config`.
    #[must_use]
    pub fn new(config: StreamConfig) -> Self {
        Self {
            config,
            series: BTreeMap::new(),
            points: 0,
            pending: Vec::new(),
        }
    }

    /// Feeds one observation, lazily creating the series detector.
    pub fn observe(&mut self, key: SeriesKey, round: u64, value: f64) {
        self.points += 1;
        let config = self.config;
        let detector = self
            .series
            .entry(key)
            .or_insert_with(|| StreamingCpd::new(config));
        for d in detector.push(round, value) {
            self.pending.push(ChangePoint {
                series: key,
                round: d.round,
                magnitude: d.magnitude,
                confidence: d.confidence,
            });
        }
    }

    /// Final detection pass over every series (end of run), so changes
    /// near the last round are not lost to the detection stride.
    pub fn flush(&mut self) {
        for (key, detector) in &mut self.series {
            for d in detector.flush() {
                self.pending.push(ChangePoint {
                    series: *key,
                    round: d.round,
                    magnitude: d.magnitude,
                    confidence: d.confidence,
                });
            }
        }
    }

    /// Takes detections accumulated since the previous call, sorted by
    /// series key then round. Sorting here (rather than relying on
    /// observation interleaving) is what keeps fleet reports
    /// byte-identical across batch sizes.
    pub fn take_detections(&mut self) -> Vec<ChangePoint> {
        let mut out = std::mem::take(&mut self.pending);
        out.sort_by_key(|a| (a.series, a.round));
        out
    }

    /// Number of distinct series seen so far.
    #[must_use]
    pub fn series_tracked(&self) -> usize {
        self.series.len()
    }

    /// Total points ingested across all series.
    #[must_use]
    pub fn points_ingested(&self) -> u64 {
        self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tenant: u64, metric: Metric) -> SeriesKey {
        SeriesKey {
            tenant,
            region: NO_REGION,
            metric,
        }
    }

    #[test]
    fn attributes_a_step_to_the_right_series() {
        let mut hub = CpdHub::new(StreamConfig::default());
        for round in 0..64u64 {
            hub.observe(
                key(3, Metric::Ucr),
                round,
                if round < 40 { 0.1 } else { 0.9 },
            );
            hub.observe(key(7, Metric::Ucr), round, 0.1);
        }
        hub.flush();
        let found = hub.take_detections();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].series.tenant, 3);
        assert_eq!(found[0].round, 40);
        assert!(found[0].magnitude > 0.5);
        assert_eq!(hub.series_tracked(), 2);
        assert_eq!(hub.points_ingested(), 128);
    }

    #[test]
    fn detections_are_sorted_by_key_then_round() {
        let mut hub = CpdHub::new(StreamConfig::default());
        // Feed tenants in descending order; output must still ascend.
        for round in 0..64u64 {
            for tenant in [9u64, 2, 5] {
                let v = if round < 32 { 1.0 } else { 4.0 + tenant as f64 };
                hub.observe(key(tenant, Metric::Ucr), round, v);
            }
        }
        hub.flush();
        let found = hub.take_detections();
        assert_eq!(found.len(), 3, "{found:?}");
        let tenants: Vec<u64> = found.iter().map(|c| c.series.tenant).collect();
        assert_eq!(tenants, vec![2, 5, 9]);
    }

    #[test]
    fn take_detections_drains() {
        let mut hub = CpdHub::new(StreamConfig::default());
        for round in 0..64u64 {
            hub.observe(
                key(1, Metric::Ucr),
                round,
                if round < 32 { 0.0 } else { 1.0 },
            );
        }
        hub.flush();
        assert_eq!(hub.take_detections().len(), 1);
        assert!(hub.take_detections().is_empty());
    }

    #[test]
    fn labels_read_naturally() {
        let k = SeriesKey {
            tenant: 4,
            region: 0x146f0,
            metric: Metric::PearsonR,
        };
        assert_eq!(k.label(), "tenant 4 region 146f0 r");
        let q = SeriesKey {
            tenant: NO_TENANT,
            region: 2,
            metric: Metric::QueueStalls,
        };
        assert_eq!(q.label(), "fleet shard 2 queue_stalls");
        let u = SeriesKey {
            tenant: 11,
            region: NO_REGION,
            metric: Metric::Ucr,
        };
        assert_eq!(u.label(), "tenant 11 ucr");
    }
}
