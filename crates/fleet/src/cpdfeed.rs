//! The online change-point feed: bridges the telemetry journal into a
//! [`CpdHub`] as the fleet driver runs.
//!
//! # Determinism
//!
//! Journal *ticks* are recorded by shard workers racing the driver's
//! advancing round counter, and drift further under interval batching —
//! so the feed never keys a tenant series on a tick. Instead it uses the
//! per-tenant x-axes that *are* deterministic:
//!
//! - Every processed interval records an [`EventKind::IntervalEnd`]
//!   marker carrying the session's own interval index, which gives a
//!   dense per-tenant UCR series and, by counting markers, assigns the
//!   current interval ordinal to region-scoped LPD events (per-tenant
//!   journal streams are FIFO, and LPD transitions of interval `k` are
//!   recorded before interval `k`'s end marker).
//! - Queue-stall series come from the lockstep simulation's per-shard
//!   counters, which the fleet equivalence contract already keeps
//!   byte-identical across batch sizes.
//!
//! Detection cadence inside each [`StreamingCpd`] counts *points*, not
//! rounds, so while the driver round at which a change point
//! materializes shifts with batching (events drain later), the detected
//! rounds, magnitudes and confidences do not. The final report sorts
//! change points by series key and round, discarding materialization
//! order — which is what keeps `fleet --json` byte-identical across
//! batch sizes with `--cpd` on.

use regmon_cpd::{ChangePoint, CpdHub, Metric, SeriesKey, StreamConfig, NO_REGION, NO_TENANT};
use regmon_telemetry::journal::{self, Event, EventKind};
use regmon_telemetry::metrics;
use std::collections::HashMap;

/// What the change-point layer contributes to a [`FleetReport`].
///
/// [`FleetReport`]: crate::FleetReport
#[derive(Debug, Clone, Default)]
pub struct CpdReport {
    /// Detected change points, sorted by series key then round.
    pub change_points: Vec<ChangePoint>,
    /// Distinct series the hub tracked.
    pub series_tracked: usize,
    /// Telemetry points ingested across all series.
    pub points_ingested: u64,
    /// Every journal event drained during the run (the feed drains the
    /// journal each round, so end-of-run trace writers read from here
    /// instead of draining an already-empty journal).
    pub events: Vec<Event>,
    /// Journal events lost to ring wraparound. Drain timing (and
    /// therefore this count) is scheduling-dependent, so it is
    /// reported but excluded from deterministic JSON output.
    pub lost: u64,
}

/// Per-round journal-to-hub bridge owned by the fleet driver.
#[derive(Debug)]
pub struct CpdFeed {
    hub: CpdHub,
    /// IntervalEnd markers seen per tenant: the ordinal assigned to the
    /// tenant's next region-scoped events.
    intervals_seen: HashMap<u64, u64>,
    /// Previous cumulative stalls+drops per shard (for round deltas).
    prev_queue: Vec<u64>,
    events: Vec<Event>,
    lost: u64,
    detected: Vec<ChangePoint>,
    /// Points already added to the process-global ingestion counter.
    points_published: u64,
}

impl CpdFeed {
    /// Creates a feed for `shards` home shards with default windowing.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            hub: CpdHub::new(StreamConfig::default()),
            intervals_seen: HashMap::new(),
            prev_queue: vec![0; shards],
            events: Vec::new(),
            lost: 0,
            detected: Vec::new(),
            points_published: 0,
        }
    }

    /// One driver round: drain the journal, ingest tenant series, feed
    /// per-shard queue-stall deltas, then journal any fresh detections.
    /// `queue_totals` is the cumulative stalls+drops per home shard
    /// from the lockstep simulation.
    pub fn end_round(&mut self, round: u64, queue_totals: &[u64]) {
        let drained = journal::drain();
        self.lost += drained.lost;
        self.ingest(&drained.events);
        self.events.extend(drained.events);

        for (shard, &total) in queue_totals.iter().enumerate() {
            let delta = total.saturating_sub(self.prev_queue[shard]);
            self.prev_queue[shard] = total;
            self.hub.observe(
                SeriesKey {
                    tenant: NO_TENANT,
                    region: shard as u64,
                    metric: Metric::QueueStalls,
                },
                round,
                delta as f64,
            );
        }
        self.publish();
    }

    /// End of run: drain stragglers, run the final detection pass, and
    /// assemble the report.
    #[must_use]
    pub fn finish(mut self) -> CpdReport {
        let drained = journal::drain();
        self.lost += drained.lost;
        self.ingest(&drained.events);
        self.events.extend(drained.events);
        self.hub.flush();
        self.publish();
        // Change-point journal events recorded by `publish` are picked
        // up here so the trace artifact carries them too.
        let tail = journal::drain();
        self.lost += tail.lost;
        self.events.extend(tail.events);

        let mut change_points = self.detected;
        change_points.sort_by_key(|a| (a.series, a.round));
        CpdReport {
            change_points,
            series_tracked: self.hub.series_tracked(),
            points_ingested: self.hub.points_ingested(),
            events: self.events,
            lost: self.lost,
        }
    }

    fn ingest(&mut self, events: &[Event]) {
        for ev in events {
            match ev.kind {
                EventKind::IntervalEnd { interval, ucr } => {
                    self.intervals_seen.insert(ev.tenant, interval + 1);
                    self.hub.observe(
                        SeriesKey {
                            tenant: ev.tenant,
                            region: NO_REGION,
                            metric: Metric::Ucr,
                        },
                        interval,
                        ucr,
                    );
                }
                EventKind::LpdTransition { region, r, rt, .. } => {
                    let ordinal = self.intervals_seen.get(&ev.tenant).copied().unwrap_or(0);
                    self.hub.observe(
                        SeriesKey {
                            tenant: ev.tenant,
                            region,
                            metric: Metric::PearsonR,
                        },
                        ordinal,
                        r,
                    );
                    self.hub.observe(
                        SeriesKey {
                            tenant: ev.tenant,
                            region,
                            metric: Metric::SimilarityThreshold,
                        },
                        ordinal,
                        rt,
                    );
                }
                // Our own detections re-entering through the journal,
                // and everything tick-keyed (queue stalls come from the
                // simulation instead — see module docs).
                _ => {}
            }
        }
        metrics::CPD_SERIES_TRACKED.set(self.hub.series_tracked() as i64);
    }

    /// Moves fresh hub detections into the report set, journaling each
    /// as an [`EventKind::ChangePoint`] attributed to its tenant.
    fn publish(&mut self) {
        let fresh = self.hub.take_detections();
        let points = self.hub.points_ingested();
        metrics::CPD_POINTS_INGESTED.add(points.saturating_sub(self.points_published));
        self.points_published = points;
        for cp in &fresh {
            metrics::CPD_CHANGEPOINTS.inc();
            let tenant = if cp.series.tenant == NO_TENANT {
                0
            } else {
                cp.series.tenant
            };
            journal::set_tenant(tenant);
            journal::record(EventKind::ChangePoint {
                region: cp.series.region,
                metric: cp.series.metric.name(),
                magnitude: cp.magnitude,
                confidence: cp.confidence,
            });
        }
        journal::set_tenant(0);
        self.detected.extend(fresh);
    }
}
