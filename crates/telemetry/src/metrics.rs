//! The registry's metric catalogue: every metric the workspace records
//! is a `static` handle defined here, so instrumentation sites pay no
//! lookup and exposition can walk a fixed list.
//!
//! Naming follows Prometheus conventions: `regmon_` prefix, `_total`
//! suffix on counters, base units in the name.

use crate::registry::{Counter, Gauge, Histogram};

// ------------------------------------------------------------- queues

/// Messages accepted by shard ring queues.
pub static QUEUE_PUSHED: Counter = Counter::new(
    "regmon_queue_pushed_total",
    "Messages accepted by shard ring queues",
);

/// Messages handed to shard consumers.
pub static QUEUE_POPPED: Counter = Counter::new(
    "regmon_queue_popped_total",
    "Messages handed to shard consumers",
);

/// Payload units evicted under the drop-oldest policy.
pub static QUEUE_DROPPED: Counter = Counter::new(
    "regmon_queue_dropped_total",
    "Payload units evicted under the drop-oldest queue policy",
);

/// Producer wait episodes under blocking backpressure.
pub static QUEUE_STALLS: Counter = Counter::new(
    "regmon_queue_stalls_total",
    "Producer wait episodes under blocking queue backpressure",
);

/// Condvar wakeups actually issued by queue producers and consumers.
pub static QUEUE_NOTIFIES: Counter = Counter::new(
    "regmon_queue_notifies_total",
    "Condvar wakeups issued by queue producers and consumers",
);

/// Highest ring-queue occupancy observed, in payload units.
pub static QUEUE_HIGH_WATER: Gauge = Gauge::new(
    "regmon_queue_high_water",
    "Highest ring-queue occupancy observed across shards (payload units)",
);

/// Payload units per queue message (log2 buckets).
pub static QUEUE_BATCH_UNITS: Histogram = Histogram::new(
    "regmon_queue_batch_units",
    "Payload units carried per queue message",
);

// -------------------------------------------------------------- fleet

/// Tenant sessions quarantined after a panic.
pub static FLEET_PANICS: Counter = Counter::new(
    "regmon_fleet_tenant_panics_total",
    "Tenant sessions quarantined after a panic",
);

/// Tenants admitted in the most recent fleet run.
pub static FLEET_TENANTS: Gauge = Gauge::new(
    "regmon_fleet_tenants",
    "Tenants admitted in the most recent fleet run",
);

// ---------------------------------------------------------- detectors

/// LPD per-region state-machine transitions (state actually changed).
pub static LPD_TRANSITIONS: Counter = Counter::new(
    "regmon_lpd_transitions_total",
    "LPD per-region state-machine transitions",
);

/// LPD phase-change signals raised to the optimizer.
pub static LPD_PHASE_CHANGES: Counter = Counter::new(
    "regmon_lpd_phase_changes_total",
    "LPD phase-change signals raised to the optimizer",
);

/// Detectors created with an adaptively relaxed Pearson threshold.
pub static LPD_ADAPTIVE_RELAXATIONS: Counter = Counter::new(
    "regmon_lpd_adaptive_relaxations_total",
    "LPD detectors created with an adaptively relaxed Pearson threshold",
);

/// GPD state-machine transitions (state actually changed).
pub static GPD_TRANSITIONS: Counter = Counter::new(
    "regmon_gpd_transitions_total",
    "GPD centroid state-machine transitions",
);

/// GPD global phase changes.
pub static GPD_PHASE_CHANGES: Counter = Counter::new(
    "regmon_gpd_phase_changes_total",
    "GPD global phase-change signals",
);

// --------------------------------------------------- regions & UCR

/// Regions formed from unattributed-sample hot spots.
pub static REGIONS_FORMED: Counter = Counter::new(
    "regmon_regions_formed_total",
    "Regions formed from unattributed-sample hot spots",
);

/// Regions retired by the pruning policy.
pub static REGIONS_PRUNED: Counter = Counter::new(
    "regmon_regions_pruned_total",
    "Regions retired by the pruning policy",
);

/// Monitored regions alive at the last published snapshot.
pub static REGIONS_LIVE: Gauge = Gauge::new(
    "regmon_regions_live",
    "Monitored regions alive at the last published snapshot",
);

/// Intervals whose unattributed-coverage ratio breached the
/// region-formation threshold.
pub static UCR_BREACHES: Counter = Counter::new(
    "regmon_ucr_breaches_total",
    "Intervals whose unattributed-coverage ratio breached the formation threshold",
);

// -------------------------------------------------------- attribution

/// Attribution arena epochs (one per attributed interval).
pub static ATTRIB_EPOCHS: Counter = Counter::new(
    "regmon_attrib_epochs_total",
    "Attribution arena epochs (one per attributed interval)",
);

/// PC samples attributed to a monitored region.
pub static ATTRIB_SAMPLES: Counter = Counter::new(
    "regmon_attrib_samples_total",
    "PC samples attributed to a monitored region",
);

/// PC samples that fell outside every monitored region.
pub static ATTRIB_UNATTRIBUTED: Counter = Counter::new(
    "regmon_attrib_unattributed_total",
    "PC samples that fell outside every monitored region",
);

/// PC samples per attributed interval (log2 buckets).
pub static ATTRIB_INTERVAL_SAMPLES: Histogram = Histogram::new(
    "regmon_attrib_interval_samples",
    "PC samples per attributed interval",
);

// ------------------------------------------------------------ session

/// Profiling intervals processed by monitoring sessions.
pub static INTERVALS_PROCESSED: Counter = Counter::new(
    "regmon_intervals_processed_total",
    "Profiling intervals processed by monitoring sessions",
);

// -------------------------------------------------- serve & snapshots

/// Producer connections accepted by `regmon serve`.
pub static SERVE_CONNECTIONS: Counter = Counter::new(
    "regmon_serve_connections_total",
    "Producer connections accepted by the serve listener",
);

/// Producer connections closed (cleanly or on error).
pub static SERVE_CONNECTIONS_CLOSED: Counter = Counter::new(
    "regmon_serve_connections_closed_total",
    "Producer connections closed by the serve listener",
);

/// Wire frames decoded successfully.
pub static SERVE_FRAMES: Counter = Counter::new(
    "regmon_serve_frames_total",
    "Wire frames decoded successfully by the serve layer",
);

/// Wire frames rejected (bad CRC, truncation, version mismatch, …).
pub static SERVE_FRAMES_REJECTED: Counter = Counter::new(
    "regmon_serve_frames_rejected_total",
    "Wire frames rejected by the serve layer",
);

/// Payload bytes received over the wire (frame headers included).
pub static SERVE_RECEIVED_BYTES: Counter = Counter::new(
    "regmon_serve_received_bytes_total",
    "Bytes received over the wire by the serve layer",
);

/// Session snapshots written.
pub static SNAPSHOT_SAVES: Counter = Counter::new(
    "regmon_snapshot_saves_total",
    "Session snapshots serialized to disk",
);

/// Session snapshots restored.
pub static SNAPSHOT_RESTORES: Counter = Counter::new(
    "regmon_snapshot_restores_total",
    "Session snapshots deserialized and resumed",
);

/// Readiness wake-ups taken by serve event-loop workers.
pub static SERVE_EVENT_WAKEUPS: Counter = Counter::new(
    "regmon_serve_event_wakeups_total",
    "poll(2) wake-ups taken by serve event-loop workers",
);

/// Tenants migrated out of a serve process over the wire.
pub static SERVE_MIGRATIONS: Counter = Counter::new(
    "regmon_serve_migrations_total",
    "Tenant sessions checked out of a serve process over the wire",
);

/// Sessions rebuilt from a durable directory after a crash.
pub static SERVE_RECOVERIES: Counter = Counter::new(
    "regmon_serve_recoveries_total",
    "Wire sessions recovered from checkpoint plus WAL replay",
);

/// Frames appended to per-tenant write-ahead logs.
pub static WAL_RECORDS: Counter = Counter::new(
    "regmon_wal_records_total",
    "Frames appended to durable write-ahead logs",
);

/// Client reconnect attempts taken by `regmon send`/`migrate`.
pub static SEND_RETRIES: Counter = Counter::new(
    "regmon_send_retries_total",
    "Wire client reconnect attempts after a transport failure",
);

/// Serve connections closed for blowing a read/idle deadline.
pub static SERVE_TIMEOUTS: Counter = Counter::new(
    "regmon_serve_timeouts_total",
    "Serve connections closed on a read or idle deadline",
);

/// Serve connections refused at the admission-control cap.
pub static SERVE_CONNS_SHED: Counter = Counter::new(
    "regmon_serve_conns_shed_total",
    "Serve connections shed with a Busy reply at the connection cap",
);

/// Wire sessions currently admitted and not yet finished.
pub static SERVE_SESSIONS: Gauge = Gauge::new(
    "regmon_serve_sessions",
    "Wire sessions currently admitted and not yet finished",
);

/// Gap between consecutive interval indices of one wire tenant
/// (0 = contiguous; log2 buckets).
pub static SERVE_FRAME_LAG: Histogram = Histogram::new(
    "regmon_serve_frame_lag_intervals",
    "Interval-index gap between consecutive frames of one wire tenant",
);

// ----------------------------------------------------- change points

/// Telemetry points ingested by the fleet change-point hub.
pub static CPD_POINTS_INGESTED: Counter = Counter::new(
    "regmon_cpd_points_ingested_total",
    "Telemetry points ingested by the fleet change-point hub",
);

/// Change points detected across all tracked series.
pub static CPD_CHANGEPOINTS: Counter = Counter::new(
    "regmon_cpd_changepoints_total",
    "Change points detected across all tracked telemetry series",
);

/// Distinct series tracked by the fleet change-point hub.
pub static CPD_SERIES_TRACKED: Gauge = Gauge::new(
    "regmon_cpd_series_tracked",
    "Distinct series tracked by the fleet change-point hub",
);

static COUNTERS: [&Counter; 34] = [
    &QUEUE_PUSHED,
    &QUEUE_POPPED,
    &QUEUE_DROPPED,
    &QUEUE_STALLS,
    &QUEUE_NOTIFIES,
    &FLEET_PANICS,
    &LPD_TRANSITIONS,
    &LPD_PHASE_CHANGES,
    &LPD_ADAPTIVE_RELAXATIONS,
    &GPD_TRANSITIONS,
    &GPD_PHASE_CHANGES,
    &REGIONS_FORMED,
    &REGIONS_PRUNED,
    &UCR_BREACHES,
    &ATTRIB_EPOCHS,
    &ATTRIB_SAMPLES,
    &ATTRIB_UNATTRIBUTED,
    &INTERVALS_PROCESSED,
    &SERVE_CONNECTIONS,
    &SERVE_CONNECTIONS_CLOSED,
    &SERVE_FRAMES,
    &SERVE_FRAMES_REJECTED,
    &SERVE_RECEIVED_BYTES,
    &SNAPSHOT_SAVES,
    &SNAPSHOT_RESTORES,
    &SERVE_EVENT_WAKEUPS,
    &SERVE_MIGRATIONS,
    &SERVE_RECOVERIES,
    &WAL_RECORDS,
    &SEND_RETRIES,
    &SERVE_TIMEOUTS,
    &SERVE_CONNS_SHED,
    &CPD_POINTS_INGESTED,
    &CPD_CHANGEPOINTS,
];

static GAUGES: [&Gauge; 5] = [
    &QUEUE_HIGH_WATER,
    &FLEET_TENANTS,
    &REGIONS_LIVE,
    &SERVE_SESSIONS,
    &CPD_SERIES_TRACKED,
];

static HISTOGRAMS: [&Histogram; 3] = [
    &QUEUE_BATCH_UNITS,
    &ATTRIB_INTERVAL_SAMPLES,
    &SERVE_FRAME_LAG,
];

/// Every registered counter, in exposition order.
#[must_use]
pub fn counters() -> &'static [&'static Counter] {
    &COUNTERS
}

/// Every registered gauge, in exposition order.
#[must_use]
pub fn gauges() -> &'static [&'static Gauge] {
    &GAUGES
}

/// Every registered histogram, in exposition order.
#[must_use]
pub fn histograms() -> &'static [&'static Histogram] {
    &HISTOGRAMS
}

#[cfg(test)]
mod tests {
    #[test]
    fn catalogue_names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = super::counters().iter().map(|c| c.name()).collect();
        names.extend(super::gauges().iter().map(|g| g.name()));
        names.extend(super::histograms().iter().map(|h| h.name()));
        for n in &names {
            assert!(n.starts_with("regmon_"), "{n} lacks the regmon_ prefix");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn counter_names_carry_total_suffix() {
        for c in super::counters() {
            assert!(c.name().ends_with("_total"), "{} lacks _total", c.name());
        }
    }
}
