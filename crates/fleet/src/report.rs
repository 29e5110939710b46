//! Fleet-wide result types: per-tenant, per-shard and rolled-up metrics.

use regmon::SessionSummary;

use crate::cpdfeed::CpdReport;
use crate::queue::BATCH_BUCKETS;
use crate::shard::ShardSnapshot;
use crate::tenant::{TenantId, TenantState};

/// Final per-tenant record.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant.
    pub id: TenantId,
    /// Display name from the spec.
    pub name: String,
    /// Workload driving the tenant.
    pub workload: String,
    /// Shard that served the tenant.
    pub shard: usize,
    /// Final lifecycle state.
    pub state: TenantState,
    /// Intervals the driver produced for the tenant (post-restart).
    pub intervals_produced: usize,
    /// Intervals the pipeline fully processed (post-restart).
    pub intervals_processed: usize,
    /// In-flight intervals ignored (paused/evicted/failed races).
    pub intervals_ignored: usize,
    /// Fresh-session restarts.
    pub restarts: usize,
    /// The session summary (`None` only for failed tenants).
    pub summary: Option<SessionSummary>,
    /// Panic message for failed tenants.
    pub error: Option<String>,
}

/// Final per-shard record, including backpressure accounting.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Tenants served.
    pub tenants: usize,
    /// Messages the worker processed (intervals + lifecycle).
    pub messages_processed: usize,
    /// Producer wait episodes on a full queue (`Block`).
    pub backpressure_stalls: usize,
    /// Intervals sacrificed on a full queue (`DropOldest`).
    pub dropped_intervals: usize,
    /// Queue-occupancy high-water mark.
    pub queue_high_water: usize,
    /// Histogram of payload message sizes (intervals per queue message)
    /// in log2 buckets `1, 2-3, 4-7, …, 128+`
    /// (see [`crate::batch_bucket_label`]).
    pub batch_sizes: [usize; BATCH_BUCKETS],
}

/// Fleet-level roll-up over every tenant and shard.
#[derive(Debug, Clone, Default)]
pub struct FleetAggregate {
    /// Tenants admitted.
    pub tenants: usize,
    /// Tenants that completed their workload.
    pub completed: usize,
    /// Tenants evicted (cold policy or request).
    pub evicted: usize,
    /// Tenants quarantined after a pipeline panic.
    pub failed: usize,
    /// Tenants left paused at shutdown.
    pub paused: usize,
    /// Total fresh-session restarts.
    pub restarts: usize,
    /// Intervals produced across the fleet.
    pub intervals_produced: usize,
    /// Intervals fully processed across the fleet.
    pub intervals_processed: usize,
    /// Intervals dropped under backpressure.
    pub dropped_intervals: usize,
    /// Producer stall episodes across all shards.
    pub backpressure_stalls: usize,
    /// Global (centroid) phase changes summed over tenants.
    pub gpd_phase_changes: usize,
    /// Mean per-tenant GPD stable-time fraction.
    pub gpd_stable_fraction_mean: f64,
    /// Local (per-region) phase changes summed over tenants.
    pub lpd_phase_changes: usize,
    /// Mean per-tenant mean-region stable fraction.
    pub lpd_stable_fraction_mean: f64,
    /// Mean per-tenant median UCR fraction.
    pub ucr_median_mean: f64,
    /// Regions formed across the fleet.
    pub regions_formed: usize,
    /// Regions pruned across the fleet.
    pub regions_pruned: usize,
}

/// A mid-run snapshot taken by a schedule action, tagged with the round
/// at which it was requested.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Driver round when the snapshot was taken.
    pub round: usize,
    /// Per-shard views.
    pub shards: Vec<ShardSnapshot>,
}

/// The complete result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-tenant records in id order.
    pub tenants: Vec<TenantReport>,
    /// Per-shard records in shard order.
    pub shards: Vec<ShardReport>,
    /// Fleet roll-up.
    pub aggregate: FleetAggregate,
    /// Mid-run snapshots requested by the schedule, in round order.
    pub snapshots: Vec<FleetSnapshot>,
    /// Change-point detections (`Some` only when the run enabled CPD).
    /// Deterministic except for `CpdReport::lost`, which is excluded
    /// from `--json` output alongside `wall_ms`.
    pub cpd: Option<CpdReport>,
    /// Wall-clock duration of the run in milliseconds — a
    /// non-deterministic field; excluded from `--json` output so equal
    /// seeds yield byte-identical JSON.
    pub wall_ms: u128,
}

impl FleetReport {
    /// Computes the roll-up from per-tenant and per-shard records.
    pub(crate) fn aggregate_from(
        tenants: &[TenantReport],
        shards: &[ShardReport],
    ) -> FleetAggregate {
        let mut agg = FleetAggregate {
            tenants: tenants.len(),
            ..FleetAggregate::default()
        };
        let mut summarized = 0usize;
        for t in tenants {
            match &t.state {
                TenantState::Completed => agg.completed += 1,
                TenantState::Evicted(_) => agg.evicted += 1,
                TenantState::Failed(_) => agg.failed += 1,
                TenantState::Paused => agg.paused += 1,
                TenantState::Running => {}
            }
            agg.restarts += t.restarts;
            // Per-tenant counters may already be saturated; keep the
            // fleet-wide sums from panicking in debug builds too.
            agg.intervals_produced = agg.intervals_produced.saturating_add(t.intervals_produced);
            agg.intervals_processed = agg
                .intervals_processed
                .saturating_add(t.intervals_processed);
            if let Some(s) = &t.summary {
                summarized += 1;
                agg.gpd_phase_changes += s.gpd.phase_changes;
                agg.gpd_stable_fraction_mean += s.gpd.stable_fraction();
                agg.lpd_phase_changes += s.lpd_total_phase_changes();
                agg.lpd_stable_fraction_mean += s.lpd_mean_stable_fraction();
                agg.ucr_median_mean += s.ucr_median;
                agg.regions_formed += s.regions_formed;
                agg.regions_pruned += s.regions_pruned;
            }
        }
        if summarized > 0 {
            let n = summarized as f64;
            agg.gpd_stable_fraction_mean /= n;
            agg.lpd_stable_fraction_mean /= n;
            agg.ucr_median_mean /= n;
        }
        for s in shards {
            agg.dropped_intervals = agg.dropped_intervals.saturating_add(s.dropped_intervals);
            agg.backpressure_stalls = agg
                .backpressure_stalls
                .saturating_add(s.backpressure_stalls);
        }
        agg
    }

    /// The per-tenant report for `id`, if admitted.
    #[must_use]
    pub fn tenant(&self, id: TenantId) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.id == id)
    }
}
