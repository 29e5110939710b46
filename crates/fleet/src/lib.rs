//! # regmon-fleet — sharded multi-tenant monitoring-session engine
//!
//! The paper's scalability argument (§3.2.3, §5) is that region
//! monitoring is cheap because it runs *off the critical path*, in a
//! separate thread. This crate is that producer → bounded queue →
//! monitor-worker split, scaled to a **fleet**: hundreds of concurrent
//! [`MonitoringSession`]s (one per simulated tenant/process) multiplexed
//! onto a fixed pool of shard workers. [`run_single`] is the one-tenant
//! case: one producer, one queue, one monitor thread.
//!
//! - **Sharding** — a tenant with id `i` is owned by shard
//!   `i % shards` for its whole life; each shard worker
//!   single-threadedly owns its tenants' sessions, so sessions need no
//!   locks and the fleet scales by adding shards.
//! - **Backpressure** — per-shard bounded queues with
//!   [`QueuePolicy::Block`] (lossless, counts producer stalls) or
//!   [`QueuePolicy::DropOldest`] (lossy, counts drops), plus
//!   queue-depth high-water marks.
//! - **Lifecycle** — admit, pause/resume, evict (including cold-tenant
//!   pruning that reuses the session pruning policy shape), restart,
//!   and panic **quarantine**: a tenant whose pipeline panics is
//!   isolated and reported; its shard and every other tenant continue.
//! - **Fleet metrics** — per-tenant and rolled-up GPD/LPD phase-change
//!   counts, stable-time fractions and UCR medians, snapshotable
//!   mid-run.
//! - **Determinism** — under [`Pacing::Lockstep`] and `Block`, every
//!   tenant's summary is byte-identical to a standalone
//!   [`MonitoringSession::run_limited`] run for *any* shard count, and
//!   all backpressure counters are pure functions of the configuration.
//!
//! ## Quickstart
//!
//! ```
//! use regmon::SessionConfig;
//! use regmon_fleet::{run_fleet, FleetConfig, Schedule, TenantSpec};
//! use regmon_workload::suite;
//!
//! let specs: Vec<TenantSpec> = suite::names()
//!     .into_iter()
//!     .take(4)
//!     .map(|name| {
//!         TenantSpec::new(
//!             name,
//!             suite::by_name(name).unwrap(),
//!             SessionConfig::new(45_000),
//!             10,
//!         )
//!     })
//!     .collect();
//! let report = run_fleet(&FleetConfig::new(2, 8), &specs, &Schedule::new());
//! assert_eq!(report.aggregate.completed, 4);
//! println!(
//!     "fleet: {} tenants, {} GPD phase changes, {} stalls",
//!     report.aggregate.tenants,
//!     report.aggregate.gpd_phase_changes,
//!     report.aggregate.backpressure_stalls,
//! );
//! ```
//!
//! [`MonitoringSession`]: regmon::MonitoringSession
//! [`MonitoringSession::run_limited`]: regmon::MonitoringSession::run_limited

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cpdfeed;
mod driver;
mod engine;
mod queue;
mod report;
mod shard;
mod tenant;

pub use cpdfeed::{CpdFeed, CpdReport};
pub use driver::{run_fleet, ControlAction, FleetConfig, Pacing, Schedule};
pub use engine::{EngineConfig, FleetEngine, ShardHold, DEFAULT_QUEUE_DEPTH};
pub use queue::{
    batch_bucket_label, Closed, Droppable, QueuePolicy, QueueStats, RingQueue, BATCH_BUCKETS,
};
pub use report::{FleetAggregate, FleetReport, FleetSnapshot, ShardReport, TenantReport};
pub use shard::{ShardFinal, ShardSnapshot, TenantSnapshot};
pub use tenant::{ColdTenantPolicy, EvictReason, FaultPlan, TenantId, TenantSpec, TenantState};

use regmon::{SessionConfig, SessionSummary};
use regmon_workload::Workload;

/// Statistics of a single-tenant fleet run.
#[derive(Debug, Clone)]
pub struct SingleRun {
    /// The analysis results (identical to a single-threaded run).
    pub summary: SessionSummary,
    /// Producer stall episodes (full queue under `Block`).
    pub backpressure_stalls: usize,
}

/// Runs one workload as a fleet of one (one tenant, one shard): the
/// producer samples while a separate monitor thread runs the session,
/// the paper's off-critical-path arrangement (§3.2.3). The equivalence
/// tests pin it to the inline single-threaded session.
///
/// # Panics
///
/// Panics if `queue_depth == 0`.
#[must_use]
pub fn run_single(
    workload: &Workload,
    config: &SessionConfig,
    max_intervals: usize,
    queue_depth: usize,
) -> SingleRun {
    let spec = TenantSpec::new(
        workload.name(),
        workload.clone(),
        config.clone(),
        max_intervals,
    );
    let fleet = FleetConfig::new(1, queue_depth);
    let report = run_fleet(&fleet, std::slice::from_ref(&spec), &Schedule::new());
    let tenant = report
        .tenants
        .into_iter()
        .next()
        .expect("single-tenant fleet has one tenant");
    SingleRun {
        summary: tenant.summary.expect("single tenant cannot fail"),
        backpressure_stalls: report.shards[0].backpressure_stalls,
    }
}
