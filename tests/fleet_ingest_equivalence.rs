//! Ingestion fast-path equivalence (property suite).
//!
//! Interval batching is *pure transport*: it may change how intervals
//! travel to shard workers, but never which intervals arrive, in what
//! per-tenant order, where a tenant lives, or what any detector
//! decides. This suite drives randomized fleet shapes through several
//! batching factors and asserts:
//!
//! 1. **Summary identity** — every tenant's `SessionSummary` (compared
//!    via its full `Debug` rendering, which covers GPD/LPD phase-change
//!    sequences, stable fractions and region accounting) and its shard
//!    are byte-identical to the per-interval (`batch = 1`) baseline.
//! 2. **One placement rule** — every tenant is reported on shard
//!    `id % shards`, in both pacings.
//! 3. **Counter identity (lockstep)** — the simulated backpressure
//!    counters (stalls, drops, high-water) are keyed to each tenant's
//!    shard and must not move by a single unit under batching, for both
//!    `Block` and `DropOldest` policies.
//! 4. **Reference identity (freerun)** — under the lossless `Block`
//!    policy a free-running fleet at any batch size reproduces
//!    `MonitoringSession::run_limited` exactly.

use proptest::prelude::*;

use regmon::{MonitoringSession, SessionConfig};
use regmon_fleet::{
    run_fleet, FleetConfig, FleetReport, Pacing, QueuePolicy, Schedule, TenantSpec,
};
use regmon_workload::suite;

/// Heterogeneous tenants: workloads cycle through the suite, sampling
/// periods cycle through the paper sweep, and interval budgets are
/// slightly ragged so tenants complete on different rounds.
fn fleet_specs(tenants: usize, intervals: usize) -> Vec<TenantSpec> {
    let names = suite::names();
    (0..tenants)
        .map(|i| {
            let name = names[i % names.len()];
            let period = [45_000u64, 90_000, 450_000][i % 3];
            TenantSpec::new(
                format!("{name}#{i}"),
                suite::by_name(name).unwrap(),
                SessionConfig::new(period),
                intervals + i % 3,
            )
        })
        .collect()
}

/// Everything about a tenant that transport must not perturb,
/// placement included.
fn tenant_digest(report: &FleetReport) -> Vec<String> {
    report
        .tenants
        .iter()
        .map(|t| {
            format!(
                "shard={} {:?} produced={} processed={} {:?}",
                t.shard, t.state, t.intervals_produced, t.intervals_processed, t.summary
            )
        })
        .collect()
}

/// Every tenant must be reported on its home shard, `id % shards`.
fn assert_home_shards(report: &FleetReport, shards: usize) {
    for t in &report.tenants {
        assert_eq!(
            t.shard,
            t.id.shard(shards),
            "tenant {} left its shard",
            t.id
        );
    }
}

/// The deterministic lockstep backpressure counters, per shard.
fn shard_counters(report: &FleetReport) -> Vec<(usize, usize, usize)> {
    report
        .shards
        .iter()
        .map(|s| {
            (
                s.backpressure_stalls,
                s.dropped_intervals,
                s.queue_high_water,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lockstep_results_invariant_under_batching(
        tenants in 3usize..9,
        shards in 1usize..5,
        depth in 2usize..7,
        intervals in 4usize..14,
        drop_oldest in prop::bool::ANY,
        batch_a in 2usize..33,
        batch_b in 2usize..33,
    ) {
        let specs = fleet_specs(tenants, intervals);
        let policy = if drop_oldest {
            QueuePolicy::DropOldest
        } else {
            QueuePolicy::Block
        };
        let base = FleetConfig::new(shards, depth).with_policy(policy);
        let baseline = run_fleet(&base, &specs, &Schedule::new());
        assert_home_shards(&baseline, shards);
        let base_digest = tenant_digest(&baseline);
        let base_counters = shard_counters(&baseline);

        for batch in [batch_a, batch_b] {
            let variant = run_fleet(&base.with_batch(batch), &specs, &Schedule::new());
            prop_assert_eq!(
                &base_digest,
                &tenant_digest(&variant),
                "tenants diverged at batch={} policy={:?}",
                batch, policy
            );
            prop_assert_eq!(
                &base_counters,
                &shard_counters(&variant),
                "lockstep counters diverged at batch={} policy={:?}",
                batch, policy
            );
        }
    }

    #[test]
    fn freerun_block_matches_run_limited_at_any_batch(
        shards in 1usize..5,
        depth in 2usize..7,
        batch in 1usize..33,
    ) {
        let specs = fleet_specs(6, 10);
        let reference: Vec<String> = specs
            .iter()
            .map(|s| {
                format!(
                    "{:?}",
                    MonitoringSession::run_limited(&s.workload, &s.config, s.max_intervals)
                )
            })
            .collect();
        let config = FleetConfig::new(shards, depth)
            .with_policy(QueuePolicy::Block)
            .with_pacing(Pacing::Freerun)
            .with_batch(batch);
        let report = run_fleet(&config, &specs, &Schedule::new());
        prop_assert_eq!(report.aggregate.completed, specs.len());
        assert_home_shards(&report, shards);
        prop_assert_eq!(report.aggregate.dropped_intervals, 0, "Block never drops");
        for (i, expect) in reference.iter().enumerate() {
            let summary = report.tenants[i]
                .summary
                .as_ref()
                .expect("completed tenant has a summary");
            prop_assert_eq!(
                expect,
                &format!("{summary:?}"),
                "tenant {} diverged from run_limited (shards={} batch={})",
                i, shards, batch
            );
        }
    }
}
