//! Determinism equivalence: a fleet run of N tenants must yield
//! per-tenant `SessionSummary` values **byte-identical** (compared via
//! their full `Debug` rendering) to N independent
//! `MonitoringSession::run_limited` runs — for shard counts 1, 2 and 8,
//! both pacing modes, under the lossless `Block` policy.
//!
//! This is the fleet's core correctness contract: sharding, queueing
//! and multiplexing are pure transport and must not perturb a single
//! detector decision.

use regmon::{MonitoringSession, SessionConfig, SessionSummary};
use regmon_fleet::{
    run_fleet, run_single, FleetConfig, Pacing, QueuePolicy, Schedule, TenantId, TenantSpec,
    TenantState,
};
use regmon_workload::suite;

const INTERVALS: usize = 25;

/// One tenant per suite workload, with a couple of period variations to
/// exercise heterogeneous per-tenant configs.
fn fleet_specs() -> Vec<TenantSpec> {
    let mut specs = Vec::new();
    for (i, name) in suite::names().into_iter().enumerate() {
        let period = match i % 3 {
            0 => 45_000,
            1 => 90_000,
            _ => 450_000,
        };
        specs.push(TenantSpec::new(
            format!("{name}@{period}"),
            suite::by_name(name).unwrap(),
            SessionConfig::new(period),
            INTERVALS,
        ));
    }
    specs
}

/// The reference: independent single-threaded sessions.
fn reference_summaries(specs: &[TenantSpec]) -> Vec<SessionSummary> {
    specs
        .iter()
        .map(|s| MonitoringSession::run_limited(&s.workload, &s.config, s.max_intervals))
        .collect()
}

fn assert_equivalent(shards: usize, pacing: Pacing) {
    let specs = fleet_specs();
    let reference = reference_summaries(&specs);
    let config = FleetConfig::new(shards, 4)
        .with_policy(QueuePolicy::Block)
        .with_pacing(pacing);
    let report = run_fleet(&config, &specs, &Schedule::new());

    assert_eq!(report.tenants.len(), specs.len());
    assert_eq!(report.aggregate.completed, specs.len());
    assert_eq!(report.aggregate.dropped_intervals, 0, "Block never drops");

    for (i, reference) in reference.iter().enumerate() {
        let tenant = report
            .tenant(TenantId(u32::try_from(i).unwrap()))
            .expect("tenant admitted");
        assert_eq!(tenant.state, TenantState::Completed);
        assert_eq!(tenant.shard, i % shards, "placement must be id % shards");
        let fleet_summary = tenant.summary.as_ref().expect("completed tenant summary");
        // Workload names match by construction; everything else must be
        // *byte-identical*, so compare the full Debug rendering.
        assert_eq!(
            format!("{reference:?}"),
            format!("{fleet_summary:?}"),
            "tenant {i} ({}) diverged from run_limited with shards={shards} pacing={pacing:?}",
            tenant.name,
        );
    }
}

#[test]
fn fleet_matches_run_limited_one_shard_lockstep() {
    assert_equivalent(1, Pacing::Lockstep);
}

#[test]
fn fleet_matches_run_limited_two_shards_lockstep() {
    assert_equivalent(2, Pacing::Lockstep);
}

#[test]
fn fleet_matches_run_limited_eight_shards_lockstep() {
    assert_equivalent(8, Pacing::Lockstep);
}

#[test]
fn fleet_matches_run_limited_one_shard_freerun() {
    assert_equivalent(1, Pacing::Freerun);
}

#[test]
fn fleet_matches_run_limited_eight_shards_freerun() {
    assert_equivalent(8, Pacing::Freerun);
}

/// The two paths to the same answer: the single-threaded session and a
/// fleet of one.
#[test]
fn single_session_and_fleet_of_one_agree() {
    let w = suite::by_name("181.mcf").unwrap();
    let config = SessionConfig::new(45_000);
    let single = MonitoringSession::run_limited(&w, &config, INTERVALS);
    let fleet = run_single(&w, &config, INTERVALS, 4);
    assert_eq!(
        format!("{single:?}"),
        format!("{:?}", fleet.summary),
        "fleet-of-one diverged"
    );
}

/// Monitoring on a separate thread (the paper's "not on the critical
/// path" argument, §3.2.3) is equivalent to inline monitoring: a fleet
/// of one reproduces the single-threaded session byte-for-byte.
#[test]
fn fleet_of_one_equals_inline_monitoring() {
    for name in ["181.mcf", "187.facerec"] {
        let w = suite::by_name(name).unwrap();
        let config = SessionConfig::new(450_000);
        let inline = MonitoringSession::run_limited(&w, &config, INTERVALS);
        let fleet = run_single(&w, &config, INTERVALS, 8);
        assert_eq!(
            format!("{inline:?}"),
            format!("{:?}", fleet.summary),
            "{name}: fleet-of-one diverged from inline monitoring"
        );
    }
}

/// A fleet of one with a queue deeper than any lockstep round never
/// makes the producer wait.
#[test]
fn fleet_of_one_deep_queue_absorbs_bursts() {
    let w = suite::by_name("172.mgrid").unwrap();
    let run = run_single(&w, &SessionConfig::new(450_000), 20, 64);
    assert_eq!(run.summary.intervals, 20);
    assert_eq!(run.backpressure_stalls, 0);
}

#[test]
#[should_panic(expected = "queue depth must be positive")]
fn fleet_of_one_rejects_zero_queue_depth() {
    let w = suite::by_name("172.mgrid").unwrap();
    let _ = run_single(&w, &SessionConfig::new(450_000), 1, 0);
}

/// Same fleet twice → identical reports (counters included), for every
/// shard count in the contract.
#[test]
fn lockstep_reports_are_deterministic_across_runs() {
    for shards in [1usize, 2, 8] {
        let config = FleetConfig::new(shards, 3).with_policy(QueuePolicy::Block);
        let a = run_fleet(&config, &fleet_specs(), &Schedule::new());
        let b = run_fleet(&config, &fleet_specs(), &Schedule::new());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(
                x.backpressure_stalls, y.backpressure_stalls,
                "shards={shards}"
            );
            assert_eq!(x.queue_high_water, y.queue_high_water, "shards={shards}");
            assert_eq!(
                x.messages_processed, y.messages_processed,
                "shards={shards}"
            );
        }
    }
}
