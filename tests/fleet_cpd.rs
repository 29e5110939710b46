//! Online change-point detection over a live fleet run.
//!
//! The contract under test: with `--cpd` the fleet hunts regressions in
//! the telemetry it already records — a tenant whose samples suddenly
//! stop attributing (the planted `degrade_from` regression) must show
//! up as a confident UCR change point **attributed to that tenant**,
//! within two detection windows of the plant; and the detection set
//! must be byte-identical across batch sizes, like every other
//! deterministic fleet output.
//!
//! Telemetry is process-global, so every test takes one shared mutex.

use regmon::SessionConfig;
use regmon_cpd::{Metric, NO_TENANT};
use regmon_fleet::{
    run_fleet, FleetConfig, FleetReport, Pacing, QueuePolicy, Schedule, TenantSpec,
};
use regmon_workload::suite;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

const INTERVALS: usize = 96;
const DEGRADED_TENANT: u64 = 3;
const DEGRADE_FROM: usize = 40;

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Six heterogeneous tenants; tenant 3 degrades at interval 40.
fn specs() -> Vec<TenantSpec> {
    suite::names()
        .into_iter()
        .take(6)
        .enumerate()
        .map(|(i, name)| {
            let spec = TenantSpec::new(
                name,
                suite::by_name(name).unwrap(),
                SessionConfig::new(45_000),
                INTERVALS,
            );
            if i as u64 == DEGRADED_TENANT {
                spec.with_degrade_from(DEGRADE_FROM)
            } else {
                spec
            }
        })
        .collect()
}

/// Runs the fleet with telemetry on and a clean journal.
fn run_with_cpd(config: &FleetConfig) -> FleetReport {
    regmon_telemetry::set_enabled(true);
    regmon_telemetry::journal::discard();
    let report = run_fleet(config, &specs(), &Schedule::new());
    regmon_telemetry::set_enabled(false);
    report
}

fn base_config() -> FleetConfig {
    FleetConfig::new(2, 4)
        .with_policy(QueuePolicy::Block)
        .with_pacing(Pacing::Lockstep)
        .with_cpd(true)
}

#[test]
fn planted_slowdown_is_detected_and_attributed() {
    let _guard = telemetry_lock();
    let report = run_with_cpd(&base_config());
    let cpd = report.cpd.as_ref().expect("cpd enabled");
    assert!(cpd.series_tracked > 0, "tenant series must be tracked");
    assert!(cpd.points_ingested > 0);

    // The plant lands at interval 40; the streaming detector confirms a
    // point once 2×min_segment = 16 post-change samples arrive, checked
    // every detect_every = 8 pushes — two detection windows.
    let hit = cpd
        .change_points
        .iter()
        .find(|cp| {
            cp.series.tenant == DEGRADED_TENANT
                && cp.series.metric == Metric::Ucr
                && (DEGRADE_FROM as u64..=DEGRADE_FROM as u64 + 16).contains(&cp.round)
        })
        .unwrap_or_else(|| {
            panic!(
                "no UCR change point for tenant {DEGRADED_TENANT} near \
                 interval {DEGRADE_FROM}; got {:?}",
                cpd.change_points
            )
        });
    assert!(hit.magnitude > 0.0, "degradation must raise UCR: {hit:?}");
    assert!(hit.confidence >= 0.9, "plant is unambiguous: {hit:?}");

    // And it is the dominant UCR shift fleet-wide: no healthy tenant
    // shows a bigger one.
    let max_ucr = cpd
        .change_points
        .iter()
        .filter(|cp| cp.series.metric == Metric::Ucr)
        .max_by(|a, b| a.magnitude.abs().total_cmp(&b.magnitude.abs()))
        .expect("at least the planted point");
    assert_eq!(
        max_ucr.series.tenant, DEGRADED_TENANT,
        "largest UCR shift must belong to the degraded tenant: {max_ucr:?}"
    );
}

#[test]
fn detections_are_identical_across_batch_sizes() {
    let _guard = telemetry_lock();
    let mut renderings = Vec::new();
    for batch in [1usize, 4, 16] {
        let report = run_with_cpd(&base_config().with_batch(batch));
        let cpd = report.cpd.expect("cpd enabled");
        renderings.push((
            batch,
            format!(
                "{:?} tracked={} points={}",
                cpd.change_points, cpd.series_tracked, cpd.points_ingested
            ),
        ));
    }
    let (b0, reference) = &renderings[0];
    for (batch, rendering) in &renderings[1..] {
        assert_eq!(
            rendering, reference,
            "cpd output diverged: batch={batch} vs batch={b0}"
        );
    }
}

#[test]
fn queue_stall_series_is_tracked_per_shard() {
    let _guard = telemetry_lock();
    let report = run_with_cpd(&base_config());
    let cpd = report.cpd.expect("cpd enabled");
    // Queue-stall series exist whether or not they shift; they are keyed
    // on the sentinel tenant and the home-shard index.
    assert!(
        cpd.change_points
            .iter()
            .all(|cp| cp.series.tenant != NO_TENANT || cp.series.region < 2),
        "fleet series must carry a valid shard index: {:?}",
        cpd.change_points
    );
}

#[test]
fn cpd_stays_off_unless_asked() {
    let _guard = telemetry_lock();
    let report = run_with_cpd(&base_config().with_cpd(false));
    assert!(report.cpd.is_none());
}
