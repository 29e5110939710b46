//! The fleet driver: owns the workloads and samplers, produces interval
//! traffic round-robin across tenants and applies lifecycle schedules.
//!
//! # Pacing and determinism
//!
//! Backpressure counters of a free-running producer/consumer pair are
//! inherently timing-dependent: whether a push finds the queue full
//! depends on how far the consumer got. The driver therefore offers two
//! pacing modes:
//!
//! - [`Pacing::Lockstep`] (default): production advances in rounds (one
//!   interval per running tenant per round). Per shard, the driver
//!   maintains a *local* bounded buffer with the configured depth and
//!   applies the queue policy to it deterministically: an overflow under
//!   [`QueuePolicy::Block`] counts one stall and clears the buffer (the
//!   logical equivalent of the producer waiting for the worker to catch
//!   up); an overflow under [`QueuePolicy::DropOldest`] evicts the
//!   buffer head and counts one drop — that interval is truly never
//!   delivered. All counters (stalls, drops, high-water) are thus pure
//!   functions of tenant placement, round sizes and queue depth: same
//!   inputs, same numbers, every run, every machine — and independent of
//!   the physical batching factor, because the simulation is keyed to
//!   each tenant's shard (`id % shards`), not to message boundaries.
//! - [`Pacing::Freerun`]: intervals are pushed straight into the shard
//!   queues and the *real* queue counters are reported. Results per
//!   tenant are still exact under `Block` (the queue is lossless FIFO);
//!   only the counters vary with scheduling. This is the mode for
//!   benchmarks and stress tests.
//!
//! # Interval batching
//!
//! With [`EngineConfig::batch`] `> 1` the driver coalesces a tenant's
//! intervals into [`ShardMsg::Batch`] messages of up to `batch`
//! intervals, amortizing one queue operation (and one worker
//! `catch_unwind` frame) over the whole run of intervals. Under
//! lockstep, intervals leave the deterministic simulation into a
//! per-tenant *staging* vector and ship whenever a full chunk is ready;
//! lifecycle edges (pause/evict/restart/finish/snapshot/end-of-run)
//! force-ship the remainder first, so per-tenant message order is
//! unchanged. Under freerun the driver pulls whole batches straight off
//! the sampler ([`Sampler::next_batch`]). In both modes the per-tenant
//! interval sequence — and therefore every summary and phase-change
//! sequence — is byte-identical to the `batch = 1` path.
//!
//! # Placement
//!
//! Every tenant lives on shard `id % shards` for the whole run; nothing
//! moves tenants between shards.
//!
//! In all modes, per-tenant interval order is preserved end-to-end, so
//! under `Block` every tenant's [`SessionSummary`] is byte-identical to
//! a standalone [`MonitoringSession::run_limited`] run — the fleet
//! equivalence tests assert exactly that, across shard counts, batch
//! sizes and queue policies.
//!
//! [`EngineConfig::batch`]: crate::EngineConfig::batch
//! [`ShardMsg::Batch`]: crate::shard::ShardMsg
//! [`MonitoringSession::run_limited`]: regmon::MonitoringSession::run_limited
//! [`SessionSummary`]: regmon::SessionSummary
//! [`Sampler::next_batch`]: regmon_sampling::Sampler::next_batch

use std::collections::VecDeque;
use std::time::Instant;

use regmon_sampling::{Interval, Sampler};
use regmon_telemetry as telemetry;
use regmon_telemetry::journal;

use crate::cpdfeed::CpdFeed;
use crate::engine::{EngineConfig, FleetEngine};
use crate::queue::QueuePolicy;
use crate::report::{FleetReport, FleetSnapshot, ShardReport, TenantReport};
use crate::tenant::{ColdTenantPolicy, EvictReason, TenantId, TenantSpec};

/// How the driver paces production against the shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Deterministic round-based production with driver-side
    /// backpressure accounting (see module docs).
    #[default]
    Lockstep,
    /// Free-running production against the live bounded queues.
    Freerun,
}

impl Pacing {
    /// Parses a CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns an error listing every accepted spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "lockstep" => Ok(Self::Lockstep),
            "freerun" | "free-run" | "free_run" => Ok(Self::Freerun),
            other => Err(format!(
                "unknown pacing {other:?}; expected one of: lockstep, freerun, free-run, free_run"
            )),
        }
    }
}

/// Full configuration of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Shard pool and queue parameters.
    pub engine: EngineConfig,
    /// Production pacing.
    pub pacing: Pacing,
    /// Optional cold-tenant eviction policy.
    pub cold_tenant: Option<ColdTenantPolicy>,
    /// Emit a telemetry exposition to stderr every N driver rounds
    /// (`None` = never). Exposition goes to stderr so `--json` stdout
    /// stays byte-identical.
    pub metrics_every: Option<usize>,
    /// Run the online change-point detector over the run's telemetry
    /// (requires lockstep pacing and enabled telemetry; see
    /// [`crate::CpdFeed`]). The detections land in
    /// [`FleetReport::cpd`].
    ///
    /// [`FleetReport::cpd`]: crate::FleetReport::cpd
    pub cpd: bool,
}

impl FleetConfig {
    /// A lockstep fleet with `shards` workers and `queue_depth` buffers.
    #[must_use]
    pub fn new(shards: usize, queue_depth: usize) -> Self {
        Self {
            engine: EngineConfig::new(shards, queue_depth),
            pacing: Pacing::Lockstep,
            cold_tenant: None,
            metrics_every: None,
            cpd: false,
        }
    }

    /// Replaces the backpressure policy.
    #[must_use]
    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.engine = self.engine.with_policy(policy);
        self
    }

    /// Switches pacing mode.
    #[must_use]
    pub fn with_pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Sets the interval batching factor (1 = per-interval shipping).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.engine = self.engine.with_batch(batch);
        self
    }

    /// Installs a cold-tenant eviction policy.
    #[must_use]
    pub fn with_cold_tenant(mut self, policy: ColdTenantPolicy) -> Self {
        self.cold_tenant = Some(policy);
        self
    }

    /// Emits a Prometheus exposition to stderr every `rounds` driver
    /// rounds (0 disables).
    #[must_use]
    pub fn with_metrics_every(mut self, rounds: usize) -> Self {
        self.metrics_every = (rounds > 0).then_some(rounds);
        self
    }

    /// Enables the online change-point detector.
    #[must_use]
    pub fn with_cpd(mut self, cpd: bool) -> Self {
        self.cpd = cpd;
        self
    }
}

/// One lifecycle command in a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Stop producing for (and processing of) a tenant.
    Pause(TenantId),
    /// Resume a paused tenant where it left off.
    Resume(TenantId),
    /// Remove a tenant from the fleet.
    Evict(TenantId),
    /// Give a tenant a fresh session and replay its workload from the
    /// start (works on running, completed, evicted and failed tenants).
    Restart(TenantId),
    /// Capture a fleet-wide snapshot into the report.
    Snapshot,
}

/// A deterministic lifecycle script: actions applied at the *start* of
/// given driver rounds (round 0 is before any interval is produced).
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    entries: Vec<(usize, ControlAction)>,
}

impl Schedule {
    /// The empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `action` at the start of `round` (builder style).
    #[must_use]
    pub fn at(mut self, round: usize, action: ControlAction) -> Self {
        self.entries.push((round, action));
        self
    }

    fn max_round(&self) -> Option<usize> {
        self.entries.iter().map(|(r, _)| *r).max()
    }

    fn at_round(&self, round: usize) -> impl Iterator<Item = ControlAction> + '_ {
        self.entries
            .iter()
            .filter(move |(r, _)| *r == round)
            .map(|(_, a)| *a)
    }
}

/// Driver-side view of one tenant.
struct DriverTenant<'a> {
    id: TenantId,
    spec: &'a TenantSpec,
    sampler: Sampler<'a>,
    /// Intervals produced since (re)start.
    produced: usize,
    cold_streak: usize,
    producing: bool,
    paused: bool,
}

impl<'a> DriverTenant<'a> {
    fn new(id: TenantId, spec: &'a TenantSpec) -> Self {
        Self {
            id,
            spec,
            sampler: Sampler::new(&spec.workload, spec.config.sampling),
            produced: 0,
            cold_streak: 0,
            producing: true,
            paused: false,
        }
    }

    fn restart(&mut self) {
        self.sampler = Sampler::new(&self.spec.workload, self.spec.config.sampling);
        self.produced = 0;
        self.cold_streak = 0;
        self.producing = true;
        self.paused = false;
    }

    fn active(&self) -> bool {
        self.producing && !self.paused
    }

    /// Advances the cold-streak accounting for one produced interval and
    /// reports whether the policy fires on it.
    fn cold_step(&mut self, interval: &Interval, policy: Option<ColdTenantPolicy>) -> bool {
        policy.is_some_and(|ColdTenantPolicy(p)| {
            if (interval.samples.len() as u64) < p.min_samples {
                self.cold_streak += 1;
            } else {
                self.cold_streak = 0;
            }
            self.cold_streak >= p.cold_intervals
        })
    }
}

/// Deterministic per-shard backpressure accounting for lockstep pacing.
#[derive(Debug, Clone, Copy, Default)]
struct SimCounters {
    stalls: usize,
    drops: usize,
    high_water: usize,
}

/// Lockstep state: the deterministic per-home-shard queue simulation
/// plus the per-tenant physical staging vectors that decouple *what the
/// counters say* (pure simulation, batching-independent) from *how
/// intervals ship* (coalesced batch messages).
struct Lockstep {
    depth: usize,
    batch: usize,
    buffers: Vec<VecDeque<(TenantId, Interval)>>,
    sim: Vec<SimCounters>,
    /// Per-tenant intervals that survived the simulation and await
    /// physical shipment (indexed by dense tenant id).
    pending: Vec<Vec<Interval>>,
}

impl Lockstep {
    fn new(shards: usize, depth: usize, batch: usize, tenants: usize) -> Self {
        Self {
            depth,
            batch: batch.max(1),
            buffers: (0..shards)
                .map(|_| VecDeque::with_capacity(depth))
                .collect(),
            sim: vec![SimCounters::default(); shards],
            pending: vec![Vec::new(); tenants],
        }
    }

    /// The PR 1 simulation step, verbatim: overflow under `Block` counts
    /// one stall and empties the buffer (into staging — physical
    /// shipping is decoupled); overflow under `DropOldest` evicts the
    /// buffer head, which is then truly never delivered.
    fn push(&mut self, id: TenantId, interval: Interval, policy: QueuePolicy, shards: usize) {
        let shard = id.shard(shards);
        if self.buffers[shard].len() >= self.depth {
            match policy {
                QueuePolicy::Block => {
                    self.sim[shard].stalls = self.sim[shard].stalls.saturating_add(1);
                    journal::record(journal::EventKind::Backpressure {
                        shard: shard as u64,
                        units: 1,
                    });
                    self.stage(shard);
                }
                QueuePolicy::DropOldest => {
                    self.buffers[shard].pop_front();
                    self.sim[shard].drops = self.sim[shard].drops.saturating_add(1);
                    journal::record(journal::EventKind::Backpressure {
                        shard: shard as u64,
                        units: 1,
                    });
                }
            }
        }
        self.buffers[shard].push_back((id, interval));
        self.sim[shard].high_water = self.sim[shard].high_water.max(self.buffers[shard].len());
    }

    /// Moves a home shard's simulated buffer into per-tenant staging
    /// (FIFO order preserved per tenant).
    fn stage(&mut self, shard: usize) {
        while let Some((id, interval)) = self.buffers[shard].pop_front() {
            self.pending[id.0 as usize].push(interval);
        }
    }

    /// Ships every *full* chunk staged for tenant `t`.
    fn ship_ready(&mut self, engine: &FleetEngine, t: TenantId) {
        let p = &mut self.pending[t.0 as usize];
        while p.len() >= self.batch {
            let chunk: Vec<Interval> = p.drain(..self.batch).collect();
            let _ = engine.send_batch_blocking(t, chunk);
        }
    }

    /// Force-ships everything staged for tenant `t` (lifecycle edges:
    /// the next message for `t` must be FIFO-ordered after its
    /// intervals).
    fn ship_all(&mut self, engine: &FleetEngine, t: TenantId) {
        let p = &mut self.pending[t.0 as usize];
        while !p.is_empty() {
            let n = p.len().min(self.batch);
            let chunk: Vec<Interval> = p.drain(..n).collect();
            let _ = engine.send_batch_blocking(t, chunk);
        }
    }

    /// Force-ships every tenant's staging (snapshot / end of run).
    fn ship_everything(&mut self, engine: &FleetEngine) {
        for i in 0..self.pending.len() {
            self.ship_all(engine, TenantId(i as u32));
        }
    }
}

/// Runs a whole fleet to completion and reports.
///
/// Tenants are admitted in spec order, receiving dense ids `0..n`; a
/// tenant's home shard is `id % shards`. The run ends when no tenant is
/// producing and the schedule has no future entries.
///
/// # Panics
///
/// Panics on an invalid configuration (zero shards / queue depth) or if
/// a shard worker dies, which the quarantine design rules out for
/// tenant-level failures.
#[must_use]
pub fn run_fleet(config: &FleetConfig, specs: &[TenantSpec], schedule: &Schedule) -> FleetReport {
    let start = Instant::now();
    let shards = config.engine.shards;
    let lockstep = config.pacing == Pacing::Lockstep;
    // Virtual clock: journal timestamps are the deterministic round
    // index in lockstep, wall-clock only in freerun, so enabling
    // telemetry cannot perturb `fleet --json`.
    telemetry::clock::set_mode(if lockstep {
        telemetry::clock::ClockMode::Lockstep
    } else {
        telemetry::clock::ClockMode::Freerun
    });
    telemetry::metrics::FLEET_TENANTS.set(specs.len() as i64);
    let batch = config.engine.batch.max(1);
    let mut engine = FleetEngine::new(config.engine);
    let mut tenants: Vec<DriverTenant> = specs
        .iter()
        .map(|spec| DriverTenant::new(engine.admit(spec), spec))
        .collect();

    let mut ls =
        lockstep.then(|| Lockstep::new(shards, config.engine.queue_depth, batch, tenants.len()));
    // Change-point detection needs the deterministic round/interval
    // axes only lockstep provides; under freerun the flag is ignored.
    let mut feed = (config.cpd && lockstep).then(|| CpdFeed::new(shards));
    let mut snapshots: Vec<FleetSnapshot> = Vec::new();
    let max_sched_round = schedule.max_round();

    let mut round = 0usize;
    loop {
        if lockstep {
            telemetry::clock::set_tick(round as u64);
        }
        // --- lifecycle actions scheduled for this round ----------------
        // (Simulated buffers are empty here: every round ends staged.)
        for action in schedule.at_round(round) {
            apply_action(
                action,
                &mut tenants,
                &engine,
                ls.as_mut(),
                round,
                &mut snapshots,
            );
        }

        // --- produce for every active tenant ---------------------------
        let mut produced_any = false;
        if let Some(ls) = ls.as_mut() {
            // Lockstep: one interval per tenant per round through the
            // deterministic simulation, exactly as the per-interval
            // engine did it.
            for tenant in &mut tenants {
                if !tenant.active() {
                    continue;
                }
                let Some(mut interval) = tenant.sampler.next() else {
                    complete_tenant(tenant, &engine, Some(ls));
                    continue;
                };
                if tenant
                    .spec
                    .degrade_from
                    .is_some_and(|n| interval.index >= n)
                {
                    degrade_interval(&mut interval);
                }
                produced_any = true;
                tenant.produced = tenant.produced.saturating_add(1);
                let cold_fire = tenant.cold_step(&interval, config.cold_tenant);
                let id = tenant.id;
                ls.push(id, interval, config.engine.policy, shards);

                if cold_fire {
                    ls.stage(id.shard(shards));
                    ls.ship_all(&engine, id);
                    engine.evict(id, EvictReason::Cold);
                    tenant.producing = false;
                } else if tenant.produced >= tenant.spec.max_intervals {
                    complete_tenant(tenant, &engine, Some(ls));
                }
            }

            // --- end-of-round: stage the simulation, ship full chunks --
            for shard in 0..shards {
                ls.stage(shard);
            }
            for i in 0..tenants.len() {
                ls.ship_ready(&engine, TenantId(i as u32));
            }
        } else {
            // Freerun: pull whole batches straight off the sampler and
            // ship them against the live queues.
            for tenant in &mut tenants {
                if !tenant.active() {
                    continue;
                }
                let want = batch
                    .min(tenant.spec.max_intervals.saturating_sub(tenant.produced))
                    .max(1);
                let mut intervals = tenant.sampler.next_batch(want);
                if intervals.is_empty() {
                    complete_tenant(tenant, &engine, None);
                    continue;
                }
                if let Some(n) = tenant.spec.degrade_from {
                    for interval in intervals.iter_mut().filter(|i| i.index >= n) {
                        degrade_interval(interval);
                    }
                }
                produced_any = true;
                let mut cold_fire = false;
                let mut keep = intervals.len();
                for (k, interval) in intervals.iter().enumerate() {
                    if tenant.cold_step(interval, config.cold_tenant) {
                        cold_fire = true;
                        keep = k + 1;
                        break;
                    }
                }
                intervals.truncate(keep);
                tenant.produced = tenant.produced.saturating_add(intervals.len());
                let id = tenant.id;
                let _ = engine.offer_batch(id, intervals);
                if cold_fire {
                    engine.evict(id, EvictReason::Cold);
                    tenant.producing = false;
                } else if tenant.produced >= tenant.spec.max_intervals {
                    complete_tenant(tenant, &engine, None);
                }
            }
        }

        // --- change-point feed: catch the workers up, drain, detect ----
        if let Some(feed) = feed.as_mut() {
            engine.drain_barrier();
            let queue_totals: Vec<u64> = ls
                .as_ref()
                .map(|ls| ls.sim.iter().map(|s| (s.stalls + s.drops) as u64).collect())
                .unwrap_or_default();
            feed.end_round(round as u64, &queue_totals);
        }

        if telemetry::enabled() {
            if let Some(every) = config.metrics_every {
                if round % every == 0 {
                    eprint!("{}", telemetry::expo::prometheus_text());
                }
            }
        }

        let future_actions = max_sched_round.is_some_and(|m| m > round);
        if !produced_any && !future_actions {
            break;
        }
        round += 1;
    }

    // --- ship stragglers (paused tenants' staging), then shut down -----
    if let Some(ls) = ls.as_mut() {
        ls.ship_everything(&engine);
    }
    let finals = engine.shutdown();
    // Workers are gone: the final drain below sees every event.
    let cpd = feed.map(CpdFeed::finish);

    let mut tenant_reports: Vec<TenantReport> = Vec::with_capacity(tenants.len());
    for f in &finals {
        for snap in &f.tenants {
            let driver = tenants
                .iter()
                .find(|t| t.id == snap.id)
                .expect("worker reported unknown tenant");
            tenant_reports.push(TenantReport {
                id: snap.id,
                name: snap.name.clone(),
                workload: driver.spec.workload.name().to_string(),
                shard: f.shard,
                state: snap.state.clone(),
                intervals_produced: driver.produced,
                intervals_processed: snap.intervals_processed,
                intervals_ignored: snap.intervals_ignored,
                restarts: snap.restarts,
                summary: snap.summary.clone(),
                error: snap.error.clone(),
            });
        }
    }
    tenant_reports.sort_by_key(|t| t.id);

    let shard_reports: Vec<ShardReport> = finals
        .iter()
        .map(|f| {
            let (stalls, drops, high_water) = match &ls {
                Some(ls) => {
                    let s = ls.sim[f.shard];
                    (s.stalls, s.drops, s.high_water)
                }
                None => (f.queue.stalls, f.queue.dropped, f.queue.high_water),
            };
            ShardReport {
                shard: f.shard,
                tenants: f.tenants.len(),
                messages_processed: f.messages_processed,
                backpressure_stalls: stalls,
                dropped_intervals: drops,
                queue_high_water: high_water,
                batch_sizes: f.queue.batch_sizes,
            }
        })
        .collect();

    let aggregate = FleetReport::aggregate_from(&tenant_reports, &shard_reports);
    FleetReport {
        tenants: tenant_reports,
        shards: shard_reports,
        aggregate,
        snapshots,
        cpd,
        wall_ms: start.elapsed().as_millis(),
    }
}

/// Applies the planted regression: shifts every sample PC far outside
/// the synthetic binary's address space, so region formation stops
/// attributing samples and the tenant's UCR steps up. Deterministic and
/// reversible only by re-running without the flag.
fn degrade_interval(interval: &mut Interval) {
    const DEGRADE_BIT: u64 = 1 << 40;
    for s in &mut interval.samples {
        s.addr = regmon_binary::Addr::new(s.addr.get() | DEGRADE_BIT);
    }
}

/// Marks a tenant complete, ordering the Finish after its staged
/// intervals.
fn complete_tenant(tenant: &mut DriverTenant<'_>, engine: &FleetEngine, ls: Option<&mut Lockstep>) {
    if let Some(ls) = ls {
        ls.stage(tenant.id.shard(engine.shards()));
        ls.ship_all(engine, tenant.id);
    }
    engine.finish(tenant.id);
    tenant.producing = false;
}

/// Applies one schedule action (round start; simulated buffers are
/// empty, but a tenant may have staged intervals that must ship before
/// its control message).
fn apply_action(
    action: ControlAction,
    tenants: &mut [DriverTenant<'_>],
    engine: &FleetEngine,
    mut ls: Option<&mut Lockstep>,
    round: usize,
    snapshots: &mut Vec<FleetSnapshot>,
) {
    match action {
        ControlAction::Pause(id) => {
            if let Some(t) = tenants.iter_mut().find(|t| t.id == id) {
                if let Some(ls) = ls.as_deref_mut() {
                    ls.ship_all(engine, id);
                }
                engine.pause(id);
                t.paused = true;
            }
        }
        ControlAction::Resume(id) => {
            if let Some(t) = tenants.iter_mut().find(|t| t.id == id) {
                engine.resume(id);
                t.paused = false;
            }
        }
        ControlAction::Evict(id) => {
            if let Some(t) = tenants.iter_mut().find(|t| t.id == id) {
                if let Some(ls) = ls.as_deref_mut() {
                    ls.ship_all(engine, id);
                }
                engine.evict(id, EvictReason::Requested);
                t.producing = false;
            }
        }
        ControlAction::Restart(id) => {
            if let Some(t) = tenants.iter_mut().find(|t| t.id == id) {
                if let Some(ls) = ls.as_deref_mut() {
                    ls.ship_all(engine, id);
                }
                engine.restart(id);
                t.restart();
            }
        }
        ControlAction::Snapshot => {
            if let Some(ls) = ls {
                ls.ship_everything(engine);
                engine.drain_barrier();
            }
            snapshots.push(FleetSnapshot {
                round,
                shards: engine.snapshot(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantState;
    use regmon::SessionConfig;
    use regmon_workload::suite;

    fn specs(n: usize, intervals: usize) -> Vec<TenantSpec> {
        let names = suite::names();
        (0..n)
            .map(|i| {
                let name = names[i % names.len()];
                TenantSpec::new(
                    format!("{name}#{i}"),
                    suite::by_name(name).unwrap(),
                    SessionConfig::new(45_000),
                    intervals,
                )
            })
            .collect()
    }

    #[test]
    fn lockstep_counters_are_reproducible() {
        let config = FleetConfig::new(3, 4);
        let a = run_fleet(&config, &specs(9, 12), &Schedule::new());
        let b = run_fleet(&config, &specs(9, 12), &Schedule::new());
        assert_eq!(a.tenants.len(), 9);
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.backpressure_stalls, y.backpressure_stalls);
            assert_eq!(x.dropped_intervals, y.dropped_intervals);
            assert_eq!(x.queue_high_water, y.queue_high_water);
            assert_eq!(x.messages_processed, y.messages_processed);
            assert_eq!(x.batch_sizes, y.batch_sizes);
        }
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(
                format!("{:?}", x.summary),
                format!("{:?}", y.summary),
                "tenant {} summaries diverged",
                x.id
            );
        }
    }

    #[test]
    fn block_lockstep_stalls_when_round_exceeds_depth() {
        // 6 tenants on 1 shard with depth 4: every round overflows once.
        let config = FleetConfig::new(1, 4);
        let report = run_fleet(&config, &specs(6, 5), &Schedule::new());
        assert!(report.shards[0].backpressure_stalls > 0);
        assert_eq!(report.aggregate.dropped_intervals, 0);
        assert_eq!(report.aggregate.completed, 6);
        // Lossless: everything produced was processed.
        assert_eq!(
            report.aggregate.intervals_produced,
            report.aggregate.intervals_processed
        );
    }

    #[test]
    fn drop_oldest_lockstep_drops_deterministically() {
        let config = FleetConfig::new(1, 4).with_policy(QueuePolicy::DropOldest);
        let a = run_fleet(&config, &specs(6, 5), &Schedule::new());
        let b = run_fleet(&config, &specs(6, 5), &Schedule::new());
        assert!(a.shards[0].dropped_intervals > 0);
        assert_eq!(a.shards[0].dropped_intervals, b.shards[0].dropped_intervals);
        assert_eq!(a.shards[0].backpressure_stalls, 0);
        assert!(a.aggregate.intervals_processed < a.aggregate.intervals_produced);
    }

    #[test]
    fn schedule_pause_resume_completes() {
        let config = FleetConfig::new(2, 8);
        let schedule = Schedule::new()
            .at(2, ControlAction::Pause(TenantId(0)))
            .at(5, ControlAction::Resume(TenantId(0)))
            .at(3, ControlAction::Snapshot);
        let report = run_fleet(&config, &specs(4, 8), &schedule);
        assert_eq!(report.aggregate.completed, 4);
        assert_eq!(report.snapshots.len(), 1);
        assert_eq!(report.snapshots[0].round, 3);
        let t0 = report.tenant(TenantId(0)).unwrap();
        assert_eq!(t0.intervals_processed, 8, "paused tenant must finish");
    }

    #[test]
    fn cold_tenant_policy_evicts() {
        // An absurd sample floor makes every interval cold: tenants are
        // evicted after exactly `cold_intervals` intervals.
        let config = FleetConfig::new(2, 8).with_cold_tenant(ColdTenantPolicy::new(3, u64::MAX));
        let report = run_fleet(&config, &specs(4, 20), &Schedule::new());
        assert_eq!(report.aggregate.evicted, 4);
        for t in &report.tenants {
            assert_eq!(t.state, TenantState::Evicted(EvictReason::Cold));
            assert_eq!(t.intervals_produced, 3);
        }
    }

    #[test]
    fn batching_preserves_lockstep_counters_and_summaries() {
        let baseline = run_fleet(&FleetConfig::new(3, 4), &specs(9, 12), &Schedule::new());
        for batch in [2usize, 4, 32] {
            let batched = run_fleet(
                &FleetConfig::new(3, 4).with_batch(batch),
                &specs(9, 12),
                &Schedule::new(),
            );
            for (x, y) in baseline.shards.iter().zip(&batched.shards) {
                assert_eq!(
                    x.backpressure_stalls, y.backpressure_stalls,
                    "batch {batch}"
                );
                assert_eq!(x.dropped_intervals, y.dropped_intervals, "batch {batch}");
                assert_eq!(x.queue_high_water, y.queue_high_water, "batch {batch}");
            }
            for (x, y) in baseline.tenants.iter().zip(&batched.tenants) {
                assert_eq!(
                    format!("{:?}", x.summary),
                    format!("{:?}", y.summary),
                    "tenant {} diverged at batch {batch}",
                    x.id
                );
            }
            // Batching must actually coalesce queue traffic.
            let msgs =
                |r: &FleetReport| r.shards.iter().map(|s| s.messages_processed).sum::<usize>();
            assert!(
                msgs(&batched) < msgs(&baseline),
                "batch {batch} did not reduce message count"
            );
        }
    }
}
