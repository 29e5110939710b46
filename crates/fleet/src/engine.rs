//! The fleet engine: a fixed pool of shard workers behind bounded
//! ring queues, plus the lifecycle-command surface.
//!
//! The engine is transport + workers only; it does not run samplers.
//! Interval production (and therefore pacing, batching and admission
//! ordering) is the [`crate::driver`]'s job. Splitting the two keeps the
//! engine free of borrows into workload storage and makes every engine
//! operation available mid-run: tests and embedders can admit, pause,
//! evict, restart and snapshot tenants while intervals are in flight.
//!
//! # Routing
//!
//! A tenant's messages go to its home shard, [`TenantId::shard`]
//! (`id % shards`), for the tenant's whole life. One shard worker owns
//! each session, and per-shard FIFO order is per-tenant FIFO order.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use regmon_sampling::Interval;

use crate::queue::{QueuePolicy, RingQueue};
use crate::shard::{run_worker, AdmitMsg, ShardFinal, ShardMsg, ShardSnapshot};
use crate::tenant::{EvictReason, TenantId, TenantSpec};

/// Default shard queue depth, in messages, of `regmon fleet`,
/// `regmon serve` and `regmon_serve::ServeOptions`. Shallow on purpose:
/// when the shard keeps up, a deep queue only fills as far as thread
/// scheduling lets it, and peak memory follows that fill.
pub const DEFAULT_QUEUE_DEPTH: usize = 16;

/// Engine-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of shard workers (and queues).
    pub shards: usize,
    /// Bounded depth of each shard queue, in messages.
    pub queue_depth: usize,
    /// Backpressure policy applied to interval traffic.
    pub policy: QueuePolicy,
    /// Maximum intervals coalesced into one queue message (1 = the
    /// per-interval path).
    pub batch: usize,
}

impl EngineConfig {
    /// An engine with `shards` workers and the given queue depth,
    /// blocking on full queues, per-interval shipping.
    #[must_use]
    pub fn new(shards: usize, queue_depth: usize) -> Self {
        Self {
            shards,
            queue_depth,
            policy: QueuePolicy::Block,
            batch: 1,
        }
    }

    /// Replaces the backpressure policy.
    #[must_use]
    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the interval batching factor (clamped to at least 1).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

/// A running fleet: shard workers consuming from bounded ring queues.
#[derive(Debug)]
pub struct FleetEngine {
    config: EngineConfig,
    queues: Vec<Arc<RingQueue<ShardMsg>>>,
    workers: Vec<JoinHandle<ShardFinal>>,
    next_id: u32,
}

impl FleetEngine {
    /// Spawns the shard workers.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` or `queue_depth == 0`.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.shards > 0, "fleet needs at least one shard");
        let queues: Vec<_> = (0..config.shards)
            .map(|shard| Arc::new(RingQueue::new(config.queue_depth).with_label(shard as u64)))
            .collect();
        let workers = queues
            .iter()
            .enumerate()
            .map(|(shard, queue)| {
                let queue = Arc::clone(queue);
                std::thread::Builder::new()
                    .name(format!("regmon-fleet-shard-{shard}"))
                    .spawn(move || run_worker(shard, &queue))
                    .expect("spawn shard worker")
            })
            .collect();
        Self {
            config,
            queues,
            workers,
            next_id: 0,
        }
    }

    /// Engine configuration.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// Pushes a tenant-addressed message to the tenant's home shard.
    /// Returns `false` when the queue is closed.
    fn push_routed(&self, id: TenantId, msg: ShardMsg, policy: QueuePolicy) -> bool {
        self.queues[id.shard(self.config.shards)]
            .push(msg, policy)
            .is_ok()
    }

    fn control(&self, id: TenantId, msg: ShardMsg) {
        // Control messages always block (never dropped); a closed queue
        // here is a bug in shutdown ordering, so it panics loudly.
        assert!(
            self.push_routed(id, msg, QueuePolicy::Block),
            "shard queue closed while engine alive"
        );
    }

    /// Admits a tenant, assigning the next dense [`TenantId`]. The
    /// returned id also fixes the tenant's shard (`id % shards`).
    pub fn admit(&mut self, spec: &TenantSpec) -> TenantId {
        self.admit_inner(spec, None)
    }

    /// Admits a tenant whose session resumes from `snapshot` instead of
    /// starting fresh (live migration: the checkpoint travelled here
    /// over the wire). Continuing the identical interval stream from
    /// the checkpoint position yields byte-identical results to the
    /// uninterrupted session.
    pub fn admit_from_snapshot(
        &mut self,
        spec: &TenantSpec,
        snapshot: regmon::SessionSnapshot,
    ) -> TenantId {
        self.admit_inner(spec, Some(Box::new(snapshot)))
    }

    fn admit_inner(
        &mut self,
        spec: &TenantSpec,
        snapshot: Option<Box<regmon::SessionSnapshot>>,
    ) -> TenantId {
        let id = TenantId(self.next_id);
        self.next_id += 1;
        self.control(
            id,
            ShardMsg::Admit(Box::new(AdmitMsg {
                tenant: id,
                name: spec.name.clone(),
                config: spec.config.clone(),
                binary: spec.workload.shared_binary(),
                workload_name: spec.workload.name().to_string(),
                fault: spec.fault,
                throttle_us: spec.throttle_us,
                snapshot,
            })),
        );
        id
    }

    /// Freezes a tenant and returns its full session snapshot (live
    /// migration hand-off). The entry is retired from its shard: it no
    /// longer appears in shard finals, and later messages for the id
    /// are ignored. Per-shard FIFO order guarantees every interval
    /// offered before this call is folded into the snapshot. Returns
    /// `None` when the tenant is unknown or its session is gone
    /// (failed / evicted).
    #[must_use]
    pub fn checkpoint(&self, id: TenantId) -> Option<regmon::SessionSnapshot> {
        let (tx, rx) = sync_channel(1);
        self.control(id, ShardMsg::Checkpoint(id, tx));
        rx.recv().expect("shard worker gone").map(|boxed| *boxed)
    }

    /// Clones a consistent session snapshot of a live tenant without
    /// retiring it (the durable-serve checkpoint path). Per-shard FIFO
    /// order guarantees every interval offered before this call is
    /// folded into the snapshot, and the tenant keeps running — the
    /// peek never perturbs session state, so checkpointed and
    /// checkpoint-free runs stay byte-identical. Returns `None` when
    /// the tenant is unknown or its session is gone.
    #[must_use]
    pub fn peek_snapshot(&self, id: TenantId) -> Option<regmon::SessionSnapshot> {
        let (tx, rx) = sync_channel(1);
        self.control(id, ShardMsg::Peek(id, tx));
        rx.recv().expect("shard worker gone").map(|boxed| *boxed)
    }

    /// Ships a run of consecutive intervals (one or more) to the
    /// tenant's shard as one queue message under the engine's
    /// backpressure policy. Returns `false` when the batch was rejected
    /// because the queue is closed (shutdown race).
    pub fn offer_batch(&self, id: TenantId, intervals: Vec<Interval>) -> bool {
        intervals.is_empty()
            || self.push_routed(id, ShardMsg::Batch(id, intervals), self.config.policy)
    }

    /// Ships a batch with blocking semantics regardless of the engine
    /// policy (lossless lockstep transfer; the driver already applied
    /// the drop policy in its simulation buffers).
    pub(crate) fn send_batch_blocking(&self, id: TenantId, intervals: Vec<Interval>) -> bool {
        intervals.is_empty()
            || self.push_routed(id, ShardMsg::Batch(id, intervals), QueuePolicy::Block)
    }

    /// Pauses a tenant (its shard ignores further intervals until
    /// [`FleetEngine::resume`]).
    pub fn pause(&self, id: TenantId) {
        self.control(id, ShardMsg::Pause(id));
    }

    /// Resumes a paused tenant.
    pub fn resume(&self, id: TenantId) {
        self.control(id, ShardMsg::Resume(id));
    }

    /// Evicts a tenant; its session is retired and its summary frozen.
    pub fn evict(&self, id: TenantId, reason: EvictReason) {
        self.control(id, ShardMsg::Evict(id, reason));
    }

    /// Restarts a tenant with a fresh session (restart counter bumps,
    /// processed-interval counter resets).
    pub fn restart(&self, id: TenantId) {
        self.control(id, ShardMsg::Restart(id));
    }

    /// Marks a tenant's production as complete.
    pub fn finish(&self, id: TenantId) {
        self.control(id, ShardMsg::Finish(id));
    }

    /// Takes a consistent per-shard snapshot of every tenant, mid-run.
    /// Each shard snapshots atomically with respect to its own queue
    /// order (the snapshot request is itself a queued message).
    #[must_use]
    pub fn snapshot(&self) -> Vec<ShardSnapshot> {
        self.broadcast(ShardMsg::Snapshot)
            .into_iter()
            .map(|rx| rx.recv().expect("shard worker gone"))
            .collect()
    }

    /// Waits until every message queued so far on every shard has been
    /// fully processed (a barrier across the fleet).
    pub fn drain_barrier(&self) {
        self.drain_until(None);
    }

    /// [`FleetEngine::drain_barrier`] with a wall-clock bound: waits at
    /// most `deadline` (total, across all shards) for the barrier to
    /// clear. Returns `true` when every shard acknowledged in time and
    /// `false` on timeout — the barrier messages stay queued, so a
    /// later unbounded drain or shutdown still observes them, but the
    /// caller regains control instead of hanging behind a stuck shard.
    #[must_use]
    pub fn drain_barrier_timeout(&self, deadline: Duration) -> bool {
        self.drain_until(Some(deadline))
    }

    /// Queues a `Barrier` on every shard and waits for the
    /// acknowledgements, at most `deadline` in total when one is given.
    fn drain_until(&self, deadline: Option<Duration>) -> bool {
        let start = Instant::now();
        self.broadcast(ShardMsg::Barrier)
            .into_iter()
            .all(|rx| match deadline {
                None => {
                    rx.recv().expect("shard worker gone");
                    true
                }
                Some(d) => rx.recv_timeout(d.saturating_sub(start.elapsed())).is_ok(),
            })
    }

    /// Pushes one reply-channel message (built by `msg`) to every shard
    /// queue, in shard order, and returns the reply receivers.
    fn broadcast<R>(&self, msg: impl Fn(SyncSender<R>) -> ShardMsg) -> Vec<Receiver<R>> {
        self.queues
            .iter()
            .map(|queue| {
                let (tx, rx) = sync_channel(1);
                queue
                    .push(msg(tx), QueuePolicy::Block)
                    .expect("shard queue closed while engine alive");
                rx
            })
            .collect()
    }

    /// Parks shard `shard`'s worker deterministically: the returned
    /// guard holds the worker inside a queued `Hold` message until it
    /// is dropped (or [`ShardHold::release`]d). While held, nothing is
    /// popped from the shard's queue, so a producer *provably* outruns
    /// it — backpressure tests can force stalls and drops without
    /// wall-clock races. This call returns only after the worker has
    /// acknowledged the hold, i.e. everything queued before it has been
    /// fully processed (a barrier) and the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics when the shard queue is closed (engine shut down).
    #[must_use]
    pub fn hold_shard(&self, shard: usize) -> ShardHold {
        let (ack_tx, ack_rx) = sync_channel(1);
        let (gate_tx, gate_rx) = sync_channel::<()>(1);
        self.queues[shard]
            .push(ShardMsg::Hold(ack_tx, gate_rx), QueuePolicy::Block)
            .expect("shard queue closed while engine alive");
        ack_rx.recv().expect("shard worker gone");
        ShardHold { _gate: gate_tx }
    }

    /// Closes every queue, joins every worker and returns their final
    /// reports in shard order.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker itself panicked — which the quarantine
    /// design rules out for tenant pipeline failures; a worker panic is
    /// an engine bug.
    #[must_use]
    pub fn shutdown(self) -> Vec<ShardFinal> {
        for queue in &self.queues {
            queue.close();
        }
        self.workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked (engine bug)"))
            .collect()
    }
}

/// A deterministic worker park issued by [`FleetEngine::hold_shard`].
/// Dropping it releases the worker.
#[derive(Debug)]
pub struct ShardHold {
    _gate: SyncSender<()>,
}

impl ShardHold {
    /// Releases the held worker (equivalent to dropping the guard).
    pub fn release(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantState;
    use regmon::SessionConfig;
    use regmon_sampling::Sampler;
    use regmon_workload::suite;

    fn spec(max_intervals: usize) -> TenantSpec {
        let w = suite::by_name("172.mgrid").unwrap();
        TenantSpec::new("mgrid", w, SessionConfig::new(45_000), max_intervals)
    }

    #[test]
    fn admit_process_shutdown_roundtrip() {
        let mut engine = FleetEngine::new(EngineConfig::new(2, 8));
        let spec = spec(10);
        let a = engine.admit(&spec);
        let b = engine.admit(&spec);
        assert_eq!(a.shard(2), 0);
        assert_eq!(b.shard(2), 1);
        for interval in Sampler::new(&spec.workload, spec.config.sampling).take(10) {
            assert!(engine.offer_batch(a, vec![interval.clone()]));
            assert!(engine.offer_batch(b, vec![interval]));
        }
        engine.finish(a);
        engine.finish(b);
        let finals = engine.shutdown();
        assert_eq!(finals.len(), 2);
        let all: Vec<_> = finals.iter().flat_map(|f| &f.tenants).collect();
        assert_eq!(all.len(), 2);
        for t in all {
            assert_eq!(t.state, TenantState::Completed);
            assert_eq!(t.intervals_processed, 10);
            assert_eq!(t.summary.as_ref().unwrap().intervals, 10);
        }
    }

    #[test]
    fn snapshot_observes_mid_run_state() {
        let mut engine = FleetEngine::new(EngineConfig::new(1, 16));
        let spec = spec(6);
        let id = engine.admit(&spec);
        let intervals: Vec<_> = Sampler::new(&spec.workload, spec.config.sampling)
            .take(6)
            .collect();
        for interval in &intervals[..3] {
            assert!(engine.offer_batch(id, vec![interval.clone()]));
        }
        engine.drain_barrier();
        let snap = engine.snapshot();
        assert_eq!(snap[0].tenants[0].intervals_processed, 3);
        for interval in &intervals[3..] {
            assert!(engine.offer_batch(id, vec![interval.clone()]));
        }
        let finals = engine.shutdown();
        assert_eq!(finals[0].tenants[0].intervals_processed, 6);
    }

    #[test]
    fn pause_and_resume_gate_processing() {
        let mut engine = FleetEngine::new(EngineConfig::new(1, 16));
        let spec = spec(4);
        let id = engine.admit(&spec);
        let intervals: Vec<_> = Sampler::new(&spec.workload, spec.config.sampling)
            .take(4)
            .collect();
        engine.pause(id);
        assert!(engine.offer_batch(id, vec![intervals[0].clone()]));
        engine.resume(id);
        for interval in &intervals[1..] {
            assert!(engine.offer_batch(id, vec![interval.clone()]));
        }
        let finals = engine.shutdown();
        let t = &finals[0].tenants[0];
        assert_eq!(t.intervals_processed, 3, "paused interval must be ignored");
        assert_eq!(t.intervals_ignored, 1);
    }

    #[test]
    fn batch_message_equals_per_interval_messages() {
        let spec = spec(12);
        let intervals: Vec<_> = Sampler::new(&spec.workload, spec.config.sampling)
            .take(12)
            .collect();

        let mut per = FleetEngine::new(EngineConfig::new(1, 16));
        let a = per.admit(&spec);
        for interval in &intervals {
            assert!(per.offer_batch(a, vec![interval.clone()]));
        }
        per.finish(a);
        let per = per.shutdown();

        let mut batched = FleetEngine::new(EngineConfig::new(1, 16).with_batch(4));
        let b = batched.admit(&spec);
        for chunk in intervals.chunks(4) {
            assert!(batched.offer_batch(b, chunk.to_vec()));
        }
        batched.finish(b);
        let batched = batched.shutdown();

        let (pt, bt) = (&per[0].tenants[0], &batched[0].tenants[0]);
        assert_eq!(pt.intervals_processed, bt.intervals_processed);
        assert_eq!(
            format!("{:?}", pt.summary),
            format!("{:?}", bt.summary),
            "batched summary must be byte-identical"
        );
        // 12 intervals in 3 batch messages + admit + finish.
        assert_eq!(batched[0].messages_processed, 5);
        assert_eq!(per[0].messages_processed, 14);
    }

    /// The one way a session changes shards: check it out with
    /// `checkpoint` and admit the snapshot as a new tenant, whose id
    /// fixes its new shard. The continued stream must match a session
    /// that never moved.
    #[test]
    fn explicit_migration_moves_tenant_between_shards() {
        let spec = spec(8);
        let intervals: Vec<_> = Sampler::new(&spec.workload, spec.config.sampling)
            .take(8)
            .collect();
        let mut engine = FleetEngine::new(EngineConfig::new(2, 8));
        let id = engine.admit(&spec);
        assert_eq!(id.shard(2), 0);
        for interval in &intervals[..4] {
            assert!(engine.offer_batch(id, vec![interval.clone()]));
        }
        let snapshot = engine.checkpoint(id).expect("live session");
        let moved = engine.admit_from_snapshot(&spec, snapshot);
        assert_eq!(moved.shard(2), 1);
        // The retired id is ignored, not re-routed.
        assert!(engine.offer_batch(id, vec![intervals[4].clone()]));
        for interval in &intervals[4..] {
            assert!(engine.offer_batch(moved, vec![interval.clone()]));
        }
        engine.finish(moved);
        let finals = engine.shutdown();
        assert!(finals[0].tenants.is_empty(), "entry left the old shard");
        let t = &finals[1].tenants[0];
        assert_eq!(t.id, moved);
        assert_eq!(t.intervals_processed, 4, "the rest arrived after the move");
        assert_eq!(t.state, TenantState::Completed);

        let mut unmoved = FleetEngine::new(EngineConfig::new(1, 8));
        let u = unmoved.admit(&spec);
        for interval in &intervals {
            assert!(unmoved.offer_batch(u, vec![interval.clone()]));
        }
        unmoved.finish(u);
        let unmoved = unmoved.shutdown();
        assert_eq!(
            format!("{:?}", t.summary),
            format!("{:?}", unmoved[0].tenants[0].summary)
        );
    }
}
