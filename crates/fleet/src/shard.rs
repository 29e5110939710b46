//! Shard workers: each owns the [`MonitoringSession`]s of the tenants
//! homed on it (`id % shards`) and drains its bounded queue until
//! shutdown.
//!
//! A worker is a plain consumer loop. All tenant mutation happens here,
//! single-threaded per shard, so sessions need no internal locking — the
//! fleet scales by adding shards, not by locking sessions.
//!
//! **Interval batching:** the driver may coalesce a tenant's intervals
//! into one [`ShardMsg::Batch`], amortizing one queue operation, one
//! tenant-table lookup and one `catch_unwind` frame over the whole
//! batch. Processing remains per-interval inside the session, so
//! summaries and phase-change sequences are byte-identical to the
//! per-interval path (including the ignored/processed accounting when a
//! batch straddles a panic).
//!
//! **Panic quarantine:** every per-interval pipeline step runs under
//! `catch_unwind`. A panicking tenant transitions to
//! [`TenantState::Failed`] and its session is discarded; the worker, its
//! queue and every co-resident tenant continue untouched. Nothing
//! propagates across tenants or shards.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

use regmon::{MonitoringSession, SessionConfig, SessionSummary};
use regmon_binary::Binary;
use regmon_sampling::Interval;
use regmon_telemetry::{journal, metrics};

use crate::queue::{Droppable, QueueStats, RingQueue};
use crate::tenant::{EvictReason, FaultPlan, TenantId, TenantState};

/// One message on a shard queue.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// Registers a tenant on this shard.
    Admit(Box<AdmitMsg>),
    /// A run of consecutive intervals (one or more) for a tenant.
    Batch(TenantId, Vec<Interval>),
    /// Stops processing for a tenant (resumable).
    Pause(TenantId),
    /// Resumes a paused tenant.
    Resume(TenantId),
    /// Removes a tenant (session retired; summary retained).
    Evict(TenantId, EvictReason),
    /// Discards the tenant's session and starts a fresh one.
    Restart(TenantId),
    /// The tenant produced its last interval.
    Finish(TenantId),
    /// Requests a consistent snapshot of this shard's tenants.
    Snapshot(SyncSender<ShardSnapshot>),
    /// Freezes one tenant and hands its full session snapshot to the
    /// sender (live migration): the entry is retired from this shard
    /// and the tenant resumes wherever the snapshot is re-admitted.
    /// Answers `None` when the tenant is unknown here or its session
    /// is already gone (finished tenants still carry a live session
    /// and *can* be checked out).
    Checkpoint(TenantId, SyncSender<Option<Box<regmon::SessionSnapshot>>>),
    /// Non-retiring sibling of `Checkpoint`: clones a consistent session
    /// snapshot while the tenant keeps running on this shard (durable
    /// serve uses it for periodic crash-recovery checkpoints). FIFO
    /// queue order guarantees every batch pushed before the peek is
    /// already folded in. Answers `None` when the tenant is unknown or
    /// its session is gone.
    Peek(TenantId, SyncSender<Option<Box<regmon::SessionSnapshot>>>),
    /// Lockstep pacing: acknowledge that every earlier message has been
    /// fully processed.
    Barrier(SyncSender<()>),
    /// Test instrumentation: acknowledge on the sender, then park until
    /// the receiver's far end hangs up. While parked the worker pops
    /// nothing, so producers deterministically outrun the queue —
    /// backpressure tests need no wall-clock races.
    Hold(SyncSender<()>, Receiver<()>),
}

/// Payload of [`ShardMsg::Admit`] (boxed: it is much larger than the
/// other variants).
#[derive(Debug)]
pub(crate) struct AdmitMsg {
    pub tenant: TenantId,
    pub name: String,
    pub config: SessionConfig,
    pub binary: Arc<Binary>,
    pub workload_name: String,
    pub fault: Option<FaultPlan>,
    pub throttle_us: u64,
    /// Resume from this checkpoint instead of a fresh session (live
    /// migration hand-off). The continued stream is byte-identical to
    /// an uninterrupted session.
    pub snapshot: Option<Box<regmon::SessionSnapshot>>,
}

impl Droppable for ShardMsg {
    fn droppable(&self) -> bool {
        // Only interval payloads may be sacrificed under DropOldest;
        // losing a control message would corrupt lifecycle state.
        matches!(self, ShardMsg::Batch(..))
    }

    fn units(&self) -> Option<usize> {
        match self {
            ShardMsg::Batch(_, intervals) => Some(intervals.len()),
            _ => None,
        }
    }
}

/// Point-in-time view of one tenant, as seen by its shard.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// The tenant.
    pub id: TenantId,
    /// Its display name.
    pub name: String,
    /// Lifecycle state at snapshot time.
    pub state: TenantState,
    /// Intervals fully processed by the pipeline (post-restart count).
    pub intervals_processed: usize,
    /// Intervals ignored (arrived while paused/evicted/failed).
    pub intervals_ignored: usize,
    /// Times the tenant was restarted with a fresh session.
    pub restarts: usize,
    /// The session summary (live sessions are summarized on demand;
    /// `None` only for a failed tenant whose session was discarded).
    pub summary: Option<SessionSummary>,
    /// Panic message for failed tenants.
    pub error: Option<String>,
}

/// Point-in-time view of one shard.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Every tenant currently owned by this shard, in id order.
    pub tenants: Vec<TenantSnapshot>,
    /// Messages processed so far.
    pub messages_processed: usize,
}

/// Final report of a shard worker, produced at shutdown.
#[derive(Debug, Clone)]
pub struct ShardFinal {
    /// Shard index.
    pub shard: usize,
    /// Final tenant snapshots, in id order.
    pub tenants: Vec<TenantSnapshot>,
    /// Messages processed over the shard's lifetime.
    pub messages_processed: usize,
    /// Queue backpressure counters. Under lockstep pacing the
    /// stall/drop/high-water numbers are superseded by the driver's
    /// deterministic accounting, but the batch-size histogram is
    /// deterministic in both pacings.
    pub queue: QueueStats,
}

/// Per-tenant state owned by a worker.
#[derive(Debug)]
struct TenantEntry {
    name: String,
    workload_name: String,
    config: SessionConfig,
    binary: Arc<Binary>,
    fault: Option<FaultPlan>,
    throttle_us: u64,
    state: TenantState,
    session: Option<MonitoringSession>,
    /// Summary frozen at eviction time (session retired).
    frozen_summary: Option<SessionSummary>,
    intervals_processed: usize,
    intervals_ignored: usize,
    restarts: usize,
}

impl TenantEntry {
    fn fresh_session(&self) -> MonitoringSession {
        let mut session = MonitoringSession::new(self.config.clone());
        session.attach_binary_image(Arc::clone(&self.binary));
        session
    }

    fn snapshot(&self, id: TenantId) -> TenantSnapshot {
        let summary = match (&self.session, &self.frozen_summary) {
            (Some(s), _) => Some(s.summary(&self.workload_name)),
            (None, Some(frozen)) => Some(frozen.clone()),
            (None, None) => None,
        };
        TenantSnapshot {
            id,
            name: self.name.clone(),
            state: self.state.clone(),
            intervals_processed: self.intervals_processed,
            intervals_ignored: self.intervals_ignored,
            restarts: self.restarts,
            summary,
            error: match &self.state {
                TenantState::Failed(msg) => Some(msg.clone()),
                _ => None,
            },
        }
    }
}

/// The mutable state of one shard worker.
struct Worker {
    shard: usize,
    tenants: BTreeMap<TenantId, TenantEntry>,
    messages: usize,
}

/// The worker loop for shard `shard`. Runs until the queue is closed and
/// drained, then reports its final state.
pub(crate) fn run_worker(shard: usize, queue: &RingQueue<ShardMsg>) -> ShardFinal {
    let mut w = Worker {
        shard,
        tenants: BTreeMap::new(),
        messages: 0,
    };
    while let Some(msg) = queue.pop() {
        // Barriers are engine-internal sync points, not workload
        // messages — counting them would make `messages_processed`
        // depend on who drained (snapshots, the change-point feed).
        if !matches!(msg, ShardMsg::Barrier(_)) {
            w.messages = w.messages.saturating_add(1);
        }
        w.dispatch(msg);
    }

    ShardFinal {
        shard,
        tenants: w.tenants.iter().map(|(id, e)| e.snapshot(*id)).collect(),
        messages_processed: w.messages,
        queue: queue.stats(),
    }
}

impl Worker {
    /// Handles one message. Tenant-addressed messages for a tenant this
    /// shard no longer holds (checked out by [`ShardMsg::Checkpoint`])
    /// are ignored.
    fn dispatch(&mut self, msg: ShardMsg) {
        if routed_tenant(&msg).is_some_and(|t| !self.tenants.contains_key(&t)) {
            return;
        }
        match msg {
            ShardMsg::Admit(admit) => {
                let snapshot = admit.snapshot;
                let mut entry = TenantEntry {
                    name: admit.name,
                    workload_name: admit.workload_name,
                    config: admit.config,
                    binary: admit.binary,
                    fault: admit.fault,
                    throttle_us: admit.throttle_us,
                    state: TenantState::Running,
                    session: None,
                    frozen_summary: None,
                    intervals_processed: 0,
                    intervals_ignored: 0,
                    restarts: 0,
                };
                entry.session = Some(match snapshot {
                    Some(snap) => {
                        let mut session = MonitoringSession::from_snapshot(*snap);
                        session.attach_binary_image(Arc::clone(&entry.binary));
                        session
                    }
                    None => entry.fresh_session(),
                });
                self.tenants.insert(admit.tenant, entry);
            }
            ShardMsg::Batch(id, intervals) => {
                let entry = self.tenants.get_mut(&id).expect("routed tenant present");
                journal::set_tenant(u64::from(id.0));
                process_batch(entry, &intervals);
                journal::set_tenant(0);
            }
            ShardMsg::Pause(id) => {
                let entry = self.tenants.get_mut(&id).expect("routed tenant present");
                if entry.state == TenantState::Running {
                    entry.state = TenantState::Paused;
                }
            }
            ShardMsg::Resume(id) => {
                let entry = self.tenants.get_mut(&id).expect("routed tenant present");
                if entry.state == TenantState::Paused {
                    entry.state = TenantState::Running;
                }
            }
            ShardMsg::Evict(id, reason) => {
                let entry = self.tenants.get_mut(&id).expect("routed tenant present");
                // A failed tenant stays failed (its error matters more
                // than the eviction); everyone else retires cleanly.
                if !matches!(entry.state, TenantState::Failed(_)) {
                    if let Some(session) = entry.session.take() {
                        entry.frozen_summary = Some(session.summary(&entry.workload_name));
                    }
                    entry.state = TenantState::Evicted(reason);
                }
            }
            ShardMsg::Restart(id) => {
                let entry = self.tenants.get_mut(&id).expect("routed tenant present");
                entry.session = Some(entry.fresh_session());
                entry.frozen_summary = None;
                entry.state = TenantState::Running;
                entry.intervals_processed = 0;
                entry.restarts += 1;
            }
            ShardMsg::Finish(id) => {
                let entry = self.tenants.get_mut(&id).expect("routed tenant present");
                if matches!(entry.state, TenantState::Running | TenantState::Paused) {
                    entry.state = TenantState::Completed;
                }
            }
            ShardMsg::Snapshot(reply) => {
                let snap = ShardSnapshot {
                    shard: self.shard,
                    tenants: self.tenants.iter().map(|(id, e)| e.snapshot(*id)).collect(),
                    messages_processed: self.messages,
                };
                // The driver may have given up waiting; ignore send errors.
                let _ = reply.send(snap);
            }
            ShardMsg::Checkpoint(id, reply) => {
                // Freeze-and-retire: the session leaves this fleet with
                // the snapshot; the entry is gone from the final report
                // (the adopting server reports the tenant instead).
                // FIFO queue order guarantees every batch pushed before
                // the checkpoint request is already folded in.
                let packet = match self.tenants.get(&id) {
                    Some(entry) if entry.session.is_some() => {
                        let mut entry = self.tenants.remove(&id).expect("present");
                        let session = entry.session.take().expect("session checked");
                        Some(Box::new(session.snapshot()))
                    }
                    _ => None,
                };
                let _ = reply.send(packet);
            }
            ShardMsg::Peek(id, reply) => {
                // Same consistency argument as `Checkpoint`, but the
                // entry stays live: the snapshot is a pure read.
                let packet = self
                    .tenants
                    .get(&id)
                    .and_then(|entry| entry.session.as_ref())
                    .map(|session| Box::new(session.snapshot()));
                let _ = reply.send(packet);
            }
            ShardMsg::Barrier(reply) => {
                let _ = reply.send(());
            }
            ShardMsg::Hold(ack, gate) => {
                let _ = ack.send(());
                // Parked until the holder drops its sender (or sends).
                let _ = gate.recv();
            }
        }
    }
}

/// The tenant a message looks up in the shard's table. `Admit`
/// installs its own entry, `Checkpoint` and `Peek` answer
/// `None`-on-unknown by design, and `Snapshot`/`Barrier`/`Hold` are not
/// tenant-state lookups.
fn routed_tenant(msg: &ShardMsg) -> Option<TenantId> {
    match msg {
        ShardMsg::Batch(id, _)
        | ShardMsg::Pause(id)
        | ShardMsg::Resume(id)
        | ShardMsg::Evict(id, _)
        | ShardMsg::Restart(id)
        | ShardMsg::Finish(id) => Some(*id),
        ShardMsg::Admit(_)
        | ShardMsg::Snapshot(_)
        | ShardMsg::Checkpoint(..)
        | ShardMsg::Peek(..)
        | ShardMsg::Barrier(_)
        | ShardMsg::Hold(..) => None,
    }
}

/// Runs one interval through a tenant's pipeline under quarantine.
fn process_interval(entry: &mut TenantEntry, interval: &Interval) {
    if entry.state != TenantState::Running {
        // Paused / evicted / failed / completed tenants ignore in-flight
        // intervals (the queue is FIFO per shard, so these only occur
        // when a lifecycle command raced an already-queued interval).
        entry.intervals_ignored = entry.intervals_ignored.saturating_add(1);
        return;
    }
    if entry.throttle_us > 0 {
        std::thread::sleep(std::time::Duration::from_micros(entry.throttle_us));
    }
    let injected = entry
        .fault
        .is_some_and(|f| entry.intervals_processed >= f.panic_after);
    let Some(session) = entry.session.as_mut() else {
        entry.intervals_ignored = entry.intervals_ignored.saturating_add(1);
        return;
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        assert!(
            !injected,
            "injected fault: tenant pipeline panicked after {} intervals",
            entry.intervals_processed
        );
        session.process_interval(interval);
    }));
    match outcome {
        Ok(()) => entry.intervals_processed = entry.intervals_processed.saturating_add(1),
        Err(payload) => {
            metrics::FLEET_PANICS.inc();
            let msg = panic_message(payload.as_ref());
            entry.state = TenantState::Failed(msg);
            entry.session = None; // the session may be mid-mutation; discard
        }
    }
}

/// Runs a coalesced batch through a tenant's pipeline via
/// [`MonitoringSession::run_batch`]. Counter-exact with calling
/// [`process_interval`] once per element: the fast path (no fault plan,
/// no throttle) takes one `catch_unwind` frame for the whole batch, and
/// a mid-batch panic reconstructs per-interval progress from the
/// session's interval counter, so the processed/ignored split matches
/// the per-interval path exactly.
fn process_batch(entry: &mut TenantEntry, intervals: &[Interval]) {
    if entry.state != TenantState::Running {
        entry.intervals_ignored = entry.intervals_ignored.saturating_add(intervals.len());
        return;
    }
    if entry.fault.is_some() || entry.throttle_us > 0 {
        // Fault injection checks the processed count per interval and
        // throttling sleeps per interval: take the exact legacy path.
        for interval in intervals {
            process_interval(entry, interval);
        }
        return;
    }
    let Some(session) = entry.session.as_mut() else {
        entry.intervals_ignored = entry.intervals_ignored.saturating_add(intervals.len());
        return;
    };
    let before = session.intervals();
    let outcome = catch_unwind(AssertUnwindSafe(|| session.run_batch(intervals)));
    match outcome {
        Ok(n) => entry.intervals_processed = entry.intervals_processed.saturating_add(n),
        Err(payload) => {
            metrics::FLEET_PANICS.inc();
            // `intervals()` bumps at interval start: the panicking
            // interval is counted there but completed nowhere.
            let done = (session.intervals() - before).saturating_sub(1);
            let msg = panic_message(payload.as_ref());
            entry.intervals_processed = entry.intervals_processed.saturating_add(done);
            entry.intervals_ignored = entry
                .intervals_ignored
                .saturating_add(intervals.len() - done - 1);
            entry.state = TenantState::Failed(msg);
            entry.session = None; // the session may be mid-mutation; discard
        }
    }
}

/// Best-effort extraction of a panic payload message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "tenant pipeline panicked".to_string()
    }
}
