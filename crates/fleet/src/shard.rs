//! Shard workers: each owns the [`MonitoringSession`]s of the tenants
//! leased to it and drains its bounded queue until shutdown.
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
//! **Work stealing:** tenant ownership is a *lease* ([`LeaseTable`]).
//! An idle worker in freerun pacing may steal a whole tenant from the
//! most-backlogged peer: it flips the lease inside the gate of a
//! [`ShardMsg::Release`] push to the victim's queue (atomic with
//! respect to that queue — no interval can land behind the `Release` on
//! the old shard), then adopts the tenant's entry off a one-shot
//! channel. Sessions therefore stay single-threaded: exactly one worker
//! owns a tenant's entry at any instant, and a migration in flight is
//! tracked by the [`MigrationGate`] so shutdown never strands an entry.
//!
//! **Panic quarantine:** every per-interval pipeline step runs under
//! `catch_unwind`. A panicking tenant transitions to
//! [`TenantState::Failed`] and its session is discarded; the worker, its
//! queue and every co-resident tenant continue untouched. Nothing
//! propagates across tenants or shards.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use regmon::{MonitoringSession, SessionConfig, SessionSummary};
use regmon_binary::Binary;
use regmon_sampling::Interval;
use regmon_telemetry::{journal, metrics};

use crate::affinity::{self, Topology};
use crate::queue::{Droppable, Popped, PushError, QueuePolicy, QueueStats, RingQueue};
use crate::tenant::{EvictReason, FaultPlan, TenantId, TenantState};

/// How long an idle stealing worker parks on its empty queue before
/// scanning peers for backlog.
const STEAL_POLL: Duration = Duration::from_micros(500);

/// Upper bound on how long a thief may block pushing `Release` into a
/// victim's full queue. Bounding this wait breaks the only potential
/// wait cycle between workers (every other worker wait is a pop).
const RELEASE_PUSH_TIMEOUT: Duration = Duration::from_millis(2);

/// One message on a shard queue.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// Registers a tenant on this shard.
    Admit(Box<AdmitMsg>),
    /// One sampled interval for a tenant.
    Interval(TenantId, Interval),
    /// A coalesced run of consecutive intervals for a tenant.
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
    /// Hands the tenant's entry to the sender of this message: the
    /// receiving worker removes the entry from its table and ships it
    /// back through the channel. Pushed by a thief (whose `Release`
    /// push gate flips the lease) or by the lockstep rebalancer.
    Release(TenantId, SyncSender<MigrationPacket>),
    /// Lockstep rebalance only: the destination worker blocks on the
    /// channel until the released entry arrives, then installs it. Safe
    /// to block because the driver orchestrates exactly one migration
    /// at a time and the victim is guaranteed live and draining.
    AdoptHandle(TenantId, Receiver<MigrationPacket>),
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

/// A tenant entry in flight between two workers.
#[derive(Debug)]
pub(crate) struct MigrationPacket {
    /// `None` when the releasing worker did not own the tenant (a
    /// defensive case the lease protocol rules out).
    pub entry: Option<Box<TenantEntry>>,
}

impl Droppable for ShardMsg {
    fn droppable(&self) -> bool {
        // Only interval payloads may be sacrificed under DropOldest;
        // losing a control message would corrupt lifecycle state, and
        // losing a migration message would strand a tenant entry.
        matches!(self, ShardMsg::Interval(..) | ShardMsg::Batch(..))
    }

    fn units(&self) -> Option<usize> {
        match self {
            ShardMsg::Interval(..) => Some(1),
            ShardMsg::Batch(_, intervals) => Some(intervals.len()),
            _ => None,
        }
    }
}

/// Tenant → owning shard, shared by the engine, the driver and every
/// worker. The `migrating` bit serializes migrations per tenant: a
/// settled lease may be flipped (inside a `Release` push gate), and is
/// settled again only when the adopter has installed the entry.
#[derive(Debug, Default)]
pub(crate) struct LeaseTable {
    slots: Mutex<Vec<LeaseSlot>>,
}

#[derive(Debug, Clone, Copy)]
struct LeaseSlot {
    shard: usize,
    migrating: bool,
}

impl LeaseTable {
    /// Registers the next tenant (dense ids) on its home shard.
    pub fn push_home(&self, shard: usize) {
        self.slots
            .lock()
            .expect("lease table poisoned")
            .push(LeaseSlot {
                shard,
                migrating: false,
            });
    }

    /// Current owner shard of `t`.
    pub fn get(&self, t: TenantId) -> usize {
        self.slots.lock().expect("lease table poisoned")[t.0 as usize].shard
    }

    /// Atomically re-points `t` from `from` to `to` and marks the
    /// migration in flight. Fails when the lease moved or a migration
    /// is already pending. Called inside a queue push gate, so the flip
    /// commits if and only if the `Release` message is delivered.
    pub fn flip_if(&self, t: TenantId, from: usize, to: usize) -> bool {
        let mut slots = self.slots.lock().expect("lease table poisoned");
        let slot = &mut slots[t.0 as usize];
        if slot.shard == from && !slot.migrating {
            slot.shard = to;
            slot.migrating = true;
            true
        } else {
            false
        }
    }

    /// Driver-side re-point (lockstep rebalance: the driver is the sole
    /// flipper and orchestrates the hand-off with barriers).
    pub fn set(&self, t: TenantId, shard: usize) {
        let mut slots = self.slots.lock().expect("lease table poisoned");
        slots[t.0 as usize] = LeaseSlot {
            shard,
            migrating: false,
        };
    }

    /// Marks `t`'s migration complete.
    pub fn settle(&self, t: TenantId) {
        self.slots.lock().expect("lease table poisoned")[t.0 as usize].migrating = false;
    }

    /// Lowest-id tenant currently settled on `shard`, if any.
    pub fn lowest_settled(&self, shard: usize) -> Option<TenantId> {
        let slots = self.slots.lock().expect("lease table poisoned");
        slots
            .iter()
            .enumerate()
            .find(|(_, s)| s.shard == shard && !s.migrating)
            .map(|(i, _)| TenantId(i as u32))
    }
}

/// Counts migrations in flight (entry released or about to be, not yet
/// installed). Shutdown waits for zero before closing queues so no
/// tenant entry is stranded on a dead channel.
#[derive(Debug, Default)]
pub(crate) struct MigrationGate {
    count: Mutex<usize>,
    idle: Condvar,
}

impl MigrationGate {
    pub fn inc(&self) {
        *self.count.lock().expect("migration gate poisoned") += 1;
    }

    pub fn dec(&self) {
        let mut count = self.count.lock().expect("migration gate poisoned");
        *count -= 1;
        if *count == 0 {
            self.idle.notify_all();
        }
    }

    pub fn wait_idle(&self) {
        let mut count = self.count.lock().expect("migration gate poisoned");
        while *count > 0 {
            count = self.idle.wait(count).expect("migration gate poisoned");
        }
    }
}

/// Everything a worker shares with its peers, the engine and the driver.
#[derive(Debug)]
pub(crate) struct WorkerShared {
    /// One bounded ring per shard.
    pub queues: Vec<Arc<RingQueue<ShardMsg>>>,
    /// Tenant → owning shard.
    pub leases: LeaseTable,
    /// Migrations in flight.
    pub gate: MigrationGate,
    /// Set during shutdown: workers stop initiating steals.
    pub stop_steal: AtomicBool,
    /// Whether workers may initiate steals (freerun pacing only; the
    /// lockstep driver rebalances deterministically instead).
    pub worker_steal: bool,
    /// Minimum victim backlog (queue occupancy) that justifies a steal.
    pub steal_backlog: usize,
    /// Whether workers pin themselves to a CPU at startup (best-effort).
    pub pin: bool,
    /// CPU → core-complex map for steal-victim locality.
    pub topology: Topology,
    /// CPUs available to the process (fixes the shard → CPU mapping).
    pub cpus: usize,
}

impl WorkerShared {
    /// The CPU shard `shard`'s worker targets when pinning, and the one
    /// its locality is judged by either way.
    fn cpu_of_shard(&self, shard: usize) -> usize {
        affinity::cpu_for_shard(shard, self.cpus)
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
    /// Tenants stolen from peers over the shard's lifetime.
    pub tenants_stolen: usize,
    /// The CPU this worker pinned itself to, when pinning was requested
    /// *and* the kernel accepted the mask (best-effort; `None` means
    /// the worker ran wherever the scheduler put it).
    pub pinned_cpu: Option<usize>,
    /// Queue backpressure counters. Under lockstep pacing the
    /// stall/drop/high-water numbers are superseded by the driver's
    /// deterministic accounting, but the batch-size histogram is
    /// deterministic in both pacings.
    pub queue: QueueStats,
}

/// Per-tenant state owned by a worker.
#[derive(Debug)]
pub(crate) struct TenantEntry {
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

/// An adoption in flight at the thief: the entry channel plus any
/// messages for the tenant that arrived before the entry did (they are
/// replayed, in order, at install time).
#[derive(Debug)]
struct Adoption {
    rx: Receiver<MigrationPacket>,
    from: usize,
    buffered: Vec<ShardMsg>,
}

/// The mutable state of one shard worker.
struct Worker {
    shard: usize,
    tenants: BTreeMap<TenantId, TenantEntry>,
    adoptions: BTreeMap<TenantId, Adoption>,
    messages: usize,
    stolen: usize,
}

/// The worker loop for shard `shard`. Runs until the queue is closed and
/// drained, then reports its final state.
pub(crate) fn run_worker(shard: usize, shared: &WorkerShared) -> ShardFinal {
    let mut w = Worker {
        shard,
        tenants: BTreeMap::new(),
        adoptions: BTreeMap::new(),
        messages: 0,
        stolen: 0,
    };
    let pinned_cpu = if shared.pin {
        let cpu = shared.cpu_of_shard(shard);
        affinity::pin_current_thread(cpu).then_some(cpu)
    } else {
        None
    };
    let queue = &shared.queues[shard];

    loop {
        w.poll_adoptions(shared);
        let msg = if shared.worker_steal {
            match queue.pop_timeout(STEAL_POLL) {
                Popped::Item(msg) => Some(msg),
                Popped::Empty => {
                    if w.adoptions.is_empty() {
                        w.try_steal(shared);
                    }
                    continue;
                }
                Popped::Closed => None,
            }
        } else {
            queue.pop()
        };
        let Some(msg) = msg else { break };
        // Barriers are engine-internal sync points, not workload
        // messages — counting them would make `messages_processed`
        // depend on who drained (snapshots, the change-point feed).
        if !matches!(msg, ShardMsg::Barrier(_)) {
            w.messages = w.messages.saturating_add(1);
        }
        w.dispatch(msg);
    }
    // Shutdown orders stop-steal + gate.wait_idle() before closing the
    // queues, so no adoption can still be pending here.
    debug_assert!(w.adoptions.is_empty(), "adoption pending past shutdown");

    ShardFinal {
        shard,
        tenants: w.tenants.iter().map(|(id, e)| e.snapshot(*id)).collect(),
        messages_processed: w.messages,
        tenants_stolen: w.stolen,
        pinned_cpu,
        queue: queue.stats(),
    }
}

impl Worker {
    /// Installs any adopted entries whose packet has arrived, replaying
    /// buffered messages in arrival order (they were already counted in
    /// `messages_processed` when popped).
    fn poll_adoptions(&mut self, shared: &WorkerShared) {
        let pending: Vec<TenantId> = self.adoptions.keys().copied().collect();
        for t in pending {
            let ready = match self.adoptions[&t].rx.try_recv() {
                Ok(packet) => Some(packet.entry),
                Err(TryRecvError::Empty) => None,
                // A vanished victim is an engine bug; resolve the
                // migration anyway so shutdown cannot hang.
                Err(TryRecvError::Disconnected) => Some(None),
            };
            let Some(entry) = ready else { continue };
            let adoption = self.adoptions.remove(&t).expect("adoption present");
            if let Some(entry) = entry {
                self.tenants.insert(t, *entry);
                self.stolen = self.stolen.saturating_add(1);
                if regmon_telemetry::enabled() {
                    metrics::FLEET_STEALS.inc();
                    journal::record(journal::EventKind::Steal {
                        tenant: u64::from(t.0),
                        from_shard: adoption.from as u64,
                        to_shard: self.shard as u64,
                    });
                }
            }
            for msg in adoption.buffered {
                self.dispatch(msg);
            }
            shared.leases.settle(t);
            shared.gate.dec();
        }
    }

    /// One bounded steal attempt: pick the most backlogged peer above
    /// the threshold, pick its lowest-id settled tenant, and release it
    /// to ourselves. The lease flips inside the push gate, so the flip
    /// commits iff the `Release` lands; a timeout or stale gate aborts
    /// the steal with nothing changed.
    ///
    /// Victim preference is topology-aware: a peer whose CPU shares
    /// this worker's core complex (last-level cache) wins over a more
    /// backlogged peer on a different complex, because the stolen
    /// tenant's session state migrates through the shared cache instead
    /// of over the interconnect. Within a locality class, deepest
    /// backlog wins.
    fn try_steal(&mut self, shared: &WorkerShared) {
        if shared.stop_steal.load(Ordering::Relaxed) {
            return;
        }
        let my_complex = shared.topology.complex_of(shared.cpu_of_shard(self.shard));
        // (same_complex, depth) ranked lexicographically: locality
        // first, then backlog.
        let mut victim: Option<(usize, (bool, usize))> = None;
        for (s, queue) in shared.queues.iter().enumerate() {
            if s == self.shard {
                continue;
            }
            let depth = queue.len();
            if depth < shared.steal_backlog {
                continue;
            }
            let near = shared.topology.complex_of(shared.cpu_of_shard(s)) == my_complex;
            if victim.map_or(true, |(_, best)| (near, depth) > best) {
                victim = Some((s, (near, depth)));
            }
        }
        let Some((victim, _)) = victim else { return };
        let Some(t) = shared.leases.lowest_settled(victim) else {
            return;
        };
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.adoptions.insert(
            t,
            Adoption {
                rx,
                from: victim,
                buffered: Vec::new(),
            },
        );
        shared.gate.inc();
        let pushed = shared.queues[victim].push_checked_timeout(
            ShardMsg::Release(t, tx),
            QueuePolicy::Block,
            || shared.leases.flip_if(t, victim, self.shard),
            RELEASE_PUSH_TIMEOUT,
        );
        match pushed {
            Ok(()) => {} // lease flipped; entry will arrive on `rx`
            Err(PushError::Stale(_) | PushError::TimedOut(_) | PushError::Closed(_)) => {
                // Gate never ran or rejected: the lease is untouched.
                self.adoptions.remove(&t);
                shared.gate.dec();
            }
        }
    }

    /// Handles one message. Messages for a tenant whose adoption is
    /// pending are buffered and replayed at install; messages for a
    /// tenant this worker has never owned are ignored (shutdown and
    /// routing races).
    fn dispatch(&mut self, msg: ShardMsg) {
        // Tenant-addressed messages that raced ahead of an adoption wait
        // for the entry.
        if let Some(t) = routed_tenant(&msg) {
            if !self.tenants.contains_key(&t) {
                if let Some(adoption) = self.adoptions.get_mut(&t) {
                    adoption.buffered.push(msg);
                }
                return;
            }
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
            ShardMsg::Interval(id, interval) => {
                let entry = self.tenants.get_mut(&id).expect("routed tenant present");
                journal::set_tenant(u64::from(id.0));
                process_interval(entry, &interval);
                journal::set_tenant(0);
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
            ShardMsg::Release(id, reply) => {
                // Hand the entry over. `entry: None` (we never owned it,
                // or a replayed Release after an abort) tells the
                // adopter there is nothing to install.
                let entry = self.tenants.remove(&id).map(Box::new);
                let _ = reply.send(MigrationPacket { entry });
            }
            ShardMsg::AdoptHandle(id, rx) => {
                // Lockstep rebalance: wait for the victim to release.
                if let Ok(packet) = rx.recv() {
                    if let Some(entry) = packet.entry {
                        self.tenants.insert(id, *entry);
                        self.stolen = self.stolen.saturating_add(1);
                    }
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

/// The tenant a message is addressed to, for adoption buffering.
/// `Admit` installs its own entry, `Release`, `Checkpoint` and `Peek`
/// answer `None`-on-unknown by design, and `AdoptHandle`/`Snapshot`/`Barrier`
/// are not tenant-state lookups — none of them buffer.
fn routed_tenant(msg: &ShardMsg) -> Option<TenantId> {
    match msg {
        ShardMsg::Interval(id, _)
        | ShardMsg::Batch(id, _)
        | ShardMsg::Pause(id)
        | ShardMsg::Resume(id)
        | ShardMsg::Evict(id, _)
        | ShardMsg::Restart(id)
        | ShardMsg::Finish(id) => Some(*id),
        ShardMsg::Admit(_)
        | ShardMsg::Release(..)
        | ShardMsg::AdoptHandle(..)
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
