//! Per-thread event journal: fixed-capacity ring buffers of typed
//! phase-transition events with an epoch-based drain.
//!
//! Every recording thread owns one [`JOURNAL_CAPACITY`]-slot ring; the
//! rings are registered in a process-global list so [`drain`] can
//! collect from all of them while writers keep writing (each ring is
//! guarded by its own mutex, contended only during a drain). A global
//! sequence counter gives events a total order across threads; a ring
//! that wraps before being drained reports the overwritten events as
//! `lost` instead of silently swallowing them.
//!
//! Timestamps come from the [`crate::clock`] virtual clock, so
//! lockstep runs journal deterministic ticks. The tenant id is taken
//! from a thread-scoped label ([`set_tenant`]) that fleet shard workers
//! update as they dispatch tenant work.

use crate::clock;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Capacity of each per-thread event ring, in events.
pub const JOURNAL_CAPACITY: usize = 1024;

/// What happened. State names are static strings (`"Stable"`,
/// `"Unstable"`, …) so events stay `Copy` and render without lookup
/// tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A per-region LPD state-machine transition (paper Figure 12).
    LpdTransition {
        /// Region whose detector moved.
        region: u64,
        /// State before the observation.
        from: &'static str,
        /// State after the observation.
        to: &'static str,
        /// Pearson correlation of current vs previous histogram.
        r: f64,
        /// Similarity threshold `rt` the detector compared against.
        rt: f64,
        /// Whether the transition signalled a phase change.
        phase_change: bool,
    },
    /// A GPD centroid state-machine transition (paper Figure 1).
    GpdTransition {
        /// State before the observation.
        from: &'static str,
        /// State after the observation.
        to: &'static str,
        /// Relative centroid drift that drove the transition.
        drift: f64,
        /// Whether the transition signalled a global phase change.
        phase_change: bool,
    },
    /// The unattributed-coverage ratio breached the region-formation
    /// threshold.
    UcrBreach {
        /// Observed unattributed-coverage ratio.
        ucr: f64,
        /// Formation threshold it breached.
        threshold: f64,
    },
    /// A region was formed and is now monitored.
    RegionFormed {
        /// The new region's id.
        region: u64,
    },
    /// A region was retired by the pruning policy.
    RegionEvicted {
        /// The retired region's id.
        region: u64,
    },
    /// A producer stalled (blocking policy) or dropped (drop-oldest)
    /// against a full shard queue.
    Backpressure {
        /// The congested shard.
        shard: u64,
        /// Payload units stalled or dropped in this episode.
        units: u64,
    },
    /// A shard queue reached a new occupancy high-water mark.
    QueueHighWater {
        /// The shard whose queue grew.
        shard: u64,
        /// New maximum occupancy in payload units.
        depth: u64,
    },
    /// A monitoring session finished processing one interval. The
    /// interval index is the tenant's own deterministic x-axis (ticks
    /// drift under batching), which is what the change-point hub keys
    /// its per-tenant series on.
    IntervalEnd {
        /// Zero-based interval index within the tenant's session.
        interval: u64,
        /// Unattributed-coverage ratio observed for the interval.
        ucr: f64,
    },
    /// The change-point hub detected a regime shift in one series.
    ChangePoint {
        /// Region id of the affected series (shard index for queue
        /// series, `u64::MAX` for tenant-wide series).
        region: u64,
        /// Metric name of the affected series (`"r"`, `"rt"`,
        /// `"ucr"`, `"queue_stalls"`).
        metric: &'static str,
        /// `mean(after) − mean(before)` across the detected split.
        magnitude: f64,
        /// `1 − p` from the permutation significance test.
        confidence: f64,
    },
}

impl EventKind {
    /// Short machine-readable event name (trace-event `name`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::LpdTransition { .. } => "lpd_transition",
            EventKind::GpdTransition { .. } => "gpd_transition",
            EventKind::UcrBreach { .. } => "ucr_breach",
            EventKind::RegionFormed { .. } => "region_formed",
            EventKind::RegionEvicted { .. } => "region_evicted",
            EventKind::Backpressure { .. } => "queue_backpressure",
            EventKind::QueueHighWater { .. } => "queue_high_water",
            EventKind::IntervalEnd { .. } => "interval_end",
            EventKind::ChangePoint { .. } => "change_point",
        }
    }

    /// Event category (trace-event `cat`): the subsystem that emitted
    /// it.
    #[must_use]
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::LpdTransition { .. } => "lpd",
            EventKind::GpdTransition { .. } => "gpd",
            EventKind::UcrBreach { .. }
            | EventKind::RegionFormed { .. }
            | EventKind::RegionEvicted { .. } => "regions",
            EventKind::Backpressure { .. } | EventKind::QueueHighWater { .. } => "queue",
            EventKind::IntervalEnd { .. } => "session",
            EventKind::ChangePoint { .. } => "cpd",
        }
    }

    /// The track (trace-event `tid`) the event renders on: the region
    /// for region-scoped events, the shard for queue events, 0
    /// otherwise.
    #[must_use]
    pub fn track(&self) -> u64 {
        match *self {
            EventKind::LpdTransition { region, .. }
            | EventKind::RegionFormed { region }
            | EventKind::RegionEvicted { region } => region,
            EventKind::Backpressure { shard, .. } | EventKind::QueueHighWater { shard, .. } => {
                shard
            }
            // Tenant-wide series use u64::MAX as "no region"; render
            // those on track 0 rather than an astronomically large tid.
            EventKind::ChangePoint { region, .. } => {
                if region == u64::MAX {
                    0
                } else {
                    region
                }
            }
            EventKind::GpdTransition { .. }
            | EventKind::UcrBreach { .. }
            | EventKind::IntervalEnd { .. } => 0,
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Global order stamp (total order across threads).
    pub seq: u64,
    /// Virtual-clock timestamp (see [`crate::clock`]).
    pub tick: u64,
    /// Tenant the recording thread was working for ([`set_tenant`]),
    /// 0 outside fleet dispatch.
    pub tenant: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The result of one [`drain`]: events in global `seq` order plus the
/// number of events lost to ring wraparound since the previous drain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Drained {
    /// Undrained events from every thread, sorted by `seq`.
    pub events: Vec<Event>,
    /// Events overwritten before they could be drained.
    pub lost: u64,
}

struct Ring {
    slots: Vec<Event>,
    /// Events ever written (monotone; slot index is `written % cap`).
    written: u64,
    /// Events already handed to a drain.
    drained: u64,
}

/// One thread's journal ring. Held alive by the global registry even
/// after its thread exits so late drains still see its tail.
struct ThreadJournal {
    ring: Mutex<Ring>,
}

impl ThreadJournal {
    fn new() -> Self {
        Self {
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(JOURNAL_CAPACITY),
                written: 0,
                drained: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, ev: Event) {
        let mut ring = self.lock();
        let idx = usize::try_from(ring.written % JOURNAL_CAPACITY as u64).expect("ring index");
        if ring.slots.len() < JOURNAL_CAPACITY {
            debug_assert_eq!(idx, ring.slots.len());
            ring.slots.push(ev);
        } else {
            ring.slots[idx] = ev;
        }
        ring.written += 1;
    }

    fn drain_into(&self, out: &mut Vec<Event>) -> u64 {
        let mut ring = self.lock();
        let oldest = ring.written.saturating_sub(JOURNAL_CAPACITY as u64);
        let start = ring.drained.max(oldest);
        let lost = start - ring.drained;
        for i in start..ring.written {
            let idx = usize::try_from(i % JOURNAL_CAPACITY as u64).expect("ring index");
            out.push(ring.slots[idx]);
        }
        ring.drained = ring.written;
        lost
    }
}

static SEQ: AtomicU64 = AtomicU64::new(0);

fn journals() -> &'static Mutex<Vec<Arc<ThreadJournal>>> {
    static JOURNALS: OnceLock<Mutex<Vec<Arc<ThreadJournal>>>> = OnceLock::new();
    JOURNALS.get_or_init(|| Mutex::new(Vec::new()))
}

fn local_journal() -> Arc<ThreadJournal> {
    thread_local! {
        static LOCAL: Arc<ThreadJournal> = {
            let j = Arc::new(ThreadJournal::new());
            journals()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(&j));
            j
        };
    }
    LOCAL.with(Arc::clone)
}

thread_local! {
    static TENANT: Cell<u64> = const { Cell::new(0) };
}

/// Label all subsequent events on this thread with `tenant`. Fleet
/// shard workers call this as they dispatch tenant work; 0 means
/// "not tenant-scoped".
pub fn set_tenant(tenant: u64) {
    TENANT.with(|t| t.set(tenant));
}

/// Record one event in the calling thread's ring. No-op (one relaxed
/// load + branch) while telemetry is disabled.
#[inline]
pub fn record(kind: EventKind) {
    if !crate::enabled() {
        return;
    }
    let ev = Event {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        tick: clock::now(),
        tenant: TENANT.with(Cell::get),
        kind,
    };
    local_journal().push(ev);
}

/// Total events ever recorded process-wide (including ones since lost
/// to wraparound).
#[must_use]
pub fn recorded() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

/// Collect every thread's undrained events, in global `seq` order.
/// Writers are only briefly blocked, one ring at a time; each event is
/// delivered exactly once across drains.
#[must_use]
pub fn drain() -> Drained {
    let mut out = Drained::default();
    let rings: Vec<Arc<ThreadJournal>> = journals()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    for j in rings {
        out.lost += j.drain_into(&mut out.events);
    }
    out.events.sort_unstable_by_key(|e| e.seq);
    out
}

/// Throw away all undrained events (tests and benchmark harnesses).
pub fn discard() {
    let _ = drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_inert_while_disabled() {
        let _guard = crate::test_guard();
        crate::set_enabled(false);
        let before = recorded();
        record(EventKind::RegionFormed { region: 1 });
        assert_eq!(recorded(), before);
    }

    #[test]
    fn drain_delivers_each_event_once_in_seq_order() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        discard();
        record(EventKind::RegionFormed { region: 1 });
        record(EventKind::RegionEvicted { region: 1 });
        let d = drain();
        crate::set_enabled(false);
        assert_eq!(d.events.len(), 2);
        assert!(d.events[0].seq < d.events[1].seq);
        assert_eq!(d.events[0].kind, EventKind::RegionFormed { region: 1 });
        assert!(drain().events.is_empty(), "second drain must be empty");
    }

    #[test]
    fn tenant_scope_labels_events() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        discard();
        set_tenant(7);
        record(EventKind::UcrBreach {
            ucr: 0.5,
            threshold: 0.4,
        });
        set_tenant(0);
        let d = drain();
        crate::set_enabled(false);
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events[0].tenant, 7);
    }
}
