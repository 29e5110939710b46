//! Bounded ring-buffer queue with backpressure accounting and a
//! lock-light fast path.
//!
//! The fleet engine ships every shard's traffic — interval batches *and*
//! lifecycle control messages — through one bounded FIFO per shard. A
//! plain `std::sync::mpsc::sync_channel` cannot express the
//! `DropOldest` policy (no access to the queue head), so this is a
//! fixed-capacity **ring queue**: storage is one `Box<[Option<T>]>`
//! allocated up front and addressed `(head + i) % capacity`, so neither
//! push nor pop ever allocates or moves other entries (the classic
//! sequence-counted MPMC ring layout, degenerated to a mutex-protected
//! ring because this crate is `#![forbid(unsafe_code)]`).
//!
//! **Uncontended fast path.** The expensive part of a `Mutex + Condvar`
//! queue is not the lock — an uncontended lock is one atomic — but the
//! unconditional `notify_one` after every push: each notify is a
//! potential `futex(FUTEX_WAKE)` syscall, and a fleet driver pushing
//! thousands of intervals per second pays it even when every consumer is
//! busy draining. This queue therefore keeps **waiter registries inside
//! the mutex**: a consumer increments `consumer_waiters` under the lock
//! before parking on the condvar, and a producer only notifies when that
//! count is nonzero (symmetrically for `producer_waiters` / `not_full`).
//! A push into a queue whose consumer is running is lock, slot write,
//! unlock — zero syscalls, zero allocations. [`QueueStats::notifies`]
//! counts the wakeups actually issued so tests can pin this down.
//!
//! **Half-drain wake.** The consumer does not wake a parked producer on
//! every pop: that would hand a feed thread one free slot per wake, so
//! it would park, wake, push one entry and park again, paying one futex
//! round trip per entry. A pop wakes parked producers only when it
//! leaves the ring at or below half full (`len <= capacity / 2`), and
//! the woken producer then refills half the ring in one run. The one
//! exception is the **control-path wake**: a pop that hands out a
//! non-droppable (control) entry also wakes parked producers, since the
//! consumer may stop popping to act on it (a `Hold` parks the shard).
//! [`RingQueue::pop`] carries the argument that no wakeup is lost.
//!
//! Two backpressure policies:
//!
//! - [`QueuePolicy::Block`]: a full queue makes the producer wait, and
//!   each wait episode is counted as one **stall** — the paper's measure
//!   of how often monitoring would have intruded on the critical path
//!   with this buffer depth (§3.2.3).
//! - [`QueuePolicy::DropOldest`]: a full queue evicts the oldest
//!   *droppable* entry (interval payloads are droppable, control
//!   messages never are) and counts its [`Droppable::units`] as
//!   **drops**. The producer never waits; monitoring degrades instead of
//!   the mutator. A ring full of non-droppable control messages blocks
//!   instead — lifecycle commands are never sacrificed.

use regmon_stats::histogram::log2_bucket;
use regmon_telemetry::{journal, metrics};
use std::sync::{Condvar, Mutex};

/// What to do when a shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Producer waits for space (lossless; counts stalls).
    Block,
    /// Oldest droppable entry is evicted (lossy; counts drops).
    DropOldest,
}

/// Accepted spellings for [`QueuePolicy::parse`].
const POLICY_SPELLINGS: &str = "block | drop-oldest | drop_oldest | dropoldest | drop";

impl QueuePolicy {
    /// Parses a policy name. Accepted spellings: `block`,
    /// `drop-oldest`, `drop_oldest`, `dropoldest` and the short alias
    /// `drop`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the rejected input and listing every
    /// accepted spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(Self::Block),
            "drop-oldest" | "drop_oldest" | "dropoldest" | "drop" => Ok(Self::DropOldest),
            other => Err(format!(
                "unknown queue policy {other:?} (accepted: {POLICY_SPELLINGS})"
            )),
        }
    }
}

/// Entries that may be sacrificed under [`QueuePolicy::DropOldest`].
pub trait Droppable {
    /// `true` when the entry may be dropped (interval payloads);
    /// `false` for entries that must survive (control messages).
    fn droppable(&self) -> bool;

    /// How many logical payload units the entry carries: `Some(n)` for
    /// droppable payloads (an interval batch of `n` intervals),
    /// `None` for control messages. Evicting the entry counts `n`
    /// drops, and pushing it records `n` in the batch-size histogram.
    fn units(&self) -> Option<usize> {
        if self.droppable() {
            Some(1)
        } else {
            None
        }
    }
}

/// Buckets of the batch-size histogram in [`QueueStats`]: bucket `i`
/// counts payload messages carrying `2^i ..= 2^(i+1) - 1` units (the
/// last bucket is open-ended).
pub const BATCH_BUCKETS: usize = 8;

/// Human-readable label of batch-size bucket `i` (`"1"`, `"2-3"`, …,
/// `"128+"`).
#[must_use]
pub fn batch_bucket_label(i: usize) -> String {
    let lo = 1usize << i;
    if i + 1 >= BATCH_BUCKETS {
        format!("{lo}+")
    } else if lo == (1 << (i + 1)) - 1 {
        format!("{lo}")
    } else {
        format!("{lo}-{}", (1 << (i + 1)) - 1)
    }
}

/// Backpressure counters of one queue, all monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries accepted.
    pub pushed: usize,
    /// Entries handed to the consumer.
    pub popped: usize,
    /// Wait episodes of a blocked producer ([`QueuePolicy::Block`]).
    pub stalls: usize,
    /// Evicted payload units ([`QueuePolicy::DropOldest`]); an evicted
    /// batch of `n` intervals counts `n`.
    pub dropped: usize,
    /// Maximum occupancy ever observed (after a push).
    pub high_water: usize,
    /// Condvar wakeups actually issued by producers and consumers. The
    /// uncontended-path contract is `notifies == 0` while the peer never
    /// parks; this is what the wakeup-herding regression test pins.
    pub notifies: usize,
    /// Histogram of payload-message sizes in units (log2 buckets, see
    /// [`BATCH_BUCKETS`]). Control messages are not counted.
    pub batch_sizes: [usize; BATCH_BUCKETS],
}

impl QueueStats {
    fn record_batch(&mut self, units: usize) {
        let bucket = log2_bucket(units as u64, BATCH_BUCKETS);
        self.batch_sizes[bucket] = self.batch_sizes[bucket].saturating_add(1);
    }

    /// Total payload messages recorded in the batch-size histogram.
    #[must_use]
    pub fn payload_messages(&self) -> usize {
        self.batch_sizes.iter().sum()
    }
}

/// Fixed-capacity ring storage: `slots[(head + i) % capacity]` is the
/// `i`-th oldest entry. Entries never move on push/pop; only the rare
/// mid-ring eviction (DropOldest skipping control messages) shifts the
/// head-side entries by one.
#[derive(Debug)]
struct RingBuf<T> {
    slots: Box<[Option<T>]>,
    head: usize,
    len: usize,
}

impl<T> RingBuf<T> {
    fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            head: 0,
            len: 0,
        }
    }

    fn idx(&self, i: usize) -> usize {
        (self.head + i) % self.slots.len()
    }

    fn push_back(&mut self, item: T) {
        debug_assert!(self.len < self.slots.len(), "ring overfull");
        let at = self.idx(self.len);
        debug_assert!(self.slots[at].is_none(), "ring slot clobbered");
        self.slots[at] = Some(item);
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.slots[self.head].take();
        debug_assert!(item.is_some(), "ring slot lost");
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        item
    }
}

impl<T: Droppable> RingBuf<T> {
    /// Index (in age order) of the oldest droppable entry, if any.
    fn oldest_droppable(&self) -> Option<usize> {
        (0..self.len).find(|&i| {
            self.slots[self.idx(i)]
                .as_ref()
                .is_some_and(Droppable::droppable)
        })
    }

    /// Removes the entry at age-index `i`, shifting the (younger-than-
    /// head, older-than-`i`) entries toward the hole and advancing
    /// `head` — exactly `VecDeque::remove` semantics on a fixed ring.
    fn remove_at(&mut self, i: usize) -> T {
        debug_assert!(i < self.len);
        let item = self.slots[self.idx(i)].take().expect("ring slot lost");
        for j in (1..=i).rev() {
            self.slots[self.idx(j)] = self.slots[self.idx(j - 1)].take();
        }
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        item
    }
}

#[derive(Debug)]
struct Inner<T> {
    ring: RingBuf<T>,
    closed: bool,
    /// Consumers currently parked on `not_empty` (registered under the
    /// lock *before* waiting, so a producer's check cannot race it).
    consumer_waiters: usize,
    /// Producers currently parked on `not_full`.
    producer_waiters: usize,
    stats: QueueStats,
}

/// Error returned when pushing into a closed queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// A bounded ring FIFO connecting the fleet driver to one shard worker.
#[derive(Debug)]
pub struct RingQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    /// Shard id stamped on telemetry events emitted by this queue.
    label: u64,
}

impl<T: Droppable> RingQueue<T> {
    /// A queue holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue depth must be positive");
        Self {
            inner: Mutex::new(Inner {
                ring: RingBuf::new(capacity),
                closed: false,
                consumer_waiters: 0,
                producer_waiters: 0,
                stats: QueueStats::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            label: 0,
        }
    }

    /// Stamp telemetry events from this queue with `label` (the owning
    /// shard's id). Builder-style so construction sites stay one
    /// expression.
    #[must_use]
    pub fn with_label(mut self, label: u64) -> Self {
        self.label = label;
        self
    }

    /// Enqueues `item` under `policy`.
    ///
    /// Control messages (non-droppable items) always use blocking
    /// semantics regardless of `policy`, so lifecycle commands are never
    /// lost.
    ///
    /// # Errors
    ///
    /// Returns [`Closed`] when the queue has been closed.
    pub fn push(&self, item: T, policy: QueuePolicy) -> Result<(), Closed> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(Closed);
        }

        // Resolve fullness first: either an eviction victim exists, or
        // we wait for space.
        let mut evict_at = None;
        let mut stalled = false;
        if inner.ring.len >= self.capacity {
            let drop_allowed = policy == QueuePolicy::DropOldest && item.droppable();
            evict_at = if drop_allowed {
                inner.ring.oldest_droppable()
            } else {
                None
            };
            if evict_at.is_none() {
                // Block policy, or a DropOldest ring full of
                // non-droppable control messages: wait for space. One
                // stall per wait episode. Only the striped counter runs
                // under the lock; the journal write (mutex + clock) is
                // deferred to the post-push telemetry block so a
                // stalled producer never stretches the critical section
                // consumers drain through.
                inner.stats.stalls = inner.stats.stalls.saturating_add(1);
                metrics::QUEUE_STALLS.inc();
                stalled = true;
                while inner.ring.len >= self.capacity && !inner.closed {
                    inner.producer_waiters += 1;
                    inner = self.not_full.wait(inner).expect("queue poisoned");
                    inner.producer_waiters -= 1;
                }
                if inner.closed {
                    return Err(Closed);
                }
            }
        }

        if let Some(at) = evict_at {
            let victim = inner.ring.remove_at(at);
            let units = victim.units().unwrap_or(0);
            inner.stats.dropped = inner.stats.dropped.saturating_add(units);
            metrics::QUEUE_DROPPED.add(units as u64);
        }
        let units = item.units();
        if let Some(units) = units {
            inner.stats.record_batch(units);
        }
        inner.ring.push_back(item);
        inner.stats.pushed = inner.stats.pushed.saturating_add(1);
        let occupancy = inner.ring.len;
        let high_water = occupancy > inner.stats.high_water;
        if high_water {
            inner.stats.high_water = occupancy;
        }
        // Waiter-gated wakeup: only pay the futex syscall when a
        // consumer is actually parked.
        let wake = inner.consumer_waiters > 0;
        if wake {
            inner.stats.notifies = inner.stats.notifies.saturating_add(1);
        }
        drop(inner);
        // Telemetry outside the queue lock: one relaxed load + branch
        // when disabled.
        if regmon_telemetry::enabled() {
            metrics::QUEUE_PUSHED.inc();
            if let Some(units) = units {
                metrics::QUEUE_BATCH_UNITS.record(units as u64);
            }
            if stalled {
                // Stall episodes that end in Closed return early and
                // are visible only in the counter.
                journal::record(journal::EventKind::Backpressure {
                    shard: self.label,
                    units: units.unwrap_or(0) as u64,
                });
            }
            if wake {
                metrics::QUEUE_NOTIFIES.inc();
            }
            if high_water {
                metrics::QUEUE_HIGH_WATER.set_max(occupancy as i64);
                journal::record(journal::EventKind::QueueHighWater {
                    shard: self.label,
                    depth: occupancy as u64,
                });
            }
        }
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Dequeues the oldest entry, waiting while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.ring.pop_front() {
                inner.stats.popped = inner.stats.popped.saturating_add(1);
                // Half-drain wake: parked producers are woken by every
                // pop that leaves the ring at or below half full, or
                // hands out a control entry. No wakeup is lost: a
                // producer parks only on a full ring, and only pops
                // shrink the ring, one entry each, so every wait episode
                // is followed by a pop that leaves `len == capacity / 2`
                // — unless the consumer stops popping first. It stops
                // only on an empty ring (already past half) or to act
                // on a control entry (a `Hold` parks the shard), whose
                // pop is itself a wake. Every parked producer is woken
                // (`notify_all`), so none is left parked on a ring with
                // free slots.
                let wake = inner.producer_waiters > 0
                    && (inner.ring.len <= self.capacity / 2 || !item.droppable());
                if wake {
                    inner.stats.notifies = inner.stats.notifies.saturating_add(1);
                }
                drop(inner);
                if regmon_telemetry::enabled() {
                    metrics::QUEUE_POPPED.inc();
                    if wake {
                        metrics::QUEUE_NOTIFIES.inc();
                    }
                }
                if wake {
                    self.not_full.notify_all();
                }
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner.consumer_waiters += 1;
            inner = self.not_empty.wait(inner).expect("queue poisoned");
            inner.consumer_waiters -= 1;
        }
    }

    /// Closes the queue: producers start failing, the consumer drains
    /// the remaining entries and then sees end-of-stream.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").ring.len
    }

    /// `true` when no entries are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the backpressure counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().expect("queue poisoned").stats
    }

    /// Maximum occupancy.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug, PartialEq)]
    enum Msg {
        Data(u32),
        /// A payload carrying several units (a fleet interval batch).
        Pack(u32, usize),
        Ctrl(u32),
    }

    impl Droppable for Msg {
        fn droppable(&self) -> bool {
            !matches!(self, Msg::Ctrl(_))
        }

        fn units(&self) -> Option<usize> {
            match self {
                Msg::Data(_) => Some(1),
                Msg::Pack(_, n) => Some(*n),
                Msg::Ctrl(_) => None,
            }
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let q = RingQueue::new(8);
        for i in 0..5 {
            q.push(Msg::Data(i), QueuePolicy::Block).unwrap();
        }
        q.close();
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            drained,
            (0..5).map(Msg::Data).collect::<Vec<_>>(),
            "FIFO violated"
        );
    }

    #[test]
    fn ring_wraps_without_reordering() {
        // Interleave pushes and pops so head laps the ring repeatedly:
        // draining two of three slots each time the ring fills advances
        // the head by two on a three-slot array, walking every offset.
        let q = RingQueue::new(3);
        let mut expect = Vec::new();
        let mut got = Vec::new();
        for i in 0..20u32 {
            q.push(Msg::Data(i), QueuePolicy::Block).unwrap();
            expect.push(Msg::Data(i));
            if q.len() == 3 {
                got.push(q.pop().unwrap());
                got.push(q.pop().unwrap());
            }
        }
        q.close();
        got.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(got, expect);
        let stats = q.stats();
        assert_eq!(stats.pushed, 20);
        assert_eq!(stats.popped, 20);
    }

    #[test]
    fn drop_oldest_evicts_front_droppable_only() {
        let q = RingQueue::new(3);
        q.push(Msg::Ctrl(0), QueuePolicy::DropOldest).unwrap();
        q.push(Msg::Data(1), QueuePolicy::DropOldest).unwrap();
        q.push(Msg::Data(2), QueuePolicy::DropOldest).unwrap();
        // Full. The oldest *droppable* (Data(1)) goes, not Ctrl(0).
        q.push(Msg::Data(3), QueuePolicy::DropOldest).unwrap();
        let stats = q.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.high_water, 3);
        q.close();
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![Msg::Ctrl(0), Msg::Data(2), Msg::Data(3)]);
    }

    #[test]
    fn mid_ring_eviction_survives_wrap() {
        // Move head off zero first so the eviction shift crosses the
        // physical end of the slot array.
        let q = RingQueue::new(4);
        q.push(Msg::Data(0), QueuePolicy::Block).unwrap();
        q.push(Msg::Data(1), QueuePolicy::Block).unwrap();
        assert_eq!(q.pop(), Some(Msg::Data(0)));
        assert_eq!(q.pop(), Some(Msg::Data(1))); // head now at 2
        q.push(Msg::Ctrl(10), QueuePolicy::Block).unwrap();
        q.push(Msg::Ctrl(11), QueuePolicy::Block).unwrap();
        q.push(Msg::Data(12), QueuePolicy::Block).unwrap();
        q.push(Msg::Data(13), QueuePolicy::Block).unwrap();
        // Full, wrapped. Evict oldest droppable (Data(12), age index 2).
        q.push(Msg::Data(14), QueuePolicy::DropOldest).unwrap();
        q.close();
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            drained,
            vec![Msg::Ctrl(10), Msg::Ctrl(11), Msg::Data(13), Msg::Data(14)]
        );
        assert_eq!(q.stats().dropped, 1);
    }

    /// Adversarial satellite case: a ring *full of control messages*
    /// under `DropOldest` must never evict one of them — the producer
    /// falls back to blocking and every control message survives.
    #[test]
    fn drop_oldest_never_evicts_control_from_full_ring() {
        let q = Arc::new(RingQueue::new(3));
        for i in 0..3 {
            q.push(Msg::Ctrl(i), QueuePolicy::DropOldest).unwrap();
        }
        assert_eq!(q.len(), 3, "ring full of control messages");
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(Msg::Data(99), QueuePolicy::DropOldest))
        };
        // Give the producer time to (wrongly) evict; it must block.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.stats().dropped, 0, "control message sacrificed");
        let mut drained = Vec::new();
        drained.push(q.pop().unwrap()); // frees a slot; producer lands
        producer.join().unwrap().unwrap();
        q.close();
        drained.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(
            drained,
            vec![Msg::Ctrl(0), Msg::Ctrl(1), Msg::Ctrl(2), Msg::Data(99)]
        );
        let stats = q.stats();
        assert_eq!(stats.dropped, 0, "DropOldest must not drop control");
        assert_eq!(stats.stalls, 1, "producer blocked instead");
    }

    #[test]
    fn dropped_counts_units_not_messages() {
        let q = RingQueue::new(1);
        q.push(Msg::Pack(0, 5), QueuePolicy::DropOldest).unwrap();
        q.push(Msg::Pack(1, 2), QueuePolicy::DropOldest).unwrap();
        assert_eq!(q.stats().dropped, 5, "evicted batch counts its units");
    }

    #[test]
    fn batch_size_histogram_buckets_by_log2() {
        let q = RingQueue::new(16);
        for (tag, units) in [(0, 1), (1, 3), (2, 8), (3, 40)] {
            q.push(Msg::Pack(tag, units), QueuePolicy::Block).unwrap();
        }
        q.push(Msg::Ctrl(9), QueuePolicy::Block).unwrap();
        let stats = q.stats();
        let mut expect = [0usize; BATCH_BUCKETS];
        expect[0] = 1; // 1
        expect[1] = 1; // 3
        expect[3] = 1; // 8
        expect[5] = 1; // 40
        assert_eq!(stats.batch_sizes, expect, "control messages not counted");
        assert_eq!(stats.payload_messages(), 4);
        assert_eq!(batch_bucket_label(0), "1");
        assert_eq!(batch_bucket_label(1), "2-3");
        assert_eq!(batch_bucket_label(5), "32-63");
        assert_eq!(batch_bucket_label(7), "128+");
    }

    /// Wakeup-herding regression: pushes with no parked consumer must
    /// not issue a single condvar notification (PR 1 notified on every
    /// push), while a parked consumer still gets woken.
    #[test]
    fn uncontended_push_is_notify_free() {
        let q = Arc::new(RingQueue::new(32));
        for i in 0..20 {
            q.push(Msg::Data(i), QueuePolicy::Block).unwrap();
        }
        assert_eq!(
            q.stats().notifies,
            0,
            "uncontended pushes must be syscall-free"
        );
        while q.pop().is_some() {
            if q.is_empty() {
                break;
            }
        }
        assert_eq!(q.stats().notifies, 0, "uncontended pops too");

        // Now park a consumer and prove the wakeup still happens.
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20)); // let it park
        q.push(Msg::Data(99), QueuePolicy::Block).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(Msg::Data(99)));
        assert!(q.stats().notifies >= 1, "parked consumer must be notified");
        q.close();
    }

    #[test]
    fn block_policy_counts_stalls_and_delivers_everything() {
        let q = Arc::new(RingQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(m) = q.pop() {
                    std::thread::sleep(Duration::from_millis(1));
                    got.push(m);
                }
                got
            })
        };
        for i in 0..20 {
            q.push(Msg::Data(i), QueuePolicy::Block).unwrap();
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), 20, "Block must be lossless");
        assert!(q.stats().stalls > 0, "depth-1 queue must have stalled");
        assert_eq!(q.stats().dropped, 0);
    }

    /// Yields until `n` producers are parked on `q` (read under the
    /// lock, so the count is exact).
    fn await_parked(q: &RingQueue<Msg>, n: usize) {
        while q.inner.lock().expect("queue poisoned").producer_waiters < n {
            std::thread::yield_now();
        }
    }

    /// Half-drain wake: a producer parked on a full 16-slot ring is
    /// woken by the pop that leaves 8 entries, not by the first pop.
    #[test]
    fn parked_producer_wakes_at_half_drain_not_first_pop() {
        let q = Arc::new(RingQueue::new(16));
        for i in 0..16 {
            q.push(Msg::Data(i), QueuePolicy::Block).unwrap();
        }
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(Msg::Data(99), QueuePolicy::Block))
        };
        await_parked(&q, 1);
        for i in 0..7 {
            assert_eq!(q.pop(), Some(Msg::Data(i)));
            assert_eq!(q.stats().notifies, 0, "pop {} woke the producer", i + 1);
        }
        assert_eq!(q.pop(), Some(Msg::Data(7)));
        assert_eq!(q.stats().notifies, 1, "the 8th pop leaves half and wakes");
        producer.join().unwrap().unwrap();
        q.close();
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let expect: Vec<_> = (8..16).chain([99]).map(Msg::Data).collect();
        assert_eq!(rest, expect);
        let stats = q.stats();
        assert_eq!((stats.stalls, stats.notifies), (1, 1));
    }

    /// Two producers parked on one full ring both land once the
    /// consumer drains it; none is left parked on free slots.
    #[test]
    fn drain_to_empty_leaves_no_producer_parked() {
        let q = Arc::new(RingQueue::new(4));
        for i in 0..4 {
            q.push(Msg::Data(i), QueuePolicy::Block).unwrap();
        }
        let producers: Vec<_> = [10, 11]
            .map(|tag| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push(Msg::Data(tag), QueuePolicy::Block))
            })
            .into();
        await_parked(&q, 2);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(Msg::Data(i)));
        }
        for producer in producers {
            producer.join().unwrap().unwrap();
        }
        assert_eq!(q.inner.lock().unwrap().producer_waiters, 0);
        q.close();
        let landed: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(landed.len(), 2);
        assert!(landed.contains(&Msg::Data(10)) && landed.contains(&Msg::Data(11)));
        assert_eq!(q.stats().stalls, 2);
    }

    /// Several `Block` producers through a depth-3 ring: nothing lost,
    /// and each producer's entries arrive in the order it pushed them.
    #[test]
    fn multi_producer_block_stress_keeps_per_producer_fifo() {
        const PRODUCERS: u32 = 4;
        const PER_PRODUCER: u32 = 2_000;
        let q = Arc::new(RingQueue::new(3));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        q.push(Msg::Data(p << 16 | seq), QueuePolicy::Block)
                            .unwrap();
                    }
                })
            })
            .collect();
        let mut next = [0u32; PRODUCERS as usize];
        for _ in 0..PRODUCERS * PER_PRODUCER {
            let Some(Msg::Data(v)) = q.pop() else {
                panic!("queue closed early or a non-data entry");
            };
            let (p, seq) = ((v >> 16) as usize, v & 0xffff);
            assert_eq!(seq, next[p], "producer {p} out of order");
            next[p] += 1;
        }
        for producer in producers {
            producer.join().unwrap();
        }
        assert_eq!(next, [PER_PRODUCER; PRODUCERS as usize]);
        assert!(q.is_empty());
        assert_eq!(q.stats().dropped, 0);
    }

    #[test]
    fn close_wakes_blocked_producer() {
        let q = Arc::new(RingQueue::new(1));
        q.push(Msg::Data(0), QueuePolicy::Block).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(Msg::Data(1), QueuePolicy::Block))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(Closed));
    }

    #[test]
    fn policy_parse_accepts_all_spellings_and_lists_them_on_error() {
        assert_eq!(QueuePolicy::parse("block"), Ok(QueuePolicy::Block));
        for alias in ["drop-oldest", "drop_oldest", "dropoldest", "drop"] {
            assert_eq!(
                QueuePolicy::parse(alias),
                Ok(QueuePolicy::DropOldest),
                "{alias}"
            );
        }
        let err = QueuePolicy::parse("newest").unwrap_err();
        for spelling in ["block", "drop-oldest", "drop_oldest", "dropoldest", "drop"] {
            assert!(err.contains(spelling), "error {err:?} omits {spelling}");
        }
    }
}
