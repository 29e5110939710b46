//! The region monitor: holds regions and distributes samples to them.
//!
//! # The attribution fast path
//!
//! Sample attribution is the hottest loop in the whole system (paper
//! §3.2.3, Figures 15/16): every sample of every interval must find all
//! regions containing its PC and bump one histogram slot per region.
//! The monitor therefore owns a reusable [`AttributionArena`] — dense
//! per-region histogram storage indexed directly by [`RegionId`] (ids are
//! monotonic and never reused), epoch-stamped so an interval boundary is
//! an O(touched) logical clear rather than an allocation. The whole
//! interval is attributed in one [`RegionIndex::stab_batch`] call, which
//! exploits sample locality (see [`crate::index::HitCache`]) — or, for
//! the flat index on AVX2 dispatch, in the fused vector kernel
//! (`flat_attrib`), the workspace's one SIMD path. Steady-state
//! attribution performs **zero heap allocations**.
//!
//! Consumers read the interval's result through [`ArenaReport`], a
//! borrow-based view equivalent to the owned [`DistributionReport`]; both
//! implement [`AttributionView`] so detectors and pruning accept either.
//! The owned report remains available via [`RegionMonitor::distribute`]
//! (now itself materialized from the arena, so the two paths cannot
//! drift).

use std::collections::BTreeMap;

use regmon_binary::{Addr, AddrRange, INST_BYTES};
use regmon_sampling::PcSample;
use regmon_stats::CountHistogram;

use crate::index::{IndexKind, RegionIndex};
use crate::region::{Region, RegionId, RegionKind};

/// Read-only access to one interval's attribution result.
///
/// Implemented by the owned [`DistributionReport`] and the borrow-based
/// [`ArenaReport`]; detectors and pruning are generic over this so the
/// zero-copy arena path and the legacy owned path share one consumer
/// code base (and therefore cannot diverge).
pub trait AttributionView {
    /// The histogram of one region, or `None` when it received no
    /// samples this interval.
    fn histogram(&self, id: RegionId) -> Option<&CountHistogram>;
    /// Total samples distributed this interval.
    fn total_samples(&self) -> usize;
    /// Samples that fell in no monitored region (the UCR).
    fn unattributed_samples(&self) -> &[PcSample];
    /// Fraction of samples in the UCR, in `[0, 1]` (0 for an empty
    /// interval).
    fn ucr_fraction(&self) -> f64 {
        if self.total_samples() == 0 {
            return 0.0;
        }
        self.unattributed_samples().len() as f64 / self.total_samples() as f64
    }
}

/// Per-interval result of distributing a buffer of samples.
///
/// Overlapping regions each receive the sample (the paper's stacked
/// region charts exceed the buffer size for exactly this reason), so the
/// per-region totals may sum to more than `total_samples`.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionReport {
    per_region: BTreeMap<RegionId, CountHistogram>,
    unattributed: Vec<PcSample>,
    total_samples: usize,
}

impl DistributionReport {
    /// The histogram of one region, or `None` when it received no samples
    /// this interval.
    #[must_use]
    pub fn histogram(&self, id: RegionId) -> Option<&CountHistogram> {
        self.per_region.get(&id)
    }

    /// All `(region, histogram)` pairs that received samples, in id order.
    pub fn histograms(&self) -> impl Iterator<Item = (RegionId, &CountHistogram)> {
        self.per_region.iter().map(|(id, h)| (*id, h))
    }

    /// Number of regions that received samples.
    #[must_use]
    pub fn active_regions(&self) -> usize {
        self.per_region.len()
    }

    /// Samples that fell in no monitored region — the unmonitored code
    /// region (UCR).
    #[must_use]
    pub fn unattributed_samples(&self) -> &[PcSample] {
        &self.unattributed
    }

    /// Total samples distributed this interval.
    #[must_use]
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// Fraction of samples in the UCR, in `[0, 1]` (0 for an empty
    /// interval).
    #[must_use]
    pub fn ucr_fraction(&self) -> f64 {
        AttributionView::ucr_fraction(self)
    }
}

impl AttributionView for DistributionReport {
    fn histogram(&self, id: RegionId) -> Option<&CountHistogram> {
        DistributionReport::histogram(self, id)
    }

    fn total_samples(&self) -> usize {
        self.total_samples
    }

    fn unattributed_samples(&self) -> &[PcSample] {
        &self.unattributed
    }
}

/// One region's reusable attribution state inside the arena.
#[derive(Debug)]
struct ArenaSlot {
    hist: CountHistogram,
    /// Cached region start so the hot loop never touches the region table.
    start: u64,
    /// Last epoch this slot received a sample; stale slots are logically
    /// clear without being touched.
    epoch: u64,
}

/// Reusable per-interval attribution storage.
///
/// Histograms are stored densely, indexed by `RegionId.0` (ids are
/// monotonic per monitor and never reused, so the mapping is stable for
/// a region's whole lifetime). An interval boundary bumps an epoch
/// counter instead of clearing or reallocating anything; a slot is
/// cleared lazily the first time it is touched in a new epoch. The
/// unattributed buffer is likewise reused across intervals.
#[derive(Debug, Default)]
pub struct AttributionArena {
    slots: Vec<Option<ArenaSlot>>,
    /// Regions that received samples this epoch, sorted ascending after
    /// [`AttributionArena::finish`].
    touched: Vec<RegionId>,
    unattributed: Vec<PcSample>,
    epoch: u64,
    total_samples: usize,
}

impl AttributionArena {
    /// Starts a new interval: O(1), nothing is deallocated.
    fn begin(&mut self, total_samples: usize) {
        self.epoch += 1;
        self.touched.clear();
        self.unattributed.clear();
        self.total_samples = total_samples;
    }

    /// Seals the interval: orders the touched set so reports iterate in
    /// region-id order, exactly like the owned [`DistributionReport`].
    fn finish(&mut self) {
        self.touched.sort_unstable();
        if regmon_telemetry::enabled() {
            regmon_telemetry::metrics::ATTRIB_EPOCHS.inc();
            regmon_telemetry::metrics::ATTRIB_SAMPLES.add(self.total_samples as u64);
            regmon_telemetry::metrics::ATTRIB_UNATTRIBUTED.add(self.unattributed.len() as u64);
        }
    }

    /// Ensures `id`'s slot exists and is current for this epoch (lazy
    /// clear + touched-set registration), returning it. `regions` is
    /// consulted only on the very first sample a region ever receives
    /// (slot creation).
    #[inline]
    fn ensure(&mut self, id: RegionId, regions: &BTreeMap<RegionId, Region>) -> &mut ArenaSlot {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let epoch = self.epoch;
        let slot = self.slots[idx].get_or_insert_with(|| {
            let region = &regions[&id];
            ArenaSlot {
                hist: CountHistogram::new(region.slots()),
                start: region.range().start().get(),
                epoch: 0,
            }
        });
        if slot.epoch != epoch {
            slot.hist.clear();
            slot.epoch = epoch;
            self.touched.push(id);
        }
        slot
    }

    /// Records one sample for `id` at `addr`.
    #[inline]
    fn record(&mut self, id: RegionId, addr: Addr, regions: &BTreeMap<RegionId, Region>) {
        let slot = self.ensure(id, regions);
        let off = addr.get() - slot.start;
        slot.hist.record((off / INST_BYTES) as usize);
    }

    #[inline]
    fn slot(&self, id: RegionId) -> Option<&ArenaSlot> {
        self.slots
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .filter(|s| s.epoch == self.epoch)
    }
}

/// Borrow-based view of the current interval's attribution, backed by
/// the monitor's [`AttributionArena`]. Equivalent to (and tested
/// byte-identical with) [`DistributionReport`], without copying a single
/// histogram.
#[derive(Debug, Clone, Copy)]
pub struct ArenaReport<'a> {
    arena: &'a AttributionArena,
}

impl ArenaReport<'_> {
    /// The histogram of one region, or `None` when it received no
    /// samples this interval.
    #[must_use]
    pub fn histogram(&self, id: RegionId) -> Option<&CountHistogram> {
        self.arena.slot(id).map(|s| &s.hist)
    }

    /// All `(region, histogram)` pairs that received samples, in id order.
    pub fn histograms(&self) -> impl Iterator<Item = (RegionId, &CountHistogram)> {
        self.arena.touched.iter().map(|&id| {
            let slot = self.arena.slot(id).expect("touched slot present");
            (id, &slot.hist)
        })
    }

    /// Number of regions that received samples.
    #[must_use]
    pub fn active_regions(&self) -> usize {
        self.arena.touched.len()
    }

    /// Samples that fell in no monitored region — the unmonitored code
    /// region (UCR).
    #[must_use]
    pub fn unattributed_samples(&self) -> &[PcSample] {
        &self.arena.unattributed
    }

    /// Total samples distributed this interval.
    #[must_use]
    pub fn total_samples(&self) -> usize {
        self.arena.total_samples
    }

    /// Fraction of samples in the UCR.
    #[must_use]
    pub fn ucr_fraction(&self) -> f64 {
        AttributionView::ucr_fraction(self)
    }

    /// Materializes an owned [`DistributionReport`] (test support and
    /// legacy callers; the hot path never does this).
    #[must_use]
    pub fn to_owned_report(&self) -> DistributionReport {
        DistributionReport {
            per_region: self.histograms().map(|(id, h)| (id, h.clone())).collect(),
            unattributed: self.unattributed_samples().to_vec(),
            total_samples: self.total_samples(),
        }
    }
}

impl AttributionView for ArenaReport<'_> {
    fn histogram(&self, id: RegionId) -> Option<&CountHistogram> {
        ArenaReport::histogram(self, id)
    }

    fn total_samples(&self) -> usize {
        ArenaReport::total_samples(self)
    }

    fn unattributed_samples(&self) -> &[PcSample] {
        ArenaReport::unattributed_samples(self)
    }
}

/// Durable identity of one monitored region — what [`MonitorSnapshot`]
/// records per region. Everything else the monitor holds (index
/// structures, range table, arena) is derived state rebuilt on restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionRecord {
    /// The region's id (preserved across restore; ids are never reused).
    pub id: RegionId,
    /// Monitored address range.
    pub range: AddrRange,
    /// What formed the region.
    pub kind: RegionKind,
    /// Interval index at formation time.
    pub created_interval: usize,
}

/// Plain-data image of a [`RegionMonitor`]'s durable state. Snapshots
/// are taken at interval boundaries, where the attribution arena is
/// logically clear, so only the region table and the id allocator need
/// to survive; the attribution index and range table are pure functions
/// of the region set and are rebuilt on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// Every monitored region, ascending by id.
    pub regions: Vec<RegionRecord>,
    /// The next id the monitor would hand out.
    pub next_id: u64,
}

/// Holds the monitored regions and their attribution index.
#[derive(Debug)]
pub struct RegionMonitor {
    regions: BTreeMap<RegionId, Region>,
    /// Exact-range lookup: every monitored range maps to its region ids
    /// in ascending (creation) order. Kept in sync by `add_regions` /
    /// `remove_regions` so `region_by_range` is O(log n).
    by_range: BTreeMap<AddrRange, Vec<RegionId>>,
    index: Box<dyn RegionIndex + Send + Sync>,
    next_id: u64,
    arena: AttributionArena,
    /// Reusable buffers of the fused flat-index attribution kernel.
    #[cfg(target_arch = "x86_64")]
    flat_scratch: flat_attrib::FlatScratch,
}

impl RegionMonitor {
    /// Creates an empty monitor using the given attribution index.
    #[must_use]
    pub fn new(index: IndexKind) -> Self {
        Self {
            regions: BTreeMap::new(),
            by_range: BTreeMap::new(),
            index: index.make(),
            next_id: 0,
            arena: AttributionArena::default(),
            #[cfg(target_arch = "x86_64")]
            flat_scratch: flat_attrib::FlatScratch::default(),
        }
    }

    /// Adds a region and returns its id: a one-element
    /// [`RegionMonitor::add_regions`].
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    pub fn add_region(
        &mut self,
        range: AddrRange,
        kind: RegionKind,
        created_interval: usize,
    ) -> RegionId {
        self.add_regions(&[(range, kind)], created_interval)[0]
    }

    /// Adds regions in order, handing out ascending ids, and returns the
    /// ids. The attribution index is updated once for the whole batch
    /// ([`RegionIndex::insert_many`]); the result is the same monitor as
    /// adding them one at a time.
    ///
    /// # Panics
    ///
    /// Panics if any range is empty (before anything is added).
    pub fn add_regions(
        &mut self,
        regions: &[(AddrRange, RegionKind)],
        created_interval: usize,
    ) -> Vec<RegionId> {
        let first = self.next_id;
        let added: Vec<Region> = regions
            .iter()
            .zip(first..)
            .map(|(&(range, kind), id)| Region::new(RegionId(id), range, kind, created_interval))
            .collect();
        self.next_id += added.len() as u64;
        let entries: Vec<(RegionId, AddrRange)> =
            added.iter().map(|r| (r.id(), r.range())).collect();
        self.index.insert_many(&entries);
        for region in added {
            // Ids are handed out in ascending order, so pushing keeps
            // the per-range id list sorted.
            self.by_range
                .entry(region.range())
                .or_default()
                .push(region.id());
            self.regions.insert(region.id(), region);
        }
        (first..self.next_id).map(RegionId).collect()
    }

    /// Removes a region. Returns `true` when it existed: a one-element
    /// [`RegionMonitor::remove_regions`].
    pub fn remove_region(&mut self, id: RegionId) -> bool {
        self.remove_regions(&[id]) == 1
    }

    /// Removes every listed region that exists, updating the attribution
    /// index once for the whole batch ([`RegionIndex::remove_many`]).
    /// Returns how many were removed. The result is the same monitor as
    /// removing them one at a time.
    pub fn remove_regions(&mut self, ids: &[RegionId]) -> usize {
        let mut gone: Vec<(RegionId, AddrRange)> = Vec::with_capacity(ids.len());
        for id in ids {
            let Some(region) = self.regions.remove(id) else {
                continue;
            };
            let range = region.range();
            if let Some(same) = self.by_range.get_mut(&range) {
                same.retain(|i| i != id);
                if same.is_empty() {
                    self.by_range.remove(&range);
                }
            }
            gone.push((*id, range));
        }
        let removed = self.index.remove_many(&gone);
        debug_assert_eq!(removed, gone.len(), "index out of sync with region table");
        gone.len()
    }

    /// The region with the given id.
    #[must_use]
    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.get(&id)
    }

    /// All monitored regions in id (creation) order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.values()
    }

    /// Number of monitored regions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// `true` when no regions are monitored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// `true` when some monitored region covers exactly `range`.
    #[must_use]
    pub fn has_range(&self, range: AddrRange) -> bool {
        self.by_range.contains_key(&range)
    }

    /// The monitored region whose range equals `range`, if any (the
    /// earliest-created one when duplicates exist).
    #[must_use]
    pub fn region_by_range(&self, range: AddrRange) -> Option<&Region> {
        let id = self.by_range.get(&range)?.first()?;
        self.regions.get(id)
    }

    /// Attributes one interval's samples into the monitor's arena —
    /// the zero-allocation hot path. Read the result through
    /// [`RegionMonitor::report`].
    pub fn attribute(&mut self, samples: &[PcSample]) {
        self.arena.begin(samples.len());
        // On AVX2 dispatch, a flat index takes the fused kernel: bulk
        // segment resolution (8-wide) followed by a branch-light
        // histogram fill. Histogram addition commutes and the kernel
        // preserves sample order for the UCR buffer, so its results are
        // identical to the per-sample path below (proven by the
        // equivalence suites at every dispatch level).
        #[cfg(target_arch = "x86_64")]
        if regmon_stats::simd::active() == regmon_stats::SimdLevel::Avx2 {
            if let Some(flat) = self.index.as_flat() {
                if flat.has_table() {
                    flat_attrib::attribute_fused(
                        flat,
                        &self.regions,
                        &mut self.arena,
                        &mut self.flat_scratch,
                        samples,
                    );
                    self.arena.finish();
                    return;
                }
            }
        }
        let Self {
            regions,
            index,
            arena,
            ..
        } = self;
        index.stab_batch(samples, &mut |i, ids| {
            if ids.is_empty() {
                arena.unattributed.push(samples[i]);
            } else {
                let addr = samples[i].addr;
                for &id in ids {
                    arena.record(id, addr, regions);
                }
            }
        });
        arena.finish();
    }

    /// A borrow-based view of the most recent
    /// [`RegionMonitor::attribute`] result.
    #[must_use]
    pub fn report(&self) -> ArenaReport<'_> {
        ArenaReport { arena: &self.arena }
    }

    /// Takes the arena's unattributed buffer, leaving it empty, so the
    /// caller can hold the UCR samples while mutating the monitor
    /// (region formation). Pair with
    /// [`RegionMonitor::restore_unattributed`].
    #[must_use]
    pub fn take_unattributed(&mut self) -> Vec<PcSample> {
        std::mem::take(&mut self.arena.unattributed)
    }

    /// Returns a buffer taken by [`RegionMonitor::take_unattributed`],
    /// preserving its allocation for the next interval.
    pub fn restore_unattributed(&mut self, buf: Vec<PcSample>) {
        self.arena.unattributed = buf;
    }

    /// Distributes one interval's samples across the monitored regions,
    /// returning an owned report.
    ///
    /// Every region containing a sample's PC receives it in the slot
    /// `(pc − region.start) / INST_BYTES`; samples contained by no region
    /// are collected as the UCR. This runs the same arena path as
    /// [`RegionMonitor::attribute`] and then copies the result out; hot
    /// callers should use `attribute` + [`RegionMonitor::report`]
    /// instead.
    pub fn distribute(&mut self, samples: &[PcSample]) -> DistributionReport {
        self.attribute(samples);
        self.report().to_owned_report()
    }

    /// Exports the monitor's durable state for checkpointing. Must be
    /// called at an interval boundary (after the last interval's
    /// consumers are done with [`RegionMonitor::report`]): the arena's
    /// per-interval contents are deliberately not captured.
    #[must_use]
    pub fn export(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            regions: self
                .regions
                .values()
                .map(|r| RegionRecord {
                    id: r.id(),
                    range: r.range(),
                    kind: r.kind(),
                    created_interval: r.created_interval(),
                })
                .collect(),
            next_id: self.next_id,
        }
    }

    /// Rebuilds a monitor from an exported snapshot: region ids are
    /// preserved (so downstream per-region state keyed by id stays
    /// valid), the attribution index and range table are reconstructed,
    /// and the arena starts fresh — exactly the state an original
    /// monitor has at the same interval boundary.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's regions are not strictly ascending by
    /// id or an id is not below `next_id`.
    #[must_use]
    pub fn restore(index: IndexKind, snapshot: MonitorSnapshot) -> Self {
        let mut monitor = Self::new(index);
        let mut prev: Option<RegionId> = None;
        let mut entries = Vec::with_capacity(snapshot.regions.len());
        for record in snapshot.regions {
            assert!(
                prev.map_or(true, |p| p < record.id),
                "snapshot regions must be strictly ascending by id"
            );
            assert!(
                record.id.0 < snapshot.next_id,
                "snapshot region id {} not below next_id {}",
                record.id,
                snapshot.next_id
            );
            prev = Some(record.id);
            let region = Region::new(
                record.id,
                record.range,
                record.kind,
                record.created_interval,
            );
            entries.push((record.id, record.range));
            monitor
                .by_range
                .entry(record.range)
                .or_default()
                .push(record.id);
            monitor.regions.insert(record.id, region);
        }
        monitor.index.insert_many(&entries);
        monitor.next_id = snapshot.next_id;
        monitor
    }
}

/// The fused flat-index attribution kernel (AVX2 dispatch only).
///
/// Instead of funnelling every sample through the `stab_batch` emit
/// callback and a per-sample arena lookup, the interval is attributed
/// in two passes:
///
/// 1. **Segment resolution** — [`FlatSortedIndex::segments_bulk_avx2`]
///    maps all samples to elementary segments, eight at a time.
/// 2. **Fill** — one branch-light pass bumps histogram slots through
///    per-segment *descriptors*: each distinct segment's first sample
///    builds a cursor into its (single) region's arena histogram — slot
///    ensure/clear/touched bookkeeping once per segment instead of once
///    per sample — and every later sample is a masked add through that
///    cursor. The cold cases branch off that one tag compare: a UCR
///    sample is written by raw pointer into the unattributed buffer's
///    reserved capacity (the length is committed once, after the
///    loop), and a sample in a multi-id (overlapping-region) segment
///    is deferred to the ordinary `record` path.
///
/// Equivalence with the per-sample oracle: histogram addition over u64
/// commutes, the UCR buffer is filled in input order, and the touched
/// set is sorted by [`AttributionArena::finish`] — so every observable
/// output is identical (the SIMD equivalence suites assert this
/// end-to-end at each dispatch level).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod flat_attrib {
    use std::collections::BTreeMap;

    use regmon_binary::INST_BYTES;
    use regmon_sampling::PcSample;

    use super::AttributionArena;
    use crate::index::FlatSortedIndex;
    use crate::region::{Region, RegionId};

    /// Exactly one region claims the segment: samples bump its arena
    /// histogram straight through the descriptor cursor.
    const KIND_SINGLE: u8 = 0;
    /// No region claims the segment (UCR): samples append to the
    /// unattributed buffer.
    const KIND_UCR: u8 = 1;
    /// Overlapping regions: samples defer to the ordinary `record`
    /// path.
    const KIND_MULTI: u8 = 2;

    /// One segment's attribution cursor, rebuilt lazily each interval
    /// (an entry is live only while its tag's epoch matches the
    /// arena's). The histogram pointer is carried as `usize` so the
    /// scratch stays plain data and the monitor stays `Send`; it is
    /// only ever formed and dereferenced inside one
    /// [`attribute_fused`] call.
    #[derive(Debug, Clone, Copy)]
    struct SegDesc {
        /// `epoch << 2 | KIND_*`: the fill loop's single compare
        /// against `epoch << 2` answers "live and single-region?" in
        /// one branch (arena epochs are far below 2^62).
        tag: u64,
        /// The region's arena histogram slot buffer (`KIND_SINGLE`
        /// only; 0 otherwise, never dereferenced).
        base: usize,
        /// Region start (slot 0's address); 0 for UCR/multi.
        start: u64,
        /// The segment's inclusive slot range in the region histogram
        /// (`KIND_SINGLE` only): settle sums it to recover the hit
        /// count instead of bumping a counter per sample. Segments are
        /// disjoint address runs, so their slot ranges are disjoint
        /// even within one region.
        slot_lo: u32,
        slot_hi: u32,
        /// Region receiving the hits (`KIND_SINGLE` only).
        id: RegionId,
    }

    impl SegDesc {
        fn kind(&self) -> u8 {
            (self.tag & 3) as u8
        }
    }

    const STALE: SegDesc = SegDesc {
        tag: KIND_UCR as u64, // epoch 0: never a live interval
        base: 0,
        start: 0,
        slot_lo: 0,
        slot_hi: 0,
        id: RegionId(0),
    };

    /// Reusable buffers; plain data only (see [`SegDesc`]).
    #[derive(Debug, Default)]
    pub(super) struct FlatScratch {
        /// Per-sample elementary segment (pass 1 output).
        segs: Vec<u32>,
        /// Per-segment descriptors, indexed by segment (one trailing
        /// entry for the out-of-span sentinel).
        descs: Vec<SegDesc>,
        /// Segments with a live descriptor this interval.
        uniq: Vec<u32>,
        /// Sample indices deferred to the multi-id slow path.
        multi: Vec<u32>,
    }

    /// See the module docs. Caller contract: AVX2 dispatch is active,
    /// `flat.has_table()`, and `arena.begin` has been called for this
    /// interval.
    pub(super) fn attribute_fused(
        flat: &FlatSortedIndex,
        regions: &BTreeMap<RegionId, Region>,
        arena: &mut AttributionArena,
        scratch: &mut FlatScratch,
        samples: &[PcSample],
    ) {
        let FlatScratch {
            segs,
            descs,
            uniq,
            multi,
        } = scratch;
        flat.segments_bulk_avx2(samples, segs);

        // The resolver writes `nsegs` for out-of-span samples, so every
        // entry of `segs` indexes the `nsegs + 1`-entry descriptor
        // table directly. `epoch` is bumped by `arena.begin`, so stale
        // descriptors (earlier intervals, or an index recompile between
        // intervals) never match and `STALE` (epoch 0) never collides.
        let nsegs = flat.nsegs();
        if descs.len() < nsegs + 1 {
            descs.resize(nsegs + 1, STALE);
        }
        let epoch = arena.epoch;
        uniq.clear();
        multi.clear();

        let mut unattr = std::mem::take(&mut arena.unattributed);
        debug_assert!(unattr.is_empty(), "begin() clears the UCR buffer");
        unattr.reserve(samples.len());
        let uptr = unattr.as_mut_ptr();
        let mut ulen = 0usize;
        let live_single = epoch << 2; // | KIND_SINGLE
        let dptr = descs.as_mut_ptr();
        for (i, (sample, &seg32)) in samples.iter().zip(segs.iter()).enumerate() {
            // SAFETY: the resolver writes `seg32 <= nsegs` and `descs`
            // holds `nsegs + 1` live entries.
            let d = unsafe { &mut *dptr.add(seg32 as usize) };
            if d.tag != live_single {
                // Cold: stale descriptor, UCR or multi.
                if d.tag >> 2 != epoch {
                    *d = build_desc(flat, regions, arena, seg32, seg32 as usize == nsegs, epoch);
                    uniq.push(seg32);
                }
                if d.kind() == KIND_UCR {
                    // SAFETY: `ulen` advances at most once per sample
                    // and `unattr` reserved `samples.len()`; committed
                    // below via `set_len(ulen)`.
                    unsafe { uptr.add(ulen).write(*sample) };
                    ulen += 1;
                    continue;
                }
                if d.kind() == KIND_MULTI {
                    multi.push(i as u32);
                    continue;
                }
            }
            let slot = (sample.addr.get().wrapping_sub(d.start) / INST_BYTES) as usize;
            // SAFETY: `build_desc` checked that the whole segment span
            // maps into the histogram, and segment resolution
            // guarantees the sample's address lies in that span. The
            // buffer itself is kept alive and unmoved by the arena for
            // the whole pass — slot buffers never shrink or relocate.
            unsafe { *(d.base as *mut u64).add(slot) += 1 };
        }
        // SAFETY: exactly `ulen` leading cells were initialised above.
        unsafe { unattr.set_len(ulen) };
        arena.unattributed = unattr;

        // Settle histogram totals (counts were bumped raw): each
        // single-region descriptor's hits are the sum of its disjoint
        // slot range, all contributed by this interval's fill (the
        // range was cleared when the descriptor ensured its slot, and
        // the deferred multi replay below goes through `record`, which
        // keeps counts and total consistent by itself). Per-interval
        // counts are bounded by the interval's sample count, so the
        // totals cannot saturate.
        for &seg in uniq.iter() {
            let d = descs[seg as usize];
            if d.kind() == KIND_SINGLE {
                let hist = &mut arena.ensure(d.id, regions).hist;
                let hits: u64 = hist.counts()[d.slot_lo as usize..=d.slot_hi as usize]
                    .iter()
                    .sum();
                if hits > 0 {
                    hist.note_bulk_records(hits);
                }
            }
        }
        for &i in multi.iter() {
            let sample = &samples[i as usize];
            for &id in flat.seg_ids(segs[i as usize]) {
                arena.record(id, sample.addr, regions);
            }
        }
    }

    /// Builds the descriptor of one segment, ensuring its region's
    /// arena slot (single-id segments reserve their histogram cursor
    /// here; multi-id segments are handled entirely by the deferred
    /// `record` path, which does its own ensures).
    fn build_desc(
        flat: &FlatSortedIndex,
        regions: &BTreeMap<RegionId, Region>,
        arena: &mut AttributionArena,
        raw_seg: u32,
        out_of_span: bool,
        epoch: u64,
    ) -> SegDesc {
        let ids = if out_of_span {
            &[][..]
        } else {
            flat.seg_ids(raw_seg)
        };
        match ids {
            [] => SegDesc {
                tag: epoch << 2 | KIND_UCR as u64,
                ..STALE
            },
            &[id] => {
                let slot = arena.ensure(id, regions);
                let (seg_lo, seg_hi) = flat.seg_span(raw_seg);
                // Hoisted bounds proof for the raw adds in the fill
                // loop: the segment's highest address must map inside
                // the histogram (same contract `CountHistogram::record`
                // enforces per sample).
                debug_assert!(seg_lo >= slot.start, "segment below its region");
                let slot_lo = (seg_lo - slot.start) / INST_BYTES;
                let slot_hi = (seg_hi - 1).wrapping_sub(slot.start) / INST_BYTES;
                assert!(
                    (slot_hi as usize) < slot.hist.slots(),
                    "attribution slot out of bounds"
                );
                SegDesc {
                    tag: epoch << 2 | KIND_SINGLE as u64,
                    base: slot.hist.counts_mut().as_mut_ptr() as usize,
                    start: slot.start,
                    slot_lo: slot_lo as u32,
                    slot_hi: slot_hi as u32,
                    id,
                }
            }
            _ => SegDesc {
                tag: epoch << 2 | KIND_MULTI as u64,
                ..STALE
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmon_binary::Addr;

    fn sample(addr: u64) -> PcSample {
        PcSample {
            addr: Addr::new(addr),
            cycle: 0,
        }
    }

    fn range(start: u64, end: u64) -> AddrRange {
        AddrRange::new(Addr::new(start), Addr::new(end))
    }

    #[test]
    fn add_and_remove_regions() {
        let mut mon = RegionMonitor::new(IndexKind::Linear);
        let a = mon.add_region(range(0x100, 0x140), RegionKind::Custom, 0);
        let b = mon.add_region(range(0x200, 0x240), RegionKind::Custom, 1);
        assert_ne!(a, b);
        assert_eq!(mon.len(), 2);
        assert!(mon.remove_region(a));
        assert!(!mon.remove_region(a));
        assert_eq!(mon.len(), 1);
        assert!(mon.region(b).is_some());
        assert!(mon.region(a).is_none());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut mon = RegionMonitor::new(IndexKind::Linear);
        let a = mon.add_region(range(0x100, 0x140), RegionKind::Custom, 0);
        mon.remove_region(a);
        let b = mon.add_region(range(0x100, 0x140), RegionKind::Custom, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn distribute_fills_slots() {
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let id = mon.add_region(range(0x100, 0x120), RegionKind::Custom, 0);
        let report = mon.distribute(&[sample(0x100), sample(0x104), sample(0x104)]);
        let h = report.histogram(id).unwrap();
        assert_eq!(h.counts(), &[1, 2, 0, 0, 0, 0, 0, 0]);
        assert_eq!(report.ucr_fraction(), 0.0);
    }

    #[test]
    fn overlapping_regions_both_count() {
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        let outer = mon.add_region(range(0x100, 0x200), RegionKind::Loop { depth: 0 }, 0);
        let inner = mon.add_region(range(0x140, 0x180), RegionKind::Loop { depth: 1 }, 0);
        let report = mon.distribute(&[sample(0x150)]);
        assert_eq!(report.histogram(outer).unwrap().total(), 1);
        assert_eq!(report.histogram(inner).unwrap().total(), 1);
        // The stacked total exceeds the number of samples, as in Figure 2.
        let stacked: u64 = report.histograms().map(|(_, h)| h.total()).sum();
        assert_eq!(stacked, 2);
        assert_eq!(report.total_samples(), 1);
    }

    #[test]
    fn unattributed_samples_form_the_ucr() {
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        mon.add_region(range(0x100, 0x140), RegionKind::Custom, 0);
        let report = mon.distribute(&[sample(0x100), sample(0x500), sample(0x600)]);
        assert_eq!(report.unattributed_samples().len(), 2);
        assert!((report.ucr_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_interval_reports_zero_ucr() {
        let mut mon = RegionMonitor::new(IndexKind::Linear);
        let report = mon.distribute(&[]);
        assert_eq!(report.total_samples(), 0);
        assert_eq!(report.ucr_fraction(), 0.0);
        assert_eq!(report.active_regions(), 0);
    }

    #[test]
    fn has_range_and_lookup() {
        let mut mon = RegionMonitor::new(IndexKind::Linear);
        let id = mon.add_region(range(0x100, 0x140), RegionKind::Custom, 3);
        assert!(mon.has_range(range(0x100, 0x140)));
        assert!(!mon.has_range(range(0x100, 0x144)));
        assert_eq!(mon.region_by_range(range(0x100, 0x140)).unwrap().id(), id);
    }

    #[test]
    fn region_by_range_prefers_earliest_id_and_survives_removal() {
        let mut mon = RegionMonitor::new(IndexKind::Linear);
        let a = mon.add_region(range(0x100, 0x140), RegionKind::Custom, 0);
        let b = mon.add_region(range(0x100, 0x140), RegionKind::Custom, 1);
        assert_eq!(mon.region_by_range(range(0x100, 0x140)).unwrap().id(), a);
        assert!(mon.remove_region(a));
        assert_eq!(mon.region_by_range(range(0x100, 0x140)).unwrap().id(), b);
        assert!(mon.remove_region(b));
        assert!(mon.region_by_range(range(0x100, 0x140)).is_none());
        assert!(!mon.has_range(range(0x100, 0x140)));
    }

    #[test]
    fn linear_and_tree_monitors_agree() {
        let mut a = RegionMonitor::new(IndexKind::Linear);
        let mut b = RegionMonitor::new(IndexKind::IntervalTree);
        for (s, e) in [(0x100u64, 0x180u64), (0x140, 0x1c0), (0x300, 0x340)] {
            a.add_region(range(s, e), RegionKind::Custom, 0);
            b.add_region(range(s, e), RegionKind::Custom, 0);
        }
        let samples: Vec<PcSample> = (0..200).map(|i| sample(0x100 + i * 4)).collect();
        let ra = a.distribute(&samples);
        let rb = b.distribute(&samples);
        assert_eq!(ra, rb);
    }

    #[test]
    fn arena_report_matches_owned_report() {
        for kind in [
            IndexKind::Linear,
            IndexKind::IntervalTree,
            IndexKind::FlatSorted,
        ] {
            let mut mon = RegionMonitor::new(kind);
            mon.add_region(range(0x100, 0x180), RegionKind::Custom, 0);
            mon.add_region(range(0x140, 0x1c0), RegionKind::Custom, 0);
            let samples: Vec<PcSample> =
                (0..300).map(|i| sample(0x100 + (i * 7) % 0x200)).collect();
            let owned = mon.distribute(&samples);
            // `distribute` went through the arena; the view must agree.
            let view = mon.report();
            assert_eq!(view.to_owned_report(), owned, "{kind:?}");
            assert_eq!(view.active_regions(), owned.active_regions());
            assert_eq!(view.ucr_fraction(), owned.ucr_fraction());
            let ids_view: Vec<RegionId> = view.histograms().map(|(id, _)| id).collect();
            let ids_owned: Vec<RegionId> = owned.histograms().map(|(id, _)| id).collect();
            assert_eq!(ids_view, ids_owned, "id order must match");
        }
    }

    #[test]
    fn arena_is_reset_between_intervals() {
        let mut mon = RegionMonitor::new(IndexKind::FlatSorted);
        let id = mon.add_region(range(0x100, 0x120), RegionKind::Custom, 0);
        mon.attribute(&[sample(0x104), sample(0x104)]);
        assert_eq!(mon.report().histogram(id).unwrap().total(), 2);
        mon.attribute(&[sample(0x500)]);
        assert!(mon.report().histogram(id).is_none(), "stale epoch leaked");
        assert_eq!(mon.report().unattributed_samples().len(), 1);
        mon.attribute(&[sample(0x100)]);
        assert_eq!(mon.report().histogram(id).unwrap().counts()[0], 1);
        assert_eq!(
            mon.report().histogram(id).unwrap().total(),
            1,
            "histogram must be cleared, not accumulated"
        );
    }

    #[test]
    fn take_restore_unattributed_round_trips() {
        let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
        mon.add_region(range(0x100, 0x140), RegionKind::Custom, 0);
        mon.attribute(&[sample(0x100), sample(0x900)]);
        let buf = mon.take_unattributed();
        assert_eq!(buf.len(), 1);
        assert!(mon.report().unattributed_samples().is_empty());
        mon.restore_unattributed(buf);
        assert_eq!(mon.report().unattributed_samples().len(), 1);
    }

    #[test]
    fn export_restore_preserves_regions_ids_and_attribution() {
        for kind in [
            IndexKind::Linear,
            IndexKind::IntervalTree,
            IndexKind::FlatSorted,
        ] {
            let mut mon = RegionMonitor::new(kind);
            let a = mon.add_region(range(0x100, 0x180), RegionKind::Loop { depth: 1 }, 2);
            mon.add_region(range(0x140, 0x1c0), RegionKind::Custom, 3);
            mon.remove_region(a);
            let c = mon.add_region(range(0x300, 0x340), RegionKind::Procedure, 5);
            let snap = mon.export();
            let mut restored = RegionMonitor::restore(kind, snap.clone());
            assert_eq!(restored.export(), snap, "{kind:?}");
            assert_eq!(restored.len(), mon.len());
            assert_eq!(restored.region(c).unwrap().created_interval(), 5);
            // Ids keep advancing past the snapshot's allocator position.
            let d = restored.add_region(range(0x500, 0x540), RegionKind::Custom, 7);
            assert_eq!(
                d,
                mon.add_region(range(0x500, 0x540), RegionKind::Custom, 7)
            );
            // Attribution through the rebuilt index matches the original.
            let samples: Vec<PcSample> =
                (0..300).map(|i| sample(0x100 + (i * 7) % 0x500)).collect();
            assert_eq!(
                restored.distribute(&samples),
                mon.distribute(&samples),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn bulk_restore_matches_incremental_build() {
        for kind in [
            IndexKind::Linear,
            IndexKind::IntervalTree,
            IndexKind::FlatSorted,
        ] {
            // Overlapping, nested and duplicate ranges, with removals so
            // the snapshot's ids have gaps. `mon` adds and removes one
            // region at a time; `batched` takes each chunk of ten in one
            // `add_regions` and its removals in one `remove_regions`.
            let mut mon = RegionMonitor::new(kind);
            let mut batched = RegionMonitor::new(kind);
            for chunk in 0..12u64 {
                let items: Vec<(AddrRange, RegionKind)> = (chunk * 10..chunk * 10 + 10)
                    .map(|i| {
                        let start = 0x100 + (i * 0x34) % 0x900;
                        (
                            range(start, start + 0x40 + (i % 7) * 0x20),
                            RegionKind::Custom,
                        )
                    })
                    .collect();
                let one_by_one: Vec<RegionId> = items
                    .iter()
                    .map(|&(r, k)| mon.add_region(r, k, chunk as usize))
                    .collect();
                let ids = batched.add_regions(&items, chunk as usize);
                assert_eq!(ids, one_by_one, "{kind:?}");
                // Every fifth region goes, plus an id removed before and
                // one never handed out: neither counts.
                let mut doomed: Vec<RegionId> = ids.iter().copied().skip(3).step_by(5).collect();
                let removed = doomed.iter().filter(|&&id| mon.remove_region(id)).count();
                doomed.extend([doomed[0], RegionId(9_999)]);
                assert_eq!(batched.remove_regions(&doomed), removed, "{kind:?}");
            }
            assert_eq!(batched.export(), mon.export(), "{kind:?}");
            let mut restored = RegionMonitor::restore(kind, mon.export());
            let (mut want, mut got, mut got_batched) = (Vec::new(), Vec::new(), Vec::new());
            for a in (0x80..0xc00u64).step_by(4) {
                want.clear();
                got.clear();
                got_batched.clear();
                mon.index.stab(Addr::new(a), &mut want);
                batched.index.stab(Addr::new(a), &mut got_batched);
                assert_eq!(got_batched, want, "{kind:?} batched stab {a:#x}");
                restored.index.stab(Addr::new(a), &mut got);
                want.sort();
                got.sort();
                assert_eq!(got, want, "{kind:?} stab {a:#x}");
            }
            let samples: Vec<PcSample> = (0..2_000)
                .map(|i| sample(0x80 + (i * 13) % 0xb80))
                .collect();
            mon.attribute(&samples);
            restored.attribute(&samples);
            batched.attribute(&samples);
            assert_eq!(
                restored.report().to_owned_report(),
                mon.report().to_owned_report(),
                "{kind:?}"
            );
            assert_eq!(
                batched.report().to_owned_report(),
                mon.report().to_owned_report(),
                "{kind:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn restore_rejects_unsorted_snapshot() {
        let record = |id: u64| RegionRecord {
            id: RegionId(id),
            range: range(0x100 * (id + 1), 0x100 * (id + 1) + 0x40),
            kind: RegionKind::Custom,
            created_interval: 0,
        };
        let _ = RegionMonitor::restore(
            IndexKind::Linear,
            MonitorSnapshot {
                regions: vec![record(3), record(1)],
                next_id: 4,
            },
        );
    }
}
