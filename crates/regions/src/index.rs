//! Pluggable sample-attribution indexes.
//!
//! Attribution maps a sampled PC to *all* monitored regions containing it.
//! [`LinearIndex`] is the prototype's O(n) list walk; [`IntervalTreeIndex`]
//! is the paper's proposed O(log n + k) replacement; [`FlatSortedIndex`]
//! flattens the interval set into sorted elementary segments fronted by
//! a direct-mapped bucket table, so a stab is one shift + one load + a
//! short scan — no pointer chasing at all, and is the default
//! ([`IndexKind::default`]). All three answer exactly the same queries —
//! Figure 16 compares only their cost.
//!
//! # Batch attribution
//!
//! The monitor's hot path hands the index a whole interval of samples at
//! once via [`RegionIndex::stab_batch`]. The default implementation walks
//! the samples in order through a one-entry **last-hit cache**
//! ([`HitCache`]): every stab also reports the *validity window* — the
//! maximal address range around the query on which the answer set is
//! constant (bounded by the nearest region boundaries) — and consecutive
//! samples that land in the same window are answered without touching the
//! index at all. The paper observes exactly this locality: hot PCs
//! cluster in a handful of regions, so intra-interval streams hit the
//! cache far more often than they miss. [`FlatSortedIndex`] overrides
//! the batch with the same window-cache structure inlined around its
//! O(1) bucket-table lookup, so even locality-free streams stay cheap.

use core::fmt;

use regmon_binary::{Addr, AddrRange};
use regmon_sampling::PcSample;

use crate::interval_tree::IntervalTree;
use crate::region::RegionId;

/// A one-entry last-hit cache for stabbing queries.
///
/// Stores the answer of the previous stab together with the half-open
/// address window `[lo, hi)` on which that answer remains valid (no
/// region boundary lies strictly inside the window). Attribution streams
/// exhibit strong sample locality — consecutive samples usually fall in
/// the same elementary segment — so most lookups are answered here.
#[derive(Debug, Clone, Default)]
pub struct HitCache {
    lo: u64,
    hi: u64,
    ids: Vec<RegionId>,
    valid: bool,
}

impl HitCache {
    /// Creates an empty (always-missing) cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when the cached answer covers `addr`.
    #[must_use]
    pub fn covers(&self, addr: Addr) -> bool {
        self.valid && self.lo <= addr.get() && addr.get() < self.hi
    }

    /// The cached answer set (meaningful only after a fill).
    #[must_use]
    pub fn ids(&self) -> &[RegionId] {
        &self.ids
    }

    /// Refills the cache for `addr` by querying `index`, then returns the
    /// (now cached) answer set.
    pub fn refill(&mut self, index: &(impl RegionIndex + ?Sized), addr: Addr) -> &[RegionId] {
        self.ids.clear();
        let (lo, hi) = index.stab_window(addr, &mut self.ids);
        self.lo = lo;
        self.hi = hi;
        self.valid = true;
        &self.ids
    }

    /// Invalidates the cache (e.g. after the index mutated).
    pub fn clear(&mut self) {
        self.valid = false;
    }
}

/// A container of `(RegionId, AddrRange)` pairs supporting stabbing
/// queries.
pub trait RegionIndex: fmt::Debug {
    /// Adds an interval.
    fn insert(&mut self, id: RegionId, range: AddrRange);
    /// Adds every interval of `items`: the same index as inserting them
    /// one at a time. Indexes that recompile on mutation override this
    /// to recompile once.
    fn insert_many(&mut self, items: &[(RegionId, AddrRange)]) {
        for &(id, range) in items {
            self.insert(id, range);
        }
    }
    /// Removes an interval; returns `true` when it was present.
    fn remove(&mut self, id: RegionId, range: AddrRange) -> bool;
    /// Removes every interval of `items` that is present and returns how
    /// many were: the same index as removing them one at a time.
    /// Indexes that recompile on mutation override this to recompile
    /// once.
    fn remove_many(&mut self, items: &[(RegionId, AddrRange)]) -> usize {
        items
            .iter()
            .filter(|&&(id, range)| self.remove(id, range))
            .count()
    }
    /// Appends all ids whose interval contains `addr` to `out`.
    fn stab(&self, addr: Addr, out: &mut Vec<RegionId>);
    /// Number of stored intervals.
    fn len(&self) -> usize;
    /// `true` when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Like [`RegionIndex::stab`], but additionally returns the maximal
    /// half-open window `[lo, hi)` containing `addr` on which the answer
    /// set is constant (i.e. no region start/end lies in `(lo, hi)`
    /// other than at `lo` itself). Implementations may return a
    /// conservative (smaller) window; the default returns the degenerate
    /// single-address window.
    fn stab_window(&self, addr: Addr, out: &mut Vec<RegionId>) -> (u64, u64) {
        self.stab(addr, out);
        (addr.get(), addr.get().saturating_add(1))
    }

    /// Attributes a whole interval of samples: invokes
    /// `emit(i, ids)` exactly once per sample, **in input order**, where
    /// `i` is the sample's position in `samples` and `ids` the set of
    /// containing regions (empty slice for UCR samples).
    ///
    /// The default implementation streams the samples through a
    /// thread-local [`HitCache`] (invalidated on entry, so index
    /// mutations between batches are safe) so runs of samples in the
    /// same elementary segment cost one slice borrow each and the batch
    /// performs no steady-state allocation. Implementations may override
    /// with a sort-and-merge strategy; the emitted sets must be
    /// identical.
    fn stab_batch(&self, samples: &[PcSample], emit: &mut dyn FnMut(usize, &[RegionId])) {
        BATCH_CACHE.with(|cell| {
            let cache = &mut *cell.borrow_mut();
            cache.clear();
            for (i, sample) in samples.iter().enumerate() {
                if cache.covers(sample.addr) {
                    emit(i, cache.ids());
                } else {
                    emit(i, cache.refill(self, sample.addr));
                }
            }
        });
    }

    /// Downcast hook for the monitor's fused flat-index attribution
    /// kernel ([`crate::RegionMonitor::attribute`]); only
    /// [`FlatSortedIndex`] returns itself.
    fn as_flat(&self) -> Option<&FlatSortedIndex> {
        None
    }
}

/// Which index implementation a [`crate::RegionMonitor`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// O(n) list scan per sample (the prototype's scheme).
    Linear,
    /// O(log n + k) augmented-tree stab per sample (paper §3.2.3).
    IntervalTree,
    /// Flat sorted segment array behind a direct-mapped bucket table:
    /// O(1) per stab with zero pointer chasing; rebuilds on mutation.
    /// The default: the only kind with the AVX2 fused attribution
    /// kernel.
    #[default]
    FlatSorted,
}

impl IndexKind {
    /// Instantiates the chosen index.
    #[must_use]
    pub fn make(self) -> Box<dyn RegionIndex + Send + Sync> {
        match self {
            Self::Linear => Box::new(LinearIndex::new()),
            Self::IntervalTree => Box::new(IntervalTreeIndex::new()),
            Self::FlatSorted => Box::new(FlatSortedIndex::new()),
        }
    }

    /// Parses a CLI-style name (`linear`/`list`, `tree`/`interval-tree`,
    /// `flat`/`flat-sorted`).
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "linear" | "list" => Ok(Self::Linear),
            "tree" | "interval-tree" => Ok(Self::IntervalTree),
            "flat" | "flat-sorted" => Ok(Self::FlatSorted),
            other => Err(format!(
                "unknown index kind {other:?}; expected linear|tree|flat"
            )),
        }
    }

    /// Stable short label (`linear`/`tree`/`flat`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Linear => "linear",
            Self::IntervalTree => "tree",
            Self::FlatSorted => "flat",
        }
    }
}

/// The O(n) per-sample list scan.
#[derive(Debug, Clone, Default)]
pub struct LinearIndex {
    entries: Vec<(RegionId, AddrRange)>,
}

impl LinearIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl RegionIndex for LinearIndex {
    fn insert(&mut self, id: RegionId, range: AddrRange) {
        self.entries.push((id, range));
    }

    fn remove(&mut self, id: RegionId, range: AddrRange) -> bool {
        match self.entries.iter().position(|e| *e == (id, range)) {
            Some(pos) => {
                self.entries.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    fn stab(&self, addr: Addr, out: &mut Vec<RegionId>) {
        for (id, range) in &self.entries {
            if range.contains(addr) {
                out.push(*id);
            }
        }
    }

    fn stab_window(&self, addr: Addr, out: &mut Vec<RegionId>) -> (u64, u64) {
        let a = addr.get();
        let (mut lo, mut hi) = (0u64, u64::MAX);
        for (id, range) in &self.entries {
            let (s, e) = (range.start().get(), range.end().get());
            if s <= a && a < e {
                out.push(*id);
                lo = lo.max(s);
                hi = hi.min(e);
            } else if s > a {
                hi = hi.min(s);
            } else {
                // Entire range at or below addr: its nearest boundary is
                // its end (or its start, for empty ranges).
                lo = lo.max(e.max(s));
            }
        }
        (lo, hi)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The O(log n + k) augmented-tree index.
#[derive(Debug, Clone, Default)]
pub struct IntervalTreeIndex {
    tree: IntervalTree,
}

impl IntervalTreeIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl RegionIndex for IntervalTreeIndex {
    fn insert(&mut self, id: RegionId, range: AddrRange) {
        self.tree.insert(id, range);
    }

    fn remove(&mut self, id: RegionId, range: AddrRange) -> bool {
        self.tree.remove(id, range)
    }

    fn stab(&self, addr: Addr, out: &mut Vec<RegionId>) {
        self.tree.stab(addr, out);
    }

    fn stab_window(&self, addr: Addr, out: &mut Vec<RegionId>) -> (u64, u64) {
        self.tree.stab_window(addr, out)
    }

    fn len(&self) -> usize {
        self.tree.len()
    }
}

std::thread_local! {
    /// Per-thread [`HitCache`] backing the default
    /// [`RegionIndex::stab_batch`], so repeated batches on one thread
    /// (the shard-worker steady state) never allocate.
    static BATCH_CACHE: std::cell::RefCell<HitCache> =
        std::cell::RefCell::new(HitCache::new());
}

/// Sentinel segment meaning "outside every elementary segment".
pub(crate) const NO_SEG: u32 = u32::MAX;

/// Upper bound on the bucket table's entry count (128 KiB of `u32`s).
/// The shift widens until the covered span fits.
const TABLE_MAX_ENTRIES: usize = 1 << 15;

/// The segment containing `addr`, from `seg`, the segment of the first
/// address of `addr`'s bucket. Below the table cap a bucket's interior
/// holds at most one cut, so one branch-free compare-and-add resolves
/// it. Only a `capped` table (see [`FlatSortedIndex::table_capped`])
/// scans past the further cuts its wider buckets may hold; the flag is
/// fixed per table, so that branch always predicts, and an uncapped
/// lookup carries no second dependent load.
///
/// Requires `cuts[seg] <= addr < cuts[last]`, which keeps every load in
/// bounds.
#[inline(always)]
fn step_past_cuts(cuts: &[u64], mut seg: usize, addr: u64, capped: bool) -> usize {
    seg += usize::from(cuts[seg + 1] <= addr);
    if capped {
        while cuts[seg + 1] <= addr {
            seg += 1;
        }
    }
    seg
}

/// A flat, fully sorted attribution index.
///
/// The interval set is compiled into *elementary segments*: the sorted,
/// deduplicated array of all region boundaries (`cuts`) splits the
/// address space into runs on which the answer set is constant, and a
/// CSR layout (`offsets` into `ids`) stores each run's covering regions
/// (sorted by id). A stab is a segment lookup over a contiguous `u64`
/// array plus one slice borrow — no pointer chasing, no per-node
/// branching.
///
/// The segment lookup itself is served by a direct-mapped *bucket
/// table*: the covered span is split into `2^shift`-byte buckets, each
/// storing the segment containing its first address. A bucket is no
/// wider than the narrowest elementary segment (gaps between regions
/// count), so at most one cut lies inside it, and a lookup is one
/// shift, one `u32` load and one branch-free compare-and-add, however
/// far apart the regions lie. Only a span too wide for
/// [`TABLE_MAX_ENTRIES`] buckets of that width widens the shift
/// (bounding memory for arbitrarily wide binaries); a bucket may then
/// hold several cuts, and a forward scan past them follows the single
/// step.
///
/// Mutations recompile segments and table (O(n log n + coverage +
/// buckets)). On region-churning programs regions do change often — a
/// pruned churn workload makes about one index mutation per interval —
/// but stabs still outnumber them by thousands to one, so this is the
/// right side of the trade. The monitor batches mutations
/// ([`RegionIndex::insert_many`], [`RegionIndex::remove_many`]) so one
/// formation pass or one prune step recompiles once.
#[derive(Debug, Clone, Default)]
pub struct FlatSortedIndex {
    /// The authoritative interval set, sorted by `(start, end, id)`.
    entries: Vec<(AddrRange, RegionId)>,
    /// Sorted, deduplicated region boundaries. `cuts[i]..cuts[i+1]` is
    /// elementary segment `i`.
    cuts: Vec<u64>,
    /// CSR row offsets into `ids`, one row per elementary segment.
    offsets: Vec<u32>,
    /// Concatenated per-segment answer sets, each sorted by id.
    ids: Vec<RegionId>,
    /// Direct-mapped bucket table: `table[(a - table_base) >>
    /// table_shift]` is the segment containing the bucket's first
    /// address.
    table: Vec<u32>,
    /// First covered address (`cuts[0]`); the table's origin.
    table_base: u64,
    /// log2 of the bucket width in bytes.
    table_shift: u32,
    /// `true` when [`TABLE_MAX_ENTRIES`] forced buckets wider than the
    /// narrowest segment, so a bucket may hold several cuts and lookups
    /// must scan past them.
    table_capped: bool,
}

impl FlatSortedIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Recompiles `cuts`/`offsets`/`ids` and the bucket table from
    /// `entries`.
    fn rebuild(&mut self) {
        self.cuts.clear();
        self.offsets.clear();
        self.ids.clear();
        self.table.clear();
        if self.entries.is_empty() {
            return;
        }
        for (range, _) in &self.entries {
            if !range.is_empty() {
                self.cuts.push(range.start().get());
                self.cuts.push(range.end().get());
            }
        }
        self.cuts.sort_unstable();
        self.cuts.dedup();
        let segs = self.cuts.len().saturating_sub(1);
        if segs == 0 {
            self.cuts.clear();
            return;
        }
        // Coverage pairs (segment, id), then counting-sorted into CSR.
        let mut pairs: Vec<(u32, RegionId)> = Vec::new();
        for (range, id) in &self.entries {
            if range.is_empty() {
                continue;
            }
            let first = self.cuts.partition_point(|&c| c < range.start().get());
            let last = self.cuts.partition_point(|&c| c < range.end().get());
            for seg in first..last {
                pairs.push((seg as u32, *id));
            }
        }
        pairs.sort_unstable_by_key(|&(seg, id)| (seg, id.0));
        self.offsets = Vec::with_capacity(segs + 1);
        self.ids = Vec::with_capacity(pairs.len());
        let mut next = 0usize;
        self.offsets.push(0);
        for seg in 0..segs as u32 {
            while next < pairs.len() && pairs[next].0 == seg {
                self.ids.push(pairs[next].1);
                next += 1;
            }
            self.offsets.push(self.ids.len() as u32);
        }

        // Bucket table over the covered span [cuts[0], cuts[last]).
        // Sizing: the bucket width is the largest power of two not above
        // the narrowest elementary segment, so no bucket's interior
        // holds two cuts and a lookup corrects its bucket's segment by
        // at most one step. The table has `span / narrowest` buckets at
        // most (well under the cap for region sets spread over tens of
        // KiB); only a wider span widens the shift to fit
        // [`TABLE_MAX_ENTRIES`].
        let lo = self.cuts[0];
        let hi = *self.cuts.last().expect("non-empty cuts");
        let span = hi - lo;
        let narrowest = self
            .cuts
            .windows(2)
            .map(|w| w[1] - w[0])
            .min()
            .expect("at least one segment");
        let mut shift = narrowest.ilog2();
        while ((span >> shift) as usize).saturating_add(1) > TABLE_MAX_ENTRIES {
            shift += 1;
        }
        self.table_base = lo;
        self.table_shift = shift;
        self.table_capped = shift > narrowest.ilog2();
        let buckets = (span >> shift) as usize + 1;
        self.table.reserve(buckets);
        let mut seg = 0usize;
        for b in 0..buckets {
            let bucket_start = lo + ((b as u64) << shift);
            while seg + 2 < self.cuts.len() && self.cuts[seg + 1] <= bucket_start {
                seg += 1;
            }
            self.table.push(seg as u32);
        }
    }

    /// The elementary segment containing `addr`, or [`NO_SEG`].
    ///
    /// One shift, one table load and one compare-and-add (see
    /// [`step_past_cuts`]).
    #[inline]
    fn segment_of(&self, addr: u64) -> u32 {
        if self.table.is_empty()
            || addr < self.table_base
            || addr >= *self.cuts.last().expect("table implies cuts")
        {
            return NO_SEG;
        }
        let bucket = ((addr - self.table_base) >> self.table_shift) as usize;
        let seg = self.table[bucket] as usize;
        step_past_cuts(&self.cuts, seg, addr, self.table_capped) as u32
    }

    /// The answer set of segment `seg` (empty for [`NO_SEG`]).
    #[inline]
    pub(crate) fn seg_ids(&self, seg: u32) -> &[RegionId] {
        if seg == NO_SEG {
            &[]
        } else {
            let s = self.offsets[seg as usize] as usize;
            let e = self.offsets[seg as usize + 1] as usize;
            &self.ids[s..e]
        }
    }

    /// The validity window of `addr` given its segment: the segment's
    /// span, or the constant-empty gap up to the nearest boundary when
    /// `addr` is outside the covered span.
    #[inline]
    fn window_of_seg(&self, addr: u64, seg: u32) -> (u64, u64) {
        if seg == NO_SEG {
            if self.cuts.is_empty() {
                (0, u64::MAX)
            } else if addr < self.cuts[0] {
                (0, self.cuts[0])
            } else {
                (*self.cuts.last().expect("non-empty"), u64::MAX)
            }
        } else {
            (self.cuts[seg as usize], self.cuts[seg as usize + 1])
        }
    }

    /// Number of elementary segments currently compiled.
    pub(crate) fn nsegs(&self) -> usize {
        self.cuts.len().saturating_sub(1)
    }

    /// `true` when the bucket table is compiled (at least one non-empty
    /// region) — the precondition of the bulk segment resolvers.
    pub(crate) fn has_table(&self) -> bool {
        !self.table.is_empty()
    }

    /// The half-open address span of elementary segment `seg`.
    pub(crate) fn seg_span(&self, seg: u32) -> (u64, u64) {
        (self.cuts[seg as usize], self.cuts[seg as usize + 1])
    }

    /// Resolves every sample's elementary segment into `segs` (one
    /// entry per sample), eight samples per AVX2 block behind a
    /// whole-block validity-window test (the same window cache the
    /// scalar [`RegionIndex::stab_batch`] keeps). Out-of-span samples get
    /// [`FlatSortedIndex::nsegs`] — one past the last segment — so the
    /// caller can index a `nsegs + 1`-entry side table without
    /// clamping. This is the vector front half of the monitor's fused
    /// attribution kernel.
    ///
    /// Caller contract: AVX2 dispatch is active and
    /// [`FlatSortedIndex::has_table`] holds.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn segments_bulk_avx2(&self, samples: &[PcSample], segs: &mut Vec<u32>) {
        let sentinel = self.nsegs() as u32;
        segs.clear();
        segs.resize(samples.len(), sentinel);
        stab_x86::resolve_all(self, sentinel, samples, segs);
    }
}

impl RegionIndex for FlatSortedIndex {
    fn insert(&mut self, id: RegionId, range: AddrRange) {
        self.insert_many(&[(id, range)]);
    }

    fn insert_many(&mut self, items: &[(RegionId, AddrRange)]) {
        if items.is_empty() {
            return;
        }
        self.entries
            .extend(items.iter().map(|&(id, range)| (range, id)));
        // Keys are unique (ids are), so the stable sort gives the same
        // order as an unstable one; it merges the sorted prefix with the
        // new tail in linear time.
        self.entries
            .sort_by_key(|&(r, i)| (r.start(), r.end(), i.0));
        self.rebuild();
    }

    fn remove(&mut self, id: RegionId, range: AddrRange) -> bool {
        self.remove_many(&[(id, range)]) == 1
    }

    fn remove_many(&mut self, items: &[(RegionId, AddrRange)]) -> usize {
        if items.is_empty() {
            return 0;
        }
        let mut gone = items.to_vec();
        gone.sort_unstable_by_key(|&(id, _)| id.0);
        let before = self.entries.len();
        self.entries.retain(|&(range, id)| {
            gone.binary_search_by_key(&id.0, |&(i, _)| i.0)
                .map_or(true, |at| gone[at].1 != range)
        });
        let removed = before - self.entries.len();
        if removed > 0 {
            self.rebuild();
        }
        removed
    }

    fn stab(&self, addr: Addr, out: &mut Vec<RegionId>) {
        out.extend_from_slice(self.seg_ids(self.segment_of(addr.get())));
    }

    fn stab_window(&self, addr: Addr, out: &mut Vec<RegionId>) -> (u64, u64) {
        let seg = self.segment_of(addr.get());
        out.extend_from_slice(self.seg_ids(seg));
        if seg == NO_SEG {
            // Outside the covered span: constant-empty until the nearest
            // boundary on each side.
            if self.cuts.is_empty() {
                return (0, u64::MAX);
            }
            if addr.get() < self.cuts[0] {
                return (0, self.cuts[0]);
            }
            return (*self.cuts.last().expect("non-empty"), u64::MAX);
        }
        (self.cuts[seg as usize], self.cuts[seg as usize + 1])
    }

    fn stab_batch(&self, samples: &[PcSample], emit: &mut dyn FnMut(usize, &[RegionId])) {
        // Per-sample bucket-table lookup behind an inline validity-window
        // cache. (On AVX2 dispatch the monitor bypasses this for the
        // fused kernel, `segments_bulk_avx2` + its histogram fill.)
        let mut lo = 1u64;
        let mut hi = 0u64; // empty window: the first sample always misses
        let mut ids: &[RegionId] = &[];
        for (i, sample) in samples.iter().enumerate() {
            let a = sample.addr.get();
            if a < lo || a >= hi {
                let seg = self.segment_of(a);
                ids = self.seg_ids(seg);
                (lo, hi) = self.window_of_seg(a, seg);
            }
            emit(i, ids);
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn as_flat(&self) -> Option<&FlatSortedIndex> {
        Some(self)
    }
}

/// The AVX2 segment resolver behind
/// [`FlatSortedIndex::segments_bulk_avx2`], the front half of the
/// monitor's fused attribution kernel, and the only `target_feature`
/// code in the workspace besides the frame checksum's PCLMULQDQ fold
/// (`regmon_serve::crc`). All comparisons are unsigned 64-bit, realized
/// as signed compares after flipping the sign bit.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod stab_x86 {
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_andnot_si256, _mm256_castsi256_pd, _mm256_cmpgt_epi64,
        _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_movemask_pd, _mm256_permute4x64_epi64,
        _mm256_set1_epi64x, _mm256_srl_epi64, _mm256_storeu_si256, _mm256_sub_epi64,
        _mm256_unpacklo_epi64, _mm256_xor_si256, _mm_cvtsi32_si128,
    };

    use regmon_sampling::PcSample;

    use super::FlatSortedIndex;

    /// Samples resolved per block (two 256-bit registers of addresses).
    pub const BLOCK: usize = 8;

    const SIGN: u64 = 1 << 63;

    /// Resolves every sample's elementary segment into `segs`
    /// (out-of-span lanes get the caller-chosen `empty` value, which
    /// must not collide with a real segment index). One
    /// `target_feature` function owns the whole loop so the window fast
    /// path, the packed range checks and the packed bucket arithmetic
    /// all inline together and the broadcast constants are hoisted out
    /// of the per-block path — calling 8-wide helpers per block through
    /// the dispatch boundary costs more than the helpers themselves.
    /// The bucket-table loads stay scalar (two loads per cycle beat a
    /// microcoded gather on every deployment target measured).
    ///
    /// Callers dispatch on [`regmon_stats::SimdLevel::Avx2`], which is
    /// only ever active after runtime detection (debug-asserted here).
    /// `index` must have a non-empty table, and `segs.len() ==
    /// samples.len()`.
    pub fn resolve_all(
        index: &FlatSortedIndex,
        empty: u32,
        samples: &[PcSample],
        segs: &mut [u32],
    ) {
        debug_assert!(regmon_stats::SimdLevel::Avx2.is_supported());
        debug_assert_eq!(samples.len(), segs.len());
        // SAFETY: AVX2 is active (dispatch invariant above).
        unsafe { resolve_all_avx2(index, empty, samples, segs) }
    }

    /// # Safety
    ///
    /// Requires AVX2, plus the [`resolve_all`] shape contract. The
    /// `FlatSortedIndex` rebuild invariant — `table.len() ==
    /// ((cuts.last() - base) >> shift) + 1`, `table[b]` the segment of
    /// bucket `b`'s first address, and at most one cut inside a bucket
    /// unless `table_capped` — keeps every in-range lane's bucket load
    /// and cut loads in bounds.
    #[target_feature(enable = "avx2")]
    unsafe fn resolve_all_avx2(
        index: &FlatSortedIndex,
        empty: u32,
        samples: &[PcSample],
        segs: &mut [u32],
    ) {
        let FlatSortedIndex {
            cuts,
            table,
            table_base: base,
            table_shift: shift,
            table_capped: capped,
            ..
        } = index;
        let (base, shift, capped) = (*base, *shift, *capped);
        let cuts_last = *cuts.last().expect("table implies cuts");
        let cuts_first = cuts[0];
        // SAFETY: intrinsics are guarded by the avx2 target feature;
        // the unchecked loads are covered by the rebuild invariant
        // (`bucket` bounded for in-range lanes; a cut load past
        // `cuts[seg + 1]` happens only while `cuts[seg + 1] <= a <
        // cuts[last]`, so every one stays before `cuts.len()`).
        unsafe {
            let bias = _mm256_set1_epi64x(SIGN as i64);
            let basev = _mm256_set1_epi64x((base ^ SIGN) as i64);
            let lastv = _mm256_set1_epi64x((cuts_last ^ SIGN) as i64);
            let base_raw = _mm256_set1_epi64x(base as i64);
            let cnt = _mm_cvtsi32_si128(shift as i32);
            let mut lo = 1u64;
            let mut hi = 0u64; // empty window: the first block misses
            let mut wseg = empty;
            let mut lov = _mm256_set1_epi64x((lo ^ SIGN) as i64);
            let mut hiv = _mm256_set1_epi64x((hi ^ SIGN) as i64);
            let mut addrs = [0u64; BLOCK];
            let n = samples.len();
            let mut i = 0usize;
            while i + BLOCK <= n {
                // `PcSample` is `repr(C)` `{ Addr(u64), cycle: u64 }`,
                // so eight samples are four 256-bit words with the
                // addresses in the even qword lanes; unpack + permute
                // packs them without a scalar bounce buffer.
                let p = samples.as_ptr().add(i).cast::<__m256i>();
                let s01 = _mm256_loadu_si256(p);
                let s23 = _mm256_loadu_si256(p.add(1));
                let s45 = _mm256_loadu_si256(p.add(2));
                let s67 = _mm256_loadu_si256(p.add(3));
                let raw0 = _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(s01, s23), 0xD8);
                let raw1 = _mm256_permute4x64_epi64(_mm256_unpacklo_epi64(s45, s67), 0xD8);
                let x0 = _mm256_xor_si256(raw0, bias);
                let x1 = _mm256_xor_si256(raw1, bias);
                // Whole-block validity-window test: two compares per
                // half answer all eight samples in the loop-dominated
                // steady state.
                let w0 =
                    _mm256_andnot_si256(_mm256_cmpgt_epi64(lov, x0), _mm256_cmpgt_epi64(hiv, x0));
                let w1 =
                    _mm256_andnot_si256(_mm256_cmpgt_epi64(lov, x1), _mm256_cmpgt_epi64(hiv, x1));
                if _mm256_movemask_epi8(_mm256_and_si256(w0, w1)) == -1 {
                    segs[i..i + BLOCK].fill(wseg);
                    i += BLOCK;
                    continue;
                }
                // The per-lane correction below wants scalar addresses;
                // spill the packed registers only on the miss path.
                _mm256_storeu_si256(addrs.as_mut_ptr().cast::<__m256i>(), raw0);
                _mm256_storeu_si256(addrs.as_mut_ptr().add(4).cast::<__m256i>(), raw1);
                for (half, (raw, x)) in [(raw0, x0), (raw1, x1)].into_iter().enumerate() {
                    let in_range = _mm256_andnot_si256(
                        _mm256_cmpgt_epi64(basev, x), // a < base
                        _mm256_cmpgt_epi64(lastv, x), // a < cuts[last]
                    );
                    // Out-of-range lanes are squashed to bucket 0 so
                    // every lane's table load is unconditionally in
                    // bounds.
                    let bucket = _mm256_and_si256(
                        _mm256_srl_epi64(_mm256_sub_epi64(raw, base_raw), cnt),
                        in_range,
                    );
                    let ok = _mm256_movemask_pd(_mm256_castsi256_pd(in_range));
                    let mut buckets = [0u64; 4];
                    _mm256_storeu_si256(buckets.as_mut_ptr().cast::<__m256i>(), bucket);
                    for (lane, &b) in buckets.iter().enumerate() {
                        let k = half * 4 + lane;
                        segs[i + k] = if ok & (1 << lane) != 0 {
                            let a = addrs[k];
                            let mut seg = *table.get_unchecked(b as usize) as usize;
                            // `super::step_past_cuts` without the bounds
                            // checks: one compare-and-add, then the
                            // capped-table scan.
                            seg += usize::from(*cuts.get_unchecked(seg + 1) <= a);
                            if capped {
                                while *cuts.get_unchecked(seg + 1) <= a {
                                    seg += 1;
                                }
                            }
                            seg as u32
                        } else {
                            empty
                        };
                    }
                }
                // Carry the last lane's window into the next block —
                // the same invariant the scalar loop maintains.
                wseg = segs[i + BLOCK - 1];
                let a = addrs[BLOCK - 1];
                (lo, hi) = if wseg == empty {
                    if a < cuts_first {
                        (0, cuts_first)
                    } else {
                        (cuts_last, u64::MAX)
                    }
                } else {
                    (cuts[wseg as usize], cuts[wseg as usize + 1])
                };
                lov = _mm256_set1_epi64x((lo ^ SIGN) as i64);
                hiv = _mm256_set1_epi64x((hi ^ SIGN) as i64);
                i += BLOCK;
            }
            // Scalar remainder under the same carried window.
            while i < n {
                let a = samples[i].addr.get();
                if a < lo || a >= hi {
                    wseg = if a < base || a >= cuts_last {
                        empty
                    } else {
                        let seg = table[((a - base) >> shift) as usize] as usize;
                        super::step_past_cuts(cuts, seg, a, capped) as u32
                    };
                    (lo, hi) = if wseg == empty {
                        if a < cuts_first {
                            (0, cuts_first)
                        } else {
                            (cuts_last, u64::MAX)
                        }
                    } else {
                        (cuts[wseg as usize], cuts[wseg as usize + 1])
                    };
                }
                segs[i] = wseg;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(start: u64, end: u64) -> AddrRange {
        AddrRange::new(Addr::new(start), Addr::new(end))
    }

    fn exercise(mut idx: Box<dyn RegionIndex + Send + Sync>) {
        assert!(idx.is_empty());
        idx.insert(RegionId(1), r(0, 10));
        idx.insert(RegionId(2), r(5, 15));
        assert_eq!(idx.len(), 2);
        let mut out = Vec::new();
        idx.stab(Addr::new(7), &mut out);
        out.sort();
        assert_eq!(out, vec![RegionId(1), RegionId(2)]);
        assert!(idx.remove(RegionId(1), r(0, 10)));
        assert!(!idx.remove(RegionId(1), r(0, 10)));
        out.clear();
        idx.stab(Addr::new(7), &mut out);
        assert_eq!(out, vec![RegionId(2)]);
    }

    #[test]
    fn linear_index_basic() {
        exercise(IndexKind::Linear.make());
    }

    #[test]
    fn tree_index_basic() {
        exercise(IndexKind::IntervalTree.make());
    }

    #[test]
    fn flat_index_basic() {
        exercise(IndexKind::FlatSorted.make());
    }

    #[test]
    fn default_kind_is_flat() {
        assert_eq!(IndexKind::default(), IndexKind::FlatSorted);
    }

    #[test]
    fn kind_parse_round_trips() {
        for kind in [
            IndexKind::Linear,
            IndexKind::IntervalTree,
            IndexKind::FlatSorted,
        ] {
            assert_eq!(IndexKind::parse(kind.label()), Ok(kind));
        }
        assert!(IndexKind::parse("btree").is_err());
        assert_eq!(IndexKind::parse("list"), Ok(IndexKind::Linear));
        assert_eq!(
            IndexKind::parse("interval-tree"),
            Ok(IndexKind::IntervalTree)
        );
        assert_eq!(IndexKind::parse("flat-sorted"), Ok(IndexKind::FlatSorted));
    }

    #[test]
    fn flat_stab_outside_span_is_empty() {
        let mut idx = FlatSortedIndex::new();
        idx.insert(RegionId(1), r(100, 200));
        let mut out = Vec::new();
        for probe in [0, 99, 200, 300] {
            out.clear();
            idx.stab(Addr::new(probe), &mut out);
            assert!(out.is_empty(), "probe {probe} hit {out:?}");
        }
    }

    #[test]
    fn windows_are_sound_and_stabs_agree() {
        // Adjacent + nested + disjoint intervals; probe every address and
        // check that each kind's window reproduces the exact answer set
        // across the whole window.
        let intervals = [
            (1u64, r(10, 30)),
            (2, r(20, 40)),
            (3, r(25, 28)),
            (4, r(40, 50)),
            (5, r(60, 61)),
        ];
        for kind in [
            IndexKind::Linear,
            IndexKind::IntervalTree,
            IndexKind::FlatSorted,
        ] {
            let mut idx = kind.make();
            for (id, range) in intervals {
                idx.insert(RegionId(id), range);
            }
            for probe in 0..70u64 {
                let mut expect = Vec::new();
                idx.stab(Addr::new(probe), &mut expect);
                expect.sort();
                let mut got = Vec::new();
                let (lo, hi) = idx.stab_window(Addr::new(probe), &mut got);
                got.sort();
                assert_eq!(got, expect, "{kind:?} probe {probe}");
                assert!(lo <= probe && probe < hi, "{kind:?} window {lo}..{hi}");
                // Every address in the window must share the answer.
                for w in lo..hi.min(70) {
                    let mut at_w = Vec::new();
                    idx.stab(Addr::new(w), &mut at_w);
                    at_w.sort();
                    assert_eq!(at_w, expect, "{kind:?} window {lo}..{hi} probe {w}");
                }
            }
        }
    }

    #[test]
    fn stab_batch_matches_per_sample_and_preserves_order() {
        let intervals = [(1u64, r(0, 40)), (2, r(16, 64)), (3, r(100, 140))];
        let addrs = [5u64, 120, 5, 20, 80, 39, 40, 0, 139, 140, 200];
        for kind in [
            IndexKind::Linear,
            IndexKind::IntervalTree,
            IndexKind::FlatSorted,
        ] {
            let mut idx = kind.make();
            for (id, range) in intervals {
                idx.insert(RegionId(id), range);
            }
            let samples: Vec<PcSample> = addrs
                .iter()
                .map(|&a| PcSample {
                    addr: Addr::new(a),
                    cycle: a,
                })
                .collect();
            let mut seen = Vec::new();
            idx.stab_batch(&samples, &mut |i, ids| {
                let mut ids = ids.to_vec();
                ids.sort();
                seen.push((i, ids));
            });
            assert_eq!(seen.len(), samples.len(), "{kind:?}");
            for (pos, (i, ids)) in seen.iter().enumerate() {
                assert_eq!(pos, *i, "{kind:?} emitted out of order");
                let mut expect = Vec::new();
                idx.stab(samples[*i].addr, &mut expect);
                expect.sort();
                assert_eq!(ids, &expect, "{kind:?} sample {i}");
            }
        }
    }

    /// The per-sample reference for [`FlatSortedIndex::segments_bulk_avx2`]:
    /// each sample's [`FlatSortedIndex::segment_of`], with out-of-span
    /// samples mapped to `nsegs()`.
    fn reference_segments(idx: &FlatSortedIndex, samples: &[PcSample]) -> Vec<u32> {
        samples
            .iter()
            .map(|s| match idx.segment_of(s.addr.get()) {
                NO_SEG => idx.nsegs() as u32,
                seg => seg,
            })
            .collect()
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_stab_batch_matches_scalar_for_every_remainder_shape() {
        // Every batch length 0..4*BLOCK (straddling the 8-wide block
        // boundary) over a mix of covered, gap, below-span and
        // above-span addresses — the AVX2 resolver must give every
        // sample the segment the per-sample lookup gives it.
        if regmon_stats::SimdLevel::Avx2 != regmon_stats::simd::detected() {
            return; // no AVX2 path to compare on this host
        }
        let mut idx = FlatSortedIndex::new();
        for (id, range) in [
            (1u64, r(0x100, 0x180)),
            (2, r(0x140, 0x1c0)),
            (3, r(0x400, 0x500)),
            (4, r(0x4f0, 0x4f1)),
        ] {
            idx.insert(RegionId(id), range);
        }
        let mut segs = Vec::new();
        for len in 0..=32usize {
            let samples: Vec<PcSample> = (0..len as u64)
                .map(|i| {
                    // Deterministic pseudo-random walk over interesting
                    // addresses: in-region, gaps, and out-of-span.
                    let a = match i % 5 {
                        0 => 0x100 + (i * 37) % 0x100,
                        1 => 0x400 + (i * 53) % 0x110,
                        2 => (i * 29) % 0x100,        // below span
                        3 => 0x200 + (i * 31) % 0x80, // gap
                        _ => 0x600 + i,               // above span
                    };
                    PcSample {
                        addr: Addr::new(a),
                        cycle: i,
                    }
                })
                .collect();
            idx.segments_bulk_avx2(&samples, &mut segs);
            assert_eq!(segs, reference_segments(&idx, &samples), "len {len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    proptest! {
        #[test]
        fn simd_stab_batch_always_matches_scalar(
            ranges in prop::collection::vec((0u64..500, 1u64..80), 1..10),
            addrs in prop::collection::vec(0u64..700, 0..64),
        ) {
            if regmon_stats::SimdLevel::Avx2 != regmon_stats::simd::detected() {
                return;
            }
            let mut idx = FlatSortedIndex::new();
            for (i, (start, len)) in ranges.iter().enumerate() {
                idx.insert(RegionId(i as u64 + 1), r(*start, start + len));
            }
            let samples: Vec<PcSample> = addrs
                .iter()
                .map(|&a| PcSample { addr: Addr::new(a), cycle: a })
                .collect();
            let mut segs = Vec::new();
            idx.segments_bulk_avx2(&samples, &mut segs);
            prop_assert_eq!(segs, reference_segments(&idx, &samples));
        }
    }

    /// `cuts.partition_point(|&c| c <= a) - 1` for in-span addresses,
    /// `nsegs()` outside: the segment every resolver must return, in
    /// the bulk resolver's encoding.
    fn oracle_segment(idx: &FlatSortedIndex, a: u64) -> u32 {
        let cuts = &idx.cuts;
        if cuts.is_empty() || a < cuts[0] || a >= cuts[cuts.len() - 1] {
            idx.nsegs() as u32
        } else {
            (cuts.partition_point(|&c| c <= a) - 1) as u32
        }
    }

    /// Regions of 4..1024 bytes with gaps of 0..256 KiB between them:
    /// spans from a few hundred bytes to a few MiB, so some layouts hit
    /// the table cap and some don't.
    fn spread_layout(seed: u64) -> FlatSortedIndex {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut idx = FlatSortedIndex::new();
        let mut at = 0x1_0000u64;
        for id in 0..2 + next() % 12 {
            let len = 4 * (1 + next() % 256);
            let start = if next() % 4 == 0 {
                at.saturating_sub(len / 2)
            } else {
                at
            };
            idx.insert(RegionId(id), r(start, start + len));
            at = start + len + 4 * (next() % (1 << (next() % 17)));
        }
        idx
    }

    #[test]
    fn below_the_cap_no_bucket_interior_holds_two_cuts() {
        let (mut capped, mut uncapped) = (0, 0);
        for seed in 0..400 {
            let idx = spread_layout(seed);
            assert!(idx.table.len() <= TABLE_MAX_ENTRIES, "seed {seed}");
            let width = 1u64 << idx.table_shift;
            let narrowest = idx.cuts.windows(2).map(|w| w[1] - w[0]).min().unwrap();
            for (b, &seg) in idx.table.iter().enumerate() {
                let start = idx.table_base + b as u64 * width;
                assert_eq!(seg, oracle_segment(&idx, start).min(idx.nsegs() as u32 - 1));
            }
            let span = idx.cuts[idx.cuts.len() - 1] - idx.table_base;
            if (span >> narrowest.ilog2()) as usize + 1 > TABLE_MAX_ENTRIES {
                capped += 1;
                continue;
            }
            uncapped += 1;
            assert!(width <= narrowest, "seed {seed}: {width}-byte buckets");
            for b in 0..idx.table.len() as u64 {
                let start = idx.table_base + b * width;
                let inside = idx
                    .cuts
                    .iter()
                    .filter(|&&c| c > start && c < start + width)
                    .count();
                assert!(inside <= 1, "seed {seed}: bucket {b} holds {inside} cuts");
            }
        }
        // Both sides of the cap are exercised.
        assert!(
            capped > 20 && uncapped > 20,
            "{capped} capped, {uncapped} not"
        );
    }

    #[test]
    fn both_resolvers_match_partition_point_on_spread_layouts() {
        for seed in 0..200 {
            let idx = spread_layout(seed);
            let (lo, hi) = (idx.cuts[0], idx.cuts[idx.cuts.len() - 1]);
            // Every cut and its neighbours, plus a stride across the
            // span and a little past both ends.
            let mut addrs: Vec<u64> = idx
                .cuts
                .iter()
                .flat_map(|&c| [c.saturating_sub(4), c.saturating_sub(1), c, c + 1, c + 4])
                .collect();
            let step = ((hi - lo) / 509).max(1);
            addrs.extend((lo.saturating_sub(64)..hi + 64).step_by(step as usize));
            let samples: Vec<PcSample> = addrs
                .iter()
                .map(|&a| PcSample {
                    addr: Addr::new(a),
                    cycle: a,
                })
                .collect();
            let expect: Vec<u32> = addrs.iter().map(|&a| oracle_segment(&idx, a)).collect();
            assert_eq!(reference_segments(&idx, &samples), expect, "seed {seed}");
            #[cfg(target_arch = "x86_64")]
            if regmon_stats::SimdLevel::Avx2 == regmon_stats::simd::detected() {
                let mut segs = Vec::new();
                idx.segments_bulk_avx2(&samples, &mut segs);
                assert_eq!(segs, expect, "seed {seed}");
            }
        }
    }

    #[test]
    fn hit_cache_reuses_windows() {
        let mut idx = FlatSortedIndex::new();
        idx.insert(RegionId(7), r(100, 200));
        let mut cache = HitCache::new();
        assert!(!cache.covers(Addr::new(150)));
        assert_eq!(cache.refill(&idx, Addr::new(150)), &[RegionId(7)]);
        assert!(cache.covers(Addr::new(199)));
        assert!(cache.covers(Addr::new(100)));
        assert!(!cache.covers(Addr::new(200)));
        assert!(!cache.covers(Addr::new(99)));
        cache.clear();
        assert!(!cache.covers(Addr::new(150)));
    }

    proptest! {
        #[test]
        fn implementations_agree(
            intervals in prop::collection::vec((0u64..200, 1u64..50), 0..80),
            probes in prop::collection::vec(0u64..260, 1..40),
        ) {
            let mut lin = LinearIndex::new();
            let mut tree = IntervalTreeIndex::new();
            let mut flat = FlatSortedIndex::new();
            for (i, (s, l)) in intervals.iter().enumerate() {
                lin.insert(RegionId(i as u64), r(*s, s + l));
                tree.insert(RegionId(i as u64), r(*s, s + l));
                flat.insert(RegionId(i as u64), r(*s, s + l));
            }
            for p in probes {
                let mut a = Vec::new();
                let mut b = Vec::new();
                let mut c = Vec::new();
                lin.stab(Addr::new(p), &mut a);
                tree.stab(Addr::new(p), &mut b);
                flat.stab(Addr::new(p), &mut c);
                a.sort();
                b.sort();
                c.sort();
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(&a, &c);
            }
        }

        #[test]
        fn windows_agree_with_exhaustive_scan(
            intervals in prop::collection::vec((0u64..120, 1u64..40), 1..24),
            probes in prop::collection::vec(0u64..200, 1..24),
        ) {
            for kind in [IndexKind::Linear, IndexKind::IntervalTree, IndexKind::FlatSorted] {
                let mut idx = kind.make();
                for (i, (s, l)) in intervals.iter().enumerate() {
                    idx.insert(RegionId(i as u64), r(*s, s + l));
                }
                for &p in &probes {
                    let mut expect = Vec::new();
                    idx.stab(Addr::new(p), &mut expect);
                    expect.sort();
                    let mut got = Vec::new();
                    let (lo, hi) = idx.stab_window(Addr::new(p), &mut got);
                    got.sort();
                    prop_assert_eq!(&got, &expect);
                    prop_assert!(lo <= p && p < hi);
                    // Soundness at the window's edges (cheap spot checks).
                    for w in [lo, p.saturating_sub(1).max(lo), (hi - 1).min(200)] {
                        if w >= lo && w < hi {
                            let mut at_w = Vec::new();
                            idx.stab(Addr::new(w), &mut at_w);
                            at_w.sort();
                            prop_assert_eq!(&at_w, &expect);
                        }
                    }
                }
            }
        }
    }
}
