//! The code map: O(1) address → (procedure, innermost loop) lookups.
//!
//! Region formation classifies every unattributed sample by the
//! innermost loop around it, and the BBV/WSS/predictor baselines and
//! trace formation resolve every sample's procedure. A `CodeMap`
//! answers both with one table lookup. It is built once per program
//! image, in [`crate::Binary::new`].
//!
//! The boundaries of every procedure range and every loop range split
//! the image into *elementary segments*. The answer is constant on each
//! segment, so the map stores it once per segment. A direct-mapped
//! bucket table (the layout of the region index's flat attribution
//! index) finds an address's segment: one shift, one load, then a fixed
//! number of branch-free steps past the cuts inside the bucket.

use core::fmt;

use crate::addr::Addr;
use crate::loops::LoopId;
use crate::proc::{ProcId, Procedure};

/// Marks "no procedure" (a gap between procedures) or "no loop".
const NONE: u32 = u32::MAX;

/// Lookup steps past the bucket table the sizing aims for.
const MAX_STEPS: u32 = 2;

/// Upper bound on bucket-table entries when narrowing buckets for
/// [`MAX_STEPS`] (16 KiB of `u32`s).
const TABLE_MAX_ENTRIES: usize = 1 << 12;

/// Per-segment answer: the procedure's index and the innermost loop's
/// index within it, each [`NONE`] when absent.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Site {
    proc: u32,
    lp: u32,
}

/// Address → (procedure, innermost loop) table of one program image.
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct CodeMap {
    /// Sorted distinct boundaries. `cuts[i]..cuts[i + 1]` is segment `i`;
    /// the map covers `cuts[0]..cuts[last]` (first procedure start to
    /// last procedure end).
    cuts: Vec<u64>,
    /// One answer per segment.
    sites: Vec<Site>,
    /// `table[(a - cuts[0]) >> shift]` is the segment holding the
    /// bucket's first address.
    table: Vec<u32>,
    /// log2 of the bucket width in bytes.
    shift: u32,
    /// The most cuts past any bucket's first address: how many steps a
    /// lookup takes from the table's segment to the answer.
    steps: u32,
}

impl CodeMap {
    /// Builds the map in one sweep over procedures in address order.
    ///
    /// Within a procedure, each loop paints the segments it covers when
    /// it is at least as deep as the current answer, so the deepest
    /// loop wins and, among equally deep ones, the last in
    /// [`Procedure::loops`] order — what [`Procedure::innermost_loop_at`]
    /// picks. Loop ranges are clipped to their procedure: an address
    /// resolves to its procedure first, then to that procedure's loops.
    pub(crate) fn build(procedures: &[Procedure]) -> Self {
        let mut map = Self::default();
        let mut local: Vec<u64> = Vec::new();
        let mut depth: Vec<usize> = Vec::new();
        for (p, proc) in procedures.iter().enumerate() {
            let (start, end) = (proc.range().start().get(), proc.range().end().get());
            if start == end {
                continue; // an empty procedure contains no address
            }
            match map.cuts.last() {
                None => map.cuts.push(start),
                Some(&last) if last < start => {
                    map.sites.push(Site {
                        proc: NONE,
                        lp: NONE,
                    });
                    map.cuts.push(start);
                }
                Some(_) => {}
            }
            local.clear();
            for lp in proc.loops() {
                for c in [lp.range().start().get(), lp.range().end().get()] {
                    if start < c && c < end {
                        local.push(c);
                    }
                }
            }
            local.sort_unstable();
            local.dedup();
            local.push(end);
            let first = map.sites.len();
            map.cuts.extend_from_slice(&local);
            map.sites.resize(
                first + local.len(),
                Site {
                    proc: p as u32,
                    lp: NONE,
                },
            );
            depth.clear();
            depth.resize(local.len(), 0);
            let cuts = &map.cuts[first..];
            for (l, lp) in proc.loops().iter().enumerate() {
                let lo = lp.range().start().get().max(start);
                let hi = lp.range().end().get().min(end);
                if lo >= hi {
                    continue;
                }
                let a = cuts.partition_point(|&c| c < lo);
                let b = cuts.partition_point(|&c| c < hi);
                let sites = &mut map.sites[first + a..first + b];
                for (site, deepest) in sites.iter_mut().zip(&mut depth[a..b]) {
                    if lp.depth() >= *deepest {
                        site.lp = l as u32;
                        *deepest = lp.depth();
                    }
                }
            }
        }
        map.build_table();
        map.cuts.shrink_to_fit();
        map.sites.shrink_to_fit();
        map
    }

    /// Sizes and fills the bucket table. It starts at about two buckets
    /// per segment and narrows the buckets, up to [`TABLE_MAX_ENTRIES`],
    /// while some bucket holds more than [`MAX_STEPS`] cuts past its
    /// first address: sparse images (few, wide procedures around small
    /// loops) need finer buckets than their segment count suggests.
    fn build_table(&mut self) {
        let segs = self.sites.len();
        if segs == 0 {
            return;
        }
        let span = self.cuts[segs] - self.cuts[0];
        let buckets = |shift: u32| (span >> shift) as usize + 1;
        let target = (2 * segs).next_power_of_two();
        while buckets(self.shift) > target {
            self.shift += 1;
        }
        self.steps = self.max_steps(self.shift);
        while self.steps > MAX_STEPS
            && self.shift > 0
            && buckets(self.shift - 1) <= TABLE_MAX_ENTRIES
        {
            self.shift -= 1;
            self.steps = self.max_steps(self.shift);
        }
        let lo = self.cuts[0];
        self.table = Vec::with_capacity(buckets(self.shift));
        let mut seg = 0usize;
        for b in 0..buckets(self.shift) as u64 {
            let bucket_start = lo + (b << self.shift);
            while seg + 1 < segs && self.cuts[seg + 1] <= bucket_start {
                seg += 1;
            }
            self.table.push(seg as u32);
        }
    }

    /// The most cuts any `2^shift`-byte bucket holds past its first
    /// address. The last cut ends the map and is never scanned past.
    fn max_steps(&self, shift: u32) -> u32 {
        let (lo, mask) = (self.cuts[0], (1u64 << shift) - 1);
        let (mut bucket, mut run, mut most) = (u64::MAX, 0u32, 0u32);
        for &c in &self.cuts[1..self.sites.len()] {
            let off = c - lo;
            if off & mask == 0 {
                continue;
            }
            if off >> shift == bucket {
                run += 1;
            } else {
                (bucket, run) = (off >> shift, 1);
            }
            most = most.max(run);
        }
        most
    }

    /// The segment answer at `addr`: the procedure containing it and
    /// the innermost loop there, or `None` outside every procedure.
    #[inline]
    pub(crate) fn lookup(&self, addr: Addr) -> Option<(ProcId, Option<LoopId>)> {
        let a = addr.get();
        let &lo = self.cuts.first()?;
        if a < lo || a >= self.cuts[self.sites.len()] {
            return None;
        }
        let mut seg = self.table[((a - lo) >> self.shift) as usize] as usize;
        // A fixed number of branch-free steps: the trip count is the
        // same for every lookup, so nothing mispredicts. `seg` never
        // passes the segment holding `a`, so `seg + 1` stays in bounds.
        for _ in 0..self.steps {
            seg += usize::from(self.cuts[seg + 1] <= a);
        }
        let site = self.sites[seg];
        (site.proc != NONE).then(|| {
            let lp = (site.lp != NONE).then_some(LoopId(site.lp as usize));
            (ProcId(site.proc as usize), lp)
        })
    }
}

impl fmt::Debug for CodeMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeMap")
            .field("segments", &self.sites.len())
            .field("buckets", &self.table.len())
            .field("steps", &self.steps)
            .finish()
    }
}
