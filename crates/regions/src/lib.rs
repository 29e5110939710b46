//! Region monitoring: formation, sample attribution and UCR accounting.
//!
//! Region monitoring (paper §3) has two halves. *Region formation* watches
//! for working-set changes: samples that fall in no monitored region are
//! attributed to the **unmonitored code region (UCR)**, and when the UCR's
//! share of an interval exceeds a threshold (30% in the paper), new
//! regions — loops around the hot samples — are built and added to the
//! monitor. *Phase detection* (the `regmon-lpd` crate) then analyzes each
//! region's per-instruction histogram independently.
//!
//! Sample attribution is the monitor's hot path: every one of the
//! thousands of samples per interval must find all regions containing its
//! PC (overlapping regions each count it — nested loops double-count
//! exactly as in the paper's Figure 2). Two interchangeable indexes are
//! provided, reproducing the paper's Figure 16 cost study:
//!
//! * [`LinearIndex`] — the O(n)-per-sample list scan of the prototype;
//! * [`IntervalTreeIndex`] — an augmented balanced search tree with
//!   O(log n + k) stabbing queries;
//! * [`FlatSortedIndex`] — the interval set compiled to sorted elementary
//!   segments, answering a stab with one binary search over a flat array
//!   and a whole interval with a sort-and-merge batch sweep.
//!
//! Attribution itself is allocation-free: the monitor owns a reusable
//! [`monitor::AttributionArena`] and hands out borrow-based
//! [`ArenaReport`]s (see [`RegionMonitor::attribute`]).
//!
//! # Example
//!
//! ```
//! use regmon_regions::{IndexKind, RegionKind, RegionMonitor};
//! use regmon_binary::{Addr, AddrRange};
//! use regmon_sampling::PcSample;
//!
//! let mut mon = RegionMonitor::new(IndexKind::IntervalTree);
//! let r = mon.add_region(
//!     AddrRange::new(Addr::new(0x1000), Addr::new(0x1040)),
//!     RegionKind::Loop { depth: 0 },
//!     0,
//! );
//! let samples = [PcSample { addr: Addr::new(0x1008), cycle: 1 },
//!                PcSample { addr: Addr::new(0x2000), cycle: 2 }];
//! let report = mon.distribute(&samples);
//! assert_eq!(report.histogram(r).unwrap().total(), 1);
//! assert_eq!(report.unattributed_samples().len(), 1);
//! assert!((report.ucr_fraction() - 0.5).abs() < 1e-12);
//! ```

// `deny` rather than `forbid`: the fused AVX2 attribution kernel
// carries the crate's two scoped `allow(unsafe_code)` blocks —
// `index::stab_x86` (intrinsics behind runtime feature detection) and
// `monitor::flat_attrib` (the histogram fill through raw cursors).
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod formation;
pub mod index;
pub mod interval_tree;
pub mod monitor;
pub mod pruning;
pub mod region;
pub mod traces;
pub mod ucr;

pub use formation::{FormationConfig, FormationOutcome, RegionFormation};
pub use index::{
    FlatSortedIndex, HitCache, IndexKind, IntervalTreeIndex, LinearIndex, RegionIndex,
};
pub use interval_tree::IntervalTree;
pub use monitor::{
    ArenaReport, AttributionView, DistributionReport, MonitorSnapshot, RegionMonitor, RegionRecord,
};
pub use pruning::Pruner;
pub use region::{Region, RegionId, RegionKind};
pub use traces::{Trace, TraceConfig, TraceFormation};
pub use ucr::UcrTracker;
