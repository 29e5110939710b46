//! Cross-implementation equivalence: every `IndexKind` (and the arena
//! and batch attribution paths layered on them) must produce
//! *identical* `DistributionReport`s — same histograms byte for byte,
//! same unattributed sample list, same UCR fraction.
//!
//! These are the guarantees that let the session pick whichever index is
//! fastest without changing a single detector verdict.

use proptest::prelude::*;
use regmon_binary::{Addr, AddrRange};
use regmon_regions::{DistributionReport, IndexKind, RegionKind, RegionMonitor};
use regmon_sampling::PcSample;

const KINDS: [IndexKind; 3] = [
    IndexKind::Linear,
    IndexKind::IntervalTree,
    IndexKind::FlatSorted,
];

fn range(start: u64, len: u64) -> AddrRange {
    AddrRange::new(Addr::new(start), Addr::new(start + len))
}

/// Builds one monitor per index kind with an identical region table.
fn monitors(regions: &[(u64, u64)]) -> Vec<RegionMonitor> {
    KINDS
        .iter()
        .map(|&kind| {
            let mut mon = RegionMonitor::new(kind);
            for &(start, len) in regions {
                mon.add_region(range(start, len), RegionKind::Custom, 0);
            }
            mon
        })
        .collect()
}

fn samples(addrs: &[u64]) -> Vec<PcSample> {
    addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| PcSample {
            addr: Addr::new(a),
            cycle: i as u64,
        })
        .collect()
}

/// Serial arena attribution through each kind, owned snapshots compared.
fn attribute_all(mons: &mut [RegionMonitor], s: &[PcSample]) -> Vec<DistributionReport> {
    mons.iter_mut()
        .map(|m| {
            m.attribute(s);
            m.report().to_owned_report()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All three kinds agree on arbitrary (overlapping, adjacent,
    /// disjoint) region tables and arbitrary sample streams.
    #[test]
    fn index_kinds_produce_identical_reports(
        regions in prop::collection::vec((0u64..4_000, 4u64..512), 1..32),
        addrs in prop::collection::vec(0u64..5_000, 0..512),
    ) {
        // Align region starts/lengths to instruction granularity so slot
        // arithmetic is meaningful (formation always produces aligned
        // ranges).
        let regions: Vec<(u64, u64)> = regions
            .iter()
            .map(|&(s, l)| (s & !3, (l & !3).max(4)))
            .collect();
        let mut mons = monitors(&regions);
        let s = samples(&addrs);
        let reports = attribute_all(&mut mons, &s);
        prop_assert_eq!(&reports[0], &reports[1]);
        prop_assert_eq!(&reports[0], &reports[2]);
        // The owned snapshot and the borrow-based arena view agree too.
        for (mon, owned) in mons.iter().zip(&reports) {
            let view = mon.report();
            prop_assert_eq!(view.total_samples(), owned.total_samples());
            prop_assert_eq!(view.unattributed_samples(), owned.unattributed_samples());
            prop_assert!((view.ucr_fraction() - owned.ucr_fraction()).abs() == 0.0);
        }
    }

    /// The batch stab path (with its locality cache) visits exactly the
    /// regions the per-sample stab path reports, sample by sample.
    #[test]
    fn stab_batch_matches_per_sample_stab(
        regions in prop::collection::vec((0u64..1_000, 1u64..200), 0..24),
        addrs in prop::collection::vec(0u64..1_400, 1..200),
    ) {
        use regmon_regions::RegionId;
        for &kind in &KINDS {
            let mut idx = kind.make();
            for (i, &(s, l)) in regions.iter().enumerate() {
                idx.insert(RegionId(i as u64), range(s, l));
            }
            let s = samples(&addrs);
            let mut batched: Vec<(usize, Vec<RegionId>)> = Vec::new();
            idx.stab_batch(&s, &mut |i, ids| {
                let mut ids = ids.to_vec();
                ids.sort();
                batched.push((i, ids));
            });
            prop_assert_eq!(batched.len(), s.len());
            for (pos, (i, ids)) in batched.iter().enumerate() {
                prop_assert_eq!(pos, *i, "{:?} emitted out of order", kind);
                let mut expect = Vec::new();
                idx.stab(s[*i].addr, &mut expect);
                expect.sort();
                prop_assert_eq!(ids, &expect, "{:?} sample {}", kind, i);
            }
        }
    }

    /// Interval-by-interval reuse: the arena's epoch reset never leaks
    /// state between intervals, for any kind, against a fresh monitor
    /// replaying only the final interval.
    #[test]
    fn arena_reuse_equals_fresh_monitor(
        regions in prop::collection::vec((0u64..1_000, 4u64..128), 1..12),
        first in prop::collection::vec(0u64..1_400, 0..160),
        second in prop::collection::vec(0u64..1_400, 0..160),
    ) {
        let regions: Vec<(u64, u64)> = regions
            .iter()
            .map(|&(s, l)| (s & !3, (l & !3).max(4)))
            .collect();
        for &kind in &KINDS {
            let mut reused = RegionMonitor::new(kind);
            let mut fresh = RegionMonitor::new(kind);
            for &(start, len) in &regions {
                reused.add_region(range(start, len), RegionKind::Custom, 0);
                fresh.add_region(range(start, len), RegionKind::Custom, 0);
            }
            reused.attribute(&samples(&first));
            reused.attribute(&samples(&second));
            fresh.attribute(&samples(&second));
            prop_assert_eq!(
                reused.report().to_owned_report(),
                fresh.report().to_owned_report(),
                "kind {:?}", kind
            );
        }
    }
}

/// Deterministic spot check: overlapping + nested regions, a sample on
/// every boundary condition, all kinds and all paths agree.
#[test]
fn boundary_conditions_agree_across_kinds_and_paths() {
    let regions = [(0x100, 0x40), (0x120, 0x80), (0x100, 0x40), (0x300, 0x10)];
    let addrs: Vec<u64> = vec![
        0x0ff, 0x100, 0x11c, 0x120, 0x13c, 0x140, 0x19c, 0x1a0, 0x2ff, 0x300, 0x30c, 0x310, 0xfff,
    ];
    let mut mons = monitors(&regions);
    let s = samples(&addrs);
    let serial = attribute_all(&mut mons, &s);
    assert_eq!(serial[0], serial[1]);
    assert_eq!(serial[0], serial[2]);
    // legacy `distribute` is the same arena pass under the hood.
    let mut mon = RegionMonitor::new(IndexKind::FlatSorted);
    for &(start, len) in &regions {
        mon.add_region(range(start, len), RegionKind::Custom, 0);
    }
    assert_eq!(&mon.distribute(&s), &serial[2]);
}
