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

/// A `kind` monitor over the region table.
fn monitor(kind: IndexKind, regions: &[(u64, u64)]) -> RegionMonitor {
    let mut mon = RegionMonitor::new(kind);
    for &(start, len) in regions {
        mon.add_region(range(start, len), RegionKind::Custom, 0);
    }
    mon
}

/// Builds one monitor per index kind with an identical region table.
fn monitors(regions: &[(u64, u64)]) -> Vec<RegionMonitor> {
    KINDS.iter().map(|&kind| monitor(kind, regions)).collect()
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
    let mut mon = monitor(IndexKind::FlatSorted, &regions);
    assert_eq!(&mon.distribute(&s), &serial[2]);
}

/// SplitMix64, the seeded stream behind [`random_layout`].
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A multiple of 4 in `[lo, hi]` (both multiples of 4).
    fn aligned(&mut self, lo: u64, hi: u64) -> u64 {
        lo + 4 * (self.next() % ((hi - lo) / 4 + 1))
    }
}

/// One `(start, len)` region layout of the family `seed % 5`, every
/// boundary 4-byte aligned:
/// 0. a few regions with gaps of 1–64 KiB (wide spans, few segments);
/// 1. many short, often overlapping regions in 2 KiB (narrow segments);
/// 2. regions laid back to back, some 4 bytes long (touching);
/// 3. regions nested inside one enclosing region;
/// 4. a tight cluster of 4-byte regions plus one region MiBs away, so
///    the bucket table hits its cap and buckets hold several cuts.
fn random_layout(seed: u64) -> Vec<(u64, u64)> {
    let mut rng = Mix(seed);
    let base = 0x40_0000 + rng.aligned(0, 0x1000);
    let count = 2 + rng.next() % 10;
    let mut out = Vec::new();
    match seed % 5 {
        0 => {
            let mut at = base;
            for _ in 0..count {
                let len = rng.aligned(4, 512);
                out.push((at, len));
                at += len + rng.aligned(1 << 10, 1 << 16);
            }
        }
        1 => {
            for _ in 0..4 * count {
                out.push((base + rng.aligned(0, 2048), rng.aligned(4, 64)));
            }
        }
        2 => {
            let mut at = base;
            for _ in 0..3 * count {
                let len = if rng.next() % 3 == 0 {
                    4
                } else {
                    rng.aligned(4, 256)
                };
                out.push((at, len));
                at += len;
            }
        }
        3 => {
            let outer = rng.aligned(1 << 10, 1 << 14);
            out.push((base, outer));
            for _ in 0..count {
                let start = rng.aligned(0, outer - 4);
                out.push((base + start, rng.aligned(4, outer - start)));
            }
        }
        _ => {
            for _ in 0..4 * count {
                out.push((base + rng.aligned(0, 256), 4));
            }
            out.push((base + rng.aligned(1 << 20, 4 << 20), rng.aligned(4, 256)));
        }
    }
    out
}

/// Sample addresses that probe `layout`: every cut and its neighbours,
/// random instructions inside random regions (in short runs, as a loop
/// would fire), a stride across the span, and addresses past both ends.
fn probe_addrs(layout: &[(u64, u64)], cuts: &[u64], rng: &mut Mix) -> Vec<u64> {
    let (lo, hi) = (cuts[0], cuts[cuts.len() - 1]);
    let mut addrs: Vec<u64> = cuts
        .iter()
        .flat_map(|&c| [c.saturating_sub(4), c, c + 4])
        .collect();
    for _ in 0..64 {
        let (start, len) = layout[(rng.next() % layout.len() as u64) as usize];
        for _ in 0..1 + rng.next() % 12 {
            addrs.push(start + rng.aligned(0, len - 4));
        }
    }
    let step = ((hi - lo) / 97).max(4) & !3;
    addrs.extend((lo..hi).step_by(step as usize));
    addrs.extend([0, lo - 4, hi, hi + 4, !3]);
    addrs
}

/// For every sample, the flat index resolves the segment that
/// `cuts.partition_point(|&c| c <= a) - 1` names (its stab window is that
/// segment's span, or the out-of-span gap), whatever the layout's span
/// and narrowest segment; and the monitor's attribution — the fused
/// kernel under AVX2 dispatch — reports exactly what the tree oracle
/// reports at every SIMD level the host supports.
#[test]
fn flat_resolution_matches_partition_point_on_random_layouts() {
    use regmon_regions::RegionId;
    use regmon_stats::{simd, SimdLevel};
    let before = simd::active();
    for seed in 0..250u64 {
        let layout = random_layout(seed);
        let mut cuts: Vec<u64> = layout.iter().flat_map(|&(s, l)| [s, s + l]).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut rng = Mix(!seed);
        let addrs = probe_addrs(&layout, &cuts, &mut rng);

        let mut flat = IndexKind::FlatSorted.make();
        for (i, &(s, l)) in layout.iter().enumerate() {
            flat.insert(RegionId(i as u64), range(s, l));
        }
        let last = cuts[cuts.len() - 1];
        let mut ids = Vec::new();
        for &a in &addrs {
            let expect = if a < cuts[0] {
                (0, cuts[0])
            } else if a >= last {
                (last, u64::MAX)
            } else {
                let seg = cuts.partition_point(|&c| c <= a) - 1;
                (cuts[seg], cuts[seg + 1])
            };
            ids.clear();
            let window = flat.stab_window(Addr::new(a), &mut ids);
            assert_eq!(window, expect, "seed {seed} addr {a:#x}");
        }

        let s = samples(&addrs);
        let mut oracle = monitor(IndexKind::IntervalTree, &layout);
        oracle.attribute(&s);
        let expect = oracle.report().to_owned_report();
        for level in SimdLevel::ALL {
            if simd::force(level) != level {
                continue; // not supported on this host
            }
            let mut mon = monitor(IndexKind::FlatSorted, &layout);
            mon.attribute(&s);
            assert_eq!(
                mon.report().to_owned_report(),
                expect,
                "seed {seed} under {}",
                level.label()
            );
        }
    }
    simd::force(before);
}
