//! Criterion bench behind Figure 16, extended into the attribution
//! matrix: index kind (`list` / `tree` / `flat`) × region count ×
//! samples-per-interval × sample locality, all running the arena batch
//! path (`RegionMonitor::attribute`).
//!
//! `locality` distinguishes the two PC streams a PMU actually produces:
//! `random` jumps across the whole text segment every interrupt (worst
//! case for the last-hit cache), `local` walks loop bodies the way real
//! execution does — long runs of consecutive samples inside one region,
//! which the validity-window cache turns into O(1) lookups.
//!
//! `cargo run --release -p regmon-bench --bin attribution_matrix` emits
//! the same matrix as machine-readable JSON (plus scalar and avx2 rows)
//! for the committed `BENCH_attribution.json` snapshot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use regmon::regions::{IndexKind, RegionKind, RegionMonitor};
use regmon::sampling::PcSample;
use regmon_binary::{Addr, AddrRange};

const BASE: u64 = 0x10000;

/// A monitor with `n` disjoint 128-byte regions spaced 256 bytes apart.
fn monitor(n: usize, kind: IndexKind) -> RegionMonitor {
    let mut monitor = RegionMonitor::new(kind);
    for i in 0..n {
        let start = BASE + (i as u64) * 0x100;
        monitor.add_region(
            AddrRange::new(Addr::new(start), Addr::new(start + 0x80)),
            RegionKind::Loop { depth: 0 },
            0,
        );
    }
    monitor
}

/// `count` samples spread pseudo-randomly over the monitored span
/// (~50% land inside regions — every lookup misses the locality cache).
fn random_samples(n: usize, count: usize) -> Vec<PcSample> {
    let span = n as u64 * 0x100;
    (0..count as u64)
        .map(|k| {
            let x = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) % span;
            PcSample {
                addr: Addr::new(BASE + (x & !3)),
                cycle: k,
            }
        })
        .collect()
}

/// `count` samples walking loop bodies: long consecutive runs inside one
/// region before hopping to the next, the way real PMU streams look.
fn local_samples(n: usize, count: usize) -> Vec<PcSample> {
    (0..count as u64)
        .map(|k| {
            let region = (k / 97) % n as u64; // ~97-sample dwell per region
            let offset = (k % 32) * 4; // walk the loop body
            PcSample {
                addr: Addr::new(BASE + region * 0x100 + offset),
                cycle: k,
            }
        })
        .collect()
}

fn bench_attribution(c: &mut Criterion) {
    let kinds = [
        ("list", IndexKind::Linear),
        ("tree", IndexKind::IntervalTree),
        ("flat", IndexKind::FlatSorted),
    ];
    for (locality, gen) in [
        (
            "random",
            random_samples as fn(usize, usize) -> Vec<PcSample>,
        ),
        ("local", local_samples as fn(usize, usize) -> Vec<PcSample>),
    ] {
        for &count in &[508usize, 2032] {
            let mut group = c.benchmark_group(format!("attribution/{locality}/{count}"));
            group.throughput(Throughput::Elements(count as u64));
            for &n in &[4usize, 16, 64, 256] {
                let samples = gen(n, count);
                for (label, kind) in kinds {
                    let mut monitor = monitor(n, kind);
                    group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                        b.iter(|| {
                            monitor.attribute(black_box(&samples));
                            black_box(monitor.report().total_samples())
                        });
                    });
                }
            }
            group.finish();
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_attribution
}
criterion_main!(benches);
