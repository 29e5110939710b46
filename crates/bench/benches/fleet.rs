//! Criterion bench of the multi-tenant fleet engine: full fleet runs at
//! several tenant/shard scales (throughput in intervals/sec), a shard
//! scaling sweep at fixed fleet size, and the queue-policy ablation
//! under a deliberately tiny queue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use regmon::workload::suite;
use regmon::SessionConfig;
use regmon_fleet::{run_fleet, FleetConfig, Pacing, QueuePolicy, Schedule, TenantSpec};

const INTERVALS: usize = 12;

fn specs(tenants: usize) -> Vec<TenantSpec> {
    let names = suite::names();
    (0..tenants)
        .map(|i| {
            let name = names[i % names.len()];
            TenantSpec::new(
                format!("{name}#{i}"),
                suite::by_name(name).expect("suite name"),
                SessionConfig::new(45_000),
                INTERVALS,
            )
        })
        .collect()
}

fn bench_fleet(c: &mut Criterion) {
    // Fleet size scaling at 4 shards.
    let mut group = c.benchmark_group("fleet_scale");
    for tenants in [8usize, 32, 96] {
        let specs = specs(tenants);
        group.throughput(Throughput::Elements((tenants * INTERVALS) as u64));
        group.bench_with_input(BenchmarkId::new("tenants", tenants), &tenants, |b, _| {
            let config = FleetConfig::new(4, 16).with_policy(QueuePolicy::Block);
            b.iter(|| black_box(run_fleet(&config, black_box(&specs), &Schedule::new())));
        });
    }
    group.finish();

    // Shard scaling at a fixed 32-tenant fleet (freerun so the workers
    // genuinely overlap; lockstep pacing serialises rounds).
    let mut group = c.benchmark_group("fleet_shards");
    let fixed = specs(32);
    for shards in [1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements((32 * INTERVALS) as u64));
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            let config = FleetConfig::new(shards, 16)
                .with_policy(QueuePolicy::Block)
                .with_pacing(Pacing::Freerun);
            b.iter(|| black_box(run_fleet(&config, black_box(&fixed), &Schedule::new())));
        });
    }
    group.finish();

    // Ingestion fast path: batching factor sweep on the freerun path.
    // Same fleet, same work; only the transport changes.
    let mut group = c.benchmark_group("fleet_ingest");
    let fixed = specs(32);
    for batch in [1usize, 8, 32] {
        group.throughput(Throughput::Elements((32 * INTERVALS) as u64));
        group.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            let config = FleetConfig::new(4, 16)
                .with_policy(QueuePolicy::Block)
                .with_pacing(Pacing::Freerun)
                .with_batch(batch);
            b.iter(|| black_box(run_fleet(&config, black_box(&fixed), &Schedule::new())));
        });
    }
    group.finish();

    // Queue-policy ablation under a depth-1 queue: lossless blocking vs
    // lossy drop-oldest.
    let mut group = c.benchmark_group("fleet_queue_policy");
    let tiny = specs(16);
    for (label, policy) in [
        ("block", QueuePolicy::Block),
        ("drop_oldest", QueuePolicy::DropOldest),
    ] {
        group.bench_function(label, |b| {
            let config = FleetConfig::new(2, 1).with_policy(policy);
            b.iter(|| black_box(run_fleet(&config, black_box(&tiny), &Schedule::new())));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fleet
}
criterion_main!(benches);
