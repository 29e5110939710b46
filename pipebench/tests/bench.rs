//! The benchmark's own checks: seeded inputs, the metric contract with
//! `BENCHMARK.json`, and the span arithmetic behind the stage-sum check.

use std::collections::BTreeSet;

use regmon_pipebench::metrics::{end_to_end, END_TO_END, PER_LAYER};
use regmon_pipebench::steady::declared;
use regmon_pipebench::trace::{
    chrome_json, layer_times, per_layer, read_spans, replay, stage_sum_ok, stage_sum_ratio,
    Recorder, Span, STAGES,
};
use regmon_pipebench::traffic::{Traffic, Workload};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for workload in Workload::ALL {
        let a = Traffic::generate(workload, 7, 3).encode();
        let b = Traffic::generate(workload, 7, 3).encode();
        let c = Traffic::generate(workload, 8, 3).encode();
        assert_eq!(a.admission, b.admission, "{}", workload.name());
        assert_eq!(a.stream, b.stream, "{}", workload.name());
        assert_ne!(a.stream, c.stream, "{}", workload.name());
    }
}

#[test]
fn names_are_well_formed_and_match_benchmark_json() {
    let decl = declared(&benchmark_json()).expect("BENCHMARK.json parses");
    let mut seen = BTreeSet::new();
    for name in END_TO_END.iter().chain(PER_LAYER.iter()).map(|d| d.name) {
        assert!(well_formed(name), "{name}");
        assert!(seen.insert(name), "{name} used twice");
    }
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for w in &workloads {
        assert!(well_formed(w), "{w}");
    }
    for w in &decl.workloads {
        assert!(
            workloads.contains(&w.as_str()),
            "BENCHMARK.json names unknown workload {w}"
        );
    }
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(
        decl.bounds
            .keys()
            .map(String::as_str)
            .collect::<BTreeSet<_>>(),
        e2e
    );
    let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(decl.per_layer, layers);
    for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let kind = (d.unit.to_string(), d.better.to_string());
        assert_eq!(decl.kinds[d.name], kind, "{}", d.name);
    }
    assert!(decl.bounds["setup_s"] >= decl.bounds.values().copied().fold(0.0, f64::max));
}

#[test]
fn layer_self_time_subtracts_children() {
    let span = |name, dur_ns, id, parent| Span {
        name,
        start_ns: 0,
        dur_ns,
        id,
        parent,
    };
    let spans = vec![
        span("session.process_interval", 10_000, 1, 0),
        span("stage.interval", 10_500, 2, 0),
        span("regions.attribute", 6_000, 3, 2),
        span("regions.formation", 1_000, 4, 2),
        span("gpd.observe", 1_500, 5, 2),
        span("lpd.observe", 1_000, 6, 2),
        span("regions.prune", 500, 7, 2),
    ];
    let read = read_spans(&chrome_json(&spans)).expect("round trip");
    assert_eq!(read.len(), spans.len());
    let layers = layer_times(&read);
    assert!((layers["stage.interval"].total_us - 10.5).abs() < 1e-9);
    assert!((layers["stage.interval"].self_us - 0.5).abs() < 1e-9);
    assert!((layers["regions.attribute"].self_us - 6.0).abs() < 1e-9);
    let ratio = stage_sum_ratio(&layers);
    assert!((ratio - 1.0).abs() < 1e-9);
    assert!(stage_sum_ok(ratio));
}

#[test]
fn stage_sum_check_rejects_a_missing_stage() {
    let mut rec = Recorder::new();
    rec.time("session.process_interval", 0, || {
        std::thread::sleep(std::time::Duration::from_millis(4))
    });
    // Only four of the five stages: the ratio drops well below 1.
    let open = rec.open("stage.interval", 0);
    for stage in &STAGES[..4] {
        rec.time(stage, open.id(), || ());
    }
    rec.close(open);
    let layers = layer_times(&read_spans(&chrome_json(&rec.spans)).expect("round trip"));
    assert!(!stage_sum_ok(stage_sum_ratio(&layers)));
    assert!(stage_sum_ok(0.95) && stage_sum_ok(1.08));
    assert!(!stage_sum_ok(0.85) && !stage_sum_ok(1.15));
}

#[test]
fn stage_driver_matches_process_interval() {
    for workload in [Workload::ServeChurn, Workload::FleetCpd] {
        let traffic = Traffic::generate(workload, 3, 12);
        let reference = traffic.reference();
        let r = replay(&traffic, &traffic.encode(), &reference);
        assert!(r.stages_match, "{}", workload.name());
        assert_eq!(r.failed, 0);
        assert_eq!(r.intervals, traffic.interval_count());
    }
}

/// One test, so runs that flip process-wide telemetry never overlap.
#[test]
fn every_workload_emits_every_metric_and_passes_its_gate() {
    let decl = declared(&benchmark_json()).expect("BENCHMARK.json parses");
    for workload in Workload::ALL {
        let e2e = end_to_end(workload, 2, 0.05, 6);
        assert!(e2e.correct, "{}: {}", workload.name(), e2e.to_json());
        assert_eq!(e2e.failed, 0);
        assert!(e2e.attempted > 0);
        let names: BTreeSet<&str> = e2e.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            decl.bounds.keys().map(String::as_str).collect(),
            "{}",
            workload.name()
        );

        // The stage-sum tolerance is not asserted here: a few dozen
        // intervals are too few to time; the span tests above cover it.
        let traced = per_layer(workload, 2, 0.05, 6);
        assert_eq!(
            traced.failed,
            0,
            "{}: {}",
            workload.name(),
            traced.to_json()
        );
        let names: BTreeSet<&str> = traced.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            decl.per_layer.iter().map(String::as_str).collect(),
            "{}",
            workload.name()
        );
        assert!(
            traced.metrics.iter().all(|(_, v)| v.is_finite()),
            "{}",
            traced.to_json()
        );
    }
}
