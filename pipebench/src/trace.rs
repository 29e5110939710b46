//! The traced run: per-layer numbers from spans the benchmark records
//! around calls into each layer's public functions.
//!
//! The spans are written as chrome-trace JSON, read back with
//! `regmon_telemetry::parse`, and every per-layer time is computed from
//! what was read back. A layer's self time is its span's duration minus
//! the durations of its child spans.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use regmon::binary::Binary;
use regmon::{IntervalOutcome, MonitoringSession, SessionConfig, SessionSummary};
use regmon_cpd::{CpdHub, Metric, SeriesKey, StreamConfig, NO_REGION};
use regmon_gpd::CentroidDetector;
use regmon_lpd::LpdManager;
use regmon_regions::{Pruner, RegionFormation, RegionMonitor, UcrTracker};
use regmon_sampling::Interval;
use regmon_serve::snapshot::encode_snapshot;
use regmon_serve::wire::{Frame, FrameParser};
use regmon_serve::Server;
use regmon_stats::{median, percentile};
use regmon_telemetry::metrics as counters;
use regmon_workload::suite;

use crate::metrics::{Outcome, MIN_REPS};
use crate::run::{self, Rep};
use crate::traffic::{Encoded, Traffic, Workload};

/// The pipeline stages `MonitoringSession::process_interval` runs, as
/// span names.
pub const STAGES: [&str; 5] = [
    "regions.attribute",
    "regions.formation",
    "gpd.observe",
    "lpd.observe",
    "regions.prune",
];

/// The stage spans must sum to the `process_interval` spans within this
/// share.
pub const STAGE_SUM_TOLERANCE: f64 = 0.10;

/// One recorded span. Ids start at 1; parent 0 means a root span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `regions.attribute`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// This span's id.
    pub id: u64,
    /// The enclosing span's id, or 0.
    pub parent: u64,
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    start: Instant,
}

impl Open {
    /// The span's id, for its children.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Keeps spans in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: u64,
    /// Every closed span, in closing order.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Starts a span.
    pub fn open(&mut self, name: &'static str, parent: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            name,
            id,
            parent,
            start: Instant::now(),
        }
    }

    /// Ends a span.
    pub fn close(&mut self, open: Open) {
        let end = Instant::now();
        self.spans.push(Span {
            name: open.name,
            start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(open.start).as_nanos() as u64,
            id: open.id,
            parent: open.parent,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, parent);
        let r = f();
        self.close(open);
        r
    }
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto) for `spans`, with
/// microsecond timestamps at nanosecond precision.
#[must_use]
pub fn chrome_json(spans: &[Span]) -> String {
    let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            us(s.start_ns),
            us(s.dur_ns),
            s.id,
            s.parent
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// A span as read back from a chrome trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadSpan {
    /// Span name.
    pub name: String,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Span id.
    pub id: u64,
    /// Parent id, or 0.
    pub parent: u64,
}

/// Reads the spans of a chrome trace written by [`chrome_json`].
///
/// # Errors
///
/// On malformed JSON or an event without name, duration or ids.
pub fn read_spans(text: &str) -> Result<Vec<ReadSpan>, String> {
    let doc = regmon_telemetry::parse::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("trace has no traceEvents array")?;
    events
        .iter()
        .map(|ev| {
            let num = |v: Option<&regmon_telemetry::parse::JsonValue>, what: &str| {
                v.and_then(|v| v.as_f64())
                    .ok_or(format!("trace event without {what}"))
            };
            let args = ev.get("args");
            Ok(ReadSpan {
                name: ev
                    .get("name")
                    .and_then(|n| n.as_str())
                    .ok_or("trace event without name")?
                    .to_string(),
                dur_us: num(ev.get("dur"), "dur")?,
                id: num(args.and_then(|a| a.get("id")), "id")? as u64,
                parent: num(args.and_then(|a| a.get("parent")), "parent")? as u64,
            })
        })
        .collect()
}

/// Time spent in one layer, summed over its spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: usize,
    /// Summed span durations, µs.
    pub total_us: f64,
    /// Summed durations minus the time their child spans cover, µs.
    pub self_us: f64,
    /// Each span's duration, µs.
    pub durations_us: Vec<f64>,
}

/// Per-name totals and self times of a span set.
#[must_use]
pub fn layer_times(spans: &[ReadSpan]) -> BTreeMap<String, LayerTime> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_us.entry(s.parent).or_default() += s.dur_us;
    }
    let mut layers: BTreeMap<String, LayerTime> = BTreeMap::new();
    for s in spans {
        let layer = layers.entry(s.name.clone()).or_default();
        layer.count += 1;
        layer.total_us += s.dur_us;
        layer.self_us += s.dur_us - child_us.get(&s.id).copied().unwrap_or(0.0);
        layer.durations_us.push(s.dur_us);
    }
    layers
}

/// Stage spans over `session.process_interval` spans. Near 1 when the
/// stage driver covers everything `process_interval` does.
#[must_use]
pub fn stage_sum_ratio(layers: &BTreeMap<String, LayerTime>) -> f64 {
    let total = |name: &str| layers.get(name).map_or(0.0, |l| l.total_us);
    let stages: f64 = STAGES.iter().map(|s| total(s)).sum();
    stages / total("session.process_interval")
}

/// Whether a stage-sum ratio is within [`STAGE_SUM_TOLERANCE`] of 1.
#[must_use]
pub fn stage_sum_ok(ratio: f64) -> bool {
    (ratio - 1.0).abs() <= STAGE_SUM_TOLERANCE
}

/// `MonitoringSession::process_interval` taken apart into its public
/// stage calls, each inside its own span.
#[derive(Debug)]
pub struct StageDriver {
    monitor: RegionMonitor,
    formation: RegionFormation,
    gpd: CentroidDetector,
    lpd: LpdManager,
    ucr: UcrTracker,
    pruner: Option<Pruner>,
    binary: Binary,
    period: u64,
    intervals: usize,
    regions_formed: usize,
    regions_pruned: usize,
}

impl StageDriver {
    /// A fresh driver for a session of `config` over `binary`.
    #[must_use]
    pub fn new(config: &SessionConfig, binary: Binary) -> Self {
        Self {
            monitor: RegionMonitor::new(config.index),
            formation: RegionFormation::new(config.formation),
            gpd: CentroidDetector::new(config.gpd),
            lpd: LpdManager::new(config.lpd),
            ucr: UcrTracker::new(),
            pruner: config
                .pruning
                .map(|p| Pruner::new(p.cold_intervals, p.min_samples)),
            binary,
            period: config.sampling.period(),
            intervals: 0,
            regions_formed: 0,
            regions_pruned: 0,
        }
    }

    /// One interval, stage by stage, under a `stage.interval` span.
    pub fn process(&mut self, rec: &mut Recorder, interval: &Interval) -> IntervalOutcome {
        self.intervals += 1;
        let open = rec.open("stage.interval", 0);
        let p = open.id();
        let monitor = &mut self.monitor;
        rec.time("regions.attribute", p, || {
            monitor.attribute(&interval.samples)
        });
        let ucr_fraction = monitor.report().ucr_fraction();
        self.ucr.record(ucr_fraction);
        let new_regions = if self.formation.should_trigger(ucr_fraction) {
            let (formation, binary) = (&self.formation, &self.binary);
            rec.time("regions.formation", p, || {
                let unattributed = monitor.take_unattributed();
                let outcome = formation.form(binary, &unattributed, monitor, interval.index);
                monitor.restore_unattributed(unattributed);
                outcome.new_regions
            })
        } else {
            Vec::new()
        };
        self.regions_formed += new_regions.len();
        let gpd = &mut self.gpd;
        let gpd_obs = rec.time("gpd.observe", p, || gpd.observe(&interval.samples));
        let lpd = &mut self.lpd;
        let lpd_obs = rec.time("lpd.observe", p, || {
            let report = monitor.report();
            lpd.observe_interval(monitor, &report)
        });
        let pruner = &mut self.pruner;
        let pruned_regions = rec.time("regions.prune", p, || match pruner {
            Some(pruner) => {
                let evicted = {
                    let report = monitor.report();
                    pruner.plan(&report, monitor)
                };
                for &id in &evicted {
                    monitor.remove_region(id);
                }
                evicted
            }
            None => Vec::new(),
        });
        self.regions_pruned += pruned_regions.len();
        rec.close(open);
        IntervalOutcome {
            index: interval.index,
            gpd: gpd_obs,
            lpd: lpd_obs,
            ucr_fraction,
            new_regions,
            pruned_regions,
        }
    }

    /// Live regions.
    #[must_use]
    pub fn live_regions(&self) -> usize {
        self.monitor.len()
    }

    /// The summary `MonitoringSession::summary` would give.
    #[must_use]
    pub fn summary(&self, workload_name: &str) -> SessionSummary {
        SessionSummary {
            workload: workload_name.to_string(),
            period: self.period,
            intervals: self.intervals,
            gpd: self.gpd.stats(),
            lpd: self.lpd.all_stats(),
            ucr_median: self.ucr.median().unwrap_or(0.0),
            regions_formed: self.regions_formed,
            regions_pruned: self.regions_pruned,
        }
    }
}

/// What the single-threaded replay found beyond its spans.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// Intervals replayed.
    pub intervals: usize,
    /// Replayed intervals whose tenant summary differs from the
    /// reference, plus undecodable streams.
    pub failed: usize,
    /// Whether the stage driver matched `process_interval` on every
    /// interval and summary.
    pub stages_match: bool,
    /// Live regions after each interval, summed.
    pub live_sum: usize,
    /// Every interval's UCR fraction.
    pub ucr: Vec<f64>,
    /// Local phase changes over all tenants.
    pub phase_changes: usize,
    /// Snapshot bytes over all tenants.
    pub snapshot_bytes: usize,
    /// Change points the hub reported.
    pub detections: usize,
    /// Points fed to the hub.
    pub cpd_points: u64,
}

/// Decodes `encoded.stream` and feeds each interval both to a
/// `MonitoringSession` and to a [`StageDriver`], alternating which goes
/// first so neither always finds the samples in cache. Then encodes
/// every session's snapshot and feeds the change-point hub the series
/// the fleet's change-point feed watches: each tenant's UCR on every
/// interval and each region's Pearson r on every LPD transition.
#[must_use]
pub fn replay(traffic: &Traffic, encoded: &Encoded, reference: &[String]) -> Replay {
    let mut rec = Recorder::new();
    let mut out = Replay {
        stages_match: true,
        ..Replay::default()
    };
    let programs: Vec<_> = traffic
        .tenants
        .iter()
        .map(|t| suite::by_name(t.plan.program).expect("suite program"))
        .collect();
    let mut sessions: Vec<MonitoringSession> = traffic
        .tenants
        .iter()
        .zip(&programs)
        .map(|(t, program)| {
            let mut s = MonitoringSession::new(t.plan.config.clone());
            s.attach_binary(program);
            s
        })
        .collect();
    let mut drivers: Vec<StageDriver> = traffic
        .tenants
        .iter()
        .zip(&programs)
        .map(|(t, program)| StageDriver::new(&t.plan.config, program.binary().clone()))
        .collect();
    let mut points: Vec<(SeriesKey, u64, f64)> = Vec::new();

    let mut parser = FrameParser::new();
    parser.feed(&encoded.stream);
    loop {
        let frame = match rec.time("wire.next_frame", 0, || parser.next_frame()) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                eprintln!("pipebench: replay decode failed: {e}");
                out.failed += 1;
                break;
            }
        };
        let Frame::Batch { tenant, intervals } = frame else {
            continue;
        };
        let t = tenant as usize;
        for interval in &intervals {
            let session = &mut sessions[t];
            let (a, b) = if out.intervals % 2 == 0 {
                let a = rec.time("session.process_interval", 0, || {
                    session.process_interval(interval)
                });
                (a, drivers[t].process(&mut rec, interval))
            } else {
                let b = drivers[t].process(&mut rec, interval);
                (
                    rec.time("session.process_interval", 0, || {
                        session.process_interval(interval)
                    }),
                    b,
                )
            };
            out.stages_match &= a == b;
            out.intervals += 1;
            out.live_sum += drivers[t].live_regions();
            out.ucr.push(a.ucr_fraction);
            let key = |region, metric| SeriesKey {
                tenant: tenant as u64,
                region,
                metric,
            };
            points.push((
                key(NO_REGION, Metric::Ucr),
                interval.index as u64,
                a.ucr_fraction,
            ));
            for (region, obs) in &a.lpd {
                if obs.state_before != obs.state_after {
                    points.push((
                        key(region.0, Metric::PearsonR),
                        interval.index as u64,
                        obs.r,
                    ));
                }
            }
        }
    }

    for (t, tenant) in traffic.tenants.iter().enumerate() {
        let name = programs[t].name();
        let summary = sessions[t].summary(name);
        let text = format!("{summary:?}");
        if text != reference[t] {
            out.failed += tenant.intervals.len();
        }
        out.stages_match &= format!("{:?}", drivers[t].summary(name)) == text;
        out.phase_changes += summary.lpd_total_phase_changes();
        let snapshot = sessions[t].snapshot();
        out.snapshot_bytes += rec
            .time("snapshot.encode", 0, || encode_snapshot(&snapshot))
            .len();
    }

    let mut hub = CpdHub::new(StreamConfig::default());
    for (key, x, value) in points {
        rec.time("cpd.observe", 0, || hub.observe(key, x, value));
    }
    rec.time("cpd.flush", 0, || hub.flush());
    out.detections = hub.take_detections().len();
    out.cpd_points = hub.points_ingested();
    out.spans = rec.spans;
    out
}

/// What the durable probe measured.
#[derive(Debug)]
struct Durable {
    rep: Rep,
    wal_bytes: u64,
    checkpoints: u64,
    recover_ms: f64,
}

/// One durable serve repetition with telemetry on, then recovery of its
/// directory by a fresh server.
fn durable_probe(
    traffic: &Traffic,
    encoded: &Encoded,
    reference: &[String],
    dir: &Path,
) -> Durable {
    regmon_telemetry::set_enabled(true);
    regmon_telemetry::reset();
    let mut rep = run::serve_rep(traffic, encoded, reference, Some(dir));
    let checkpoints = counters::SNAPSHOT_SAVES.value();
    regmon_telemetry::set_enabled(false);
    let wal_bytes = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);

    let mut options = run::serve_options(traffic.tenants.len(), Some(dir));
    options.recover = true;
    let start = Instant::now();
    let server = Server::new(options);
    let recovered = server.recover();
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = server.finish();
    // Recovery must rebuild every session exactly.
    if !matches!(recovered, Ok(n) if n == traffic.tenants.len()) || !report.errors.is_empty() {
        rep.failed += 1;
    }
    for (i, session) in report.sessions.iter().enumerate() {
        if session.summary.as_ref().map(|s| format!("{s:?}")) != Some(reference[i].clone()) {
            rep.failed += traffic.tenants[i].intervals.len();
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Durable {
        rep,
        wal_bytes,
        checkpoints,
        recover_ms,
    }
}

/// The workload's own path with telemetry `on` or off. The fleet path
/// runs without change-point detection here, because detection cannot
/// run with telemetry off.
fn path_rep(
    traffic: &Traffic,
    encoded: &Encoded,
    reference: &[String],
    dir: &Path,
    on: bool,
) -> Rep {
    regmon_telemetry::set_enabled(on);
    regmon_telemetry::reset();
    let rep = run::workload_rep(traffic, encoded, reference, dir, false);
    regmon_telemetry::set_enabled(false);
    rep
}

/// Where the traced run leaves its chrome trace.
#[must_use]
pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("trace-{}.json", workload.name()))
}

/// The traced run.
///
/// # Panics
///
/// If the trace file cannot be written or read back.
#[must_use]
pub fn per_layer(workload: Workload, seed: u64, seconds: f64, intervals: usize) -> Outcome {
    regmon_telemetry::set_enabled(false);
    let traffic = Traffic::generate(workload, seed, intervals);
    let reference = traffic.reference();
    let encoded = traffic.encode();
    let n = traffic.interval_count() as f64;
    let dir = run::durable_dir("trace");
    let mut out = Outcome::default();

    // Telemetry overhead: the workload's path with telemetry off and on,
    // alternating which goes first.
    let _ = path_rep(&traffic, &encoded, &reference, &dir, false);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while off.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let first = off.len() % 2 == 0;
        let a = path_rep(&traffic, &encoded, &reference, &dir, !first);
        let b = path_rep(&traffic, &encoded, &reference, &dir, first);
        let (rep_off, rep_on) = if first { (b, a) } else { (a, b) };
        off.push(rep_off);
        on.push(rep_on);
    }
    out.add_reps(&off);
    out.add_reps(&on);
    let cpu = |reps: &[Rep]| {
        median(
            &reps
                .iter()
                .map(|r| r.cpu_s / r.attempted as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN)
    };
    let overhead_pct = (cpu(&on) / cpu(&off) - 1.0) * 100.0;

    // Queue counters from the workload's real path, telemetry on.
    regmon_telemetry::set_enabled(true);
    regmon_telemetry::reset();
    let counted = run::workload_rep(&traffic, &encoded, &reference, &dir, true);
    let queue_stalls = counters::QUEUE_STALLS.value() as f64;
    let queue_high_water = counters::QUEUE_HIGH_WATER.value() as f64;
    regmon_telemetry::set_enabled(false);
    out.add_reps(&[counted]);

    // Serve-side split: the fleet path has no server, so it is timed on
    // a plain serve of the same traffic.
    let serve_reps = match workload {
        Workload::FleetCpd => {
            let rep = run::serve_rep(&traffic, &encoded, &reference, None);
            out.add_reps(&[rep]);
            vec![rep]
        }
        _ => off.clone(),
    };
    let durable = durable_probe(&traffic, &encoded, &reference, &dir);
    out.add_reps(&[durable.rep]);

    let replay = replay(&traffic, &encoded, &reference);
    out.attempted += replay.intervals as u64;
    out.failed += replay.failed as u64;

    let path = trace_path(workload);
    std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
        .expect("create .bench_work");
    std::fs::write(&path, chrome_json(&replay.spans)).expect("write the chrome trace");
    let text = std::fs::read_to_string(&path).expect("read the chrome trace back");
    let layers = layer_times(&read_spans(&text).expect("parse the chrome trace"));
    let layer = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let ratio = stage_sum_ratio(&layers);

    let med = |f: fn(&Rep) -> f64| {
        median(&serve_reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let process = layer("session.process_interval");
    let mut metrics = vec![
        ("regions.live_mean", replay.live_sum as f64 / n),
        (
            "regions.ucr_median",
            median(&replay.ucr).unwrap_or(f64::NAN),
        ),
        ("lpd.phase_changes", replay.phase_changes as f64),
        (
            "session.process_us_p50",
            percentile(&process.durations_us, 50.0).unwrap_or(f64::NAN),
        ),
        (
            "session.process_us_p99",
            percentile(&process.durations_us, 99.0).unwrap_or(f64::NAN),
        ),
        ("session.process_samples", process.count as f64),
        (
            "wire.decode_us_per_interval",
            layer("wire.next_frame").total_us / n,
        ),
        ("wire.bytes_per_interval", encoded.stream.len() as f64 / n),
        ("server.feed_s", med(|r| r.feed_s)),
        ("server.drain_s", med(|r| r.drain_s)),
        ("fleet.queue_stalls", queue_stalls),
        ("fleet.queue_high_water", queue_high_water),
        (
            "durable.wal_bytes_per_interval",
            durable.wal_bytes as f64 / n,
        ),
        ("durable.checkpoints", durable.checkpoints as f64),
        ("durable.recover_ms", durable.recover_ms),
        (
            "snapshot.encode_us",
            layer("snapshot.encode").total_us / traffic.tenants.len() as f64,
        ),
        (
            "snapshot.bytes",
            replay.snapshot_bytes as f64 / traffic.tenants.len() as f64,
        ),
        (
            "cpd.observe_us_per_point",
            layer("cpd.observe").total_us / replay.cpd_points as f64,
        ),
        ("cpd.points", replay.cpd_points as f64),
        ("cpd.detections", replay.detections as f64),
        ("sampling.us_per_interval", traffic.generate_s * 1e6 / n),
        ("telemetry.overhead_pct", overhead_pct),
    ];
    let stage_ok = stage_sum_ok(ratio);
    if replay.stages_match {
        metrics.extend([
            (
                "regions.attribute_us_per_interval",
                layer("regions.attribute").self_us / n,
            ),
            (
                "regions.formation_us_per_interval",
                layer("regions.formation").self_us / n,
            ),
            (
                "regions.formation_calls",
                layer("regions.formation").count as f64,
            ),
            (
                "regions.prune_us_per_interval",
                layer("regions.prune").self_us / n,
            ),
            (
                "lpd.observe_us_per_interval",
                layer("lpd.observe").self_us / n,
            ),
            (
                "gpd.observe_us_per_interval",
                layer("gpd.observe").self_us / n,
            ),
            ("session.stage_sum_ratio", ratio),
        ]);
        if !stage_ok {
            eprintln!(
                "pipebench: stage spans sum to {ratio:.4} of process_interval, outside 1 ± {STAGE_SUM_TOLERANCE}"
            );
        }
    } else {
        eprintln!(
            "pipebench: the stage driver diverged from process_interval; stage metrics are missing"
        );
    }
    metrics.push(("failed_ops", out.failed as f64));
    out.metrics = metrics;
    out.correct = out.failed == 0 && (!replay.stages_match || stage_ok);
    eprintln!(
        "pipebench: {} seed {seed}: traced {} intervals, {} telemetry pairs, trace in {}",
        workload.name(),
        replay.intervals,
        off.len(),
        path.display()
    );
    out
}
