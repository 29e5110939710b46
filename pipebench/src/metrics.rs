//! The metric tables, the end-to-end run and the result line.

use crate::run::{self, Rep};
use regmon_stats::median;

use crate::stats::quartiles;
use crate::sys;
use crate::traffic::{Traffic, Workload};

/// A reported metric's identity.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; reported with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    def("intervals_per_s", "1/s", "higher"),
    def("cpu_us_per_interval", "us", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("setup_s", "s", "lower"),
];

/// Single layers, from the traced run.
pub const PER_LAYER: [MetricDef; 30] = [
    def("failed_ops", "count", "lower"),
    def("regions.attribute_us_per_interval", "us", "lower"),
    def("regions.formation_us_per_interval", "us", "lower"),
    def("regions.formation_calls", "count", "lower"),
    def("regions.prune_us_per_interval", "us", "lower"),
    def("regions.live_mean", "count", "lower"),
    def("regions.ucr_median", "fraction", "lower"),
    def("lpd.observe_us_per_interval", "us", "lower"),
    def("lpd.phase_changes", "count", "lower"),
    def("gpd.observe_us_per_interval", "us", "lower"),
    def("session.process_us_p50", "us", "lower"),
    def("session.process_us_p99", "us", "lower"),
    def("session.process_samples", "count", "higher"),
    def("session.stage_sum_ratio", "ratio", "lower"),
    def("wire.decode_us_per_interval", "us", "lower"),
    def("wire.bytes_per_interval", "bytes", "lower"),
    def("server.feed_s", "s", "lower"),
    def("server.drain_s", "s", "lower"),
    def("fleet.queue_stalls", "count", "lower"),
    def("fleet.queue_high_water", "count", "lower"),
    def("durable.wal_bytes_per_interval", "bytes", "lower"),
    def("durable.checkpoints", "count", "lower"),
    def("durable.recover_ms", "ms", "lower"),
    def("snapshot.encode_us", "us", "lower"),
    def("snapshot.bytes", "bytes", "lower"),
    def("cpd.observe_us_per_point", "us", "lower"),
    def("cpd.points", "count", "lower"),
    def("cpd.detections", "count", "lower"),
    def("sampling.us_per_interval", "us", "lower"),
    def("telemetry.overhead_pct", "%", "lower"),
];

/// Repetitions a run makes at least, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// The last line a run prints.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Intervals attempted across the measured repetitions.
    pub attempted: u64,
    /// Of those, intervals that failed the correctness gate, plus
    /// report errors.
    pub failed: u64,
    /// Whether every check held.
    pub correct: bool,
    /// `(name, value)` pairs; units come from the tables.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Adds the counts of a set of repetitions.
    pub fn add_reps<'a>(&mut self, reps: impl IntoIterator<Item = &'a Rep>) {
        for r in reps {
            self.attempted += r.attempted as u64;
            self.failed += r.failed as u64;
        }
    }

    /// The result line: one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = END_TO_END
                    .iter()
                    .chain(PER_LAYER.iter())
                    .find(|d| d.name == name)
                    .map_or("", |d| d.unit);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The end-to-end run: tracing off, `seconds` of timed repetitions.
#[must_use]
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64, intervals: usize) -> Outcome {
    regmon_telemetry::set_enabled(false);
    let traffic = Traffic::generate(workload, seed, intervals);
    let reference = traffic.reference();
    let encoded = traffic.encode();
    let dir = run::durable_dir("e2e");

    if let Err(e) = sys::reset_peak_rss() {
        eprintln!("pipebench: cannot reset the peak RSS ({e}); peak_rss_mb includes earlier peaks");
    }
    let reps = run::repeat(seconds, MIN_REPS, || {
        run::workload_rep(&traffic, &encoded, &reference, &dir, true)
    });
    let _ = std::fs::remove_dir_all(&dir);

    let quiet = run::quietest(&reps.timed);
    let per_rep =
        |f: fn(&Rep) -> f64| median(&quiet.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    let walls: Vec<f64> = quiet.iter().map(|r| r.wall_s).collect();
    let (q1, q3) = quartiles(&walls);
    let steal: u64 = reps.timed.iter().map(|r| r.steal_ticks).sum();
    eprintln!(
        "pipebench: {} seed {seed}: {} repetitions of {} intervals ({} with the least steal \
         used; {steal} steal ticks in all), wall quartiles {q1:.4} {:.4} {q3:.4} s",
        workload.name(),
        reps.timed.len(),
        traffic.interval_count(),
        quiet.len(),
        median(&walls).unwrap_or(f64::NAN)
    );
    let mut out = Outcome::default();
    out.add_reps(reps.all());
    out.metrics = vec![
        ("intervals_per_s", per_rep(|r| r.verdicts as f64 / r.wall_s)),
        (
            "cpu_us_per_interval",
            per_rep(|r| r.cpu_s * 1e6 / r.attempted as f64),
        ),
        (
            "peak_rss_mb",
            median(
                &reps
                    .memory
                    .iter()
                    .map(|r| r.peak_rss_bytes as f64 / (1024.0 * 1024.0))
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(f64::NAN),
        ),
        ("setup_s", per_rep(|r| r.setup_s)),
    ];
    out.correct = out.failed == 0 && out.metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0);
    out
}
