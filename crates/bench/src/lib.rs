//! Shared drivers for the figure-regeneration and benchmark binaries.
//!
//! Every `fig*` binary in `src/bin/` reproduces one figure of the paper's
//! evaluation; this library holds the common plumbing: time-budgeted
//! sweeps, per-region tracking, CSV-ish row printing, and the one
//! warm-up-then-median timer ([`median_secs`]) behind the
//! `attribution_matrix` and `fleet_matrix` JSON documents. See
//! `EXPERIMENTS.md` at the workspace root for the figure-by-figure
//! paper-vs-measured record. [`gate`] holds the performance gate's
//! decisions (`bench_gate`, run by `scripts/bench_guard.sh`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use std::collections::BTreeMap;

use regmon::regions::RegionId;
use regmon::sampling::{Sampler, SamplingConfig};
use regmon::workload::{suite, Workload};
use regmon::{MonitoringSession, SessionConfig, SessionSummary};
use regmon_binary::AddrRange;

/// The paper's Figure 3/4/13/14 sampling periods.
pub const SWEEP_PERIODS: [u64; 3] = regmon::sampling::SWEEP_PERIODS;

/// The paper's Figure 17 sampling periods.
pub const RTO_PERIODS: [u64; 3] = regmon::sampling::RTO_PERIODS;

/// Returns the number of intervals a sweep should process at `period`.
///
/// Full runs process the whole workload; setting the `REGMON_FAST`
/// environment variable caps every sweep to a small fixed virtual-time
/// budget so smoke tests finish quickly.
#[must_use]
pub fn interval_budget(workload: &Workload, period: u64) -> usize {
    let cfg = SamplingConfig::new(period);
    let full = (workload.total_cycles() / cfg.interval_cycles()) as usize;
    match std::env::var_os("REGMON_FAST") {
        Some(_) => {
            // ≈30 intervals' worth of virtual time at the 45K period.
            let budget_cycles = 45_000u64 * 2032 * 30;
            ((budget_cycles / cfg.interval_cycles()) as usize).clamp(8, full.max(8))
        }
        None => full,
    }
}

/// Runs a full monitoring session for `name` at `period`.
///
/// # Panics
///
/// Panics when `name` is not in the suite.
#[must_use]
pub fn run_session(name: &str, period: u64) -> SessionSummary {
    let workload = suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let config = SessionConfig::new(period);
    let budget = interval_budget(&workload, period);
    MonitoringSession::run_limited(&workload, &config, budget)
}

/// Per-interval series for region charts (Figures 2, 5, 9): for each
/// tracked range, the number of samples per interval, plus the GPD
/// phase line and per-region r values.
#[derive(Debug, Clone)]
pub struct RegionChart {
    /// The tracked ranges in input order.
    pub ranges: Vec<AddrRange>,
    /// `samples[i][t]` = samples of range `i` in interval `t`.
    pub samples: Vec<Vec<u64>>,
    /// 1.0 when GPD was unstable in that interval (the figures' thick
    /// line), else 0.0.
    pub gpd_unstable: Vec<f64>,
    /// `r_values[i][t]` = the local detector's r for range `i` at
    /// interval `t` (0 until the region forms).
    pub r_values: Vec<Vec<f64>>,
    /// Per-interval UCR fraction.
    pub ucr: Vec<f64>,
}

/// Builds a region chart for `workload` over up to `max_intervals`.
#[must_use]
pub fn region_chart(
    workload: &Workload,
    period: u64,
    ranges: &[AddrRange],
    max_intervals: usize,
) -> RegionChart {
    let config = SessionConfig::new(period);
    let mut session = MonitoringSession::new(config.clone());
    session.attach_binary(workload);

    let n = ranges.len();
    let mut chart = RegionChart {
        ranges: ranges.to_vec(),
        samples: vec![Vec::new(); n],
        gpd_unstable: Vec::new(),
        r_values: vec![Vec::new(); n],
        ucr: Vec::new(),
    };
    // Region ids are assigned as regions form; map them to tracked slots
    // by range.
    let mut id_of_range: BTreeMap<RegionId, usize> = BTreeMap::new();

    for interval in Sampler::new(workload, config.sampling).take(max_intervals) {
        // Count raw samples per tracked range (independent of formation).
        let mut counts = vec![0u64; n];
        for s in &interval.samples {
            for (i, r) in ranges.iter().enumerate() {
                if r.contains(s.addr) {
                    counts[i] += 1;
                }
            }
        }
        let outcome = session.process_interval(&interval);
        for id in &outcome.new_regions {
            if let Some(region) = session.monitor().region(*id) {
                if let Some(i) = ranges.iter().position(|r| *r == region.range()) {
                    id_of_range.insert(*id, i);
                }
            }
        }
        for (i, c) in counts.iter().enumerate() {
            chart.samples[i].push(*c);
        }
        chart
            .gpd_unstable
            .push(if session.gpd().is_stable() { 0.0 } else { 1.0 });
        let mut rs = vec![f64::NAN; n];
        for (id, obs) in &outcome.lpd {
            if let Some(&i) = id_of_range.get(id) {
                rs[i] = obs.r;
            }
        }
        for (i, r) in rs.into_iter().enumerate() {
            let value = if r.is_nan() {
                *chart.r_values[i].last().unwrap_or(&0.0)
            } else {
                r
            };
            chart.r_values[i].push(value);
        }
        chart.ucr.push(outcome.ucr_fraction);
    }
    chart
}

/// The regions the paper's Figures 13/14 track, per selected benchmark:
/// `(label, range)` pairs in the figure's r1, r2, … order.
///
/// # Panics
///
/// Panics when `name` is not one of the Figure 13 benchmarks.
#[must_use]
pub fn fig13_regions(name: &str, w: &Workload) -> Vec<(String, AddrRange)> {
    use regmon::workload::activity::loop_range;
    use regmon::workload::suite::{ammp, fma3d, gap, gzip, mcf};
    let ranges: Vec<AddrRange> = match name {
        "181.mcf" => mcf::tracked_regions(w)[..2].to_vec(),
        "187.facerec" => (0..3)
            .map(|i| loop_range(w.binary(), &format!("hot{i}"), 0))
            .collect(),
        "254.gap" => {
            let [r1, r2, r3] = gap::tracked_regions(w);
            vec![r1, r2, r3, loop_range(w.binary(), "main_dispatch", 0)]
        }
        "164.gzip" => gzip::tracked_regions(w).to_vec(),
        "178.galgel" => (0..4)
            .map(|i| loop_range(w.binary(), &format!("hot{i}"), 0))
            .collect(),
        "189.lucas" => vec![loop_range(w.binary(), "hot0", 0)],
        "191.fma3d" => fma3d::tracked_regions(w).to_vec(),
        "188.ammp" => ammp::tracked_regions(w).to_vec(),
        other => panic!("{other} is not a Figure 13 benchmark"),
    };
    ranges
        .into_iter()
        .enumerate()
        .map(|(i, r)| (format!("r{}", i + 1), r))
        .collect()
}

/// The Figure 13/14 benchmark set, in the paper's order.
pub const FIG13_BENCHMARKS: [&str; 8] = [
    "181.mcf",
    "187.facerec",
    "254.gap",
    "164.gzip",
    "178.galgel",
    "189.lucas",
    "191.fma3d",
    "188.ammp",
];

/// Runs a session and returns the per-tracked-region LPD stats for a
/// Figure 13 benchmark, in `fig13_regions` order. Regions that never
/// formed report default (all-zero) stats.
#[must_use]
pub fn fig13_stats(name: &str, period: u64) -> Vec<(String, regmon::lpd::RegionPhaseStats)> {
    let workload = suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let tracked = fig13_regions(name, &workload);
    let config = SessionConfig::new(period);
    let mut session = MonitoringSession::new(config.clone());
    session.attach_binary(&workload);
    let budget = interval_budget(&workload, period);
    for interval in Sampler::new(&workload, config.sampling).take(budget) {
        session.process_interval(&interval);
    }
    let stats = session.lpd().all_stats();
    tracked
        .into_iter()
        .map(|(label, range)| {
            let s = session
                .monitor()
                .region_by_range(range)
                .and_then(|r| stats.get(&r.id()).copied())
                .unwrap_or_default();
            (label, s)
        })
        .collect()
}

/// Averages `values` down to at most `max_cols` buckets so long
/// per-interval series print as readable rows. Shorter inputs pass
/// through unchanged.
#[must_use]
pub fn downsample(values: &[f64], max_cols: usize) -> Vec<f64> {
    assert!(max_cols > 0, "need at least one column");
    if values.len() <= max_cols {
        return values.to_vec();
    }
    let mut out = Vec::with_capacity(max_cols);
    for b in 0..max_cols {
        let lo = b * values.len() / max_cols;
        let hi = ((b + 1) * values.len() / max_cols).max(lo + 1);
        let bucket = &values[lo..hi];
        out.push(bucket.iter().sum::<f64>() / bucket.len() as f64);
    }
    out
}

/// Formats one CSV row.
#[must_use]
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = String::from(label);
    for v in values {
        s.push(',');
        if v.fract() == 0.0 && v.abs() < 1e15 {
            s.push_str(&format!("{}", *v as i64));
        } else {
            s.push_str(&format!("{v:.4}"));
        }
    }
    s
}

/// Renders `(key, value)` pairs as JSON object members, one per line
/// at four spaces; each value is already JSON (numbers as written,
/// strings quoted).
#[must_use]
pub fn json_members(fields: &[(&str, String)]) -> String {
    let lines: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("    \"{key}\": {value}"))
        .collect();
    lines.join(",\n")
}

/// Median of `reps` timed runs of `run`, after `warmup` untimed runs
/// that fill caches, arenas and allocator pools. Each run returns the
/// seconds it measured, so it can leave its own setup (spawning
/// consumers, binding a socket) outside the timed span.
///
/// # Panics
///
/// Panics when `reps` is 0.
pub fn median_secs(warmup: usize, reps: usize, mut run: impl FnMut() -> f64) -> f64 {
    assert!(reps > 0, "need at least one timed run");
    for _ in 0..warmup {
        run();
    }
    let mut secs: Vec<f64> = (0..reps).map(|_| run()).collect();
    secs.sort_by(f64::total_cmp);
    secs[reps / 2]
}

/// Prints a figure header with reproduction context.
pub fn figure_header(figure: &str, what: &str) {
    println!("# {figure}: {what}");
    println!(
        "# regmon reproduction; columns are CSV. REGMON_FAST={} ",
        std::env::var_os("REGMON_FAST").is_some()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formats_compactly() {
        assert_eq!(row("a", &[1.0, 0.25]), "a,1,0.2500");
    }

    #[test]
    fn downsample_passes_short_series_through() {
        assert_eq!(downsample(&[1.0, 2.0], 4), vec![1.0, 2.0]);
    }

    #[test]
    fn downsample_averages_buckets() {
        let v: Vec<f64> = (0..8).map(f64::from).collect();
        assert_eq!(downsample(&v, 4), vec![0.5, 2.5, 4.5, 6.5]);
    }

    #[test]
    fn median_secs_skips_warmups_and_takes_the_middle_run() {
        let mut runs = [9.0, 9.0, 3.0, 1.0, 2.0].into_iter();
        assert_eq!(median_secs(2, 3, || runs.next().unwrap()), 2.0);
        assert!(runs.next().is_none(), "two warmups and three timed runs");
    }

    #[test]
    fn budget_is_positive_for_all_periods() {
        let w = suite::by_name("172.mgrid").unwrap();
        for p in SWEEP_PERIODS.iter().chain(RTO_PERIODS.iter()) {
            assert!(interval_budget(&w, *p) > 0);
        }
    }
}
