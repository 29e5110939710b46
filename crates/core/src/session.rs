//! The end-to-end monitoring pipeline.

use core::fmt;
use std::collections::BTreeMap;
use std::sync::Arc;

use regmon_binary::{AddrRange, Binary};

use regmon_gpd::{CentroidDetector, GpdConfig, GpdObservation, GpdSnapshot, PhaseStats};
use regmon_lpd::{LpdConfig, LpdManager, LpdManagerSnapshot, LpdObservation, RegionPhaseStats};
use regmon_regions::{
    FormationConfig, IndexKind, MonitorSnapshot, Pruner, RegionFormation, RegionId, RegionMonitor,
    UcrTracker,
};
use regmon_sampling::{Interval, Sampler, SamplingConfig};
use regmon_workload::Workload;

/// Pruning policy for a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruningConfig {
    /// Consecutive cold intervals before eviction.
    pub cold_intervals: usize,
    /// Minimum samples per interval to count as hot.
    pub min_samples: u64,
}

/// Configuration of a [`MonitoringSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// PMU sampling parameters.
    pub sampling: SamplingConfig,
    /// Region-formation policy.
    pub formation: FormationConfig,
    /// Attribution index implementation ([`IndexKind::default`], the
    /// flat index, unless a figure or an equivalence test picks another).
    pub index: IndexKind,
    /// Global (centroid) detector parameters.
    pub gpd: GpdConfig,
    /// Local (per-region) detector parameters.
    pub lpd: LpdConfig,
    /// Optional cold-region pruning.
    pub pruning: Option<PruningConfig>,
}

impl SessionConfig {
    /// A default-configured session at the given sampling period.
    #[must_use]
    pub fn new(period: u64) -> Self {
        Self {
            sampling: SamplingConfig::new(period),
            formation: FormationConfig::default(),
            index: IndexKind::default(),
            gpd: GpdConfig::default(),
            lpd: LpdConfig::default(),
            pruning: None,
        }
    }
}

/// Everything one interval produced.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalOutcome {
    /// The interval's index.
    pub index: usize,
    /// The global detector's observation (None for an empty interval).
    pub gpd: Option<GpdObservation>,
    /// Per-region local observations, in region-id order.
    pub lpd: Vec<(RegionId, LpdObservation)>,
    /// This interval's UCR fraction.
    pub ucr_fraction: f64,
    /// Regions formed this interval.
    pub new_regions: Vec<RegionId>,
    /// Regions pruned this interval.
    pub pruned_regions: Vec<RegionId>,
}

/// Aggregated results of a completed session.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// The workload's name.
    pub workload: String,
    /// Sampling period used.
    pub period: u64,
    /// Intervals processed.
    pub intervals: usize,
    /// Global-detector lifetime stats.
    pub gpd: PhaseStats,
    /// Per-region local-detector lifetime stats (live + retired regions).
    pub lpd: BTreeMap<RegionId, RegionPhaseStats>,
    /// Median per-interval UCR fraction (0 when no intervals ran).
    pub ucr_median: f64,
    /// Total regions ever formed.
    pub regions_formed: usize,
    /// Total regions pruned.
    pub regions_pruned: usize,
}

impl SessionSummary {
    /// Total local phase changes summed over all regions.
    #[must_use]
    pub fn lpd_total_phase_changes(&self) -> usize {
        self.lpd.values().map(|s| s.phase_changes).sum()
    }

    /// Mean per-region stable fraction (0 when no regions).
    #[must_use]
    pub fn lpd_mean_stable_fraction(&self) -> f64 {
        if self.lpd.is_empty() {
            return 0.0;
        }
        self.lpd
            .values()
            .map(RegionPhaseStats::stable_fraction)
            .sum::<f64>()
            / self.lpd.len() as f64
    }
}

/// A complete checkpoint of a [`MonitoringSession`] taken at an
/// interval boundary.
///
/// Contains everything needed to reconstruct the session on another
/// process (or after a restart) such that continuing the sample stream
/// produces byte-identical reports to the uninterrupted run: the full
/// configuration, the region table (with the id allocator position),
/// the global and per-region detector states, the UCR timeline, the
/// pruner's cold streaks and the lifetime counters.
///
/// The attribution arena is deliberately *not* captured: it is scratch
/// space that is rebuilt from scratch every interval, so a snapshot at
/// an interval boundary needs none of it. The attached binary image is
/// also excluded — the restoring side re-attaches it from the workload
/// name (see [`MonitoringSession::attach_binary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Full session configuration.
    pub config: SessionConfig,
    /// Intervals processed so far.
    pub intervals: usize,
    /// Total regions ever formed.
    pub regions_formed: usize,
    /// Total regions pruned.
    pub regions_pruned: usize,
    /// Region table + id allocator.
    pub monitor: MonitorSnapshot,
    /// Global (centroid) detector state.
    pub gpd: GpdSnapshot,
    /// Per-region local detector states (live + retired).
    pub lpd: LpdManagerSnapshot,
    /// Per-interval UCR fractions, oldest first.
    pub ucr_timeline: Vec<f64>,
    /// Pruner cold streaks, ascending by region id (empty when pruning
    /// is disabled).
    pub pruner_streaks: Vec<(RegionId, usize)>,
}

impl SessionSnapshot {
    /// Checks that every monitored region lies within `binary`'s code
    /// span, which is where formation creates them. Run it before
    /// restoring a snapshot that came from outside the process: a
    /// well-formed snapshot can still carry a region far wider than the
    /// image, and the first interval would then size that region's
    /// histogram by its range, an allocation large enough to abort the
    /// process.
    ///
    /// # Errors
    ///
    /// The first region (in id order) outside the code span.
    pub fn check_regions(&self, binary: &Binary) -> Result<(), RegionOutsideImage> {
        let span = binary.code_span();
        match self
            .monitor
            .regions
            .iter()
            .find(|r| !span.contains_range(r.range))
        {
            Some(r) => Err(RegionOutsideImage {
                region: r.id,
                range: r.range,
                binary: binary.name().to_string(),
                code_span: span,
            }),
            None => Ok(()),
        }
    }
}

/// A snapshot region outside the program image its session is restored
/// against (see [`SessionSnapshot::check_regions`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionOutsideImage {
    /// The offending region.
    pub region: RegionId,
    /// Its address range.
    pub range: AddrRange,
    /// The image's name.
    pub binary: String,
    /// The image's code span.
    pub code_span: AddrRange,
}

impl fmt::Display for RegionOutsideImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region {} [{}] lies outside {}'s code span [{}]",
            self.region, self.range, self.binary, self.code_span
        )
    }
}

impl std::error::Error for RegionOutsideImage {}

/// The assembled pipeline: region monitor + formation + UCR + GPD + LPD
/// (+ optional pruning), fed one sampling interval at a time.
#[derive(Debug)]
pub struct MonitoringSession {
    config: SessionConfig,
    monitor: RegionMonitor,
    formation: RegionFormation,
    gpd: CentroidDetector,
    lpd: LpdManager,
    ucr: UcrTracker,
    pruner: Option<Pruner>,
    binary: Option<Arc<Binary>>,
    intervals: usize,
    regions_formed: usize,
    regions_pruned: usize,
}

impl MonitoringSession {
    /// Creates an empty session.
    #[must_use]
    pub fn new(config: SessionConfig) -> Self {
        Self {
            monitor: RegionMonitor::new(config.index),
            formation: RegionFormation::new(config.formation),
            gpd: CentroidDetector::new(config.gpd),
            lpd: LpdManager::new(config.lpd),
            ucr: UcrTracker::new(),
            pruner: config
                .pruning
                .map(|p| Pruner::new(p.cold_intervals, p.min_samples)),
            binary: None,
            config,
            intervals: 0,
            regions_formed: 0,
            regions_pruned: 0,
        }
    }

    /// Processes one sampling interval through the whole pipeline:
    /// distribute → UCR → (maybe) region formation → GPD → LPD →
    /// (maybe) pruning.
    pub fn process_interval(&mut self, interval: &Interval) -> IntervalOutcome {
        self.intervals += 1;
        let telemetry_on = regmon_telemetry::enabled();
        if telemetry_on {
            regmon_telemetry::metrics::INTERVALS_PROCESSED.inc();
            regmon_telemetry::metrics::ATTRIB_INTERVAL_SAMPLES
                .record(interval.samples.len() as u64);
        }

        // The zero-allocation hot path: samples are attributed into the
        // monitor's reusable arena and every downstream consumer reads
        // the borrow-based arena report — no per-interval maps or
        // histogram copies.
        self.monitor.attribute(&interval.samples);
        let ucr_fraction = self.monitor.report().ucr_fraction();
        self.ucr.record(ucr_fraction);

        // Formation must see the *current* interval's unattributed
        // samples, then the detectors see the report of what was
        // monitored during the interval. The UCR buffer is taken out of
        // the arena (and restored afterwards) because formation mutates
        // the monitor while reading the samples.
        let new_regions = if self.formation.should_trigger(ucr_fraction) {
            if telemetry_on {
                regmon_telemetry::metrics::UCR_BREACHES.inc();
                regmon_telemetry::journal::record(
                    regmon_telemetry::journal::EventKind::UcrBreach {
                        ucr: ucr_fraction,
                        threshold: self.config.formation.ucr_trigger,
                    },
                );
            }
            let binary = self
                .binary
                .as_ref()
                .expect("attach_binary must be called before processing intervals");
            let unattributed = self.monitor.take_unattributed();
            let outcome =
                self.formation
                    .form(binary, &unattributed, &mut self.monitor, interval.index);
            self.monitor.restore_unattributed(unattributed);
            self.regions_formed += outcome.new_regions.len();
            if telemetry_on {
                regmon_telemetry::metrics::REGIONS_FORMED.add(outcome.new_regions.len() as u64);
                for &id in &outcome.new_regions {
                    regmon_telemetry::journal::record(
                        regmon_telemetry::journal::EventKind::RegionFormed { region: id.0 },
                    );
                }
            }
            outcome.new_regions
        } else {
            Vec::new()
        };

        let gpd_obs = self.gpd.observe(&interval.samples);
        let lpd_obs = {
            let report = self.monitor.report();
            self.lpd.observe_interval(&self.monitor, &report)
        };

        let pruned_regions = match &mut self.pruner {
            Some(p) => {
                let evicted = {
                    let report = self.monitor.report();
                    p.plan(&report, &self.monitor)
                };
                self.monitor.remove_regions(&evicted);
                self.regions_pruned += evicted.len();
                if telemetry_on {
                    regmon_telemetry::metrics::REGIONS_PRUNED.add(evicted.len() as u64);
                    for &id in &evicted {
                        regmon_telemetry::journal::record(
                            regmon_telemetry::journal::EventKind::RegionEvicted { region: id.0 },
                        );
                    }
                }
                evicted
            }
            None => Vec::new(),
        };
        if telemetry_on {
            regmon_telemetry::metrics::REGIONS_LIVE.set(self.monitor.len() as i64);
            // The interval index is the session's own deterministic
            // x-axis: journal ticks drift under fleet batching, so the
            // change-point hub keys per-tenant series on this marker.
            regmon_telemetry::journal::record(regmon_telemetry::journal::EventKind::IntervalEnd {
                interval: interval.index as u64,
                ucr: ucr_fraction,
            });
        }

        IntervalOutcome {
            index: interval.index,
            gpd: gpd_obs,
            lpd: lpd_obs,
            ucr_fraction,
            new_regions,
            pruned_regions,
        }
    }

    /// Processes a coalesced batch of intervals through the pipeline.
    ///
    /// Semantically identical to calling
    /// [`MonitoringSession::process_interval`] once per element, in
    /// order — detectors observe every interval individually, so phase
    /// change sequences, summaries and region tables are byte-identical
    /// to the per-interval path. What batching buys is everything
    /// *around* the pipeline: the fleet ships one queue message, takes
    /// one `catch_unwind` frame and performs one tenant-table lookup per
    /// batch instead of per interval. Returns the number of intervals
    /// processed.
    pub fn run_batch(&mut self, intervals: &[Interval]) -> usize {
        for interval in intervals {
            self.process_interval(interval);
        }
        intervals.len()
    }

    /// Intervals fed into the pipeline so far. The count is bumped at
    /// the *start* of each interval, so a caller that catches a panic
    /// out of [`MonitoringSession::run_batch`] can reconstruct exactly
    /// how many intervals completed (`after - before - 1`).
    #[must_use]
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// The monitored-region table.
    #[must_use]
    pub fn monitor(&self) -> &RegionMonitor {
        &self.monitor
    }

    /// The global detector.
    #[must_use]
    pub fn gpd(&self) -> &CentroidDetector {
        &self.gpd
    }

    /// The local-detector manager.
    #[must_use]
    pub fn lpd(&self) -> &LpdManager {
        &self.lpd
    }

    /// The UCR tracker.
    #[must_use]
    pub fn ucr(&self) -> &UcrTracker {
        &self.ucr
    }

    /// Summarizes the session so far.
    #[must_use]
    pub fn summary(&self, workload_name: &str) -> SessionSummary {
        SessionSummary {
            workload: workload_name.to_string(),
            period: self.config.sampling.period(),
            intervals: self.intervals,
            gpd: self.gpd.stats(),
            lpd: self.lpd.all_stats(),
            ucr_median: self.ucr.median().unwrap_or(0.0),
            regions_formed: self.regions_formed,
            regions_pruned: self.regions_pruned,
        }
    }

    /// Runs a whole workload through a fresh session.
    #[must_use]
    pub fn run(workload: &Workload, config: &SessionConfig) -> SessionSummary {
        Self::run_limited(workload, config, usize::MAX)
    }

    /// Runs at most `max_intervals` of a workload through a fresh session.
    #[must_use]
    pub fn run_limited(
        workload: &Workload,
        config: &SessionConfig,
        max_intervals: usize,
    ) -> SessionSummary {
        let mut session = Self::new(config.clone());
        session.attach_binary(workload);
        for interval in Sampler::new(workload, config.sampling).take(max_intervals) {
            session.process_interval(&interval);
        }
        session.summary(workload.name())
    }

    // --- checkpoint / restore --------------------------------------------

    /// Exports a full checkpoint of the session. Must be called at an
    /// interval boundary (i.e. between `process_interval` calls), which
    /// is the only time the pipeline has no in-flight arena state.
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            config: self.config.clone(),
            intervals: self.intervals,
            regions_formed: self.regions_formed,
            regions_pruned: self.regions_pruned,
            monitor: self.monitor.export(),
            gpd: self.gpd.export(),
            lpd: self.lpd.export(),
            ucr_timeline: self.ucr.timeline().to_vec(),
            pruner_streaks: self
                .pruner
                .as_ref()
                .map(Pruner::cold_streaks)
                .unwrap_or_default(),
        }
    }

    /// Reconstructs a session from a checkpoint. The restored session
    /// has no binary attached — call [`MonitoringSession::attach_binary`]
    /// (or [`MonitoringSession::attach_binary_image`]) before processing
    /// further intervals. Continuing the identical interval stream from
    /// the checkpoint position yields byte-identical results to the
    /// uninterrupted session.
    #[must_use]
    pub fn from_snapshot(snapshot: SessionSnapshot) -> Self {
        let config = snapshot.config;
        let pruner = config.pruning.map(|p| {
            let mut pruner = Pruner::new(p.cold_intervals, p.min_samples);
            pruner.restore_streaks(&snapshot.pruner_streaks);
            pruner
        });
        Self {
            monitor: RegionMonitor::restore(config.index, snapshot.monitor),
            formation: RegionFormation::new(config.formation),
            gpd: CentroidDetector::restore(config.gpd, snapshot.gpd),
            lpd: LpdManager::restore(config.lpd, snapshot.lpd),
            ucr: UcrTracker::from_timeline(snapshot.ucr_timeline),
            pruner,
            binary: None,
            config,
            intervals: snapshot.intervals,
            regions_formed: snapshot.regions_formed,
            regions_pruned: snapshot.regions_pruned,
        }
    }

    // --- binary plumbing -------------------------------------------------
    //
    // Formation needs the program image to find loops around hot samples.
    // Sessions share the workload's image rather than copying it;
    // sessions fed manually must call `attach_binary` first.

    /// Attaches the workload's binary so region formation can build loop
    /// regions. Must be called before [`MonitoringSession::process_interval`]
    /// on manually-driven sessions.
    pub fn attach_binary(&mut self, workload: &Workload) {
        self.binary = Some(workload.shared_binary());
    }

    /// Attaches a program image directly (without a [`Workload`] in
    /// hand). The fleet engine uses this: shard workers receive the
    /// binary over the admission message rather than borrowing the
    /// driver's workload. Passing an `Arc` shares the image without
    /// copying it.
    pub fn attach_binary_image(&mut self, binary: impl Into<Arc<Binary>>) {
        self.binary = Some(binary.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmon_workload::suite;

    #[test]
    fn session_forms_regions_and_detects() {
        let w = suite::by_name("172.mgrid").unwrap();
        let config = SessionConfig::new(45_000);
        let summary = MonitoringSession::run_limited(&w, &config, 30);
        assert_eq!(summary.intervals, 30);
        assert!(summary.regions_formed > 0, "no regions formed");
        // mgrid is steady: GPD stabilizes and stays.
        assert!(summary.gpd.stable_fraction() > 0.5);
        // The hot regions stabilize locally; cold ones may flap on
        // sampling noise (the paper's "some regions with few samples show
        // repeated phase changes"), which must not disturb the hot ones.
        let very_stable = summary
            .lpd
            .values()
            .filter(|s| s.stable_fraction() > 0.7)
            .count();
        assert!(very_stable >= 3, "only {very_stable} stable regions");
        // Formation covered the working set: UCR low after warmup.
        assert!(summary.ucr_median < 0.3, "ucr {}", summary.ucr_median);
    }

    #[test]
    fn new_config_uses_the_default_index() {
        assert_eq!(SessionConfig::new(45_000).index, IndexKind::default());
    }

    #[test]
    fn manual_session_without_binary_panics() {
        let w = suite::by_name("172.mgrid").unwrap();
        let config = SessionConfig::new(45_000);
        let mut session = MonitoringSession::new(config.clone());
        let interval = regmon_sampling::Sampler::new(&w, config.sampling)
            .next()
            .unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.process_interval(&interval)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        // Across index kinds and with pruning on, a session checkpointed
        // mid-stream and restored must finish byte-identical to the
        // uninterrupted run.
        let w = suite::by_name("172.mgrid").unwrap();
        for index in [
            IndexKind::Linear,
            IndexKind::IntervalTree,
            IndexKind::FlatSorted,
        ] {
            let mut config = SessionConfig::new(45_000);
            config.index = index;
            config.pruning = Some(PruningConfig {
                cold_intervals: 8,
                min_samples: 2,
            });

            let intervals: Vec<Interval> = Sampler::new(&w, config.sampling).take(40).collect();

            let mut baseline = MonitoringSession::new(config.clone());
            baseline.attach_binary(&w);
            for interval in &intervals {
                baseline.process_interval(interval);
            }

            let mut first = MonitoringSession::new(config.clone());
            first.attach_binary(&w);
            for interval in &intervals[..17] {
                first.process_interval(interval);
            }
            let snap = first.snapshot();
            assert_eq!(snap.intervals, 17);
            // Restored session re-exports the same snapshot.
            let mut resumed = MonitoringSession::from_snapshot(snap.clone());
            assert_eq!(resumed.snapshot(), snap);
            resumed.attach_binary(&w);
            for interval in &intervals[17..] {
                resumed.process_interval(interval);
            }

            let a = baseline.summary(w.name());
            let b = resumed.summary(w.name());
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "index {index:?}");
            assert_eq!(baseline.snapshot(), resumed.snapshot(), "index {index:?}");
        }
    }

    #[test]
    fn check_regions_accepts_formed_regions_and_rejects_wider_ones() {
        use regmon_regions::{RegionKind, RegionRecord};

        let w = suite::by_name("181.mcf").unwrap();
        let config = SessionConfig::new(45_000);
        let mut session = MonitoringSession::new(config.clone());
        session.attach_binary(&w);
        for interval in Sampler::new(&w, config.sampling).take(10) {
            session.process_interval(&interval);
        }
        let mut snap = session.snapshot();
        assert!(!snap.monitor.regions.is_empty());
        assert_eq!(snap.check_regions(w.binary()), Ok(()));

        let span = w.binary().code_span();
        let past_end = AddrRange::new(span.start(), span.end() + 4);
        snap.monitor.regions.push(RegionRecord {
            id: RegionId(snap.monitor.next_id),
            range: past_end,
            kind: RegionKind::Custom,
            created_interval: 10,
        });
        let err = snap.check_regions(w.binary()).unwrap_err();
        assert_eq!(err.region, RegionId(snap.monitor.next_id));
        assert_eq!(err.range, past_end);
        assert_eq!(err.code_span, span);
        assert!(err.to_string().contains("181.mcf"), "{err}");
    }

    #[test]
    fn pruning_config_evicts_dead_regions() {
        // gap's short-lived region should eventually be pruned.
        let w = suite::by_name("254.gap").unwrap();
        let mut config = SessionConfig::new(450_000);
        config.pruning = Some(PruningConfig {
            cold_intervals: 10,
            min_samples: 2,
        });
        let summary = MonitoringSession::run_limited(&w, &config, 100);
        // Regions form (gap has loop regions despite its high UCR).
        assert!(summary.regions_formed > 0);
    }
}
