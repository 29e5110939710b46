//! # regmon — Region Monitoring for Local Phase Detection
//!
//! A faithful, fully-synthetic reproduction of *"Region Monitoring for
//! Local Phase Detection in Dynamic Optimization Systems"* (Das, Lu &
//! Hsu, CGO 2006): global (centroid) and local (per-region Pearson) phase
//! detection, region formation with UCR accounting, list- and
//! interval-tree-based sample attribution, and a runtime-optimizer
//! simulator comparing the two detection schemes — all driven by seeded,
//! deterministic SPEC CPU2000-like workload models.
//!
//! This crate is the facade: it re-exports every subsystem and adds the
//! end-to-end [`MonitoringSession`] pipeline (workload → sampler → region
//! monitor → detectors) used by the examples, the integration tests and
//! the figure-regeneration binaries.
//!
//! ## Quickstart
//!
//! ```
//! use regmon::{MonitoringSession, SessionConfig};
//! use regmon::workload::suite;
//!
//! let workload = suite::by_name("181.mcf").unwrap();
//! let config = SessionConfig::new(45_000);
//! // Process the first 40 sampling intervals.
//! let summary = MonitoringSession::run_limited(&workload, &config, 40);
//! println!(
//!     "GPD: {} phase changes, {:.0}% stable; {} regions monitored",
//!     summary.gpd.phase_changes,
//!     summary.gpd.stable_fraction() * 100.0,
//!     summary.regions_formed,
//! );
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`stats`] | `regmon-stats` | Pearson, histograms, online stats |
//! | [`binary`] | `regmon-binary` | synthetic binaries, CFGs, loops |
//! | [`workload`] | `regmon-workload` | phase scripts + SPEC-like suite |
//! | [`sampling`] | `regmon-sampling` | simulated PMU sampling |
//! | [`regions`] | `regmon-regions` | formation, monitor, interval tree |
//! | [`gpd`] | `regmon-gpd` | centroid global phase detection |
//! | [`lpd`] | `regmon-lpd` | per-region local phase detection |
//! | [`rto`] | `regmon-rto` | optimizer simulator (Figure 17) |

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub use regmon_binary as binary;
pub use regmon_gpd as gpd_crate;
pub use regmon_lpd as lpd_crate;
pub use regmon_regions as regions;
pub use regmon_rto as rto;
pub use regmon_sampling as sampling;
pub use regmon_stats as stats;
pub use regmon_workload as workload;

/// Alias kept for discoverability: the global-phase-detection crate.
pub mod gpd {
    pub use regmon_gpd::*;
}

/// Alias kept for discoverability: the local-phase-detection crate.
pub mod lpd {
    pub use regmon_lpd::*;
}

mod session;

pub use session::{
    IntervalOutcome, MonitoringSession, PruningConfig, RegionOutsideImage, SessionConfig,
    SessionSnapshot, SessionSummary,
};
