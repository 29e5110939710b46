//! Statistics substrate for the `regmon` phase-detection library.
//!
//! This crate collects the numerical machinery shared by the global
//! (centroid) and local (Pearson) phase detectors described in
//! *"Region Monitoring for Local Phase Detection in Dynamic Optimization
//! Systems"* (Das, Lu & Hsu, CGO 2006):
//!
//! * [`descriptive`] — two-pass mean / variance / median / percentiles over
//!   slices, used by the centroid detector's band-of-stability computation.
//! * [`online`] — Welford-style single-pass accumulators with exact merge,
//!   used where the detectors stream values instead of buffering them.
//! * [`pearson`] — Pearson's coefficient of correlation, the similarity
//!   metric at the heart of local phase detection (paper §3.2.1).
//! * [`histogram`] — fixed-width count histograms over instruction slots,
//!   the `prev_hist` / `curr_hist` state of the per-region detectors.
//! * [`series`] — small labelled time-series helpers used by the figure
//!   regeneration binaries.
//! * [`simd`] — the process-global dispatch level of the one vector
//!   kernel (flat-index attribution in `regmon-regions`).
//!
//! # Example
//!
//! ```
//! use regmon_stats::pearson::pearson_r;
//!
//! // The paper's Figure 8: scaling every count by a constant factor keeps
//! // the correlation at ~1, so sampling noise does not trigger a phase
//! // change...
//! let stable = [10.0, 80.0, 40.0, 20.0, 5.0];
//! let scaled: Vec<f64> = stable.iter().map(|c| c * 3.0).collect();
//! assert!(pearson_r(&stable, &scaled).unwrap() > 0.999);
//!
//! // ...while shifting the hot instruction by one slot destroys it.
//! let shifted = [5.0, 10.0, 80.0, 40.0, 20.0];
//! assert!(pearson_r(&stable, &shifted).unwrap() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod descriptive;
pub mod histogram;
pub mod online;
pub mod pearson;
pub mod series;
pub mod simd;

pub use descriptive::{mean, median, percentile, population_variance, sample_variance, Summary};
pub use histogram::{add_slots, CountHistogram};
pub use online::OnlineStats;
pub use pearson::{pearson_r, PearsonAccumulator, PearsonError, PearsonParts};
pub use series::Series;
pub use simd::SimdLevel;
