//! # regmon-telemetry — unified observability substrate
//!
//! The paper's always-on monitoring loop (sample → attribute → detect)
//! is exactly the kind of runtime machinery whose *own* overhead and
//! behavior must be observable to be trusted (ADORE budgets ~1–2% total
//! overhead). Before this crate, the LPD/GPD state machines, the fleet
//! shards, and the ring queues each kept private ad-hoc counters with
//! no common export and no event timeline. This crate gives them one:
//!
//! - [`registry`] — a sharded lock-free **metric registry**: striped
//!   relaxed-atomic counters, gauges, and log2-bucketed histograms
//!   whose snapshot merge reuses
//!   [`regmon_stats::histogram::add_slots`] from `regmon-stats`. Metric
//!   handles are `static`s (see [`metrics`]), so the disabled path is
//!   a single relaxed-atomic load and branch.
//! - [`journal`] — a per-thread fixed-capacity **event journal** (ring
//!   buffer, epoch-based drain) of typed events: LPD/GPD state
//!   transitions with Pearson *r* and thresholds, UCR breaches, region
//!   formation/eviction, queue backpressure and queue high-water.
//! - [`clock`] — the **virtual clock**: event timestamps are the
//!   interval/round index under lockstep pacing and wall-clock
//!   microseconds only in freerun, so enabling telemetry cannot perturb
//!   `fleet --json` determinism.
//! - [`expo`] — **exposition**: Prometheus text format, a JSON
//!   snapshot, and a chrome://tracing trace-event export for phase
//!   timelines.
//! - [`parse`] — a minimal JSON parser used by the schema round-trip
//!   tests and by `regmon metrics --check`.
//!
//! Everything is `std` + atomics only — no external crates, matching
//! the workspace's offline-build rule (DESIGN.md §8).
//!
//! # Enabling
//!
//! Telemetry is **globally disabled** by default. Instrumented sites
//! call [`enabled`] first (one relaxed atomic load); when it returns
//! `false` they do no other work. The CLI flips it on when any
//! telemetry output is requested (`regmon metrics`, `--trace-out`,
//! `--metrics-every`).
//!
//! ```
//! use regmon_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! telemetry::metrics::INTERVALS_PROCESSED.inc();
//! telemetry::journal::record(telemetry::journal::EventKind::RegionFormed { region: 7 });
//! let text = telemetry::expo::prometheus_text();
//! assert!(text.contains("regmon_intervals_processed_total"));
//! telemetry::set_enabled(false);
//! # telemetry::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod clock;
pub mod expo;
pub mod journal;
pub mod metrics;
pub mod parse;
pub mod registry;

use std::sync::atomic::{AtomicBool, Ordering};

/// Global telemetry switch. All instrumented fast paths check this
/// first; keeping it a single `static` means the disabled cost is one
/// relaxed load and a predictable branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry recording currently enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn telemetry recording on or off, process-wide.
///
/// Flipping this does not clear previously recorded data; use
/// [`reset`] for that.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clear all registered metrics and discard any undrained journal
/// events. Intended for tests and benchmark harnesses that measure
/// repeated configurations in one process.
pub fn reset() {
    for c in metrics::counters() {
        c.reset();
    }
    for g in metrics::gauges() {
        g.reset();
    }
    for h in metrics::histograms() {
        h.reset();
    }
    journal::discard();
}

/// Serializes unit tests that flip the process-global [`enabled`] flag
/// (the test harness runs `#[test]`s on concurrent threads).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
