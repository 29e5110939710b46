//! The workload engine: binds a phase script to a binary and answers the
//! questions the rest of the system asks:
//!
//! 1. *"What PC would a sample taken at cycle `c` observe?"* —
//!    [`Workload::sample_pc`], consumed by the simulated PMU sampler.
//! 2. *"How were cycles and miss stalls distributed over code ranges in
//!    the window `[a, b)`?"* — [`Workload::window_usage`], consumed by the
//!    runtime-optimizer simulator's execution-time accounting.
//! 3. *"What would the performance counters read over `[a, b)`?"* —
//!    [`Workload::window_perf`], consumed by the CPI/DPI phase signals.

use std::sync::Arc;

use regmon_binary::{Addr, AddrRange, Binary};

use crate::activity::Activity;
use crate::rng::KeyedRng;
use crate::script::PhaseScript;

/// Cycle/miss accounting for one code range within a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeUsage {
    /// The code range.
    pub range: AddrRange,
    /// Cycles spent executing this range in the window.
    pub cycles: f64,
    /// Of those, cycles stalled on data-cache misses (the part a prefetch
    /// optimization can recover).
    pub miss_cycles: f64,
}

/// Whole-program performance counters for one window, as a real PMU would
/// report them: the inputs to the paper's CPI/DPI phase signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSample {
    /// Cycles in the window.
    pub cycles: f64,
    /// Instructions retired (cycles not stalled, at 1 IPC when unstalled).
    pub instructions: f64,
    /// Data-cache misses (miss-stall cycles / per-miss penalty).
    pub dcache_misses: f64,
}

impl PerfSample {
    /// Cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.instructions <= 0.0 {
            return 0.0;
        }
        self.cycles / self.instructions
    }

    /// Data-cache misses per instruction (the paper's DPI).
    #[must_use]
    pub fn dpi(&self) -> f64 {
        if self.instructions <= 0.0 {
            return 0.0;
        }
        self.dcache_misses / self.instructions
    }
}

/// A complete runnable workload: name, code image, timeline, seed.
#[derive(Debug, Clone)]
pub struct Workload {
    name: String,
    binary: Arc<Binary>,
    script: PhaseScript,
    seed: u64,
}

impl Workload {
    /// Creates a workload.
    #[must_use]
    pub fn new(name: impl Into<String>, binary: Binary, script: PhaseScript, seed: u64) -> Self {
        Self {
            name: name.into(),
            binary: Arc::new(binary),
            script,
            seed,
        }
    }

    /// The workload's name (e.g. `"181.mcf"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sampling seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns a copy whose sampling randomness uses `seed` — for
    /// robustness studies that re-run a model under different draws of
    /// the same behaviour.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The synthetic binary being "executed".
    #[must_use]
    pub fn binary(&self) -> &Binary {
        &self.binary
    }

    /// A shared handle to the binary, so a session can hold the image
    /// without copying it.
    #[must_use]
    pub fn shared_binary(&self) -> Arc<Binary> {
        Arc::clone(&self.binary)
    }

    /// The phase script.
    #[must_use]
    pub fn script(&self) -> &PhaseScript {
        &self.script
    }

    /// Total virtual execution length in cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.script.total_cycles()
    }

    /// The PC a performance-counter sample taken at `cycle` observes.
    ///
    /// Pure in `(seed, cycle)`: callers at different sampling periods see
    /// consistent slices of the same execution.
    #[must_use]
    pub fn sample_pc(&self, cycle: u64) -> Addr {
        let (segment, seg_start) = self.script.segment_at(cycle);
        let offset = cycle - seg_start;
        let activities = segment.behavior().activities_at(offset, segment.cycles());
        let mut rng = KeyedRng::new(self.seed, cycle);
        let act = pick_activity(&activities, &mut rng);
        act.sample_addr(cycle, &mut rng)
    }

    /// Analytic distribution of cycles and miss stalls over code ranges in
    /// `[start, end)`, aggregated per range.
    ///
    /// Time-varying behaviors are integrated numerically with enough steps
    /// to resolve periodic switching; the result is deterministic. Entries
    /// are sorted by range start. Returns an empty vector for an empty
    /// window.
    #[must_use]
    pub fn window_usage(&self, start: u64, end: u64) -> Vec<RangeUsage> {
        if end <= start {
            return Vec::new();
        }
        let mut acc: std::collections::BTreeMap<AddrRange, (f64, f64)> =
            std::collections::BTreeMap::new();
        let mut t = start;
        while t < end {
            let (segment, seg_start) = self.script.segment_at(t);
            let seg_end = (seg_start + segment.cycles()).min(end).max(t + 1);
            let span = seg_end - t;
            // Chunk finely enough to resolve periodic switching and
            // blending inside the overlap.
            let chunks = integration_chunks(segment.behavior(), span);
            let chunk_len = span as f64 / chunks as f64;
            for k in 0..chunks {
                let mid = t + ((k as f64 + 0.5) * chunk_len) as u64;
                let offset = mid - seg_start;
                let activities = segment.behavior().activities_at(offset, segment.cycles());
                for a in activities.iter() {
                    let cycles = a.weight() * chunk_len;
                    let entry = acc.entry(a.range()).or_insert((0.0, 0.0));
                    entry.0 += cycles;
                    entry.1 += cycles * a.miss_fraction();
                }
            }
            t = seg_end;
        }
        acc.into_iter()
            .map(|(range, (cycles, miss_cycles))| RangeUsage {
                range,
                cycles,
                miss_cycles,
            })
            .collect()
    }

    /// Performance counters over `[start, end)`, with miss stalls costing
    /// `miss_penalty` cycles each.
    ///
    /// The machine model is the simple one the miss fractions are written
    /// against: unstalled cycles retire one instruction each, and every
    /// data-cache miss stalls for `miss_penalty` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `miss_penalty <= 0`.
    #[must_use]
    pub fn window_perf(&self, start: u64, end: u64, miss_penalty: f64) -> PerfSample {
        assert!(miss_penalty > 0.0, "miss penalty must be positive");
        let usage = self.window_usage(start, end);
        let cycles: f64 = usage.iter().map(|u| u.cycles).sum();
        let miss_cycles: f64 = usage.iter().map(|u| u.miss_cycles).sum();
        PerfSample {
            cycles,
            instructions: (cycles - miss_cycles).max(0.0),
            dcache_misses: miss_cycles / miss_penalty,
        }
    }
}

/// Picks the number of integration chunks needed to resolve `behavior`
/// over a `span`-cycle window.
fn integration_chunks(behavior: &crate::behavior::Behavior, span: u64) -> u64 {
    use crate::behavior::Behavior;
    match behavior {
        Behavior::Steady(_) => 1,
        Behavior::PeriodicSwitch { period, .. } => {
            // ≥ 8 chunks per switch period, capped for cost.
            let per = (*period).max(1);
            (span * 8 / per).clamp(8, 512)
        }
        Behavior::Blend { .. } | Behavior::BottleneckShift { .. } => 64,
    }
}

/// Weighted choice over activities (weights sum to ~1).
fn pick_activity<'a>(activities: &'a [Activity], rng: &mut KeyedRng) -> &'a Activity {
    debug_assert!(!activities.is_empty());
    let total: f64 = activities.iter().map(Activity::weight).sum();
    let mut u = rng.next_f64() * total;
    for a in activities {
        u -= a.weight();
        if u <= 0.0 {
            return a;
        }
    }
    activities.last().expect("activities is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{loop_range, Activity};
    use crate::behavior::{Behavior, Mix};
    use crate::profile::InstProfile;
    use crate::script::{PhaseScript, Segment};
    use regmon_binary::BinaryBuilder;

    fn workload() -> Workload {
        let mut b = BinaryBuilder::new("t");
        b.procedure("f", |p| {
            p.loop_(|l| {
                l.straight(15);
            });
        });
        b.procedure("g", |p| {
            p.loop_(|l| {
                l.straight(7);
            });
        });
        let bin = b.build(Addr::new(0x10000));
        let rf = loop_range(&bin, "f", 0);
        let rg = loop_range(&bin, "g", 0);
        let mix_f = Mix::new(vec![Activity::new(rf, 1.0, InstProfile::Uniform, 0.5)]);
        let mix_g = Mix::new(vec![Activity::new(rg, 1.0, InstProfile::Uniform, 0.1)]);
        let script = PhaseScript::new(vec![
            Segment::new(1_000_000, Behavior::Steady(mix_f.clone())),
            Segment::new(
                1_000_000,
                Behavior::PeriodicSwitch {
                    period: 100_000,
                    mixes: vec![mix_f, mix_g],
                },
            ),
        ]);
        Workload::new("t", bin, script, 42)
    }

    use regmon_binary::Addr;

    #[test]
    fn sample_pc_is_deterministic() {
        let w = workload();
        for c in [0u64, 999, 123_456, 1_500_000] {
            assert_eq!(w.sample_pc(c), w.sample_pc(c));
        }
    }

    #[test]
    fn samples_fall_in_active_ranges() {
        let w = workload();
        let rf = loop_range(w.binary(), "f", 0);
        // First segment is 100% in f's loop.
        for c in (0..1_000_000).step_by(50_021) {
            assert!(rf.contains(w.sample_pc(c)));
        }
    }

    #[test]
    fn periodic_segment_alternates_ranges() {
        let w = workload();
        let rf = loop_range(w.binary(), "f", 0);
        let rg = loop_range(w.binary(), "g", 0);
        // 1_000_000 + 50_000 is in the first (f) sub-period;
        // 1_000_000 + 150_000 is in the second (g) sub-period.
        assert!(rf.contains(w.sample_pc(1_050_000)));
        assert!(rg.contains(w.sample_pc(1_150_000)));
    }

    #[test]
    fn window_usage_steady_accounts_all_cycles() {
        let w = workload();
        let usage = w.window_usage(0, 500_000);
        assert_eq!(usage.len(), 1);
        assert!((usage[0].cycles - 500_000.0).abs() < 1.0);
        assert!((usage[0].miss_cycles - 250_000.0).abs() < 1.0);
    }

    #[test]
    fn window_usage_periodic_splits_evenly() {
        let w = workload();
        // One full switch period pair inside the periodic segment.
        let usage = w.window_usage(1_000_000, 1_200_000);
        assert_eq!(usage.len(), 2);
        let total: f64 = usage.iter().map(|u| u.cycles).sum();
        assert!((total - 200_000.0).abs() < 1.0);
        for u in &usage {
            assert!(
                (u.cycles - 100_000.0).abs() < 5_000.0,
                "cycles={}",
                u.cycles
            );
        }
    }

    #[test]
    fn window_usage_spanning_segments() {
        let w = workload();
        let usage = w.window_usage(900_000, 1_100_000);
        let total: f64 = usage.iter().map(|u| u.cycles).sum();
        assert!((total - 200_000.0).abs() < 1.0);
    }

    #[test]
    fn window_usage_empty_window() {
        let w = workload();
        assert!(w.window_usage(100, 100).is_empty());
        assert!(w.window_usage(200, 100).is_empty());
    }

    #[test]
    fn window_perf_reflects_miss_fractions() {
        let w = workload();
        // First segment: 100% in f's loop at miss fraction 0.5.
        let perf = w.window_perf(0, 1_000_000, 100.0);
        assert!((perf.cycles - 1_000_000.0).abs() < 1.0);
        assert!((perf.instructions - 500_000.0).abs() < 1.0);
        assert!((perf.cpi() - 2.0).abs() < 1e-6, "cpi {}", perf.cpi());
        assert!((perf.dpi() - 0.01).abs() < 1e-6, "dpi {}", perf.dpi());
    }

    #[test]
    fn window_perf_changes_with_the_mix() {
        let w = workload();
        // Periodic segment averages f (miss 0.5) and g (miss 0.1).
        let head = w.window_perf(0, 1_000_000, 100.0);
        let tail = w.window_perf(1_000_000, 1_200_000, 100.0);
        assert!(tail.cpi() < head.cpi(), "{} vs {}", tail.cpi(), head.cpi());
    }

    #[test]
    fn empirical_samples_match_analytic_usage() {
        let w = workload();
        // Sample the periodic segment densely; fraction in f's range must
        // approach the analytic 50%.
        let rf = loop_range(w.binary(), "f", 0);
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|i| rf.contains(w.sample_pc(1_000_000 + i * 97)))
            .count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac={frac}");
    }
}
