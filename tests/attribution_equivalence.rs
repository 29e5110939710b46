//! End-to-end proof that the attribution engine's fast paths change
//! nothing observable: for real workloads, every index kind
//! (`linear` / `tree` / `flat`) produces *identical* interval outcomes — the same GPD observations,
//! the same per-region LPD verdicts and phase-change sequences, the
//! same UCR fractions, the same formation and pruning decisions.
//!
//! This is the ISSUE's "bit-identical" acceptance criterion at the
//! pipeline level; `crates/regions/tests/equivalence.rs` proves the
//! same property at the index/arena level with adversarial inputs.

use regmon::regions::IndexKind;
use regmon::sampling::Sampler;
use regmon::workload::suite;
use regmon::{IntervalOutcome, MonitoringSession, PruningConfig, SessionConfig};

const KINDS: [IndexKind; 3] = [
    IndexKind::Linear,
    IndexKind::IntervalTree,
    IndexKind::FlatSorted,
];

/// Drives `intervals` of `bench` through a session with the given knobs
/// and returns every interval's full outcome.
fn outcomes(
    bench: &str,
    period: u64,
    intervals: usize,
    kind: IndexKind,
    pruning: Option<PruningConfig>,
) -> Vec<IntervalOutcome> {
    let w = suite::by_name(bench).expect("known benchmark");
    let mut config = SessionConfig::new(period);
    config.index = kind;
    config.pruning = pruning;
    let mut session = MonitoringSession::new(config.clone());
    session.attach_binary(&w);
    Sampler::new(&w, config.sampling)
        .take(intervals)
        .map(|interval| session.process_interval(&interval))
        .collect()
}

fn assert_identical(bench: &str, period: u64, intervals: usize, pruning: Option<PruningConfig>) {
    let baseline = outcomes(bench, period, intervals, IndexKind::IntervalTree, pruning);
    assert_eq!(baseline.len(), intervals);
    for kind in [IndexKind::Linear, IndexKind::FlatSorted] {
        let got = outcomes(bench, period, intervals, kind, pruning);
        for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
            assert_eq!(a, b, "{bench}: {kind:?} diverged at interval {i}");
        }
    }
}

#[test]
fn steady_workload_outcomes_are_path_invariant() {
    // mgrid: many regions form, hot ones stabilize — the densest LPD
    // traffic in the suite.
    assert_identical("172.mgrid", 45_000, 60, None);
}

#[test]
fn phased_workload_outcomes_are_path_invariant() {
    // gzip alternates phases, exercising phase-change sequences.
    assert_identical("164.gzip", 45_000, 60, None);
}

#[test]
fn pruning_decisions_are_path_invariant() {
    // gap at a coarse period with pruning on: eviction planning reads
    // the arena report, so pruned-region sequences must match too.
    assert_identical(
        "254.gap",
        450_000,
        80,
        Some(PruningConfig {
            cold_intervals: 10,
            min_samples: 2,
        }),
    );
}

#[test]
fn outcomes_are_simd_level_invariant() {
    // The fused AVX2 attribution kernel promises bitwise-identical
    // results to the scalar path; here that contract is proven
    // end-to-end: full interval outcomes under forced scalar and avx2
    // dispatch are equal, for the flat index (the one with the vector
    // kernel) and the tree.
    use regmon_stats::{simd, SimdLevel};
    let before = simd::active();
    for kind in [IndexKind::FlatSorted, IndexKind::IntervalTree] {
        let mut reference: Option<Vec<IntervalOutcome>> = None;
        for level in SimdLevel::ALL {
            if simd::force(level) != level {
                continue; // not supported on this host
            }
            let got = outcomes("172.mgrid", 45_000, 50, kind, None);
            match &reference {
                None => reference = Some(got),
                Some(expect) => {
                    for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
                        assert_eq!(
                            a,
                            b,
                            "{kind:?} diverged at interval {i} under {}",
                            level.label()
                        );
                    }
                }
            }
        }
    }
    simd::force(before);
}

#[test]
fn summaries_match_across_all_paths() {
    // Coarser check over a longer run: full SessionSummary equality of
    // lifetime stats (phase changes, stable fractions, UCR median).
    let w = suite::by_name("181.mcf").unwrap();
    let mut reference = None;
    for kind in KINDS {
        let mut config = SessionConfig::new(45_000);
        config.index = kind;
        let summary = MonitoringSession::run_limited(&w, &config, 120);
        let digest = (
            summary.intervals,
            summary.gpd.phase_changes,
            summary.gpd.stable_intervals,
            summary.lpd_total_phase_changes(),
            summary.ucr_median.to_bits(),
            summary.regions_formed,
            summary.regions_pruned,
        );
        match &reference {
            None => reference = Some(digest),
            Some(expect) => assert_eq!(expect, &digest, "{kind:?}"),
        }
    }
}
