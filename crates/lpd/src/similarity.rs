//! Similarity metrics between interval histograms.
//!
//! The paper uses Pearson's coefficient of correlation and notes (§5)
//! that it "involves time consuming calculations", asking for cheaper
//! metrics as future work. This module provides Pearson plus three
//! cheaper candidates, all normalized so that `1.0` means "same shape"
//! and values at or below `0.0` mean "unrelated/opposite"; the ablation
//! bench (`similarity.rs` in `regmon-bench`) compares their cost and
//! their agreement with Pearson.

use regmon_stats::pearson::{current_sums, shifted_deltas};
use regmon_stats::{CountHistogram, PearsonAccumulator, PearsonParts};

/// A similarity score between two same-region histograms.
///
/// Implementations must be symmetric and scale-invariant: multiplying
/// every count of one histogram by a positive constant must not change
/// the score (sampling-rate variations are not phase changes).
pub trait Similarity: core::fmt::Debug {
    /// Scores `current` against `stable`; higher is more similar, `1.0`
    /// is identical shape.
    ///
    /// # Panics
    ///
    /// Implementations may panic when the histograms have different slot
    /// counts — they must describe the same region.
    fn score(&self, stable: &CountHistogram, current: &CountHistogram) -> f64;
}

/// The available similarity metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimilarityKind {
    /// Pearson's coefficient of correlation (the paper's metric).
    #[default]
    Pearson,
    /// Cosine of the angle between the count vectors.
    Cosine,
    /// `1 − ½·L1(p, q)` over the normalized histograms (total-variation
    /// complement): cheap, no multiplications beyond the normalization.
    Manhattan,
    /// Pearson over the *ranks* of the slots (Spearman's rho): robust to
    /// monotone per-slot distortions.
    Rank,
}

impl Similarity for SimilarityKind {
    fn score(&self, stable: &CountHistogram, current: &CountHistogram) -> f64 {
        assert_eq!(
            stable.slots(),
            current.slots(),
            "histograms describe different regions"
        );
        match self {
            Self::Pearson => pearson(stable, current),
            Self::Cosine => cosine(stable, current),
            Self::Manhattan => manhattan(stable, current),
            Self::Rank => rank(stable, current),
        }
    }
}

fn pearson(a: &CountHistogram, b: &CountHistogram) -> f64 {
    a.pearson(b).unwrap_or(0.0)
}

/// Cached stable-side state for incremental Pearson scoring.
///
/// The paper notes (§5) that Pearson "involves time consuming
/// calculations"; the bulk of that work in the steady state is redundant,
/// because the *stable* histogram only changes while a region is
/// restabilizing. This cache keeps the stable side's shifted sums
/// (`x0`, `Σ(x−x0)`, `Σ(x−x0)²`) and per-slot deltas, so scoring an
/// interval costs one pass over the *current* histogram only — and when
/// the current histogram's first slot is empty (the common case for
/// peaked loop regions), slots with zero samples are skipped entirely,
/// which is exact: their contribution to every running sum is a signed
/// zero, and adding a signed zero to a running sum that starts at `+0.0`
/// never changes its bits.
///
/// [`PearsonCache::score`] is **bit-identical** to
/// `SimilarityKind::Pearson.score(stable, current)` — the final `r` is
/// produced by the same [`PearsonAccumulator::r`] code path, fed the
/// same sums accumulated in the same order.
#[derive(Debug, Clone, Default)]
pub struct PearsonCache {
    x0: f64,
    sx: f64,
    sxx: f64,
    /// Per-slot `x_i − x0` of the stable histogram.
    dx: Vec<f64>,
}

impl PearsonCache {
    /// An empty cache (matches a zero-slot stable histogram).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Recomputes the cached sums from `stable`. Call whenever the
    /// stable histogram changes (the Figure 12 `prev_hist ← curr_hist`
    /// tracking step); the per-slot buffer is reused.
    pub fn rebuild(&mut self, stable: &CountHistogram) {
        let counts = stable.counts();
        self.x0 = counts.first().map_or(0.0, |&c| c as f64);
        (self.sx, self.sxx) = shifted_deltas(counts, self.x0, &mut self.dx);
    }

    /// Scores `current` against the cached stable histogram. Bit-identical
    /// to `SimilarityKind::Pearson.score(stable, current)`.
    ///
    /// # Panics
    ///
    /// Panics when `current`'s slot count differs from the cached
    /// histogram's — they must describe the same region.
    #[must_use]
    pub fn score(&self, current: &CountHistogram) -> f64 {
        assert_eq!(
            self.dx.len(),
            current.slots(),
            "histograms describe different regions"
        );
        let counts = current.counts();
        if counts.len() < 2 {
            return 0.0; // Pearson undefined, same as the full path.
        }
        let y0 = counts[0] as f64;
        // Skips zero-count slots when y0 == 0, exactly (see type docs).
        let (sy, syy, sxy) = current_sums(counts, y0, &self.dx);
        PearsonAccumulator::from_parts(PearsonParts {
            n: counts.len() as u64,
            x0: self.x0,
            y0,
            sx: self.sx,
            sy,
            sxx: self.sxx,
            syy,
            sxy,
        })
        .r()
        .unwrap_or(0.0)
    }
}

fn cosine(a: &CountHistogram, b: &CountHistogram) -> f64 {
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.counts().iter().zip(b.counts()) {
        let (x, y) = (x as f64, y as f64);
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 && nb == 0.0 {
        return 1.0; // both empty: trivially the same shape
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

fn manhattan(a: &CountHistogram, b: &CountHistogram) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (ta, tb) = (a.total() as f64, b.total() as f64);
    let l1: f64 = a
        .counts()
        .iter()
        .zip(b.counts())
        .map(|(&x, &y)| (x as f64 / ta - y as f64 / tb).abs())
        .sum();
    1.0 - 0.5 * l1
}

fn rank(a: &CountHistogram, b: &CountHistogram) -> f64 {
    let ra = ranks(a.counts());
    let rb = ranks(b.counts());
    regmon_stats::pearson_r(&ra, &rb).unwrap_or(0.0)
}

/// Average ranks (ties share the mean rank), 1-based.
fn ranks(counts: &[u64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..counts.len()).collect();
    idx.sort_by_key(|&i| counts[i]);
    let mut out = vec![0.0; counts.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && counts[idx[j + 1]] == counts[idx[i]] {
            j += 1;
        }
        let mean_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = mean_rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [SimilarityKind; 4] = [
        SimilarityKind::Pearson,
        SimilarityKind::Cosine,
        SimilarityKind::Manhattan,
        SimilarityKind::Rank,
    ];

    fn h(counts: &[u64]) -> CountHistogram {
        CountHistogram::from_counts(counts.to_vec())
    }

    #[test]
    fn identical_histograms_score_one() {
        let a = h(&[1, 9, 40, 200, 30]);
        for kind in ALL {
            let s = kind.score(&a, &a);
            assert!((s - 1.0).abs() < 1e-9, "{kind:?} scored {s}");
        }
    }

    #[test]
    fn scaled_histograms_score_one() {
        let a = h(&[1, 9, 40, 200, 30]);
        let b = h(&[3, 27, 120, 600, 90]);
        for kind in ALL {
            let s = kind.score(&a, &b);
            assert!((s - 1.0).abs() < 1e-9, "{kind:?} scored {s}");
        }
    }

    #[test]
    fn shifted_bottleneck_scores_low() {
        let a = h(&[5, 10, 30, 350, 60, 20, 10, 5, 5, 5]);
        let b = h(&[5, 5, 10, 30, 350, 60, 20, 10, 5, 5]);
        for kind in ALL {
            let s = kind.score(&a, &b);
            assert!(s < 0.8, "{kind:?} scored {s}");
        }
    }

    #[test]
    fn empty_pair_is_similar_single_empty_is_not() {
        let empty = h(&[0, 0, 0]);
        let busy = h(&[1, 2, 3]);
        for kind in ALL {
            assert!(kind.score(&empty, &empty) >= 0.99, "{kind:?}");
        }
        for kind in [SimilarityKind::Cosine, SimilarityKind::Manhattan] {
            assert!(kind.score(&empty, &busy) <= 0.01, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "different regions")]
    fn mismatched_slots_panic() {
        let _ = SimilarityKind::Pearson.score(&h(&[1]), &h(&[1, 2]));
    }

    #[test]
    fn pearson_cache_matches_full_score_bitwise() {
        let stables = [
            vec![1u64, 9, 40, 200, 30, 8, 2, 1],
            vec![0, 0, 5, 100, 5, 0, 0, 0],
            vec![7, 7, 7, 7, 7, 7, 7, 7],
            vec![0, 0, 0, 0, 0, 0, 0, 0],
        ];
        let currents = [
            vec![2u64, 18, 80, 400, 60, 16, 4, 2],
            vec![0, 3, 0, 250, 0, 0, 1, 0], // sparse, first slot zero
            vec![5, 0, 0, 0, 0, 0, 0, 9],   // first slot nonzero
            vec![0, 0, 0, 0, 0, 0, 0, 0],
        ];
        for s in &stables {
            let hs = h(s);
            let mut cache = PearsonCache::new();
            cache.rebuild(&hs);
            for c in &currents {
                let hc = h(c);
                let full = SimilarityKind::Pearson.score(&hs, &hc);
                let fast = cache.score(&hc);
                assert_eq!(
                    fast.to_bits(),
                    full.to_bits(),
                    "stable={s:?} current={c:?}: {fast} vs {full}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "different regions")]
    fn pearson_cache_rejects_mismatched_slots() {
        let mut cache = PearsonCache::new();
        cache.rebuild(&h(&[1, 2, 3]));
        let _ = cache.score(&h(&[1, 2]));
    }

    #[test]
    fn rank_handles_ties() {
        assert_eq!(ranks(&[5, 5, 5]), vec![2.0, 2.0, 2.0]);
        assert_eq!(ranks(&[10, 20, 30]), vec![1.0, 2.0, 3.0]);
        assert_eq!(ranks(&[20, 10, 20]), vec![2.5, 1.0, 2.5]);
    }

    #[test]
    fn rank_is_robust_to_monotone_distortion() {
        let a = h(&[1, 4, 9, 100, 25]);
        let b = h(&[1, 2, 3, 10, 5]); // same ordering, squashed
        let s = SimilarityKind::Rank.score(&a, &b);
        assert!((s - 1.0).abs() < 1e-9, "s={s}");
    }

    proptest! {
        #[test]
        fn scores_are_symmetric(
            a in prop::collection::vec(0u64..500, 4..32),
            b in prop::collection::vec(0u64..500, 4..32),
        ) {
            let n = a.len().min(b.len());
            let (ha, hb) = (h(&a[..n]), h(&b[..n]));
            for kind in ALL {
                let xy = kind.score(&ha, &hb);
                let yx = kind.score(&hb, &ha);
                prop_assert!((xy - yx).abs() < 1e-9, "{:?}: {} vs {}", kind, xy, yx);
            }
        }

        #[test]
        fn scores_are_scale_invariant(
            a in prop::collection::vec(0u64..200, 4..24),
            b in prop::collection::vec(0u64..200, 4..24),
            scale in 2u64..9,
        ) {
            let n = a.len().min(b.len());
            let (ha, hb) = (h(&a[..n]), h(&b[..n]));
            let hb_scaled = h(&b[..n].iter().map(|v| v * scale).collect::<Vec<_>>());
            for kind in ALL {
                let s1 = kind.score(&ha, &hb);
                let s2 = kind.score(&ha, &hb_scaled);
                prop_assert!((s1 - s2).abs() < 1e-6, "{:?}: {} vs {}", kind, s1, s2);
            }
        }

        #[test]
        fn pearson_cache_always_bit_identical(
            stable in prop::collection::vec(0u64..500, 2..48),
            current in prop::collection::vec(0u64..500, 2..48),
        ) {
            let n = stable.len().min(current.len());
            let (hs, hc) = (h(&stable[..n]), h(&current[..n]));
            let mut cache = PearsonCache::new();
            cache.rebuild(&hs);
            let full = SimilarityKind::Pearson.score(&hs, &hc);
            let fast = cache.score(&hc);
            prop_assert_eq!(fast.to_bits(), full.to_bits(), "{} vs {}", fast, full);
        }

        #[test]
        fn scores_are_bounded(
            a in prop::collection::vec(0u64..500, 4..24),
            b in prop::collection::vec(0u64..500, 4..24),
        ) {
            let n = a.len().min(b.len());
            let (ha, hb) = (h(&a[..n]), h(&b[..n]));
            for kind in ALL {
                let s = kind.score(&ha, &hb);
                prop_assert!((-1.0..=1.0 + 1e-9).contains(&s), "{:?} scored {}", kind, s);
            }
        }
    }
}
