//! Pearson's coefficient of correlation — the paper's similarity metric.
//!
//! Local phase detection (paper §3.2.1) compares the *stable* set of
//! samples for a region against the *current* set by computing Pearson's
//! `r` over the per-instruction sample counts:
//!
//! ```text
//!           Σxy − (Σx Σy)/n
//! r = ─────────────────────────────
//!     √(Σx² − (Σx)²/n) √(Σy² − (Σy)²/n)
//! ```
//!
//! `r` near 1 means the same instructions are hot in the same proportions
//! (no phase change, even if the absolute number of samples changed — the
//! paper's Figure 8 "more samples but similar frequencies" case, r = 0.998);
//! `r` near 0 or negative means the distribution of hot instructions moved
//! (a phase change — Figure 8's "shift bottleneck by 1 instruction" case,
//! r = −0.056).

use core::fmt;

/// Error returned when Pearson's `r` is undefined for the given inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PearsonError {
    /// The two slices have different lengths (`x_len`, `y_len`).
    LengthMismatch {
        /// Length of the first input.
        x_len: usize,
        /// Length of the second input.
        y_len: usize,
    },
    /// Fewer than two paired observations were supplied.
    TooFewObservations,
}

impl fmt::Display for PearsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { x_len, y_len } => {
                write!(f, "input lengths differ: {x_len} vs {y_len}")
            }
            Self::TooFewObservations => {
                write!(f, "pearson correlation requires at least two observations")
            }
        }
    }
}

impl std::error::Error for PearsonError {}

/// Computes Pearson's coefficient of correlation between `xs` and `ys`.
///
/// Degenerate (zero-variance) inputs are given a *defined* value because
/// the per-region detectors must always produce an `r` to feed their state
/// machine:
///
/// * both sets constant (e.g. a one-instruction region that is hot in both
///   intervals, or two all-zero histograms): the distributions are
///   trivially "the same shape", so `r = 1.0`;
/// * exactly one set constant: one interval concentrated everything while
///   the other spread out — no linear association, `r = 0.0`.
///
/// This matches the detector semantics in the paper: a region whose sample
/// *shape* is unchanged must not trigger a phase change.
///
/// # Errors
///
/// Returns [`PearsonError::LengthMismatch`] when the slices differ in
/// length and [`PearsonError::TooFewObservations`] when fewer than two
/// pairs are supplied.
///
/// # Example
///
/// ```
/// use regmon_stats::pearson::pearson_r;
///
/// let r = pearson_r(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0])?;
/// assert!((r - 1.0).abs() < 1e-12);
///
/// let anti = pearson_r(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0])?;
/// assert!((anti + 1.0).abs() < 1e-12);
/// # Ok::<(), regmon_stats::PearsonError>(())
/// ```
pub fn pearson_r(xs: &[f64], ys: &[f64]) -> Result<f64, PearsonError> {
    if xs.len() != ys.len() {
        return Err(PearsonError::LengthMismatch {
            x_len: xs.len(),
            y_len: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(PearsonError::TooFewObservations);
    }
    let mut acc = PearsonAccumulator::new();
    for (&x, &y) in xs.iter().zip(ys) {
        acc.push(x, y);
    }
    acc.r().ok_or(PearsonError::TooFewObservations)
}

/// Incremental accumulator for Pearson's `r` over paired observations.
///
/// Uses shifted (first-observation-centred) sums so that large instruction
/// counts do not lose precision in `Σx²`-style terms.
///
/// # Example
///
/// ```
/// use regmon_stats::PearsonAccumulator;
///
/// let mut acc = PearsonAccumulator::new();
/// for (x, y) in [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)] {
///     acc.push(x, y);
/// }
/// assert!((acc.r().unwrap() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PearsonAccumulator {
    n: u64,
    // Shift values: the first observation, used to centre all later sums.
    x0: f64,
    y0: f64,
    sx: f64,
    sy: f64,
    sxx: f64,
    syy: f64,
    sxy: f64,
}

/// Precomputed shifted sums for [`PearsonAccumulator::from_parts`].
///
/// Callers that maintain the sums incrementally (e.g. the LPD's cached
/// stable-side Pearson state) assemble one of these and hand it to the
/// accumulator so the degenerate-input handling of
/// [`PearsonAccumulator::r`] stays in exactly one place. The sums must
/// be *shifted*: every `x` term centred on `x0` (the first observation)
/// and every `y` term on `y0`, accumulated in observation order — the
/// same convention [`PearsonAccumulator::push`] uses internally.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PearsonParts {
    /// Number of paired observations.
    pub n: u64,
    /// The first `x` observation (the shift for all `x` terms).
    pub x0: f64,
    /// The first `y` observation (the shift for all `y` terms).
    pub y0: f64,
    /// `Σ(x − x0)`.
    pub sx: f64,
    /// `Σ(y − y0)`.
    pub sy: f64,
    /// `Σ(x − x0)²`.
    pub sxx: f64,
    /// `Σ(y − y0)²`.
    pub syy: f64,
    /// `Σ(x − x0)(y − y0)`.
    pub sxy: f64,
}

impl PearsonAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs an accumulator from externally maintained shifted
    /// sums. `PearsonAccumulator::from_parts(acc.parts())` is an exact
    /// round trip.
    #[must_use]
    pub fn from_parts(p: PearsonParts) -> Self {
        Self {
            n: p.n,
            x0: p.x0,
            y0: p.y0,
            sx: p.sx,
            sy: p.sy,
            sxx: p.sxx,
            syy: p.syy,
            sxy: p.sxy,
        }
    }

    /// The accumulator's internal shifted sums.
    #[must_use]
    pub fn parts(&self) -> PearsonParts {
        PearsonParts {
            n: self.n,
            x0: self.x0,
            y0: self.y0,
            sx: self.sx,
            sy: self.sy,
            sxx: self.sxx,
            syy: self.syy,
            sxy: self.sxy,
        }
    }

    /// Adds one paired observation.
    pub fn push(&mut self, x: f64, y: f64) {
        if self.n == 0 {
            self.x0 = x;
            self.y0 = y;
        }
        let dx = x - self.x0;
        let dy = y - self.y0;
        self.n += 1;
        self.sx += dx;
        self.sy += dy;
        self.sxx += dx * dx;
        self.syy += dy * dy;
        self.sxy += dx * dy;
    }

    /// Number of pairs pushed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Pearson's `r`, or `None` below two observations.
    ///
    /// Degenerate inputs follow the same convention as [`pearson_r`]: both
    /// sides constant gives `1.0`, one side constant gives `0.0`.
    #[must_use]
    pub fn r(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let cov = self.sxy - self.sx * self.sy / n;
        let vx = self.sxx - self.sx * self.sx / n;
        let vy = self.syy - self.sy * self.sy / n;
        // Clamp tiny negative values caused by floating-point cancellation.
        let vx = vx.max(0.0);
        let vy = vy.max(0.0);
        const EPS: f64 = 1e-12;
        let x_degenerate = vx <= EPS * (1.0 + self.sxx.abs());
        let y_degenerate = vy <= EPS * (1.0 + self.syy.abs());
        match (x_degenerate, y_degenerate) {
            (true, true) => Some(1.0),
            (true, false) | (false, true) => Some(0.0),
            (false, false) => Some((cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)),
        }
    }
}

impl FromIterator<(f64, f64)> for PearsonAccumulator {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut acc = Self::new();
        for (x, y) in iter {
            acc.push(x, y);
        }
        acc
    }
}

/// Pearson's `r` over two `u64` count histograms of equal length.
///
/// Convenience wrapper used by the per-region detectors, which store
/// integer sample counts.
///
/// # Errors
///
/// Same as [`pearson_r`].
///
/// # Example
///
/// ```
/// use regmon_stats::pearson::pearson_counts;
///
/// let r = pearson_counts(&[10, 80, 40], &[20, 160, 80])?;
/// assert!((r - 1.0).abs() < 1e-12);
/// # Ok::<(), regmon_stats::PearsonError>(())
/// ```
pub fn pearson_counts(xs: &[u64], ys: &[u64]) -> Result<f64, PearsonError> {
    if xs.len() != ys.len() {
        return Err(PearsonError::LengthMismatch {
            x_len: xs.len(),
            y_len: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(PearsonError::TooFewObservations);
    }
    let acc: PearsonAccumulator = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| (x as f64, y as f64))
        .collect();
    acc.r().ok_or(PearsonError::TooFewObservations)
}

/// Rebuilds the stable-side shifted deltas of an incremental Pearson
/// cache: fills `dx[i] = counts[i] as f64 − x0` and returns
/// `(Σ dx, Σ dx²)`, summed in index order exactly as
/// [`PearsonAccumulator::push`] sums them.
pub fn shifted_deltas(counts: &[u64], x0: f64, dx: &mut Vec<f64>) -> (f64, f64) {
    dx.clear();
    dx.reserve(counts.len());
    let (mut sx, mut sxx) = (0.0f64, 0.0f64);
    for &c in counts {
        let d = c as f64 - x0;
        dx.push(d);
        sx += d;
        sxx += d * d;
    }
    (sx, sxx)
}

/// Current-side shifted sums against cached stable deltas: returns
/// `(Σ dy, Σ dy², Σ dx·dy)` with `dy = counts[i] as f64 − y0`, summed in
/// index order exactly as [`PearsonAccumulator::push`] sums them.
///
/// When `y0 == 0` (the common case for peaked loop regions) slots with
/// zero samples are skipped. That is exact: each contributes `+0.0` to
/// `Σ dy` and `Σ dy²` and a signed zero to `Σ dx·dy`, and adding a
/// signed zero to a running sum that started at `+0.0` never changes
/// its bits.
///
/// # Panics
///
/// Panics if `counts` and `dx` have different lengths.
pub fn current_sums(counts: &[u64], y0: f64, dx: &[f64]) -> (f64, f64, f64) {
    assert_eq!(counts.len(), dx.len(), "slot-count mismatch");
    let (mut sy, mut syy, mut sxy) = (0.0f64, 0.0f64, 0.0f64);
    if y0 == 0.0 {
        for (i, &c) in counts.iter().enumerate() {
            if c != 0 {
                let dy = c as f64;
                sy += dy;
                syy += dy * dy;
                sxy += dx[i] * dy;
            }
        }
    } else {
        for (&c, &d) in counts.iter().zip(dx) {
            let dy = c as f64 - y0;
            sy += dy;
            syy += dy * dy;
            sxy += d * dy;
        }
    }
    (sy, syy, sxy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_mismatched_lengths() {
        assert_eq!(
            pearson_r(&[1.0], &[1.0, 2.0]),
            Err(PearsonError::LengthMismatch { x_len: 1, y_len: 2 })
        );
    }

    #[test]
    fn rejects_too_few_observations() {
        assert_eq!(pearson_r(&[], &[]), Err(PearsonError::TooFewObservations));
        assert_eq!(
            pearson_r(&[1.0], &[2.0]),
            Err(PearsonError::TooFewObservations)
        );
    }

    #[test]
    fn perfect_positive_correlation() {
        let r = pearson_r(&[1.0, 2.0, 3.0, 4.0], &[2.0, 4.0, 6.0, 8.0]).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative_correlation() {
        let r = pearson_r(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]).unwrap();
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn both_constant_defined_as_one() {
        assert_eq!(pearson_r(&[5.0, 5.0, 5.0], &[2.0, 2.0, 2.0]), Ok(1.0));
        assert_eq!(pearson_r(&[0.0, 0.0], &[0.0, 0.0]), Ok(1.0));
    }

    #[test]
    fn one_constant_defined_as_zero() {
        assert_eq!(pearson_r(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]), Ok(0.0));
        assert_eq!(pearson_r(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]), Ok(0.0));
    }

    #[test]
    fn figure8_bottleneck_shift_kills_correlation() {
        // Paper Figure 8: a peaked distribution compared against itself
        // shifted by one instruction yields r ≈ -0.056 (near zero).
        let original = [5.0, 10.0, 30.0, 350.0, 60.0, 20.0, 10.0, 5.0, 5.0, 5.0];
        let shifted = [5.0, 5.0, 10.0, 30.0, 350.0, 60.0, 20.0, 10.0, 5.0, 5.0];
        let r = pearson_r(&original, &shifted).unwrap();
        assert!(
            r.abs() < 0.3,
            "shifted bottleneck should decorrelate, r={r}"
        );
    }

    #[test]
    fn figure8_uniform_scaling_keeps_correlation() {
        let original = [5.0, 10.0, 30.0, 350.0, 60.0, 20.0, 10.0, 5.0, 5.0, 5.0];
        let scaled: Vec<f64> = original.iter().map(|v| v * 1.4 + 0.0).collect();
        let r = pearson_r(&original, &scaled).unwrap();
        assert!(
            r > 0.99,
            "uniform scaling must not look like a phase change, r={r}"
        );
    }

    #[test]
    fn pearson_counts_matches_float_version() {
        let xs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let ys = [2u64, 7, 1, 8, 2, 8, 1, 8];
        let fx: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
        let fy: Vec<f64> = ys.iter().map(|&v| v as f64).collect();
        let a = pearson_counts(&xs, &ys).unwrap();
        let b = pearson_r(&fx, &fy).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn accumulator_needs_two_points() {
        let mut acc = PearsonAccumulator::new();
        assert_eq!(acc.r(), None);
        acc.push(1.0, 1.0);
        assert_eq!(acc.r(), None);
        acc.push(2.0, 2.0);
        assert!(acc.r().is_some());
    }

    #[test]
    fn accumulator_counts() {
        let acc: PearsonAccumulator = [(1.0, 1.0), (2.0, 2.0)].into_iter().collect();
        assert_eq!(acc.count(), 2);
    }

    #[test]
    fn parts_round_trip_exactly() {
        let acc: PearsonAccumulator = [(3.0, 2.0), (1.0, 7.0), (4.0, 1.0), (1.0, 8.0)]
            .into_iter()
            .collect();
        let rebuilt = PearsonAccumulator::from_parts(acc.parts());
        assert_eq!(rebuilt, acc);
        assert_eq!(rebuilt.r().unwrap().to_bits(), acc.r().unwrap().to_bits());
    }

    #[test]
    fn large_offset_counts_remain_precise() {
        // Shifted sums should survive values around 1e9 without
        // catastrophic cancellation.
        let base = 1.0e9;
        let xs: Vec<f64> = (0..50).map(|i| base + i as f64).collect();
        let ys: Vec<f64> = (0..50).map(|i| base + 2.0 * i as f64).collect();
        let r = pearson_r(&xs, &ys).unwrap();
        assert!((r - 1.0).abs() < 1e-9, "r={r}");
    }

    #[test]
    fn shifted_sums_match_the_accumulator_bitwise() {
        // The incremental cache's sums must be the accumulator's sums,
        // bit for bit — including `current_sums`' sparse skip, taken
        // when the current side's first slot (its shift `y0`) is zero.
        for len in 2..=32usize {
            for dense in [false, true] {
                let counts: Vec<u64> = (0..len as u64)
                    .map(|i| match (dense, i % 3) {
                        (true, _) => i * 13 + 1,
                        (false, 0) => 0,
                        (false, _) => i * 13,
                    })
                    .collect();
                let stable: Vec<u64> = (0..len as u64).map(|i| (i * 29) % 17).collect();
                let acc: PearsonAccumulator = stable
                    .iter()
                    .zip(&counts)
                    .map(|(&x, &y)| (x as f64, y as f64))
                    .collect();
                let want = acc.parts();
                assert_eq!(want.y0 == 0.0, !dense, "len {len}");
                let mut dx = Vec::new();
                let (sx, sxx) = shifted_deltas(&stable, want.x0, &mut dx);
                let (sy, syy, sxy) = current_sums(&counts, want.y0, &dx);
                let bits = |v: [f64; 5]| v.map(f64::to_bits);
                assert_eq!(
                    bits([sx, sxx, sy, syy, sxy]),
                    bits([want.sx, want.sxx, want.sy, want.syy, want.sxy]),
                    "len {len} dense {dense}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn r_is_always_in_unit_interval(
            pairs in prop::collection::vec((-1e6..1e6f64, -1e6..1e6f64), 2..100)
        ) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let r = pearson_r(&xs, &ys).unwrap();
            prop_assert!((-1.0..=1.0).contains(&r));
        }

        #[test]
        fn r_is_symmetric(
            pairs in prop::collection::vec((-1e6..1e6f64, -1e6..1e6f64), 2..100)
        ) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let a = pearson_r(&xs, &ys).unwrap();
            let b = pearson_r(&ys, &xs).unwrap();
            prop_assert!((a - b).abs() < 1e-9);
        }

        #[test]
        fn r_invariant_under_positive_affine_transform(
            pairs in prop::collection::vec((0.0..1e5f64, 0.0..1e5f64), 2..100),
            scale in 0.001..1000.0f64,
            offset in -1e4..1e4f64,
        ) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let ys2: Vec<f64> = ys.iter().map(|v| v * scale + offset).collect();
            let a = pearson_r(&xs, &ys).unwrap();
            let b = pearson_r(&xs, &ys2).unwrap();
            prop_assert!((a - b).abs() < 1e-5, "a={} b={}", a, b);
        }

        #[test]
        fn self_correlation_is_one(
            xs in prop::collection::vec(0.0..1e6f64, 2..100)
        ) {
            let r = pearson_r(&xs, &xs).unwrap();
            prop_assert!((r - 1.0).abs() < 1e-6);
        }
    }
}
