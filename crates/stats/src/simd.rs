//! The process-global SIMD dispatch level.
//!
//! The workspace has one vector kernel: the fused AVX2 flat-index
//! attribution in `regmon-regions` (`stab_x86::resolve_all` plus the
//! monitor's `flat_attrib` fill), the hottest loop of the served path
//! (paper §3.2.3, Figures 15/16). This module owns its *dispatch*: a
//! process-global [`SimdLevel`] resolved once (hardware detection via
//! `is_x86_feature_detected!`, overridable through the `REGMON_SIMD`
//! environment variable or [`force`]). Every other hot loop — histogram
//! merge, Pearson's shifted sums, wire sample decode — is one portable
//! scalar body.
//!
//! # Bitwise-identity contract
//!
//! The vector kernel produces output **bitwise identical** to the
//! scalar path it replaces: it uses integer compares and loads only,
//! with no reassociation anywhere. `REGMON_SIMD=scalar` must never
//! change a single output byte; the equivalence suites assert this
//! end-to-end at both levels.
//!
//! # Levels
//!
//! [`SimdLevel::Scalar`] is compiled on every target and is the only
//! level on non-x86-64 builds. [`SimdLevel::Avx2`] is used only when the
//! running CPU reports it. Requesting a level the CPU lacks (env or
//! [`force`]) clamps down to the detected level, so a test matrix can
//! unconditionally set `REGMON_SIMD=avx2` and still run everywhere.

use std::sync::atomic::{AtomicU8, Ordering};

/// An instruction-set tier for the attribution kernel.
///
/// Ordered: a higher level implies every lower one is available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar Rust — compiled on every target, the reference
    /// the vector path must match.
    Scalar,
    /// 256-bit AVX2 intrinsics, used only after runtime detection.
    Avx2,
}

impl SimdLevel {
    /// All levels, lowest first.
    pub const ALL: [SimdLevel; 2] = [SimdLevel::Scalar, SimdLevel::Avx2];

    /// Stable lowercase name (`scalar` / `avx2`), the vocabulary
    /// `REGMON_SIMD` accepts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parses a level name as accepted by `REGMON_SIMD`.
    #[must_use]
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// Whether the running CPU can execute this level.
    #[must_use]
    pub fn is_supported(self) -> bool {
        self <= detected()
    }

    fn to_u8(self) -> u8 {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2 => 2,
        }
    }

    fn from_u8(v: u8) -> Option<SimdLevel> {
        match v {
            1 => Some(SimdLevel::Scalar),
            2 => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

/// 0 = unresolved; otherwise `SimdLevel::to_u8`.
static DETECTED: AtomicU8 = AtomicU8::new(0);
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The name of the environment variable that overrides dispatch.
pub const SIMD_ENV: &str = "REGMON_SIMD";

fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return SimdLevel::Avx2;
    }
    SimdLevel::Scalar
}

/// The highest level the running CPU supports, independent of any
/// override. Stable for the life of the process (and across
/// `REGMON_SIMD` values), which is why the CLI reports *this* in
/// byte-stable `--json` metadata.
#[must_use]
pub fn detected() -> SimdLevel {
    match SimdLevel::from_u8(DETECTED.load(Ordering::Relaxed)) {
        Some(level) => level,
        None => {
            let level = detect();
            DETECTED.store(level.to_u8(), Ordering::Relaxed);
            level
        }
    }
}

/// The raw `REGMON_SIMD` value, if set (unparsed, for reporting).
#[must_use]
pub fn env_override() -> Option<String> {
    std::env::var(SIMD_ENV).ok()
}

/// The level `REGMON_SIMD` requests: `Ok(None)` when unset, `Err` with
/// the raw value when it names no level. The CLI refuses to start on
/// the error; [`active`] ignores it.
///
/// # Errors
///
/// The unrecognized raw value.
pub fn env_request() -> Result<Option<SimdLevel>, String> {
    match env_override() {
        None => Ok(None),
        Some(raw) => SimdLevel::parse(&raw).map(Some).ok_or(raw),
    }
}

/// The level the kernels dispatch on, resolved once per process:
/// `REGMON_SIMD` (clamped to [`detected`]; unrecognized values are
/// ignored) or else [`detected`]. One relaxed atomic load after the
/// first call.
#[must_use]
pub fn active() -> SimdLevel {
    match SimdLevel::from_u8(ACTIVE.load(Ordering::Relaxed)) {
        Some(level) => level,
        None => {
            let level = env_request()
                .ok()
                .flatten()
                .map_or_else(detected, |req| req.min(detected()));
            ACTIVE.store(level.to_u8(), Ordering::Relaxed);
            level
        }
    }
}

/// Forces the active level (clamped to [`detected`]) and returns the
/// level actually applied. Used by in-process tests and the bench
/// binaries to measure scalar-vs-vector within one process — safe at
/// any time precisely because both levels are bitwise identical.
pub fn force(level: SimdLevel) -> SimdLevel {
    let applied = level.min(detected());
    ACTIVE.store(applied.to_u8(), Ordering::Relaxed);
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pearson::{current_sums, shifted_deltas};

    /// The levels the running CPU can actually execute.
    fn testable_levels() -> Vec<SimdLevel> {
        SimdLevel::ALL
            .into_iter()
            .filter(|l| l.is_supported())
            .collect()
    }

    /// `(Σ dx, Σ dx², dx)`: the plain index-order loop, no shortcuts.
    fn shifted_deltas_reference(counts: &[u64], x0: f64) -> (f64, f64, Vec<f64>) {
        let dx: Vec<f64> = counts.iter().map(|&c| c as f64 - x0).collect();
        let (mut sx, mut sxx) = (0.0f64, 0.0f64);
        for &d in &dx {
            sx += d;
            sxx += d * d;
        }
        (sx, sxx, dx)
    }

    /// `(Σ dy, Σ dy², Σ dx·dy)` over every slot, zero or not.
    fn current_sums_reference(counts: &[u64], y0: f64, dx: &[f64]) -> (f64, f64, f64) {
        let (mut sy, mut syy, mut sxy) = (0.0f64, 0.0f64, 0.0f64);
        for (&c, &d) in counts.iter().zip(dx) {
            let dy = c as f64 - y0;
            sy += dy;
            syy += dy * dy;
            sxy += d * dy;
        }
        (sy, syy, sxy)
    }

    #[test]
    fn level_order_and_labels() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        for level in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(level.label()), Some(level));
        }
        assert_eq!(SimdLevel::parse("AVX2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("neon"), None);
        assert_eq!(SimdLevel::parse("avx3"), None);
    }

    #[test]
    fn detected_is_stable_and_scalar_always_supported() {
        assert_eq!(detected(), detected());
        assert!(SimdLevel::Scalar.is_supported());
    }

    #[test]
    fn force_clamps_to_detected() {
        let prev = active();
        let applied = force(SimdLevel::Avx2);
        assert!(applied <= detected());
        assert_eq!(active(), applied);
        force(prev);
    }

    #[test]
    fn shifted_deltas_bitwise_identical_across_levels() {
        // The dispatch level must never reach Pearson's stable-side
        // sums: at every level they are the plain loop's, bit for bit.
        let prev = active();
        for level in testable_levels() {
            assert_eq!(force(level), level);
            for len in 0..=32usize {
                let counts: Vec<u64> = (0..len as u64).map(|i| (i * 37) % 11).collect();
                let x0 = counts.first().map_or(0.0, |&c| c as f64);
                let mut dx = Vec::new();
                let (sx, sxx) = shifted_deltas(&counts, x0, &mut dx);
                let (rx, rxx, dx_ref) = shifted_deltas_reference(&counts, x0);
                assert_eq!(
                    (sx.to_bits(), sxx.to_bits()),
                    (rx.to_bits(), rxx.to_bits()),
                    "level {} len {len}",
                    level.label()
                );
                let a: Vec<u64> = dx.iter().map(|d| d.to_bits()).collect();
                let b: Vec<u64> = dx_ref.iter().map(|d| d.to_bits()).collect();
                assert_eq!(a, b, "dx level {} len {len}", level.label());
            }
        }
        force(prev);
    }

    #[test]
    fn current_sums_bitwise_identical_across_levels_and_sparsity() {
        // Sparse counts (y0 == 0, taking `current_sums`' zero-slot skip)
        // and dense ones must match the loop over every slot, bit for
        // bit, at every level.
        let prev = active();
        for level in testable_levels() {
            assert_eq!(force(level), level);
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
                    let (_, _, dx) = shifted_deltas_reference(&stable, stable[0] as f64);
                    let y0 = counts[0] as f64;
                    assert_eq!(y0 == 0.0, !dense);
                    let (sy, syy, sxy) = current_sums(&counts, y0, &dx);
                    let (ry, ryy, rxy) = current_sums_reference(&counts, y0, &dx);
                    assert_eq!(
                        (sy.to_bits(), syy.to_bits(), sxy.to_bits()),
                        (ry.to_bits(), ryy.to_bits(), rxy.to_bits()),
                        "level {} len {len} dense {dense}",
                        level.label()
                    );
                }
            }
        }
        force(prev);
    }
}
