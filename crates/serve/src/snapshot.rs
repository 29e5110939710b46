//! Session snapshot files: checkpoint a live session, move it to
//! another process, resume byte-identically.
//!
//! A snapshot file is
//!
//! ```text
//! ┌──────────────┬─────────────┬───────────────┬────────────────┐
//! │ magic "RGSN" │ version u16 │ body          │ crc32 (u32 LE) │
//! └──────────────┴─────────────┴───────────────┴────────────────┘
//! ```
//!
//! with the trailing CRC-32 covering everything before it. The body
//! serializes a [`SessionSnapshot`]: configuration, lifetime counters,
//! the region table, both detector states, the UCR timeline and the
//! pruner's cold streaks. Floats are stored as raw bit patterns — a
//! restored session is *bit-identical* to the one that was saved, which
//! is what makes `snapshot → restore → continue` indistinguishable from
//! an uninterrupted run.

use std::fs;
use std::path::Path;

use regmon::{SessionConfig, SessionSnapshot};
use regmon_binary::{Addr, AddrRange, Binary, INST_BYTES};
use regmon_gpd::{GpdSnapshot, GpdState, PhaseStats};
use regmon_lpd::{LpdDetectorSnapshot, LpdManagerSnapshot, LpdState, RegionPhaseStats};
use regmon_regions::{MonitorSnapshot, RegionId, RegionKind, RegionRecord};

use crate::crc::crc32;
use crate::error::ServeError;
use crate::wire::{
    decode_config, encode_config, push_f64, push_u16, push_u32, push_u64, Checksummed, Cursor,
    WireError,
};

/// Magic bytes opening a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"RGSN";

/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u16 = 1;

// ------------------------------------------------------------- encode

fn encode_region_kind(kind: RegionKind, out: &mut Vec<u8>) {
    match kind {
        RegionKind::Loop { depth } => {
            out.push(0);
            push_u64(out, depth as u64);
        }
        RegionKind::Procedure => out.push(1),
        RegionKind::Trace => out.push(2),
        RegionKind::Custom => out.push(3),
    }
}

fn encode_monitor(snapshot: &MonitorSnapshot, out: &mut Vec<u8>) {
    push_u64(out, snapshot.regions.len() as u64);
    for record in &snapshot.regions {
        push_u64(out, record.id.0);
        push_u64(out, record.range.start().get());
        push_u64(out, record.range.end().get());
        encode_region_kind(record.kind, out);
        push_u64(out, record.created_interval as u64);
    }
    push_u64(out, snapshot.next_id);
}

fn encode_phase_stats(stats: &PhaseStats, out: &mut Vec<u8>) {
    push_u64(out, stats.intervals as u64);
    push_u64(out, stats.stable_intervals as u64);
    push_u64(out, stats.phase_changes as u64);
}

fn encode_gpd(snapshot: &GpdSnapshot, out: &mut Vec<u8>) {
    push_u64(out, snapshot.history.len() as u64);
    for &centroid in &snapshot.history {
        push_f64(out, centroid);
    }
    out.push(match snapshot.state {
        GpdState::Unstable => 0,
        GpdState::LessStable => 1,
        GpdState::Stable => 2,
    });
    push_u64(out, snapshot.timer as u64);
    encode_phase_stats(&snapshot.stats, out);
}

fn encode_region_stats(stats: &RegionPhaseStats, out: &mut Vec<u8>) {
    push_u64(out, stats.intervals as u64);
    push_u64(out, stats.active_intervals as u64);
    push_u64(out, stats.stable_intervals as u64);
    push_u64(out, stats.phase_changes as u64);
    push_u64(out, stats.samples);
}

fn encode_lpd(snapshot: &LpdManagerSnapshot, out: &mut Vec<u8>) {
    push_u64(out, snapshot.detectors.len() as u64);
    for (id, det) in &snapshot.detectors {
        push_u64(out, id.0);
        push_f64(out, det.rt);
        push_u64(out, det.prev_hist.len() as u64);
        for &count in &det.prev_hist {
            push_u64(out, count);
        }
        out.push(u8::from(det.prev_empty));
        out.push(match det.state {
            LpdState::Unstable => 0,
            LpdState::LessUnstable => 1,
            LpdState::Stable => 2,
        });
        push_f64(out, det.last_r);
        encode_region_stats(&det.stats, out);
    }
    push_u64(out, snapshot.retired.len() as u64);
    for (id, stats) in &snapshot.retired {
        push_u64(out, id.0);
        encode_region_stats(stats, out);
    }
}

/// Serializes a snapshot into its full file representation
/// (magic + version + body + trailing CRC).
#[must_use]
pub fn encode_snapshot(snapshot: &SessionSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    push_u16(&mut out, SNAPSHOT_VERSION);
    encode_config(&snapshot.config, &mut out);
    push_u64(&mut out, snapshot.intervals as u64);
    push_u64(&mut out, snapshot.regions_formed as u64);
    push_u64(&mut out, snapshot.regions_pruned as u64);
    encode_monitor(&snapshot.monitor, &mut out);
    encode_gpd(&snapshot.gpd, &mut out);
    encode_lpd(&snapshot.lpd, &mut out);
    push_u64(&mut out, snapshot.ucr_timeline.len() as u64);
    for &fraction in &snapshot.ucr_timeline {
        push_f64(&mut out, fraction);
    }
    push_u64(&mut out, snapshot.pruner_streaks.len() as u64);
    for &(id, streak) in &snapshot.pruner_streaks {
        push_u64(&mut out, id.0);
        push_u64(&mut out, streak as u64);
    }
    let crc = crc32(&out);
    push_u32(&mut out, crc);
    out
}

// ------------------------------------------------------------- decode

fn decode_region_kind(cur: &mut Cursor<'_>) -> Result<RegionKind, WireError> {
    Ok(match cur.u8()? {
        0 => RegionKind::Loop {
            depth: cur.usize_field()?,
        },
        1 => RegionKind::Procedure,
        2 => RegionKind::Trace,
        3 => RegionKind::Custom,
        _ => return Err(WireError::Malformed("bad region kind")),
    })
}

fn decode_monitor(cur: &mut Cursor<'_>) -> Result<MonitorSnapshot, WireError> {
    let count = cur.usize_field()?;
    let mut regions = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        let id = RegionId(cur.u64()?);
        let start = cur.u64()?;
        let end = cur.u64()?;
        if start >= end {
            return Err(WireError::Malformed("empty region range"));
        }
        // Histogram slots are whole instructions; a ragged edge would
        // put a sample past the region's last slot.
        if start % INST_BYTES != 0 || end % INST_BYTES != 0 {
            return Err(WireError::Malformed("region range not instruction-aligned"));
        }
        let range = AddrRange::new(Addr::new(start), Addr::new(end));
        let kind = decode_region_kind(cur)?;
        let created_interval = cur.usize_field()?;
        regions.push(RegionRecord {
            id,
            range,
            kind,
            created_interval,
        });
    }
    let next_id = cur.u64()?;
    if regions.windows(2).any(|w| w[0].id >= w[1].id) {
        return Err(WireError::Malformed("region ids not strictly ascending"));
    }
    if regions.last().is_some_and(|r| r.id.0 >= next_id) {
        return Err(WireError::Malformed("region id at or past the allocator"));
    }
    Ok(MonitorSnapshot { regions, next_id })
}

fn decode_phase_stats(cur: &mut Cursor<'_>) -> Result<PhaseStats, WireError> {
    Ok(PhaseStats {
        intervals: cur.usize_field()?,
        stable_intervals: cur.usize_field()?,
        phase_changes: cur.usize_field()?,
    })
}

fn decode_gpd(cur: &mut Cursor<'_>) -> Result<GpdSnapshot, WireError> {
    let len = cur.usize_field()?;
    let mut history = Vec::with_capacity(len.min(65_536));
    for _ in 0..len {
        history.push(cur.f64()?);
    }
    let state = match cur.u8()? {
        0 => GpdState::Unstable,
        1 => GpdState::LessStable,
        2 => GpdState::Stable,
        _ => return Err(WireError::Malformed("bad gpd state")),
    };
    let timer = cur.usize_field()?;
    let stats = decode_phase_stats(cur)?;
    Ok(GpdSnapshot {
        history,
        state,
        timer,
        stats,
    })
}

fn decode_region_stats(cur: &mut Cursor<'_>) -> Result<RegionPhaseStats, WireError> {
    Ok(RegionPhaseStats {
        intervals: cur.usize_field()?,
        active_intervals: cur.usize_field()?,
        stable_intervals: cur.usize_field()?,
        phase_changes: cur.usize_field()?,
        samples: cur.u64()?,
    })
}

fn decode_lpd(cur: &mut Cursor<'_>) -> Result<LpdManagerSnapshot, WireError> {
    let count = cur.usize_field()?;
    let mut detectors = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        let id = RegionId(cur.u64()?);
        let rt = cur.f64()?;
        let slots = cur.usize_field()?;
        if slots < 2 {
            return Err(WireError::Malformed("detector histogram needs >= 2 slots"));
        }
        let mut prev_hist = Vec::with_capacity(slots.min(1_048_576));
        let mut total = 0u64;
        for _ in 0..slots {
            let count = cur.u64()?;
            total = total
                .checked_add(count)
                .ok_or(WireError::Malformed("detector histogram total overflows"))?;
            prev_hist.push(count);
        }
        let prev_empty = cur.flag("bad prev_empty flag")?;
        let state = match cur.u8()? {
            0 => LpdState::Unstable,
            1 => LpdState::LessUnstable,
            2 => LpdState::Stable,
            _ => return Err(WireError::Malformed("bad lpd state")),
        };
        let last_r = cur.f64()?;
        let stats = decode_region_stats(cur)?;
        detectors.push((
            id,
            LpdDetectorSnapshot {
                rt,
                prev_hist,
                prev_empty,
                state,
                last_r,
                stats,
            },
        ));
    }
    let retired_count = cur.usize_field()?;
    let mut retired = Vec::with_capacity(retired_count.min(65_536));
    for _ in 0..retired_count {
        let id = RegionId(cur.u64()?);
        retired.push((id, decode_region_stats(cur)?));
    }
    if detectors.windows(2).any(|w| w[0].0 >= w[1].0)
        || retired.windows(2).any(|w| w[0].0 >= w[1].0)
    {
        return Err(WireError::Malformed("detector ids not strictly ascending"));
    }
    Ok(LpdManagerSnapshot { detectors, retired })
}

/// Decodes a snapshot file image produced by [`encode_snapshot`].
///
/// # Errors
///
/// [`WireError::SnapshotTooShort`] on a file too short to hold the
/// magic, version and trailer, [`WireError::BadCrc`] on corruption,
/// [`WireError::NotASnapshot`] / [`WireError::SnapshotVersion`] on a
/// foreign or newer file, [`WireError::SnapshotMalformed`] on
/// structural damage.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SessionSnapshot, WireError> {
    if bytes.len() < 10 {
        return Err(WireError::SnapshotTooShort { len: bytes.len() });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let want = u32::from_le_bytes(trailer.try_into().unwrap());
    let got = crc32(body);
    if want != got {
        return Err(WireError::BadCrc {
            of: Checksummed::Snapshot,
            want,
            got,
        });
    }
    if body[..4] != SNAPSHOT_MAGIC {
        return Err(WireError::NotASnapshot);
    }
    let version = u16::from_le_bytes([body[4], body[5]]);
    if version != SNAPSHOT_VERSION {
        return Err(WireError::SnapshotVersion { got: version });
    }
    // The field decoders are the wire's; their damage is the snapshot's.
    decode_body(&mut Cursor::new(&body[6..])).map_err(|e| match e {
        WireError::Malformed(what) => WireError::SnapshotMalformed(what),
        other => other,
    })
}

/// Decodes the snapshot fields after the magic and version.
fn decode_body(cur: &mut Cursor<'_>) -> Result<SessionSnapshot, WireError> {
    let config: SessionConfig = decode_config(cur)?;
    let intervals = cur.usize_field()?;
    let regions_formed = cur.usize_field()?;
    let regions_pruned = cur.usize_field()?;
    let monitor = decode_monitor(cur)?;
    let gpd = decode_gpd(cur)?;
    if gpd.history.len() > config.gpd.history_len {
        return Err(WireError::Malformed("gpd history longer than history_len"));
    }
    let lpd = decode_lpd(cur)?;
    for (id, detector) in &lpd.detectors {
        let region = monitor.regions.binary_search_by_key(id, |r| r.id);
        if region.is_ok_and(|at| {
            detector.prev_hist.len() as u64 != monitor.regions[at].range.len() / INST_BYTES
        }) {
            return Err(WireError::Malformed(
                "detector slots differ from its region",
            ));
        }
    }
    let ucr_len = cur.usize_field()?;
    let mut ucr_timeline = Vec::with_capacity(ucr_len.min(1_048_576));
    for _ in 0..ucr_len {
        let fraction = cur.f64()?;
        if !(0.0..=1.0).contains(&fraction) {
            return Err(WireError::Malformed("ucr fraction outside [0,1]"));
        }
        ucr_timeline.push(fraction);
    }
    let streak_len = cur.usize_field()?;
    let mut pruner_streaks = Vec::with_capacity(streak_len.min(65_536));
    for _ in 0..streak_len {
        let id = RegionId(cur.u64()?);
        pruner_streaks.push((id, cur.usize_field()?));
    }
    cur.finish()?;
    Ok(SessionSnapshot {
        config,
        intervals,
        regions_formed,
        regions_pruned,
        monitor,
        gpd,
        lpd,
        ucr_timeline,
        pruner_streaks,
    })
}

/// Writes a snapshot to a file (counted in
/// `regmon_snapshot_saves_total` when telemetry is enabled).
///
/// # Errors
///
/// Propagates filesystem failures as [`WireError::Io`].
pub fn save_snapshot(path: &Path, snapshot: &SessionSnapshot) -> Result<(), WireError> {
    fs::write(path, encode_snapshot(snapshot)).map_err(WireError::Io)?;
    if regmon_telemetry::enabled() {
        regmon_telemetry::metrics::SNAPSHOT_SAVES.inc();
    }
    Ok(())
}

/// Reads a snapshot from a file (counted in
/// `regmon_snapshot_restores_total` when telemetry is enabled).
///
/// # Errors
///
/// Filesystem failures as [`WireError::Io`]; any decode failure from
/// [`decode_snapshot`].
pub fn load_snapshot(path: &Path) -> Result<SessionSnapshot, WireError> {
    let bytes = fs::read(path).map_err(WireError::Io)?;
    let snapshot = decode_snapshot(&bytes)?;
    if regmon_telemetry::enabled() {
        regmon_telemetry::metrics::SNAPSHOT_RESTORES.inc();
    }
    Ok(snapshot)
}

/// Checks a snapshot about to be restored for `tenant` against the
/// program image it will run on ([`SessionSnapshot::check_regions`]).
/// The migration `Snapshot` frame, a WAL opener and `replay --resume`
/// run this before admission; WAL recovery skips a checkpoint that
/// fails the same check.
///
/// # Errors
///
/// [`ServeError::BadSnapshot`] naming the tenant and the region.
pub(crate) fn check_regions(
    tenant: &str,
    snapshot: &SessionSnapshot,
    binary: &Binary,
) -> Result<(), ServeError> {
    snapshot
        .check_regions(binary)
        .map_err(|error| ServeError::BadSnapshot {
            tenant: tenant.to_string(),
            error,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmon::{MonitoringSession, SessionConfig};
    use regmon_sampling::Sampler;
    use regmon_workload::suite;

    fn live_snapshot() -> SessionSnapshot {
        let w = suite::by_name("172.mgrid").unwrap();
        let config = SessionConfig::new(45_000);
        let mut session = MonitoringSession::new(config.clone());
        session.attach_binary(&w);
        for interval in Sampler::new(&w, config.sampling).take(12) {
            session.process_interval(&interval);
        }
        session.snapshot()
    }

    #[test]
    fn snapshot_roundtrips_bit_exact() {
        let snapshot = live_snapshot();
        assert!(!snapshot.monitor.regions.is_empty(), "no regions formed");
        let bytes = encode_snapshot(&snapshot);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn corruption_detected_at_every_byte() {
        let snapshot = live_snapshot();
        let clean = encode_snapshot(&snapshot);
        // Flipping any byte (including the CRC trailer itself) must be
        // caught. Sample every 97th byte to keep the test fast.
        for idx in (0..clean.len()).step_by(97).chain([clean.len() - 1]) {
            let mut bytes = clean.clone();
            bytes[idx] ^= 0x40;
            assert!(
                matches!(decode_snapshot(&bytes), Err(WireError::BadCrc { .. })),
                "flip at {idx} not caught"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_snapshot(&live_snapshot());
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    /// Snapshot damage is reported in snapshot terms: the message names
    /// the RGSN format, never a wire frame or the wire magic.
    fn assert_snapshot_wording(err: &WireError, expect: &str) {
        let msg = err.to_string();
        assert!(msg.contains(expect), "{msg:?} lacks {expect:?}");
        assert!(msg.contains("RGSN") && msg.contains("snapshot"), "{msg:?}");
        assert!(!msg.contains("frame") && !msg.contains("RGMN"), "{msg:?}");
    }

    #[test]
    fn foreign_magic_names_the_snapshot_format() {
        let mut bytes = encode_snapshot(&live_snapshot());
        bytes[..4].copy_from_slice(b"RGMN");
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = decode_snapshot(&bytes).unwrap_err();
        assert!(matches!(err, WireError::NotASnapshot), "{err:?}");
        assert_snapshot_wording(&err, "bad magic");
    }

    #[test]
    fn bad_trailer_names_the_snapshot_checksum() {
        let mut bytes = encode_snapshot(&live_snapshot());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = decode_snapshot(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::BadCrc {
                    of: Checksummed::Snapshot,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_snapshot_wording(&err, "checksum mismatch (trailer");
    }

    #[test]
    fn short_file_names_the_snapshot_length() {
        let bytes = encode_snapshot(&live_snapshot());
        for len in [0, 1, 9] {
            let err = decode_snapshot(&bytes[..len]).unwrap_err();
            assert!(matches!(err, WireError::SnapshotTooShort { len: l } if l == len));
            assert_snapshot_wording(&err, &format!("truncated: {len} bytes"));
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = encode_snapshot(&live_snapshot());
        bytes[4] = 0x63; // version low byte
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = decode_snapshot(&bytes).unwrap_err();
        assert!(
            matches!(err, WireError::SnapshotVersion { got: 0x63 }),
            "{err:?}"
        );
        assert_snapshot_wording(
            &err,
            "unsupported RGSN snapshot version 99 (this build reads 1)",
        );
        assert!(!err.to_string().contains("wire"), "{err}");
    }

    // ------------------------------------------ decoder property tests

    use crate::wire::Cursor;
    use proptest::TestRng;

    /// Uniform in `0..n` (0 when `n` is 0).
    fn below(rng: &mut TestRng, n: usize) -> usize {
        rng.gen_u64(0, n.max(1) as u64) as usize
    }

    /// Arbitrary bytes (one case in four), else `seed` with one to four
    /// byte edits: overwrites, bit flips, cuts, insertions and extreme
    /// `u64` fields (counts, lengths, ids and ranges at 0, 1 and the
    /// edges of the address space). Half the edits land in the first
    /// 256 bytes, where the configuration and the region table live.
    fn mutate(rng: &mut TestRng, seed: &[u8]) -> Vec<u8> {
        if below(rng, 4) == 0 {
            let n = below(rng, 160);
            return (0..n).map(|_| rng.next_u64() as u8).collect();
        }
        let mut bytes = seed.to_vec();
        for _ in 0..1 + below(rng, 4) {
            let span = if below(rng, 2) == 0 {
                bytes.len().min(256)
            } else {
                bytes.len()
            };
            let at = below(rng, span);
            match below(rng, 5) {
                0 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
                1 if at < bytes.len() => bytes[at] ^= 1 << below(rng, 8),
                2 => bytes.truncate(at),
                3 => bytes.insert(at, rng.next_u64() as u8),
                _ => {
                    let extremes = [0, 1, 2, 1 << 32, 1 << 62, u64::MAX, rng.next_u64()];
                    let v = extremes[below(rng, extremes.len())].to_le_bytes();
                    let end = (at + 8).min(bytes.len());
                    bytes[at..end].copy_from_slice(&v[..end - at]);
                }
            }
        }
        bytes
    }

    /// A snapshot that decoded must also check and restore without a
    /// panic — the check a server runs before admission, then the
    /// restore — and, once the check passes, keep processing intervals.
    fn restore(case: u32, snapshot: SessionSnapshot) {
        let w = suite::by_name("172.mgrid").unwrap();
        let restored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let admitted = check_regions("fuzz", &snapshot, &w.shared_binary()).is_ok();
            let mut session = MonitoringSession::from_snapshot(snapshot);
            if admitted {
                session.attach_binary(&w);
                for interval in Sampler::new(&w, SessionConfig::new(45_000).sampling).take(3) {
                    session.process_interval(&interval);
                }
            }
        }));
        assert!(restored.is_ok(), "case {case}: restore panicked");
    }

    #[test]
    fn snapshot_decoder_survives_arbitrary_and_mutated_blobs() {
        let clean = encode_snapshot(&live_snapshot());
        let body = &clean[..clean.len() - 4];
        let (mut decoded, mut malformed) = (0, 0);
        for case in 0..2000 {
            // Case `case` replays from `TestRng::for_case` alone.
            let mut rng = TestRng::for_case("snapshot::decoder_fuzz", case);
            let mut blob = mutate(&mut rng, body);
            // Reseal all but one in eight, so the body decoders (not
            // just the checksum) see the damage.
            if below(&mut rng, 8) != 0 {
                let crc = crc32(&blob);
                push_u32(&mut blob, crc);
            }
            let result = std::panic::catch_unwind(|| decode_snapshot(&blob))
                .unwrap_or_else(|_| panic!("case {case}: decode panicked on {blob:02x?}"));
            match result {
                Ok(snapshot) => {
                    decoded += 1;
                    restore(case, snapshot);
                }
                Err(err) => {
                    assert_snapshot_wording(&err, "");
                    assert!(!err.to_string().contains("wire"), "case {case}: {err}");
                    if let WireError::SnapshotMalformed(_) = err {
                        malformed += 1;
                    }
                }
            }
        }
        // Some damage must get past the checksum into the field decoders.
        assert!(malformed > 100, "only {malformed} blobs reached the body");
        // The mutations must leave some blobs decodable, or the restore
        // half of the property never runs.
        assert!(decoded > 100, "only {decoded} blobs decoded");
    }

    #[test]
    fn config_decoder_survives_arbitrary_and_mutated_blobs() {
        let mut tuned = SessionConfig::new(45_000);
        tuned.pruning = Some(regmon::PruningConfig {
            cold_intervals: 9,
            min_samples: 3,
        });
        let seeds: Vec<Vec<u8>> = [SessionConfig::new(45_000), tuned]
            .iter()
            .map(|config| {
                let mut out = Vec::new();
                encode_config(config, &mut out);
                out
            })
            .collect();
        let mut decoded = 0;
        for case in 0..2000 {
            let mut rng = TestRng::for_case("wire::config_decoder_fuzz", case);
            let seed = &seeds[below(&mut rng, seeds.len())];
            let blob = mutate(&mut rng, seed);
            let result = std::panic::catch_unwind(|| decode_config(&mut Cursor::new(&blob)))
                .unwrap_or_else(|_| panic!("case {case}: decode panicked on {blob:02x?}"));
            if let Ok(config) = result {
                decoded += 1;
                let snapshot =
                    std::panic::catch_unwind(|| MonitoringSession::new(config.clone()).snapshot())
                        .unwrap_or_else(|_| {
                            panic!("case {case}: new session panicked on {config:?}")
                        });
                restore(case, snapshot);
            }
        }
        assert!(decoded > 100, "only {decoded} blobs decoded");
    }

    #[test]
    fn regions_must_be_aligned_and_match_their_detectors() {
        // Either edit made the next interval panic in attribution or in
        // the region's detector before the decoder refused it.
        for (cut, want) in [
            (2, "region range not instruction-aligned"),
            (INST_BYTES, "detector slots differ from its region"),
        ] {
            let mut snapshot = live_snapshot();
            let region = &mut snapshot.monitor.regions[0];
            let end = Addr::new(region.range.end().get() - cut);
            region.range = AddrRange::new(region.range.start(), end);
            assert!(
                matches!(
                    decode_snapshot(&encode_snapshot(&snapshot)),
                    Err(WireError::SnapshotMalformed(got)) if got == want
                ),
                "{want}"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("regmon-serve-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("snap-{}.rgsn", std::process::id()));
        let snapshot = live_snapshot();
        save_snapshot(&path, &snapshot).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, snapshot);
    }
}
