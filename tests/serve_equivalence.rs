//! Serve-layer equivalence (property suite).
//!
//! The wire protocol, the snapshot codec and the replay driver are
//! *pure transport*: they may change where a session runs and how its
//! intervals travel, but never what any detector decides. This suite
//! drives randomized session shapes through the full serve stack and
//! asserts:
//!
//! 1. **Checkpoint identity** — `snapshot → encode → decode → restore →
//!    continue` is byte-identical to the uninterrupted session, across
//!    index kinds × similarity metrics × pruning × wire batching ×
//!    telemetry on/off.
//! 2. **Replay identity** — replaying a recorded journal (at any frame
//!    batching) reproduces
//!    `MonitoringSession::run_limited` exactly, and a replay resumed
//!    from a mid-stream checkpoint agrees with the straight replay.
//! 3. **Rejection** — corrupting any byte of a journal or snapshot, or
//!    truncating either, is caught with a typed error, never a wrong
//!    result; a version-bumped stream is refused outright.
//! 4. **Replay is serve** — a multi-tenant journal replays to exactly
//!    the summaries `Server::handle` serves from the same bytes.

use proptest::prelude::*;

use regmon::{MonitoringSession, PruningConfig, SessionConfig};
use regmon_lpd::SimilarityKind;
use regmon_regions::IndexKind;
use regmon_sampling::{Interval, Sampler};
use regmon_serve::journal::JournalWriter;
use regmon_serve::replay::{replay_stream, ReplayOptions};
use regmon_serve::server::{ServeOptions, Server};
use regmon_serve::snapshot::{decode_snapshot, encode_snapshot};
use regmon_serve::wire::{AdmitFrame, WireError};
use regmon_workload::suite;

const WORKLOADS: [&str; 3] = ["172.mgrid", "181.mcf", "254.gap"];

fn config_for(index: u8, similarity: u8, pruning: bool, period_sel: u8) -> SessionConfig {
    let mut config = SessionConfig::new([45_000, 90_000, 450_000][period_sel as usize % 3]);
    config.index = match index % 3 {
        0 => IndexKind::Linear,
        1 => IndexKind::IntervalTree,
        _ => IndexKind::FlatSorted,
    };
    config.lpd.similarity = match similarity % 4 {
        0 => SimilarityKind::Pearson,
        1 => SimilarityKind::Cosine,
        2 => SimilarityKind::Manhattan,
        _ => SimilarityKind::Rank,
    };
    if pruning {
        config.pruning = Some(PruningConfig {
            cold_intervals: 6,
            min_samples: 2,
        });
    }
    config
}

/// A single-tenant journal with the given frame batching, as
/// `JournalWriter` writes it.
fn journal_bytes(workload: &str, config: &SessionConfig, n: usize, chunk: usize) -> Vec<u8> {
    let w = suite::by_name(workload).unwrap();
    let mut journal = JournalWriter::new(Vec::new()).unwrap();
    journal
        .admit(AdmitFrame {
            tenant: 0,
            name: workload.to_string(),
            workload: workload.to_string(),
            config: config.clone(),
            max_intervals: n as u64,
        })
        .unwrap();
    let intervals: Vec<_> = Sampler::new(&w, config.sampling).take(n).collect();
    for batch in intervals.chunks(chunk.max(1)) {
        journal.batch(0, batch.to_vec()).unwrap();
    }
    journal.finish(0).unwrap();
    journal.into_inner().unwrap()
}

/// A journal interleaving `tenants` sessions of `n` intervals, one
/// batch per tenant per turn. Tenant `t` runs `WORKLOADS[(first + t) %
/// 3]` at its own period, under a sparse wire id and an `Admit` name
/// that is not its workload's; its batch sizes cycle through
/// `1..=max_batch` from a per-tenant offset, and its `Finish` follows
/// its last batch.
fn multi_tenant_journal(tenants: usize, first: usize, max_batch: usize, n: usize) -> Vec<u8> {
    let mut journal = JournalWriter::new(Vec::new()).unwrap();
    let mut streams = Vec::new();
    for t in 0..tenants {
        let workload = WORKLOADS[(first + t) % 3];
        let config = config_for(t as u8, t as u8, t % 2 == 1, (first + t) as u8);
        let id = 7 * t as u32 + 3;
        journal
            .admit(AdmitFrame {
                tenant: id,
                name: format!("tenant-{t}"),
                workload: workload.to_string(),
                config: config.clone(),
                max_intervals: n as u64,
            })
            .unwrap();
        let w = suite::by_name(workload).unwrap();
        let intervals: Vec<Interval> = Sampler::new(&w, config.sampling).take(n).collect();
        let mut batches = Vec::new();
        let mut rest = intervals.as_slice();
        for k in t.. {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at((1 + k % max_batch).min(rest.len()));
            batches.push(batch.to_vec());
            rest = tail;
        }
        streams.push((id, batches.into_iter()));
    }
    let mut open = tenants;
    while open > 0 {
        for (id, batches) in &mut streams {
            match batches.next() {
                Some(batch) => journal.batch(*id, batch).unwrap(),
                None if *id != u32::MAX => {
                    journal.finish(*id).unwrap();
                    *id = u32::MAX;
                    open -= 1;
                }
                None => {}
            }
        }
    }
    journal.into_inner().unwrap()
}

fn checkpoint_roundtrip_case(workload: &str, config: &SessionConfig, total: usize, cut: usize) {
    let w = suite::by_name(workload).unwrap();
    let intervals: Vec<_> = Sampler::new(&w, config.sampling).take(total).collect();

    let mut baseline = MonitoringSession::new(config.clone());
    baseline.attach_binary(&w);
    for interval in &intervals {
        baseline.process_interval(interval);
    }

    let mut first = MonitoringSession::new(config.clone());
    first.attach_binary(&w);
    for interval in &intervals[..cut] {
        first.process_interval(interval);
    }
    // The checkpoint crosses the byte codec, not just memory.
    let bytes = encode_snapshot(&first.snapshot());
    let restored = decode_snapshot(&bytes).expect("clean snapshot must decode");
    assert_eq!(restored, first.snapshot());
    let mut resumed = MonitoringSession::from_snapshot(restored);
    resumed.attach_binary(&w);
    for interval in &intervals[cut..] {
        resumed.process_interval(interval);
    }

    assert_eq!(
        format!("{:?}", baseline.summary(workload)),
        format!("{:?}", resumed.summary(workload)),
    );
    assert_eq!(
        encode_snapshot(&baseline.snapshot()),
        encode_snapshot(&resumed.snapshot()),
        "final session state diverged after restore"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Checkpoint identity across the config matrix, with telemetry
    /// both off and on (telemetry must observe, never perturb).
    #[test]
    fn checkpoint_restore_continues_identically(
        index in 0u8..3,
        similarity in 0u8..4,
        pruning in prop::bool::ANY,
        period_sel in 0u8..3,
        workload_sel in 0usize..3,
        cut in 3usize..18,
    ) {
        let config = config_for(index, similarity, pruning, period_sel);
        let workload = WORKLOADS[workload_sel];
        let total = 20;
        let cut = cut.min(total - 1);
        let was_on = regmon_telemetry::enabled();
        for telemetry in [false, true] {
            regmon_telemetry::set_enabled(telemetry);
            checkpoint_roundtrip_case(workload, &config, total, cut);
        }
        regmon_telemetry::set_enabled(was_on);
    }

    /// Replay identity: journals at any batching reproduce the
    /// in-process run, and snapshot/resume replays agree.
    #[test]
    fn replay_reproduces_in_process_run(
        index in 0u8..3,
        pruning in prop::bool::ANY,
        chunk in 1usize..6,
        snapshot_at in 2usize..14,
        workload_sel in 0usize..3,
    ) {
        let config = config_for(index, 0, pruning, workload_sel as u8);
        let workload = WORKLOADS[workload_sel];
        let n = 16;
        let bytes = journal_bytes(workload, &config, n, chunk);

        let w = suite::by_name(workload).unwrap();
        let direct = MonitoringSession::run_limited(&w, &config, n);
        let straight = replay_stream(bytes.as_slice(), &ReplayOptions::default()).unwrap();
        prop_assert_eq!(straight.tenants.len(), 1);
        prop_assert_eq!(
            format!("{:?}", &straight.tenants[0].summary),
            format!("{direct:?}")
        );

        // Checkpoint mid-replay, then resume from the checkpoint.
        let dir = std::env::temp_dir().join("regmon-serve-equivalence");
        std::fs::create_dir_all(&dir).unwrap();
        let checkpoint = dir.join(format!(
            "ck-{}-{index}-{chunk}-{snapshot_at}-{workload_sel}.rgsn",
            std::process::id()
        ));
        let with_snapshot = replay_stream(bytes.as_slice(), &ReplayOptions {
            snapshot_at: Some(snapshot_at),
            snapshot_out: Some(checkpoint.clone()),
            resume: None,
        }).unwrap();
        let resumed = replay_stream(bytes.as_slice(), &ReplayOptions {
            snapshot_at: None,
            snapshot_out: None,
            resume: Some(checkpoint.clone()),
        }).unwrap();
        std::fs::remove_file(&checkpoint).ok();
        prop_assert_eq!(
            format!("{:?}", &with_snapshot.tenants[0].summary),
            format!("{direct:?}")
        );
        prop_assert_eq!(
            format!("{:?}", &resumed.tenants[0].summary),
            format!("{direct:?}")
        );
    }

    /// Any single corrupted byte in a journal is rejected with a typed
    /// error — replay never silently produces a different result.
    #[test]
    fn corrupt_journal_byte_is_rejected(
        flip_bit in 0u32..8,
        position in 0usize..10_000,
    ) {
        let config = config_for(1, 0, false, 0);
        let mut bytes = journal_bytes("172.mgrid", &config, 6, 2);
        let idx = position * (bytes.len() - 1) / 10_000;
        bytes[idx] ^= 1 << flip_bit;
        let result = replay_stream(bytes.as_slice(), &ReplayOptions::default());
        prop_assert!(result.is_err(), "flip at {} accepted", idx);
    }

    /// Truncating a journal at any point is rejected, down to the empty
    /// stream (cut 0, which every case checks).
    #[test]
    fn truncated_journal_is_rejected(
        position in 0usize..10_000,
    ) {
        let config = config_for(0, 0, false, 0);
        let bytes = journal_bytes("172.mgrid", &config, 4, 1);
        for cut in [0, position * (bytes.len() - 1) / 10_000] {
            let result = replay_stream(&bytes[..cut], &ReplayOptions::default());
            prop_assert!(result.is_err(), "cut at {} accepted", cut);
        }
    }

    /// Wire-v2 streams (delta-encoded batches) replay byte-identically
    /// to the in-process run of the same session.
    #[test]
    fn v2_journal_replays_identically(
        index in 0u8..3,
        chunk in 1usize..6,
        workload_sel in 0usize..3,
    ) {
        let config = config_for(index, 0, false, workload_sel as u8);
        let workload = WORKLOADS[workload_sel];
        let n = 14;
        let w = suite::by_name(workload).unwrap();
        let direct = MonitoringSession::run_limited(&w, &config, n);
        let bytes = journal_bytes(workload, &config, n, chunk);
        let outcome = replay_stream(bytes.as_slice(), &ReplayOptions::default()).unwrap();
        prop_assert_eq!(outcome.tenants.len(), 1);
        prop_assert_eq!(
            format!("{:?}", &outcome.tenants[0].summary),
            format!("{direct:?}")
        );
    }

    /// Any single corrupted byte of a wire-v2 journal — header or
    /// delta column — is rejected, never decoded into a different
    /// stream.
    #[test]
    fn corrupt_v2_journal_byte_is_rejected(
        flip_bit in 0u32..8,
        position in 0usize..10_000,
    ) {
        let config = config_for(1, 0, false, 0);
        let mut bytes = journal_bytes("172.mgrid", &config, 6, 2);
        let idx = position * (bytes.len() - 1) / 10_000;
        bytes[idx] ^= 1 << flip_bit;
        let result = replay_stream(bytes.as_slice(), &ReplayOptions::default());
        prop_assert!(result.is_err(), "flip at {} accepted", idx);
    }

    /// Replay is serve: a multi-tenant journal replays to the summaries
    /// a server serves from the same bytes, `Debug`-identical.
    #[test]
    fn replay_equals_serve(
        tenants in 2usize..4,
        first in 0usize..3,
        max_batch in 1usize..5,
    ) {
        let bytes = multi_tenant_journal(tenants, first, max_batch, 12);
        let replayed = replay_stream(bytes.as_slice(), &ReplayOptions::default()).unwrap();
        let server = Server::new(ServeOptions {
            expect_sessions: tenants,
            ..ServeOptions::default()
        });
        let handled = server.handle(bytes.as_slice());
        let report = server.finish();
        prop_assert_eq!(handled.unwrap(), tenants);
        let served: Vec<String> = report
            .sessions
            .iter()
            .map(|s| format!("{:?}", s.summary.as_ref().unwrap()))
            .collect();
        let replayed: Vec<String> = replayed
            .tenants
            .iter()
            .map(|t| format!("{:?}", t.summary))
            .collect();
        prop_assert_eq!(replayed.len(), tenants);
        prop_assert_eq!(replayed, served);
    }

    /// Truncating a wire-v2 journal anywhere is rejected; a cut that
    /// lands *inside* a frame reports [`WireError::Truncated`] carrying
    /// the offset where that frame began and its zero-based index.
    #[test]
    fn truncated_v2_journal_is_rejected_with_position(
        position in 0usize..10_000,
    ) {
        let config = config_for(0, 0, false, 0);
        let bytes = journal_bytes("172.mgrid", &config, 4, 1);
        let starts = frame_starts(&bytes);
        let cut = 1 + position * (bytes.len() - 2) / 10_000;
        let result = replay_stream(&bytes[..cut], &ReplayOptions::default());
        prop_assert!(result.is_err(), "cut at {} accepted", cut);
        let err = result.unwrap_err();
        // Mid-frame cuts must name the interrupted frame exactly.
        if !starts.contains(&cut) {
            let (frame, offset) = starts
                .iter()
                .enumerate()
                .take_while(|(_, start)| **start < cut)
                .map(|(i, start)| (i as u64, *start as u64))
                .last()
                .expect("cut >= 1 lies past the first frame start");
            prop_assert!(
                matches!(
                    err,
                    regmon_serve::ServeError::Wire(WireError::Truncated {
                        offset: o,
                        frame: f,
                    }) if o == offset && f == frame
                ),
                "cut at {} (inside frame {} at offset {}): got {}",
                cut, frame, offset, err
            );
        }
    }
}

/// Byte offsets where each wire frame begins (`[len][crc][type ...]`
/// headers make the stream self-describing without decoding bodies).
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 0;
    while pos + 8 <= bytes.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
    }
    assert_eq!(pos, bytes.len(), "journal ends mid-frame");
    starts
}

/// The whole out-of-process path — wire decode included — is invariant
/// under the SIMD dispatch level: a journal replayed under forced
/// scalar and avx2 dispatch yields byte-identical summaries.
#[test]
fn replay_is_simd_level_invariant() {
    use regmon_stats::{simd, SimdLevel};
    let config = config_for(2, 0, false, 0);
    let before = simd::active();
    let mut reference: Option<String> = None;
    let bytes = journal_bytes(WORKLOADS[0], &config, 12, 3);
    for level in SimdLevel::ALL {
        if simd::force(level) != level {
            continue; // not supported on this host
        }
        let outcome = replay_stream(bytes.as_slice(), &ReplayOptions::default()).unwrap();
        let summary = format!("{:?}", outcome.tenants[0].summary);
        match &reference {
            None => reference = Some(summary),
            Some(expect) => assert_eq!(expect, &summary, "diverged under {}", level.label()),
        }
    }
    simd::force(before);
}

#[test]
fn version_bumped_stream_is_refused() {
    use regmon_serve::wire::{write_frame, Frame};
    let mut bytes = Vec::new();
    write_frame(
        &mut bytes,
        &Frame::Hello {
            version: regmon_serve::WIRE_VERSION + 1,
        },
    )
    .unwrap();
    let err = replay_stream(bytes.as_slice(), &ReplayOptions::default()).unwrap_err();
    let regmon_serve::ServeError::Wire(WireError::BadVersion { got }) = err else {
        panic!("expected BadVersion, got {err}");
    };
    assert_eq!(got, regmon_serve::WIRE_VERSION + 1);
}

#[test]
fn corrupt_snapshot_is_refused() {
    let w = suite::by_name("172.mgrid").unwrap();
    let config = SessionConfig::new(45_000);
    let mut session = MonitoringSession::new(config.clone());
    session.attach_binary(&w);
    for interval in Sampler::new(&w, config.sampling).take(8) {
        session.process_interval(&interval);
    }
    let clean = encode_snapshot(&session.snapshot());
    for idx in (0..clean.len()).step_by(131) {
        let mut bytes = clean.clone();
        bytes[idx] ^= 0x20;
        assert!(
            matches!(decode_snapshot(&bytes), Err(WireError::BadCrc { .. })),
            "flip at {idx} accepted"
        );
    }
    assert!(decode_snapshot(&clean[..clean.len() / 2]).is_err());
}
