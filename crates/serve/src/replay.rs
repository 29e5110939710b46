//! Deterministic replay: re-process a frame journal in-process.
//!
//! Replay is serve without a socket. [`replay_stream`] starts a
//! one-shard in-process [`Server`], feeds every journal frame through
//! the per-connection state machine a live `regmon serve` connection
//! drives, and drains it with [`Server::finish`]. Admission, duplicate
//! dropping, `Finish` and every protocol rule are the server's, so a
//! replayed summary is byte-identical to the same journal streamed at
//! `regmon serve`, and, the pipeline being deterministic, to the
//! in-process run the journal recorded. A replay may be checkpointed
//! mid-stream ([`ReplayOptions::snapshot_at`]) or resumed from a
//! checkpoint ([`ReplayOptions::resume`]) without perturbing the
//! result.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};

use regmon::{SessionConfig, SessionSnapshot, SessionSummary};

use crate::error::ServeError;
use crate::server::{Conn, ServeOptions, Server};
use crate::snapshot::load_snapshot;
use crate::wire::{Frame, FrameReader};

/// Knobs of one replay pass.
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Checkpoint the session after exactly this many processed
    /// intervals (requires [`ReplayOptions::snapshot_out`]; the replay
    /// then continues to the end of the journal).
    pub snapshot_at: Option<usize>,
    /// Where to write the [`ReplayOptions::snapshot_at`] checkpoint.
    pub snapshot_out: Option<PathBuf>,
    /// Resume from a previously written checkpoint: the journal's first
    /// `snapshot.intervals` intervals are skipped and the session
    /// continues from the restored state.
    pub resume: Option<PathBuf>,
}

/// One tenant's replayed session.
#[derive(Debug, Clone)]
pub struct ReplayTenant {
    /// The tenant's display name from its `Admit` frame.
    pub name: String,
    /// The session configuration the frames carried.
    pub config: SessionConfig,
    /// The finished session's summary.
    pub summary: SessionSummary,
}

/// All tenants of a replayed journal, in admission order.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Per-tenant results, in admission order.
    pub tenants: Vec<ReplayTenant>,
    /// Whether the [`ReplayOptions::snapshot_at`] checkpoint was
    /// written. It is not when the journal ends before that interval,
    /// or the interval is at or below the resumed checkpoint's.
    pub snapshot_written: bool,
}

/// Replays a journal file.
///
/// # Errors
///
/// Wire-layer failures, the server's protocol violations, unknown
/// workload names, a journal that admits no session, and a session
/// left without a summary (no `Finish`, or a `Checkpoint` took it).
pub fn replay(path: &Path, options: &ReplayOptions) -> Result<ReplayOutcome, ServeError> {
    let file = BufReader::new(File::open(path)?);
    replay_stream(file, options)
}

/// Replays a wire stream from any transport.
///
/// # Errors
///
/// See [`replay`].
pub fn replay_stream(
    reader: impl Read,
    options: &ReplayOptions,
) -> Result<ReplayOutcome, ServeError> {
    if options.snapshot_at.is_some() && options.snapshot_out.is_none() {
        return Err(ServeError::Protocol(
            "snapshot_at requires snapshot_out".into(),
        ));
    }
    let resume = options.resume.as_deref().map(load_snapshot).transpose()?;
    let server = Server::new(ServeOptions {
        shards: 1,
        ..ServeOptions::default()
    });
    // The engine has no `Drop`: a failed replay finishes the server
    // too, so its shard thread is joined.
    let fed = feed(&server, reader, options, resume);
    let report = server.finish();
    let snapshot_written = fed?;
    if report.sessions.is_empty() {
        return Err(ServeError::Protocol(
            "empty journal: it admits no session".into(),
        ));
    }
    let tenants = report
        .sessions
        .into_iter()
        .map(|session| {
            let summary = session.summary.ok_or_else(|| {
                ServeError::Protocol(format!(
                    "journal ended without a summary for tenant {:?}",
                    session.name
                ))
            })?;
            Ok(ReplayTenant {
                name: session.name,
                config: session.config,
                summary,
            })
        })
        .collect::<Result<_, ServeError>>()?;
    Ok(ReplayOutcome {
        tenants,
        snapshot_written,
    })
}

/// Feeds every journal frame through one connection's state machine,
/// with no WAL record and replies dropped. `--snapshot-at` splits the
/// batch that crosses it and snapshots the session between the halves.
/// Returns whether that snapshot was written.
fn feed(
    server: &Server,
    reader: impl Read,
    options: &ReplayOptions,
    resume: Option<SessionSnapshot>,
) -> Result<bool, ServeError> {
    let single_tenant = options.snapshot_at.is_some() || resume.is_some();
    let covered = resume.as_ref().map_or(0, |base| base.intervals);
    let mut snapshot_at = options.snapshot_at.filter(|&n| n > covered);
    let mut written = false;
    let mut conn = Conn::new();
    conn.base = resume;
    let mut opened = false;
    let mut reader = FrameReader::new(reader);
    while let Some(mut frame) = reader.next_frame()? {
        if matches!(frame, Frame::Admit(_) | Frame::Snapshot(_)) {
            if single_tenant && opened {
                return Err(ServeError::Protocol(
                    "snapshot/resume replay requires a single-tenant journal".into(),
                ));
            }
            opened = true;
        }
        if let (Frame::Admit(admit), Some(base)) = (&frame, &conn.base) {
            if base.config != admit.config {
                return Err(ServeError::Protocol(
                    "resume snapshot config differs from the journal's Admit".into(),
                ));
            }
        }
        if let (Some(n), Frame::Batch { tenant, intervals }) = (snapshot_at, &mut frame) {
            if let Some(at) = intervals.iter().position(|i| i.index + 1 == n) {
                let rest = Frame::Batch {
                    tenant: *tenant,
                    intervals: intervals.split_off(at + 1),
                };
                conn.on_frame(frame, &[], server, false)?;
                let out = options.snapshot_out.as_deref().expect("checked on entry");
                server.snapshot_to(0, out)?;
                snapshot_at = None;
                written = true;
                frame = rest;
            }
        }
        conn.on_frame(frame, &[], server, false)?;
        conn.out.clear();
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::record_run;
    use regmon::MonitoringSession;
    use regmon_workload::suite;

    fn temp_path(stem: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("regmon-serve-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{stem}-{}.bin", std::process::id()))
    }

    #[test]
    fn replay_matches_in_process_run() {
        let w = suite::by_name("172.mgrid").unwrap();
        let config = SessionConfig::new(45_000);
        let journal = temp_path("journal");
        record_run(&journal, &w, &config, 25).unwrap();

        let direct = MonitoringSession::run_limited(&w, &config, 25);
        let outcome = replay(&journal, &ReplayOptions::default()).unwrap();
        std::fs::remove_file(&journal).ok();

        assert_eq!(outcome.tenants.len(), 1);
        let replayed = &outcome.tenants[0];
        assert_eq!(replayed.config, config);
        assert_eq!(format!("{:?}", replayed.summary), format!("{direct:?}"));
    }

    #[test]
    fn snapshot_then_resume_matches_straight_replay() {
        let w = suite::by_name("181.mcf").unwrap();
        let config = SessionConfig::new(450_000);
        let journal = temp_path("snapjournal");
        let checkpoint = temp_path("checkpoint");
        record_run(&journal, &w, &config, 30).unwrap();

        let straight = replay(&journal, &ReplayOptions::default()).unwrap();
        let with_snapshot = replay(
            &journal,
            &ReplayOptions {
                snapshot_at: Some(11),
                snapshot_out: Some(checkpoint.clone()),
                resume: None,
            },
        )
        .unwrap();
        let resumed = replay(
            &journal,
            &ReplayOptions {
                snapshot_at: None,
                snapshot_out: None,
                resume: Some(checkpoint.clone()),
            },
        )
        .unwrap();
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&checkpoint).ok();

        assert!(with_snapshot.snapshot_written && !straight.snapshot_written);
        let a = format!("{:?}", straight.tenants[0].summary);
        assert_eq!(a, format!("{:?}", with_snapshot.tenants[0].summary));
        assert_eq!(a, format!("{:?}", resumed.tenants[0].summary));
    }

    #[test]
    fn journal_without_finish_is_rejected() {
        let w = suite::by_name("181.mcf").unwrap();
        let config = SessionConfig::new(450_000);
        let journal = temp_path("nofinish");
        record_run(&journal, &w, &config, 4).unwrap();
        // Chop the trailing Finish frame (13 bytes: 8 header + 5 body).
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() - 13]).unwrap();
        let err = replay(&journal, &ReplayOptions::default()).unwrap_err();
        std::fs::remove_file(&journal).ok();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    }
}
