//! Deterministic replay: re-process a frame journal in-process.
//!
//! Replay drives the same [`MonitoringSession`] pipeline as
//! `regmon run`, but fed from decoded `Batch` frames instead of a live
//! [`regmon_sampling::Sampler`]. Because the wire codec is bit-exact,
//! replaying a recorded journal produces *byte-identical* summaries to
//! the in-process run that the journal captured — and a replay may be
//! checkpointed mid-stream ([`ReplayOptions::snapshot_at`]) or resumed
//! from a checkpoint ([`ReplayOptions::resume`]) without perturbing the
//! result.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};

use regmon::{MonitoringSession, SessionConfig, SessionSummary};
use regmon_workload::suite;

use crate::error::ServeError;
use crate::snapshot::{load_snapshot, save_snapshot};
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
}

struct TenantReplay {
    wire_id: u32,
    name: String,
    config: SessionConfig,
    session: MonitoringSession,
    processed: usize,
    skip: usize,
    summary: Option<SessionSummary>,
}

/// Replays a journal file.
///
/// # Errors
///
/// Wire-layer failures, protocol violations (an empty stream, frames
/// out of order, unknown tenants, missing `Finish`) and unknown
/// workload names.
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
    let single_tenant_only = options.snapshot_at.is_some() || options.resume.is_some();
    let resume = options.resume.as_deref().map(load_snapshot).transpose()?;

    let mut reader = FrameReader::new(reader);
    let mut saw_hello = false;
    let mut tenants: Vec<TenantReplay> = Vec::new();

    while let Some(frame) = reader.next_frame()? {
        match frame {
            Frame::Hello { .. } => {
                if saw_hello {
                    return Err(ServeError::Protocol("duplicate Hello frame".into()));
                }
                saw_hello = true;
            }
            _ if !saw_hello => {
                return Err(ServeError::Protocol(
                    "stream must open with a Hello frame".into(),
                ));
            }
            Frame::Admit(admit) => {
                if tenants.iter().any(|t| t.wire_id == admit.tenant) {
                    return Err(ServeError::Protocol(format!(
                        "duplicate Admit for tenant {}",
                        admit.tenant
                    )));
                }
                if single_tenant_only && !tenants.is_empty() {
                    return Err(ServeError::Protocol(
                        "snapshot/resume replay requires a single-tenant journal".into(),
                    ));
                }
                let workload = suite::by_name(&admit.workload)
                    .ok_or_else(|| ServeError::UnknownWorkload(admit.workload.clone()))?;
                let (session, skip) = match &resume {
                    Some(snapshot) => {
                        if snapshot.config != admit.config {
                            return Err(ServeError::Protocol(
                                "resume snapshot config differs from the journal's Admit".into(),
                            ));
                        }
                        crate::snapshot::check_regions(&admit.name, snapshot, workload.binary())?;
                        let skip = snapshot.intervals;
                        (MonitoringSession::from_snapshot(snapshot.clone()), skip)
                    }
                    None => (MonitoringSession::new(admit.config.clone()), 0),
                };
                let mut tenant = TenantReplay {
                    wire_id: admit.tenant,
                    name: admit.name,
                    config: admit.config,
                    session,
                    processed: 0,
                    skip,
                    summary: None,
                };
                tenant.session.attach_binary(&workload);
                tenants.push(tenant);
            }
            Frame::Batch {
                tenant: id,
                intervals,
            } => {
                let tenant = tenants
                    .iter_mut()
                    .find(|t| t.wire_id == id)
                    .ok_or_else(|| {
                        ServeError::Protocol(format!("Batch for unadmitted tenant {id}"))
                    })?;
                if tenant.summary.is_some() {
                    return Err(ServeError::Protocol(format!(
                        "Batch after Finish for tenant {id}"
                    )));
                }
                for interval in &intervals {
                    if tenant.skip > 0 {
                        tenant.skip -= 1;
                        continue;
                    }
                    tenant.session.process_interval(interval);
                    tenant.processed += 1;
                    if options.snapshot_at == Some(tenant.session.intervals()) {
                        let out = options.snapshot_out.as_deref().expect("checked at entry");
                        save_snapshot(out, &tenant.session.snapshot())?;
                    }
                }
            }
            Frame::Finish { tenant: id } => {
                let tenant = tenants
                    .iter_mut()
                    .find(|t| t.wire_id == id)
                    .ok_or_else(|| {
                        ServeError::Protocol(format!("Finish for unadmitted tenant {id}"))
                    })?;
                if tenant.summary.is_some() {
                    return Err(ServeError::Protocol(format!(
                        "duplicate Finish for tenant {id}"
                    )));
                }
                tenant.summary = Some(tenant.session.summary(&tenant.name.clone()));
            }
            Frame::Snapshot(_)
            | Frame::Checkpoint { .. }
            | Frame::Resume(_)
            | Frame::ResumeAck { .. }
            | Frame::Busy { .. } => {
                // Migration / reconnect frames belong to a live server
                // conversation, not a recorded journal.
                return Err(ServeError::Protocol(
                    "live-connection frame in a replay journal".into(),
                ));
            }
        }
    }
    if !saw_hello {
        return Err(ServeError::Protocol(
            "empty journal: the stream ended before its Hello frame".into(),
        ));
    }

    tenants
        .into_iter()
        .map(|t| {
            let summary = t.summary.ok_or_else(|| {
                ServeError::Protocol(format!(
                    "journal ended before Finish for tenant {}",
                    t.wire_id
                ))
            })?;
            Ok(ReplayTenant {
                name: t.name,
                config: t.config,
                summary,
            })
        })
        .collect::<Result<Vec<_>, ServeError>>()
        .map(|tenants| ReplayOutcome { tenants })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::record_run;
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
