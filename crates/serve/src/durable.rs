//! Durable serve: per-tenant write-ahead logs and atomic checkpoints.
//!
//! `regmon serve --durable DIR` makes ingestion crash-safe. Every
//! admitted session gets its own WAL file (`session-NNNN.wal`) holding
//! its wire frames byte for byte as they arrived — the opener (`Admit`
//! or `Snapshot`), each `Batch` that carried a new interval (whole, so
//! a batch re-sent in part keeps its duplicates), and the closing
//! `Finish` or `Checkpoint`. Each record is the `[len][crc32][body]`
//! span the frame's CRC was checked over, so the WAL inherits the
//! codec's bit-exactness and corruption detection for free, and
//! recovery is a replay of the frames through the live connection
//! state machine, which drops the duplicates again. Records are
//! wire-v2; a WAL of v1 records from an older build fails recovery
//! with an error naming the retired format.
//!
//! Periodically (every [`DurableOptions::checkpoint_every`] intervals)
//! the server additionally snapshots the live session into
//! `session-NNNN.rgsn` via tmp+rename rotation: the checkpoint is
//! either the complete old one or the complete new one, never a torn
//! mix. Recovery starts from the checkpoint when present and valid, and
//! the WAL records it covers replay as duplicates — a corrupt or
//! missing checkpoint silently falls back to full WAL replay.
//!
//! Torn WAL tails are expected (that is what a crash looks like) and
//! never fatal: [`read_wal`] stops at the first record whose envelope
//! fails (cut short, a zero or over-cap length, a checksum mismatch)
//! and truncates the file back to the last complete one, so the
//! reopened WAL appends cleanly. A record whose checksum holds but
//! whose payload does not decode (an unknown frame type, a bad column
//! code) is no torn tail but a format this build does not read, and
//! fails instead.
//!
//! WAL appends go straight to the file descriptor — no user-space
//! buffering — so everything a client was acknowledged past survives a
//! `SIGKILL` of the serve process. The fsync policy only matters for
//! power loss: [`FsyncPolicy::Checkpoint`] (the default) syncs at
//! checkpoint boundaries and on finish, [`FsyncPolicy::Always`] after
//! every record, [`FsyncPolicy::Never`] leaves flushing to the OS.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use regmon::SessionSnapshot;

use crate::snapshot::{decode_snapshot, encode_snapshot};
use crate::wire::{Frame, FrameReader, WireError};

/// When durable serve calls `fsync` on its WAL and checkpoint files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every WAL record (safest, slowest).
    Always,
    /// `fsync` at checkpoint boundaries and on session finish (the
    /// default; records already survive process death without it).
    #[default]
    Checkpoint,
    /// Never `fsync`; the OS flushes on its own schedule.
    Never,
}

impl FsyncPolicy {
    /// Parses a policy name.
    ///
    /// # Errors
    ///
    /// An unknown spelling, with the accepted ones listed.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(Self::Always),
            "checkpoint" => Ok(Self::Checkpoint),
            "never" => Ok(Self::Never),
            other => Err(format!(
                "unknown fsync policy {other:?} (accepted: \"always\", \"checkpoint\", \"never\")"
            )),
        }
    }

    /// Canonical display name.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Always => "always",
            Self::Checkpoint => "checkpoint",
            Self::Never => "never",
        }
    }
}

/// Durability knobs for one serve run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableOptions {
    /// Directory holding the per-session WAL and checkpoint files
    /// (created if missing).
    pub dir: PathBuf,
    /// Write an atomic RGSN checkpoint every this many ingested
    /// intervals per session (0 disables periodic checkpoints; the WAL
    /// alone still recovers everything).
    pub checkpoint_every: u64,
    /// When to `fsync`.
    pub fsync: FsyncPolicy,
}

impl DurableOptions {
    /// Durability rooted at `dir` with default checkpoint cadence and
    /// fsync policy.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            checkpoint_every: 32,
            fsync: FsyncPolicy::default(),
        }
    }
}

/// The WAL file backing session slot `slot`.
#[must_use]
pub fn wal_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("session-{slot:04}.wal"))
}

/// The checkpoint file backing session slot `slot`.
#[must_use]
pub fn checkpoint_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("session-{slot:04}.rgsn"))
}

/// An append handle on one session's WAL.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    fsync: FsyncPolicy,
    /// Intervals appended since the last durable checkpoint (drives
    /// the periodic-checkpoint cadence across recoveries).
    pub(crate) since_checkpoint: u64,
}

impl WalWriter {
    /// Creates the WAL for a fresh session; an existing file at that
    /// slot is an error, never truncated.
    pub(crate) fn create(dir: &Path, slot: usize, fsync: FsyncPolicy) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(wal_path(dir, slot))?;
        Ok(Self {
            file,
            fsync,
            since_checkpoint: 0,
        })
    }

    /// Reopens a recovered WAL for further appends.
    pub(crate) fn open_append(path: &Path, fsync: FsyncPolicy) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self {
            file,
            fsync,
            since_checkpoint: 0,
        })
    }

    /// Appends one record (a frame's wire bytes as they arrived),
    /// unbuffered, write-ahead of the engine.
    pub(crate) fn append(&mut self, record: &[u8]) -> std::io::Result<()> {
        self.file.write_all(record)?;
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data()?;
        }
        if regmon_telemetry::enabled() {
            regmon_telemetry::metrics::WAL_RECORDS.inc();
        }
        Ok(())
    }

    /// Syncs at a policy boundary (checkpoint written, session
    /// finished). No-op under [`FsyncPolicy::Never`].
    pub(crate) fn sync_boundary(&mut self) -> std::io::Result<()> {
        if self.fsync != FsyncPolicy::Never {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

/// Splits a WAL byte image into its complete, CRC-valid frames and the
/// byte length they span. Anything past the returned length — a short
/// header, a short body, a zero or over-cap length, a checksum
/// mismatch — is a torn tail: the crash interrupted an append
/// mid-record.
///
/// # Errors
///
/// The decode error of a record whose checksum holds but whose payload
/// does not decode: no crash writes one, so treating it as torn would
/// silently drop it and every record after it.
pub fn parse_wal(bytes: &[u8]) -> Result<(Vec<Frame>, usize), WireError> {
    let mut reader = FrameReader::new(bytes);
    let mut frames = Vec::new();
    let mut good = 0;
    loop {
        match reader.next_frame() {
            Ok(Some(frame)) => {
                frames.push(frame);
                good = reader.bytes_read() as usize;
            }
            Ok(None) => break,
            Err(e) if e.is_envelope() => break,
            Err(e) => return Err(e),
        }
    }
    Ok((frames, good))
}

/// One recovered WAL file.
#[derive(Debug)]
pub struct WalRecovery {
    /// The complete records, in append order.
    pub frames: Vec<Frame>,
    /// Torn-tail bytes dropped from the end of the file (`0` when the
    /// WAL ended exactly on a record boundary).
    pub torn_bytes: u64,
}

/// Reads a WAL file, truncating any torn tail in place so the file
/// ends exactly on the last complete record (never fatal — that is the
/// normal post-crash state).
///
/// # Errors
///
/// Filesystem failures, and [`std::io::ErrorKind::InvalidData`] naming
/// the path and the decode error when [`parse_wal`] meets a checksummed
/// record that does not decode (a wire-v1 batch or a compressed frame
/// from an older build, an unknown column code). The file is left as
/// it is.
pub fn read_wal(path: &Path) -> std::io::Result<WalRecovery> {
    let bytes = std::fs::read(path)?;
    let (frames, good) = parse_wal(&bytes).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })?;
    let torn = (bytes.len() - good) as u64;
    if torn > 0 {
        OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(good as u64)?;
    }
    Ok(WalRecovery {
        frames,
        torn_bytes: torn,
    })
}

/// Atomically replaces the checkpoint at `path` with `snapshot`
/// (write to `.tmp`, optionally fsync, rename over the old one).
pub(crate) fn write_checkpoint(
    path: &Path,
    snapshot: &SessionSnapshot,
    fsync: FsyncPolicy,
) -> std::io::Result<()> {
    let tmp = path.with_extension("rgsn.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&encode_snapshot(snapshot))?;
    if fsync != FsyncPolicy::Never {
        file.sync_data()?;
    }
    drop(file);
    std::fs::rename(&tmp, path)
}

/// Loads session `slot`'s checkpoint if one exists and validates
/// (missing or corrupt checkpoints degrade to full WAL replay).
#[must_use]
pub(crate) fn load_checkpoint(dir: &Path, slot: usize) -> Option<SessionSnapshot> {
    let bytes = std::fs::read(checkpoint_path(dir, slot)).ok()?;
    decode_snapshot(&bytes).ok()
}

/// Lists the WAL files under `dir` in slot order (slot order is
/// admission order — recovery re-admits sessions exactly as the
/// crashed process did).
///
/// # Errors
///
/// Filesystem failures (a missing directory recovers zero sessions).
pub fn wal_slots(dir: &Path) -> std::io::Result<Vec<(usize, PathBuf)>> {
    let mut slots = session_files(dir)?;
    slots.retain(|(_, path)| path.extension().is_some_and(|x| x == "wal"));
    Ok(slots)
}

/// Refuses a `dir` that an earlier run left a session file in (a WAL or
/// a checkpoint): a server starting fresh must not adopt them.
///
/// # Errors
///
/// [`std::io::ErrorKind::AlreadyExists`] naming the first such file and
/// `--recover DIR`; filesystem failures (a missing directory is unused).
pub(crate) fn refuse_used(dir: &Path) -> std::io::Result<()> {
    match session_files(dir)?.first() {
        None => Ok(()),
        Some((_, path)) => Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!(
                "{} is left from an earlier run; resume it with --recover {}, \
                 or serve into an empty directory",
                path.display(),
                dir.display()
            ),
        )),
    }
}

/// Every `session-NNNN.wal` and `session-NNNN.rgsn` under `dir`, sorted
/// by slot (a checkpoint before its WAL).
fn session_files(dir: &Path) -> std::io::Result<Vec<(usize, PathBuf)>> {
    let mut files = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(files),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(slot) = name
            .strip_prefix("session-")
            .and_then(|rest| rest.strip_suffix(".wal").or(rest.strip_suffix(".rgsn")))
            .and_then(|digits| digits.parse::<usize>().ok())
        {
            files.push((slot, path));
        }
    }
    files.sort_unstable();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::AdmitFrame;
    use regmon::SessionConfig;

    fn temp_dir(stem: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "regmon-serve-durable-test-{stem}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Admit(Box::new(AdmitFrame {
                tenant: 0,
                name: "t0".into(),
                workload: "172.mgrid".into(),
                config: SessionConfig::new(45_000),
                max_intervals: 3,
            })),
            Frame::Finish { tenant: 0 },
        ]
    }

    #[test]
    fn wal_round_trips_and_truncates_torn_tails() {
        let dir = temp_dir("roundtrip");
        let mut wal = WalWriter::create(&dir, 0, FsyncPolicy::Never).unwrap();
        let frames = sample_frames();
        for frame in &frames {
            wal.append(&frame.encode()).unwrap();
        }
        drop(wal);
        let path = wal_path(&dir, 0);
        let clean = read_wal(&path).unwrap();
        assert_eq!(clean.frames, frames);
        assert_eq!(clean.torn_bytes, 0);

        // A torn tail (half a record) truncates back to the boundary.
        let mut bytes = std::fs::read(&path).unwrap();
        let good = bytes.len();
        bytes.extend_from_slice(&frames[1].encode()[..5]);
        std::fs::write(&path, &bytes).unwrap();
        let torn = read_wal(&path).unwrap();
        assert_eq!(torn.frames, frames);
        assert_eq!(torn.torn_bytes, 5);
        assert_eq!(std::fs::read(&path).unwrap().len(), good);

        // A zero-filled tail (a length word of 0) and a length word over
        // the cap are failed envelopes too, so they truncate the same way.
        let mut over_cap = (crate::wire::MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        over_cap.extend_from_slice(&[0u8; 8]);
        for tail in [vec![0u8; 12], over_cap] {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend_from_slice(&tail);
            std::fs::write(&path, &bytes).unwrap();
            let torn = read_wal(&path).unwrap();
            assert_eq!(torn.frames, frames);
            assert_eq!(torn.torn_bytes, tail.len() as u64);
            assert_eq!(std::fs::read(&path).unwrap().len(), good);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_with_a_retired_frame_type_fails_and_is_kept() {
        // An older build's v1 WAL: an Admit (spelled as in v2), then a
        // checksummed wire-v1 batch record (type 3). Recovery refuses
        // it by name instead of truncating the batch away as torn.
        let dir = temp_dir("retired");
        let path = wal_path(&dir, 0);
        let mut bytes = sample_frames()[0].encode();
        let body = [3u8, 0, 0, 0, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crate::crc::crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        std::fs::write(&path, &bytes).unwrap();
        let err = read_wal(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("wire v1 is no longer read"),
            "{err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksummed_record_that_does_not_decode_fails_and_is_kept() {
        // A Batch record whose first column code names no layout, re-
        // sealed with a matching CRC: the envelope holds, so this is no
        // torn tail, and recovery must not cut it and the Finish after
        // it away.
        let dir = temp_dir("bad-column");
        let path = wal_path(&dir, 0);
        let batch = Frame::Batch {
            tenant: 0,
            intervals: vec![regmon::sampling::Interval {
                index: 0,
                start_cycle: 0,
                end_cycle: 90_000,
                samples: (0..4u64)
                    .map(|k| regmon::sampling::PcSample {
                        addr: regmon_binary::Addr::new(0x1000 + 4 * k),
                        cycle: 45_000 + k,
                    })
                    .collect(),
            }],
        };
        let mut record = batch.encode();
        // Envelope (8) + type, tenant, count (9) + index, start, end
        // (24) + sample count (4): the address column's code.
        record[45] = 0x07;
        let crc = crate::crc::crc32(&record[8..]);
        record[4..8].copy_from_slice(&crc.to_le_bytes());
        let [admit, finish] = <[Frame; 2]>::try_from(sample_frames()).unwrap();
        let bytes = [admit.encode(), record, finish.encode()].concat();
        std::fs::write(&path, &bytes).unwrap();
        let err = read_wal(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let text = err.to_string();
        assert!(text.contains(&path.display().to_string()), "{text}");
        assert!(text.contains("bad column width"), "{text}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        // The same record with its CRC left stale is a torn tail.
        let mut stale = bytes.clone();
        stale[admit.encode().len() + 45] = 0x01;
        std::fs::write(&path, &stale).unwrap();
        let torn = read_wal(&path).unwrap();
        assert_eq!(torn.frames, vec![admit]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotation_is_atomic_and_lenient() {
        let dir = temp_dir("checkpoint");
        assert!(load_checkpoint(&dir, 0).is_none());
        let snapshot = regmon::MonitoringSession::new(SessionConfig::new(45_000)).snapshot();
        let path = checkpoint_path(&dir, 0);
        write_checkpoint(&path, &snapshot, FsyncPolicy::Checkpoint).unwrap();
        let loaded = load_checkpoint(&dir, 0).unwrap();
        assert_eq!(loaded.intervals, snapshot.intervals);
        // Corrupt checkpoints degrade to None (full WAL replay).
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_checkpoint(&dir, 0).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_slots_sort_by_admission_order() {
        let dir = temp_dir("slots");
        for slot in [2usize, 0, 1] {
            WalWriter::create(&dir, slot, FsyncPolicy::Never).unwrap();
        }
        std::fs::write(dir.join("not-a-wal.txt"), b"x").unwrap();
        let slots = wal_slots(&dir).unwrap();
        assert_eq!(
            slots.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(wal_slots(Path::new("/nonexistent/regmon-wal-dir"))
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
