//! Frame journals: a wire stream captured to a file.
//!
//! A journal is byte-for-byte the wire stream a producer would send
//! over a socket — `Hello`, then `Admit`/`Batch`/`Finish` frames. That
//! identity is the point: `regmon run --record` writes one, `regmon
//! replay` feeds it through the server's connection state machine
//! in-process, and `regmon send` streams the very same bytes at a live
//! `regmon serve`, so one artifact exercises every ingestion path and
//! all three must agree byte-identically.
//!
//! Journals are **wire-v2**: every `Batch` is a delta-encoded `Batch2`
//! frame. A journal recorded as v1 by an older build fails to read with
//! an error naming the retired format.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use regmon::SessionConfig;
use regmon_sampling::{Interval, Sampler};
use regmon_workload::Workload;

use crate::wire::{write_frame, AdmitFrame, Frame, FrameReader, WireError};

/// Writes a wire stream, one frame at a time. The `Hello` opener is
/// emitted on construction.
#[derive(Debug)]
pub struct JournalWriter<W: Write> {
    inner: W,
}

impl<W: Write> JournalWriter<W> {
    /// Opens a journal on a transport, writing the `Hello` frame.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn new(mut inner: W) -> std::io::Result<Self> {
        write_frame(&mut inner, &Frame::hello())?;
        Ok(Self { inner })
    }

    /// Records a tenant admission.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn admit(&mut self, admit: AdmitFrame) -> std::io::Result<()> {
        self.write(&Frame::Admit(Box::new(admit)))
    }

    /// Records a batch of intervals for a tenant.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn batch(&mut self, tenant: u32, intervals: Vec<Interval>) -> std::io::Result<()> {
        self.write(&Frame::Batch { tenant, intervals })
    }

    /// Records a tenant's end-of-stream.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn finish(&mut self, tenant: u32) -> std::io::Result<()> {
        self.write(&Frame::Finish { tenant })
    }

    fn write(&mut self, frame: &Frame) -> std::io::Result<()> {
        write_frame(&mut self.inner, frame)
    }

    /// Flushes and returns the transport.
    ///
    /// # Errors
    ///
    /// Propagates transport flush failures.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Records a single-tenant run as a journal file: the workload is
/// sampled deterministically (the same [`Sampler`] the in-process run
/// uses) and every interval becomes one `Batch` frame under wire
/// tenant 0.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn record_run(
    path: &Path,
    workload: &Workload,
    config: &SessionConfig,
    max_intervals: usize,
) -> std::io::Result<()> {
    let file = BufWriter::new(File::create(path)?);
    let mut journal = JournalWriter::new(file)?;
    journal.admit(AdmitFrame {
        tenant: 0,
        name: workload.name().to_string(),
        workload: workload.name().to_string(),
        config: config.clone(),
        max_intervals: max_intervals as u64,
    })?;
    for interval in Sampler::new(workload, config.sampling).take(max_intervals) {
        journal.batch(0, vec![interval])?;
    }
    journal.finish(0)?;
    journal.into_inner()?.flush()
}

/// Reads every frame of a journal file, validating checksums and
/// structure along the way.
///
/// # Errors
///
/// Any [`WireError`] the frame layer raises.
pub fn read_journal(path: &Path) -> Result<Vec<Frame>, WireError> {
    let file = BufReader::new(File::open(path).map_err(WireError::Io)?);
    read_frames(file)
}

/// Reads every frame from a transport until clean end-of-stream.
///
/// # Errors
///
/// Any [`WireError`] the frame layer raises.
pub fn read_frames(reader: impl Read) -> Result<Vec<Frame>, WireError> {
    let mut frames = Vec::new();
    let mut reader = FrameReader::new(reader);
    while let Some(frame) = reader.next_frame()? {
        frames.push(frame);
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmon_workload::suite;

    #[test]
    fn recorded_run_is_a_valid_stream() {
        let w = suite::by_name("181.mcf").unwrap();
        let config = SessionConfig::new(450_000);
        let dir = std::env::temp_dir().join("regmon-serve-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("run-{}.rgj", std::process::id()));
        record_run(&path, &w, &config, 8).unwrap();
        let frames = read_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Hello + Admit + 8 batches + Finish.
        assert_eq!(frames.len(), 11);
        assert!(matches!(frames[0], Frame::Hello { .. }));
        match &frames[1] {
            Frame::Admit(admit) => {
                assert_eq!(admit.workload, "181.mcf");
                assert_eq!(admit.config, config);
                assert_eq!(admit.max_intervals, 8);
            }
            other => panic!("expected Admit, got {other:?}"),
        }
        assert!(matches!(frames[10], Frame::Finish { tenant: 0 }));
        // Batches carry the sampler's own intervals, in order.
        let expected: Vec<Interval> = Sampler::new(&w, config.sampling).take(8).collect();
        for (i, frame) in frames[2..10].iter().enumerate() {
            match frame {
                Frame::Batch {
                    tenant: 0,
                    intervals,
                } => {
                    assert_eq!(intervals.as_slice(), &expected[i..=i]);
                }
                other => panic!("expected Batch, got {other:?}"),
            }
        }
    }
}
