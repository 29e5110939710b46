//! A reconnecting wire client with deterministic backoff and resume.
//!
//! `regmon send` / `regmon migrate` (and the fault-injection suite)
//! stream sessions through [`send_plan`]: the journal's frames are
//! grouped per session ([`SendPlan`]), re-encoded with
//! [`Frame::encode`], and — when a retry budget is configured — every
//! transport failure triggers a reconnect with deterministic exponential
//! backoff (`backoff · 2^attempt`, no jitter: the retry schedule of a
//! run is reproducible). Each connection opens with a v2 `Hello` and waits for
//! the server's `Hello` answer; nothing is negotiated.
//!
//! On reconnect the client does not blindly replay. It sends a wire-v2
//! `Resume` frame naming each session; the server answers `ResumeAck`
//! with the first interval index it has not folded in, and the client
//! re-streams exactly the tail past that position. Server-side
//! duplicate-interval dropping backstops the protocol, so delivery is
//! effectively exactly-once: no duplicate and no lost intervals, no
//! matter where the connection died.
//!
//! A [`FaultPlan`](crate::fault::FaultPlan) can be threaded through to
//! mangle chosen frames at this wire boundary — the fault suite drives
//! the exact code paths a flaky network would.

use std::io::{Read, Write};
use std::time::Duration;

use regmon_sampling::Interval;

use crate::fault::{FaultKind, FaultPlan};
use crate::wire::{read_frame, AdmitFrame, Frame, SnapshotFrame, WireError};

/// Reconnect policy for one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect attempts after the first (0 = fail on the first drop).
    pub retries: u32,
    /// Socket read deadline for `Hello` and resume replies (the
    /// connect callback is expected to arm it on each new stream).
    pub timeout: Duration,
    /// Base backoff; attempt `n` sleeps `backoff · 2^n` before
    /// reconnecting. Deterministic — no jitter.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            retries: 0,
            timeout: Duration::from_millis(5_000),
            backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff slept before reconnect `attempt`
    /// (zero-based), capped at `backoff · 2^10`.
    #[must_use]
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        self.backoff * (1u32 << attempt.min(10))
    }
}

/// One session's worth of frames, in stream order.
#[derive(Debug, Clone)]
pub struct SessionStream {
    /// The admission parameters (also the `Resume` payload).
    pub admit: AdmitFrame,
    /// Encoded RGSN blob when the session opens with a `Snapshot`
    /// frame (migration suffix) instead of `Admit`.
    pub snapshot: Option<Vec<u8>>,
    /// First interval index this stream carries (non-zero only for
    /// snapshot-opened sessions).
    pub base: u64,
    /// Interval batches, preserving the journal's partition (frame
    /// counts stay comparable run to run).
    pub batches: Vec<Vec<Interval>>,
    /// Close with a `Finish` frame.
    pub finish: bool,
    /// Close with a `Checkpoint` frame instead and collect the
    /// server's `Snapshot` reply (migration prefix).
    pub checkpoint: bool,
}

impl SessionStream {
    fn intervals(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }
}

/// Everything one send streams: sessions in admission order.
#[derive(Debug, Clone)]
pub struct SendPlan {
    /// The sessions, in the order their openers appeared.
    pub sessions: Vec<SessionStream>,
}

impl SendPlan {
    /// Groups a decoded journal into per-session streams.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] on malformed journals (batches for
    /// unadmitted tenants, duplicate tenants, live-connection frames).
    pub fn from_frames(frames: Vec<Frame>) -> Result<Self, ClientError> {
        let mut sessions: Vec<SessionStream> = Vec::new();
        let mut slot_of = std::collections::HashMap::new();
        let slot = |slot_of: &std::collections::HashMap<u32, usize>, tenant, what| {
            slot_of.get(&tenant).copied().ok_or_else(|| {
                ClientError::Protocol(format!("{what} for unadmitted tenant {tenant}"))
            })
        };
        for frame in frames {
            let (admit, snapshot, base) = match frame {
                Frame::Hello { .. } => continue,
                Frame::Admit(admit) => (*admit, None, 0),
                Frame::Snapshot(snap) => {
                    let decoded = crate::snapshot::decode_snapshot(&snap.snapshot)
                        .map_err(|e| ClientError::Protocol(format!("snapshot frame: {e}")))?;
                    let admit = AdmitFrame {
                        tenant: snap.tenant,
                        name: snap.name,
                        workload: snap.workload,
                        config: decoded.config,
                        max_intervals: snap.max_intervals,
                    };
                    (admit, Some(snap.snapshot), decoded.intervals as u64)
                }
                Frame::Batch { tenant, intervals } => {
                    sessions[slot(&slot_of, tenant, "Batch")?]
                        .batches
                        .push(intervals);
                    continue;
                }
                Frame::Finish { tenant } => {
                    sessions[slot(&slot_of, tenant, "Finish")?].finish = true;
                    continue;
                }
                Frame::Checkpoint { tenant } => {
                    sessions[slot(&slot_of, tenant, "Checkpoint")?].checkpoint = true;
                    continue;
                }
                other @ (Frame::Resume(_) | Frame::ResumeAck { .. } | Frame::Busy { .. }) => {
                    return Err(ClientError::Protocol(format!(
                        "live-connection frame {other:?} in a journal"
                    )));
                }
            };
            if slot_of.insert(admit.tenant, sessions.len()).is_some() {
                return Err(ClientError::Protocol(format!(
                    "duplicate Admit for tenant {}",
                    admit.tenant
                )));
            }
            sessions.push(SessionStream {
                admit,
                snapshot,
                base,
                batches: Vec::new(),
                finish: false,
                checkpoint: false,
            });
        }
        Ok(Self { sessions })
    }
}

/// What a completed send delivered.
#[derive(Debug, Clone)]
pub struct SendOutcome {
    /// Wire frames written, cumulative across reconnect attempts.
    pub frames: u64,
    /// Wire bytes written, cumulative across reconnect attempts.
    pub bytes: u64,
    /// Unique intervals delivered (duplicates re-sent on resume are
    /// not double-counted).
    pub intervals: u64,
    /// Reconnect attempts used (0 = first connection succeeded).
    pub retries: u32,
    /// Per session: the `Snapshot` reply when
    /// [`SessionStream::checkpoint`] asked for one.
    pub snapshots: Vec<Option<SnapshotFrame>>,
}

/// Why a send gave up.
#[derive(Debug)]
pub enum ClientError {
    /// The connection died and the retry budget is exhausted. Carries
    /// the exact position for the operator: cumulative wire frame
    /// index and intervals put on the wire.
    Dropped {
        /// Wire frames written before the failure (all attempts).
        frame: u64,
        /// Intervals put on the wire before the failure (all
        /// attempts, duplicates included).
        intervals: u64,
        /// Connection attempts made.
        attempts: u32,
        /// The final transport failure.
        reason: String,
    },
    /// The server violated the protocol (wrong reply frame, config
    /// mismatch); retrying cannot help.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Dropped {
                frame,
                intervals,
                attempts,
                reason,
            } => write!(
                f,
                "connection dropped at frame {frame} ({intervals} interval(s) sent) \
                 after {attempts} attempt(s): {reason}"
            ),
            Self::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

enum AttemptFail {
    /// Transport-level: reconnect and resume.
    Retry(String),
    /// Protocol-level: give up now.
    Fatal(ClientError),
}

#[derive(Debug, Default)]
struct Totals {
    frames: u64,
    bytes: u64,
    intervals_sent: u64,
}

/// Streams a plan to a server, reconnecting and resuming on failure.
///
/// `connect` opens a fresh transport per attempt (it should arm
/// [`RetryPolicy::timeout`] as the socket read deadline). With `resume`,
/// even the first attempt opens with a `Resume` handshake instead of
/// blind openers — for continuing a stream a previous process started.
///
/// # Errors
///
/// [`ClientError::Dropped`] when the retry budget is exhausted (with
/// the frame / interval position reached), [`ClientError::Protocol`]
/// on non-retryable protocol violations.
pub fn send_plan<S, C>(
    mut connect: C,
    plan: &SendPlan,
    policy: &RetryPolicy,
    resume: bool,
    mut faults: Option<&mut FaultPlan>,
) -> Result<SendOutcome, ClientError>
where
    S: Read + Write,
    C: FnMut() -> std::io::Result<S>,
{
    let telemetry_on = regmon_telemetry::enabled();
    let mut totals = Totals::default();
    let mut snapshots: Vec<Option<SnapshotFrame>> = vec![None; plan.sessions.len()];
    let mut attempt = 0u32;
    loop {
        let outcome = run_attempt(
            &mut connect,
            plan,
            attempt > 0 || resume,
            &mut totals,
            &mut snapshots,
            &mut faults,
        );
        match outcome {
            Ok(()) => {
                return Ok(SendOutcome {
                    frames: totals.frames,
                    bytes: totals.bytes,
                    intervals: plan.sessions.iter().map(SessionStream::intervals).sum(),
                    retries: attempt,
                    snapshots,
                });
            }
            Err(AttemptFail::Fatal(e)) => return Err(e),
            Err(AttemptFail::Retry(reason)) => {
                if attempt >= policy.retries {
                    return Err(ClientError::Dropped {
                        frame: totals.frames,
                        intervals: totals.intervals_sent,
                        attempts: attempt + 1,
                        reason,
                    });
                }
                if telemetry_on {
                    regmon_telemetry::metrics::SEND_RETRIES.inc();
                }
                std::thread::sleep(policy.backoff_before(attempt));
                attempt += 1;
            }
        }
    }
}

fn run_attempt<S, C>(
    connect: &mut C,
    plan: &SendPlan,
    resuming: bool,
    totals: &mut Totals,
    snapshots: &mut [Option<SnapshotFrame>],
    faults: &mut Option<&mut FaultPlan>,
) -> Result<(), AttemptFail>
where
    S: Read + Write,
    C: FnMut() -> std::io::Result<S>,
{
    let mut stream = connect().map_err(|e| AttemptFail::Retry(format!("connect: {e}")))?;
    let mut buf = Vec::with_capacity(64 * 1024);
    push_frame(&mut stream, &mut buf, &Frame::hello(), totals, faults)?;
    flush(&mut stream, &mut buf)?;
    match read_reply(&mut stream, "hello")? {
        Frame::Hello { .. } => {}
        other => {
            return Err(AttemptFail::Fatal(ClientError::Protocol(format!(
                "expected a Hello answer, got {other:?}"
            ))))
        }
    }

    for (slot, session) in plan.sessions.iter().enumerate() {
        let tenant = session.admit.tenant;
        let mut next = session.base;
        if !resuming {
            open_session(&mut stream, &mut buf, session, totals, faults)?;
        } else {
            // Reconnect: ask where this session's stream left off.
            push_frame(
                &mut stream,
                &mut buf,
                &Frame::Resume(Box::new(session.admit.clone())),
                totals,
                faults,
            )?;
            flush(&mut stream, &mut buf)?;
            match read_reply(&mut stream, "resume")? {
                Frame::ResumeAck {
                    found,
                    done,
                    next_interval,
                    ..
                } => {
                    if done {
                        if session.checkpoint && snapshots[slot].is_none() {
                            return Err(AttemptFail::Fatal(ClientError::Protocol(
                                "session already checked out, but its snapshot reply was lost"
                                    .into(),
                            )));
                        }
                        continue;
                    }
                    if found {
                        next = next_interval.max(session.base);
                    } else {
                        open_session(&mut stream, &mut buf, session, totals, faults)?;
                    }
                }
                other => {
                    return Err(AttemptFail::Fatal(ClientError::Protocol(format!(
                        "expected a ResumeAck answer, got {other:?}"
                    ))))
                }
            }
        }
        for batch in &session.batches {
            let send: Vec<Interval> = batch
                .iter()
                .filter(|i| i.index as u64 >= next)
                .cloned()
                .collect();
            if send.is_empty() {
                continue;
            }
            let n = send.len() as u64;
            push_frame(
                &mut stream,
                &mut buf,
                &Frame::Batch {
                    tenant,
                    intervals: send,
                },
                totals,
                faults,
            )?;
            totals.intervals_sent += n;
        }
        if session.checkpoint {
            push_frame(
                &mut stream,
                &mut buf,
                &Frame::Checkpoint { tenant },
                totals,
                faults,
            )?;
            flush(&mut stream, &mut buf)?;
            match read_reply(&mut stream, "checkpoint")? {
                Frame::Snapshot(snap) => snapshots[slot] = Some(*snap),
                other => {
                    return Err(AttemptFail::Fatal(ClientError::Protocol(format!(
                        "expected a Snapshot answer to Checkpoint, got {other:?}"
                    ))))
                }
            }
        } else if session.finish {
            push_frame(
                &mut stream,
                &mut buf,
                &Frame::Finish { tenant },
                totals,
                faults,
            )?;
        }
    }
    flush(&mut stream, &mut buf)?;
    stream
        .flush()
        .map_err(|e| AttemptFail::Retry(format!("flush: {e}")))?;
    Ok(())
}

fn open_session<S: Write>(
    stream: &mut S,
    buf: &mut Vec<u8>,
    session: &SessionStream,
    totals: &mut Totals,
    faults: &mut Option<&mut FaultPlan>,
) -> Result<(), AttemptFail> {
    let frame = match &session.snapshot {
        Some(blob) => Frame::Snapshot(Box::new(SnapshotFrame {
            tenant: session.admit.tenant,
            name: session.admit.name.clone(),
            workload: session.admit.workload.clone(),
            max_intervals: session.admit.max_intervals,
            snapshot: blob.clone(),
        })),
        None => Frame::Admit(Box::new(session.admit.clone())),
    };
    push_frame(stream, buf, &frame, totals, faults)
}

/// Encodes one frame through the fault hook and into the write buffer.
/// Connection-killing faults flush what the "network" saw, then
/// surface as retryable transport failures.
fn push_frame<S: Write>(
    stream: &mut S,
    buf: &mut Vec<u8>,
    frame: &Frame,
    totals: &mut Totals,
    faults: &mut Option<&mut FaultPlan>,
) -> Result<(), AttemptFail> {
    let mut bytes = frame.encode();
    let fault = faults.as_deref_mut().and_then(|p| p.take(totals.frames));
    totals.frames += 1;
    let injected = match fault {
        Some(FaultKind::Drop) => {
            let _ = flush(stream, buf);
            return Err(AttemptFail::Retry(
                "injected fault: connection dropped".into(),
            ));
        }
        Some(FaultKind::Truncate) => {
            bytes.truncate((bytes.len() / 2).max(1));
            Some("injected fault: frame truncated mid-record")
        }
        Some(FaultKind::BitFlip) => {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            Some("injected fault: frame corrupted in flight")
        }
        Some(FaultKind::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        None => None,
    };
    totals.bytes += bytes.len() as u64;
    buf.extend_from_slice(&bytes);
    if let Some(reason) = injected {
        let _ = flush(stream, buf);
        return Err(AttemptFail::Retry(reason.into()));
    }
    if buf.len() >= 48 * 1024 {
        flush(stream, buf)?;
    }
    Ok(())
}

fn flush<S: Write>(stream: &mut S, buf: &mut Vec<u8>) -> Result<(), AttemptFail> {
    if buf.is_empty() {
        return Ok(());
    }
    let result = stream.write_all(buf).and_then(|()| stream.flush());
    buf.clear();
    result.map_err(|e| AttemptFail::Retry(format!("send: {e}")))
}

/// Reads one server reply; every transport/wire failure here is
/// retryable (the server died or the network mangled the reply), and a
/// `Busy` frame is the server's explicit back-off request.
fn read_reply<S: Read>(stream: &mut S, what: &str) -> Result<Frame, AttemptFail> {
    match read_frame(stream) {
        Ok(Some(Frame::Busy { message })) => {
            Err(AttemptFail::Retry(format!("server busy: {message}")))
        }
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err(AttemptFail::Retry(format!("server closed during {what}"))),
        Err(e @ (WireError::Truncated { .. } | WireError::Io(_))) => {
            Err(AttemptFail::Retry(format!("{what}: {e}")))
        }
        Err(e) => Err(AttemptFail::Retry(format!("{what}: corrupt reply: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmon::SessionConfig;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = RetryPolicy {
            retries: 5,
            timeout: Duration::from_secs(1),
            backoff: Duration::from_millis(10),
        };
        assert_eq!(policy.backoff_before(0), Duration::from_millis(10));
        assert_eq!(policy.backoff_before(3), Duration::from_millis(80));
        assert_eq!(policy.backoff_before(40), Duration::from_millis(10 * 1024));
    }

    #[test]
    fn plans_group_frames_per_session() {
        let admit = AdmitFrame {
            tenant: 7,
            name: "t".into(),
            workload: "172.mgrid".into(),
            config: SessionConfig::new(45_000),
            max_intervals: 4,
        };
        let plan = SendPlan::from_frames(vec![
            Frame::hello(),
            Frame::Admit(Box::new(admit.clone())),
            Frame::Batch {
                tenant: 7,
                intervals: vec![],
            },
            Frame::Finish { tenant: 7 },
        ])
        .unwrap();
        assert_eq!(plan.sessions.len(), 1);
        assert_eq!(plan.sessions[0].admit, admit);
        assert!(plan.sessions[0].finish);
        assert!(!plan.sessions[0].checkpoint);

        let err = SendPlan::from_frames(vec![Frame::Batch {
            tenant: 9,
            intervals: vec![],
        }])
        .unwrap_err();
        assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    }
}
