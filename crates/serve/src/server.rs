//! `regmon serve`: a wire-ingesting server over the fleet engine.
//!
//! The server accepts N concurrent producer connections (unix socket or
//! TCP), decodes their `regmon-wire` v2 frames and demultiplexes the
//! intervals into [`FleetEngine`] shard workers — the same bounded ring queues,
//! batching and telemetry the in-process fleet driver uses. Each
//! connection's wire tenant ids are remapped to engine-global tenant
//! ids at admission, so independent producers can both call their first
//! session "tenant 0".
//!
//! The socket listeners ([`serve_unix`], [`serve_tcp`]; unix only) run
//! one readiness loop ([`crate::event_loop`]): a small fixed pool of
//! workers multiplexes *all* connections over nonblocking `poll(2)`, so
//! hundreds of mostly-idle producers cost a pollfd each instead of a
//! parked thread each. In-process callers feed a connection directly
//! through [`Server::handle_io`]. Both drive the same per-connection
//! [`Conn`] state machine, so results are byte-identical between them.
//!
//! Shutdown is graceful by construction: [`Server::finish`] first runs
//! the engine's drain barrier (every queued frame is fully processed),
//! then joins the shard workers and collects their final summaries.
//! Because the pipeline is deterministic and the wire codec bit-exact,
//! a session streamed through the server finishes byte-identical to the
//! same session run in-process. Every producer's `Hello` gets a
//! `Hello` back.
//!
//! Wire-v2 additionally lets a producer *move* a live session: a
//! `Checkpoint` frame freezes the tenant and sends its full RGSN
//! session snapshot back down the same connection, and a `Snapshot`
//! frame admits such a checkpoint on another server, which continues
//! byte-identically (`regmon migrate`).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use regmon::{SessionConfig, SessionSnapshot, SessionSummary};
use regmon_fleet::{EngineConfig, FleetEngine, TenantId, TenantSpec, DEFAULT_QUEUE_DEPTH};
use regmon_workload::suite;

use crate::durable::{self, DurableOptions, FsyncPolicy, WalWriter};
use crate::error::ServeError;
use crate::wire::{AdmitFrame, Frame, FrameParser, SnapshotFrame};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Shard worker threads.
    pub shards: usize,
    /// Ring-queue depth per shard, in payload units.
    pub queue_depth: usize,
    /// Stop accepting and shut down once this many sessions finished.
    pub expect_sessions: usize,
    /// Readiness-loop workers multiplexing the socket connections.
    pub event_workers: usize,
    /// Write a per-tenant WAL plus periodic checkpoints under this
    /// directory, so a crashed server can be restarted with
    /// [`ServeOptions::recover`] and resume byte-identically.
    pub durable: Option<DurableOptions>,
    /// Rebuild sessions from [`ServeOptions::durable`]'s directory
    /// (checkpoint restore plus WAL replay) before accepting. Without
    /// it, a durable directory that holds session files is refused.
    pub recover: bool,
    /// Per-connection idle deadline: a socket connection silent for
    /// this long is reaped. `None` waits forever.
    pub idle_timeout: Option<Duration>,
    /// Admission control: beyond this many live connections, new ones
    /// are shed with a `Busy` reply (0 = unlimited).
    pub max_conns: usize,
    /// How long shutdown waits for straggling connections and the
    /// engine drain barrier before detaching them.
    pub drain_deadline: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            shards: 2,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            expect_sessions: 1,
            event_workers: 2,
            durable: None,
            recover: false,
            idle_timeout: Some(Duration::from_secs(30)),
            max_conns: 0,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// One admitted wire session, in admission order.
#[derive(Debug, Clone)]
pub struct ServedSession {
    /// Tenant display name from the `Admit` frame.
    pub name: String,
    /// The configuration the producer streamed.
    pub config: SessionConfig,
    /// The finished session's summary (`None` if the tenant's stream
    /// never finished, its session failed, or it migrated away).
    pub summary: Option<SessionSummary>,
    /// Whether the session was checked out to another server mid-run
    /// (its summary belongs to whoever adopted it).
    pub migrated: bool,
}

/// What a server run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Every admitted session, in admission order.
    pub sessions: Vec<ServedSession>,
    /// Producer connections handled.
    pub connections: usize,
    /// Frames decoded across all connections.
    pub frames: u64,
    /// Wire bytes received across all connections.
    pub bytes: u64,
    /// Connection-level errors, in arrival order (the server keeps
    /// serving other connections when one stream goes bad).
    pub errors: Vec<String>,
    /// Sessions rebuilt from the durable directory at startup.
    pub recovered: usize,
    /// Connections still unfinished when the drain deadline expired at
    /// shutdown (they were detached, not waited for).
    pub stragglers: usize,
    /// Connections shed with a `Busy` reply at the connection cap.
    pub shed: usize,
}

struct SessionEntry {
    engine_id: TenantId,
    /// The admission as the session's opener asked for it (the config
    /// of a `Snapshot` opener is its snapshot's).
    admit: AdmitFrame,
    /// Highest interval index folded in: drives the frame-lag
    /// histogram, duplicate-interval dropping and `ResumeAck`.
    last_interval: Option<usize>,
    /// This session's write-ahead log (durable mode only).
    wal: Option<WalWriter>,
    finished: bool,
    migrated: bool,
}

struct ServerState {
    engine: Option<FleetEngine>,
    sessions: Vec<SessionEntry>,
    finished: usize,
    connections: usize,
    frames: u64,
    bytes: u64,
    errors: Vec<String>,
    recovered: usize,
    shed: usize,
}

/// The ingestion server: share it across the threads feeding
/// connections with an [`Arc`](std::sync::Arc), then call
/// [`Server::finish`] to drain and collect.
pub struct Server {
    state: Mutex<ServerState>,
    options: ServeOptions,
    done: AtomicBool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("options", &self.options)
            .field("done", &self.done.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The per-connection protocol state machine, shared by
/// [`Server::handle_io`] and the event loop: frames go in via
/// [`Conn::on_frame`], reply bytes (the `Hello` answer, migration
/// `Snapshot`s) come out via the `out` buffer.
pub(crate) struct Conn {
    saw_hello: bool,
    /// A checkpoint the connection's next `Admit` continues from
    /// instead of starting fresh (`replay --resume`).
    pub(crate) base: Option<SessionSnapshot>,
    /// Wire tenant id (connection-scoped) → index into state.sessions.
    local: HashMap<u32, usize>,
    /// Sessions this connection finished (or migrated away).
    finished: usize,
    /// Pending reply bytes, not yet written to the peer.
    pub(crate) out: Vec<u8>,
}

impl Conn {
    pub(crate) fn new() -> Self {
        Self {
            saw_hello: false,
            base: None,
            local: HashMap::new(),
            finished: 0,
            out: Vec::new(),
        }
    }

    pub(crate) fn finished_sessions(&self) -> usize {
        self.finished
    }

    /// Feeds one decoded frame through the protocol state machine,
    /// appending any reply to `self.out`. `record` is the frame's bytes
    /// as they arrived, which a durable session's WAL appends verbatim
    /// (recovery replays into sessions that have no WAL yet, and passes
    /// none).
    pub(crate) fn on_frame(
        &mut self,
        frame: Frame,
        record: &[u8],
        server: &Server,
        telemetry_on: bool,
    ) -> Result<(), ServeError> {
        match frame {
            Frame::Hello { .. } => {
                if self.saw_hello {
                    return Err(ServeError::Protocol("duplicate Hello frame".into()));
                }
                self.saw_hello = true;
                self.out.extend_from_slice(&Frame::hello().encode());
            }
            _ if !self.saw_hello => {
                return Err(ServeError::Protocol(
                    "stream must open with a Hello frame".into(),
                ));
            }
            frame @ (Frame::Admit(_) | Frame::Snapshot(_)) => {
                let (admit, base) = opening(frame)?;
                let tenant = admit.tenant;
                if self.local.contains_key(&tenant) {
                    return Err(ServeError::Protocol(format!(
                        "duplicate Admit for tenant {tenant}"
                    )));
                }
                let base = base.or_else(|| self.base.take());
                let slot = server.admit(admit, base, Some(record), telemetry_on)?;
                self.local.insert(tenant, slot);
            }
            Frame::Batch {
                tenant: id,
                mut intervals,
            } => {
                let &slot = self.local.get(&id).ok_or_else(|| {
                    ServeError::Protocol(format!("Batch for unadmitted tenant {id}"))
                })?;
                let mut state = server.lock();
                let state = &mut *state;
                let entry = &mut state.sessions[slot];
                if entry.finished {
                    return Err(ServeError::Protocol(format!(
                        "Batch after Finish for tenant {id}"
                    )));
                }
                // Drop intervals already folded in: a resumed producer
                // re-sends from its last acknowledged position, so
                // at-least-once delivery becomes exactly-once here.
                let last = entry.last_interval;
                let dup = intervals
                    .iter()
                    .take_while(|i| Some(i.index) <= last)
                    .count();
                intervals.drain(..dup);
                if intervals.is_empty() {
                    return Ok(());
                }
                if let (true, Some(last)) = (telemetry_on, entry.last_interval) {
                    let lag = intervals[0].index.saturating_sub(last + 1);
                    regmon_telemetry::metrics::SERVE_FRAME_LAG.record(lag as u64);
                }
                entry.last_interval = intervals.last().map(|i| i.index);
                // Write-ahead: the WAL record lands before the engine
                // sees the batch, so everything the engine folds in is
                // recoverable.
                if let Some(wal) = entry.wal.as_mut() {
                    wal.append(record)?;
                    wal.since_checkpoint += intervals.len() as u64;
                }
                let engine_id = entry.engine_id;
                let engine = state
                    .engine
                    .as_ref()
                    .ok_or_else(|| ServeError::Protocol("server already shut down".into()))?;
                engine.offer_batch(engine_id, intervals);
                // Periodic checkpoint: the peek rides the same FIFO
                // shard queue, so it observes the batch just offered.
                if let (Some(opts), Some(wal)) = (&server.options.durable, entry.wal.as_mut()) {
                    if opts.checkpoint_every > 0 && wal.since_checkpoint >= opts.checkpoint_every {
                        if let Some(snapshot) = engine.peek_snapshot(engine_id) {
                            let path = durable::checkpoint_path(&opts.dir, slot);
                            durable::write_checkpoint(&path, &snapshot, opts.fsync)?;
                            wal.sync_boundary()?;
                            wal.since_checkpoint = 0;
                            if telemetry_on {
                                regmon_telemetry::metrics::SNAPSHOT_SAVES.inc();
                            }
                        }
                    }
                }
            }
            Frame::Checkpoint { tenant: id } | Frame::Finish { tenant: id } => {
                // Either one closes the session here, and it counts as
                // finished for shutdown purposes. A Checkpoint also
                // freezes the tenant and ships its session back as a
                // Snapshot frame: the summary belongs to whoever adopts
                // that snapshot.
                let migrate = matches!(frame, Frame::Checkpoint { .. });
                let what = if migrate { "Checkpoint" } else { "Finish" };
                let &slot = self.local.get(&id).ok_or_else(|| {
                    ServeError::Protocol(format!("{what} for unadmitted tenant {id}"))
                })?;
                let mut state = server.lock();
                let state = &mut *state;
                let entry = &mut state.sessions[slot];
                if entry.finished {
                    return Err(ServeError::Protocol(format!(
                        "{what} after Finish for tenant {id}"
                    )));
                }
                let engine = state
                    .engine
                    .as_ref()
                    .ok_or_else(|| ServeError::Protocol("server already shut down".into()))?;
                // Per-shard FIFO order makes the checkpoint consistent:
                // every batch offered above is folded in before the
                // worker answers.
                let snapshot = if migrate {
                    Some(engine.checkpoint(entry.engine_id).ok_or_else(|| {
                        ServeError::Protocol(format!("tenant {id} has no live session"))
                    })?)
                } else {
                    None
                };
                // The closing record. A Checkpoint one marks the WAL as
                // migrated-away: recovery keeps the slot but does not
                // re-admit the tenant.
                if let Some(mut wal) = entry.wal.take() {
                    wal.append(record)?;
                    wal.sync_boundary()?;
                }
                match snapshot {
                    Some(snapshot) => {
                        let reply = Frame::Snapshot(Box::new(SnapshotFrame {
                            tenant: id,
                            name: entry.admit.name.clone(),
                            workload: entry.admit.workload.clone(),
                            max_intervals: entry.admit.max_intervals,
                            snapshot: crate::snapshot::encode_snapshot(&snapshot),
                        }));
                        self.out.extend_from_slice(&reply.encode());
                    }
                    None => engine.finish(entry.engine_id),
                }
                entry.finished = true;
                entry.migrated = migrate;
                state.finished += 1;
                self.finished += 1;
                if telemetry_on {
                    if migrate {
                        regmon_telemetry::metrics::SERVE_MIGRATIONS.inc();
                        regmon_telemetry::metrics::SNAPSHOT_SAVES.inc();
                    }
                    regmon_telemetry::metrics::SERVE_SESSIONS
                        .set((state.sessions.len() - state.finished) as i64);
                }
                if state.finished >= server.options.expect_sessions {
                    server.done.store(true, Ordering::Release);
                }
            }
            Frame::Resume(admit) => {
                // A reconnecting producer asks where its session's
                // stream left off. The lookup is by NAME — wire tenant
                // ids are connection-scoped and the original
                // connection is gone. A miss is answered, never
                // admitted: the client re-sends its own opener (which
                // may be a Snapshot frame this server cannot invent).
                let state = server.lock();
                let slot = state
                    .sessions
                    .iter()
                    .rposition(|e| e.admit.name == admit.name);
                let (found, done, next_interval) = match slot {
                    None => (false, false, 0),
                    Some(slot) => {
                        let entry = &state.sessions[slot];
                        if entry.admit.workload != admit.workload
                            || entry.admit.config != admit.config
                        {
                            return Err(ServeError::Protocol(format!(
                                "Resume for session {:?} does not match its admitted \
                                 workload/config",
                                admit.name
                            )));
                        }
                        if entry.finished {
                            (true, true, 0)
                        } else {
                            self.local.insert(admit.tenant, slot);
                            let next = entry.last_interval.map_or(0, |last| last as u64 + 1);
                            (true, false, next)
                        }
                    }
                };
                drop(state);
                let reply = Frame::ResumeAck {
                    tenant: admit.tenant,
                    found,
                    done,
                    next_interval,
                };
                self.out.extend_from_slice(&reply.encode());
            }
            Frame::ResumeAck { .. } | Frame::Busy { .. } => {
                // Server-to-client frames have no business arriving
                // from a producer.
                return Err(ServeError::Protocol(
                    "client-bound frame from a producer".into(),
                ));
            }
        }
        Ok(())
    }
}

/// The admission a session opener asks for: an `Admit` starts fresh,
/// and a `Snapshot` continues from the session state it carries.
fn opening(frame: Frame) -> Result<(AdmitFrame, Option<SessionSnapshot>), ServeError> {
    match frame {
        Frame::Admit(admit) => Ok((*admit, None)),
        Frame::Snapshot(snap) => {
            let snapshot = crate::snapshot::decode_snapshot(&snap.snapshot)?;
            let admit = AdmitFrame {
                tenant: snap.tenant,
                name: snap.name,
                workload: snap.workload,
                config: snapshot.config.clone(),
                max_intervals: snap.max_intervals,
            };
            Ok((admit, Some(snapshot)))
        }
        other => Err(ServeError::Protocol(format!(
            "{other:?} does not open a session"
        ))),
    }
}

/// Adapts a read-only transport (a byte slice, a recorded journal) to
/// the read-write shape the connection pump wants: replies are simply
/// discarded.
struct SinkWrites<R>(R);

impl<R: Read> Read for SinkWrites<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl<R> Write for SinkWrites<R> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Server {
    /// Creates a server with a fresh fleet engine.
    #[must_use]
    pub fn new(options: ServeOptions) -> Self {
        let engine = FleetEngine::new(EngineConfig::new(options.shards, options.queue_depth));
        Self {
            state: Mutex::new(ServerState {
                engine: Some(engine),
                sessions: Vec::new(),
                finished: 0,
                connections: 0,
                frames: 0,
                bytes: 0,
                errors: Vec::new(),
                recovered: 0,
                shed: 0,
            }),
            options,
            done: AtomicBool::new(false),
        }
    }

    /// The options this server was built with.
    #[must_use]
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    fn lock(&self) -> MutexGuard<'_, ServerState> {
        self.state.lock().expect("server state poisoned")
    }

    /// Writes session `slot`'s state to `path` with the durable
    /// checkpoint's peek and writer, so `replay --snapshot-at N` and a
    /// checkpoint taken at interval N are the same bytes. A session
    /// that is gone writes nothing; it has no summary either.
    pub(crate) fn snapshot_to(&self, slot: usize, path: &Path) -> std::io::Result<()> {
        let state = self.lock();
        let engine = state.engine.as_ref().expect("server not finished");
        match engine.peek_snapshot(state.sessions[slot].engine_id) {
            Some(snapshot) => durable::write_checkpoint(path, &snapshot, FsyncPolicy::Never),
            None => Ok(()),
        }
    }

    /// Admits one session into the next slot: fresh, or continuing
    /// from `base` when that snapshot (a `Snapshot` opener, a recovery
    /// checkpoint) already covers its first `base.intervals` intervals.
    /// With a durable directory, `record` (the opener's wire bytes)
    /// starts the slot's new WAL. Returns the slot.
    fn admit(
        &self,
        admit: AdmitFrame,
        base: Option<SessionSnapshot>,
        record: Option<&[u8]>,
        telemetry_on: bool,
    ) -> Result<usize, ServeError> {
        let workload = suite::by_name(&admit.workload)
            .ok_or_else(|| ServeError::UnknownWorkload(admit.workload.clone()))?;
        if let Some(snapshot) = &base {
            crate::snapshot::check_regions(&admit.name, snapshot, workload.binary())?;
        }
        let spec = TenantSpec::new(
            admit.name.clone(),
            workload,
            admit.config.clone(),
            admit.max_intervals as usize,
        );
        // Duplicate dropping and resume count from what `base` covers.
        let last_interval = base.as_ref().and_then(|s| s.intervals.checked_sub(1));
        let restored = base.is_some();
        let mut state = self.lock();
        let state = &mut *state;
        let engine = state
            .engine
            .as_mut()
            .ok_or_else(|| ServeError::Protocol("server already shut down".into()))?;
        let slot = state.sessions.len();
        let wal = match (&self.options.durable, record) {
            (Some(opts), Some(record)) => {
                let mut wal = WalWriter::create(&opts.dir, slot, opts.fsync)?;
                wal.append(record)?;
                Some(wal)
            }
            _ => None,
        };
        let engine_id = match base {
            Some(snapshot) => engine.admit_from_snapshot(&spec, snapshot),
            None => engine.admit(&spec),
        };
        state.sessions.push(SessionEntry {
            engine_id,
            admit,
            last_interval,
            wal,
            finished: false,
            migrated: false,
        });
        if telemetry_on {
            if restored {
                regmon_telemetry::metrics::SNAPSHOT_RESTORES.inc();
            }
            regmon_telemetry::metrics::SERVE_SESSIONS
                .set((state.sessions.len() - state.finished) as i64);
        }
        Ok(slot)
    }

    /// Readies the durable directory; call it before accepting. Without
    /// [`ServeOptions::recover`], a directory an earlier run left a WAL
    /// or checkpoint in is refused rather than mixed into this run.
    ///
    /// With it, recovery is a replay of the live path. Each WAL slot's
    /// session is admitted from its newest valid checkpoint, else from
    /// the WAL's opener, and every later record goes through the state
    /// machine a live connection drives, which drops the intervals the
    /// base state covers and those a producer sent twice (the WAL holds
    /// frames as they arrived). The pipeline is deterministic, so the
    /// sessions are byte-identical to an uninterrupted run at the same
    /// position. A WAL closed by `Checkpoint` is recorded as migrated
    /// and not re-admitted, and one closed by `Finish` is not reopened
    /// for appends. Torn tails were already truncated by
    /// [`durable::read_wal`]; they are how a crash looks, never fatal.
    /// A last WAL left with no complete record (its opener never
    /// landed) is removed and not counted.
    ///
    /// Returns the number of sessions recovered (0 when
    /// [`ServeOptions::recover`] is off).
    ///
    /// # Errors
    ///
    /// A used directory without `recover`; filesystem failures and
    /// structurally broken WALs (a checksummed record that does not
    /// decode, an opener that is not `Admit`/`Snapshot`, a later
    /// record that is not `Batch`/`Finish`, unknown workloads).
    pub fn recover(&self) -> Result<usize, ServeError> {
        let Some(opts) = &self.options.durable else {
            return Ok(0);
        };
        if !self.options.recover {
            durable::refuse_used(&opts.dir)?;
            return Ok(0);
        }
        let mut recovered = 0;
        let slots = durable::wal_slots(&opts.dir)?;
        let last = slots.last().map(|(slot, _)| *slot);
        for (slot, path) in slots {
            if slot != self.lock().sessions.len() {
                return Err(ServeError::Protocol(format!(
                    "durable dir {}: WAL slot {slot} breaks admission order",
                    opts.dir.display()
                )));
            }
            let mut records = durable::read_wal(&path)?.frames.into_iter();
            let (admit, opened) = match records.next() {
                Some(opener @ (Frame::Admit(_) | Frame::Snapshot(_))) => opening(opener)?,
                // A crash between creating a WAL and appending its
                // opener. Admission holds the state lock across both,
                // so only the last slot can be caught there: that
                // session was never admitted, and its slot is free.
                None if Some(slot) == last => {
                    std::fs::remove_file(&path)?;
                    break;
                }
                other => {
                    let first = other.map_or("no record".into(), |f| format!("{f:?}"));
                    return Err(ServeError::Protocol(format!(
                        "{}: WAL opens with {first}, not Admit/Snapshot",
                        path.display()
                    )));
                }
            };
            recovered += 1;
            let migrated = records
                .as_slice()
                .iter()
                .any(|f| matches!(f, Frame::Checkpoint { .. }));
            if migrated {
                // The session was checked out to another server before
                // the crash; keep the slot (admission order) but do
                // not re-admit. The dummy engine id matches nothing in
                // the final summaries, exactly like a live migration.
                let mut state = self.lock();
                state.sessions.push(SessionEntry {
                    engine_id: TenantId(u32::MAX - slot as u32),
                    admit,
                    last_interval: None,
                    wal: None,
                    finished: true,
                    migrated: true,
                });
                state.finished += 1;
                continue;
            }
            // Base state: the checkpoint when it covers at least the
            // opener, else the opener itself. A corrupt checkpoint
            // already degraded to None (full WAL replay), and so does
            // one holding a region outside the program image.
            let covered = opened.as_ref().map_or(0, |s| s.intervals);
            let checkpoint = durable::load_checkpoint(&opts.dir, slot).filter(|ck| {
                ck.config == admit.config
                    && ck.intervals >= covered
                    && suite::by_name(&admit.workload)
                        .is_some_and(|w| ck.check_regions(w.binary()).is_ok())
            });
            self.admit(admit, checkpoint.or(opened), None, false)?;
            // Replay: a WAL is one session, whatever wire tenant id a
            // (resumed) connection gave each record.
            let mut conn = Conn::new();
            conn.saw_hello = true;
            for frame in records {
                let (Frame::Batch { tenant, .. } | Frame::Finish { tenant }) = &frame else {
                    return Err(ServeError::Protocol(format!(
                        "{}: {frame:?} record past the WAL opener",
                        path.display()
                    )));
                };
                conn.local.insert(*tenant, slot);
                conn.on_frame(frame, &[], self, false)?;
            }
            let mut state = self.lock();
            let entry = &mut state.sessions[slot];
            if !entry.finished {
                entry.wal = Some(WalWriter::open_append(&path, opts.fsync)?);
            }
        }
        let mut state = self.lock();
        state.recovered += recovered;
        if regmon_telemetry::enabled() && recovered > 0 {
            regmon_telemetry::metrics::SERVE_RECOVERIES.add(recovered as u64);
            regmon_telemetry::metrics::SERVE_SESSIONS
                .set((state.sessions.len() - state.finished) as i64);
        }
        if state.finished >= self.options.expect_sessions {
            self.done.store(true, Ordering::Release);
        }
        Ok(recovered)
    }

    /// `true` once [`ServeOptions::expect_sessions`] sessions finished.
    #[must_use]
    pub fn done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Handles one read-only producer stream to completion (reply
    /// frames are discarded). Returns the number
    /// of sessions the stream finished.
    ///
    /// # Errors
    ///
    /// Wire-layer failures and stream protocol violations. State fed
    /// before the failure stays fed — the engine keeps processing other
    /// connections' tenants.
    pub fn handle(&self, stream: impl Read) -> Result<usize, ServeError> {
        self.handle_io(SinkWrites(stream))
    }

    /// Handles one producer connection to completion, writing reply
    /// frames (the `Hello` answer, migration `Snapshot`s) back to the
    /// peer promptly. Returns the number of sessions the connection
    /// finished.
    ///
    /// # Errors
    ///
    /// As [`Server::handle`].
    pub fn handle_io(&self, stream: impl Read + Write) -> Result<usize, ServeError> {
        let telemetry_on = regmon_telemetry::enabled();
        self.conn_opened(telemetry_on);
        let result = self.pump(stream, telemetry_on);
        self.conn_closed(&result, telemetry_on);
        result
    }

    fn pump(&self, mut stream: impl Read + Write, telemetry_on: bool) -> Result<usize, ServeError> {
        let mut parser = FrameParser::new();
        let mut conn = Conn::new();
        let mut buf = [0u8; 16 * 1024];
        loop {
            if !conn.out.is_empty() {
                stream.write_all(&conn.out).map_err(ServeError::Io)?;
                stream.flush().map_err(ServeError::Io)?;
                conn.out.clear();
            }
            let n = match stream.read(&mut buf) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ServeError::Io(e)),
            };
            if n == 0 {
                // Replies were flushed above, and EOF adds none.
                parser.finish_eof()?;
                return Ok(conn.finished_sessions());
            }
            self.account(n as u64, 0, telemetry_on);
            parser.feed(&buf[..n]);
            self.drain_parser(&mut parser, &mut conn, telemetry_on)?;
        }
    }

    /// Decodes every complete frame buffered in `parser` through
    /// `conn`. Shared by [`Server::handle_io`] and the event loop.
    pub(crate) fn drain_parser(
        &self,
        parser: &mut FrameParser,
        conn: &mut Conn,
        telemetry_on: bool,
    ) -> Result<(), ServeError> {
        loop {
            let (frame, record) = match parser.next_record() {
                Ok(Some(next)) => next,
                Ok(None) => return Ok(()),
                Err(e) => {
                    if telemetry_on {
                        regmon_telemetry::metrics::SERVE_FRAMES_REJECTED.inc();
                    }
                    return Err(e.into());
                }
            };
            self.account(0, 1, telemetry_on);
            conn.on_frame(frame, record, self, telemetry_on)?;
        }
    }

    /// Sheds a connection at the admission-control cap: a graceful
    /// `Busy` reply is written (best-effort) and the stream dropped,
    /// so a v2 client backs off and retries instead of hanging.
    pub(crate) fn shed(&self, stream: &mut impl Write, telemetry_on: bool) {
        let busy = Frame::Busy {
            message: "connection limit reached; retry with backoff".into(),
        }
        .encode();
        let _ = stream.write_all(&busy);
        let _ = stream.flush();
        if telemetry_on {
            regmon_telemetry::metrics::SERVE_CONNS_SHED.inc();
        }
        let mut state = self.lock();
        state.shed += 1;
    }

    pub(crate) fn conn_opened(&self, telemetry_on: bool) {
        if telemetry_on {
            regmon_telemetry::metrics::SERVE_CONNECTIONS.inc();
        }
        let mut state = self.lock();
        state.connections += 1;
    }

    pub(crate) fn conn_closed(&self, result: &Result<usize, ServeError>, telemetry_on: bool) {
        if telemetry_on {
            regmon_telemetry::metrics::SERVE_CONNECTIONS_CLOSED.inc();
        }
        if let Err(e) = result {
            let mut state = self.lock();
            state.errors.push(e.to_string());
        }
    }

    pub(crate) fn account(&self, bytes: u64, frames: u64, telemetry_on: bool) {
        if bytes == 0 && frames == 0 {
            return;
        }
        if telemetry_on {
            if bytes > 0 {
                regmon_telemetry::metrics::SERVE_RECEIVED_BYTES.add(bytes);
            }
            if frames > 0 {
                regmon_telemetry::metrics::SERVE_FRAMES.add(frames);
            }
        }
        let mut state = self.lock();
        state.bytes += bytes;
        state.frames += frames;
    }

    /// Drains every queued frame, shuts the engine down and collects
    /// per-session summaries in admission order.
    ///
    /// # Panics
    ///
    /// Panics if called twice (the engine is consumed by shutdown).
    #[must_use]
    pub fn finish(&self) -> ServeReport {
        let engine = {
            let mut state = self.lock();
            state.engine.take().expect("Server::finish called twice")
        };
        if !engine.drain_barrier_timeout(self.options.drain_deadline) {
            let mut state = self.lock();
            state
                .errors
                .push("timeout: engine drain barrier missed the shutdown deadline".into());
        }
        let finals = engine.shutdown();
        let mut by_id: HashMap<TenantId, Option<SessionSummary>> = HashMap::new();
        for shard in finals {
            for tenant in shard.tenants {
                by_id.insert(tenant.id, tenant.summary);
            }
        }
        let state = self.lock();
        ServeReport {
            sessions: state
                .sessions
                .iter()
                .map(|entry| ServedSession {
                    name: entry.admit.name.clone(),
                    config: entry.admit.config.clone(),
                    summary: by_id
                        .get(&entry.engine_id)
                        .filter(|_| entry.finished)
                        .cloned()
                        .flatten(),
                    migrated: entry.migrated,
                })
                .collect(),
            connections: state.connections,
            frames: state.frames,
            bytes: state.bytes,
            errors: state.errors.clone(),
            recovered: state.recovered,
            stragglers: 0,
            shed: state.shed,
        }
    }
}

// ------------------------------------------------------------ listeners

/// A listener failure (bind, accept), named by its socket. Other
/// failures, such as a refused durable directory, name their own files.
#[cfg(unix)]
pub(crate) fn socket_error(socket: &str, e: std::io::Error) -> ServeError {
    ServeError::Io(std::io::Error::new(e.kind(), format!("{socket}: {e}")))
}

/// Serves producers over a unix domain socket until
/// [`ServeOptions::expect_sessions`] sessions finished, then drains and
/// reports. A pre-existing socket file at `path` is replaced.
///
/// # Errors
///
/// Socket setup and accept failures, named by the socket path;
/// durable-directory failures, named by their file. Per-connection
/// errors land in [`ServeReport::errors`] instead.
#[cfg(unix)]
pub fn serve_unix(path: &Path, options: ServeOptions) -> Result<ServeReport, ServeError> {
    use std::os::unix::net::UnixListener;
    let socket = path.display().to_string();
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)
        .and_then(|l| l.set_nonblocking(true).map(|()| l))
        .map_err(|e| socket_error(&socket, e))?;
    let report = crate::event_loop::serve_events(
        &socket,
        listener,
        |l| {
            let (stream, _) = l.accept()?;
            stream.set_nonblocking(true)?;
            Ok(stream)
        },
        options,
    );
    let _ = std::fs::remove_file(path);
    report
}

/// Serves producers over TCP until [`ServeOptions::expect_sessions`]
/// sessions finished, then drains and reports.
///
/// # Errors
///
/// As [`serve_unix`], with failures named by `addr`.
#[cfg(unix)]
pub fn serve_tcp(addr: &str, options: ServeOptions) -> Result<ServeReport, ServeError> {
    use std::net::TcpListener;
    let listener = TcpListener::bind(addr)
        .and_then(|l| l.set_nonblocking(true).map(|()| l))
        .map_err(|e| socket_error(addr, e))?;
    crate::event_loop::serve_events(
        addr,
        listener,
        |l| {
            let (stream, _) = l.accept()?;
            stream.set_nonblocking(true)?;
            Ok(stream)
        },
        options,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalWriter;
    use crate::wire::{read_frame, AdmitFrame, FrameReader, WireError};
    use regmon::MonitoringSession;
    use regmon_binary::{Addr, AddrRange};
    use regmon_regions::{RegionId, RegionKind, RegionRecord};
    use regmon_sampling::Sampler;
    use std::sync::Arc;

    fn stream_for(workload: &str, config: &SessionConfig, n: usize, tenant: u32) -> Vec<u8> {
        let w = suite::by_name(workload).unwrap();
        let mut journal = JournalWriter::new(Vec::new()).unwrap();
        journal
            .admit(AdmitFrame {
                tenant,
                name: format!("{workload}#{tenant}"),
                workload: workload.to_string(),
                config: config.clone(),
                max_intervals: n as u64,
            })
            .unwrap();
        let intervals: Vec<_> = Sampler::new(&w, config.sampling).take(n).collect();
        // Mixed batching: some frames carry one interval, some three.
        for chunk in intervals.chunks(3) {
            journal.batch(tenant, chunk.to_vec()).unwrap();
        }
        journal.finish(tenant).unwrap();
        journal.into_inner().unwrap()
    }

    /// A loopback transport: reads from a canned request, collects
    /// replies.
    struct Loopback<'a> {
        input: &'a [u8],
        replies: Vec<u8>,
    }

    impl Read for Loopback<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Loopback<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.replies.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn served_session_matches_in_process_run() {
        let config = SessionConfig::new(45_000);
        let server = Server::new(ServeOptions {
            shards: 2,
            queue_depth: 16,
            expect_sessions: 1,
            ..ServeOptions::default()
        });
        let bytes = stream_for("172.mgrid", &config, 20, 0);
        server.handle(bytes.as_slice()).unwrap();
        assert!(server.done());
        let report = server.finish();
        assert_eq!(report.connections, 1);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.sessions.len(), 1);

        let w = suite::by_name("172.mgrid").unwrap();
        let direct = MonitoringSession::run_limited(&w, &config, 20);
        let served = report.sessions[0].summary.as_ref().unwrap();
        assert_eq!(format!("{served:?}"), format!("{direct:?}"));
    }

    #[test]
    fn reencoded_stream_is_byte_identical() {
        // `send` decodes a journal and re-encodes every frame: what it
        // puts on the wire must be the journal's own bytes.
        let config = SessionConfig::new(45_000);
        let written = stream_for("172.mgrid", &config, 20, 0);
        let mut reader = FrameReader::new(written.as_slice());
        let mut reencoded = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            reencoded.extend_from_slice(&frame.encode());
        }
        assert_eq!(reencoded, written);
    }

    /// Journals and WALs that builds before delta-of-delta columns
    /// wrote (every batch column in the delta layout) still replay and
    /// recover to the in-process run's summary, byte for byte.
    #[cfg(unix)]
    #[test]
    fn delta_column_journals_and_wals_still_read() {
        use crate::client::{send_plan, RetryPolicy, SendPlan, SessionStream};
        use crate::durable::{wal_path, FsyncPolicy};
        use crate::replay::{replay_stream, ReplayOptions};
        use crate::wire::encode_frame_delta_columns;
        use std::os::unix::net::UnixStream;

        let (config, n) = (SessionConfig::new(45_000), 20);
        let w = suite::by_name("172.mgrid").unwrap();
        let direct = format!("{:?}", MonitoringSession::run_limited(&w, &config, n));
        let written = stream_for("172.mgrid", &config, n, 0);
        let mut reader = FrameReader::new(written.as_slice());
        let mut frames = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            frames.push(frame);
        }
        let old: Vec<u8> = frames.iter().flat_map(encode_frame_delta_columns).collect();
        assert!(old.len() > written.len(), "no column chose delta-of-delta");

        let replayed = replay_stream(old.as_slice(), &ReplayOptions::default()).unwrap();
        assert_eq!(format!("{:?}", replayed.tenants[0].summary), direct);

        // A WAL as an older durable server left it when killed after
        // four batches: the opener and each folded batch.
        let dir = std::env::temp_dir().join(format!("regmon-serve-old-wal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let records = frames
            .iter()
            .filter(|frame| matches!(frame, Frame::Admit(_) | Frame::Batch { .. }))
            .take(5);
        let wal: Vec<u8> = records.flat_map(encode_frame_delta_columns).collect();
        std::fs::write(wal_path(&dir, 0), wal).unwrap();
        let durable = DurableOptions {
            dir: dir.clone(),
            checkpoint_every: 4,
            fsync: FsyncPolicy::Never,
        };
        let server = Arc::new(Server::new(ServeOptions {
            durable: Some(durable),
            recover: true,
            ..ServeOptions::default()
        }));
        assert_eq!(server.recover().unwrap(), 1);
        let Frame::Admit(admit) = &frames[1] else {
            panic!("stream opens with {:?}", frames[1]);
        };
        let plan = SendPlan {
            sessions: vec![SessionStream {
                admit: (**admit).clone(),
                snapshot: None,
                base: 0,
                batches: Sampler::new(&w, config.sampling)
                    .take(n)
                    .collect::<Vec<_>>()
                    .chunks(3)
                    .map(<[_]>::to_vec)
                    .collect(),
                finish: true,
                checkpoint: false,
            }],
        };
        let (client, srv) = UnixStream::pair().unwrap();
        let handle = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.handle_io(srv))
        };
        let mut stream = Some(client);
        let policy = RetryPolicy {
            retries: 0,
            timeout: std::time::Duration::from_secs(5),
            backoff: std::time::Duration::from_millis(1),
        };
        let dial = move || Ok(stream.take().unwrap());
        send_plan(dial, &plan, &policy, true, None).unwrap();
        handle.join().unwrap().unwrap();
        let report = Arc::into_inner(server).unwrap().finish();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(report.recovered, 1);
        let recovered = report.sessions[0].summary.as_ref().unwrap();
        assert_eq!(format!("{recovered:?}"), direct);
    }

    #[test]
    fn v2_hello_is_answered_and_v1_hello_is_not() {
        // A v2 Hello gets the server's Hello back; a v1 Hello is
        // rejected, by name, before anything is answered.
        let server = Server::new(ServeOptions::default());
        let request = Frame::hello().encode();
        let mut transport = Loopback {
            input: &request,
            replies: Vec::new(),
        };
        server.handle_io(&mut transport).unwrap();
        let reply = read_frame(&mut transport.replies.as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(reply, Frame::hello());

        let request = Frame::Hello { version: 1 }.encode();
        let mut transport = Loopback {
            input: &request,
            replies: Vec::new(),
        };
        let err = server.handle_io(&mut transport).unwrap_err();
        assert!(
            matches!(err, ServeError::Wire(WireError::BadVersion { got: 1 })),
            "{err}"
        );
        assert!(
            err.to_string().contains("wire v1 is no longer read"),
            "{err}"
        );
        assert!(transport.replies.is_empty());
        // Engine still alive; shut it down cleanly.
        let report = server.finish();
        assert_eq!(report.errors.len(), 1);
    }

    #[test]
    fn migration_handoff_resumes_byte_identically() {
        // Server A ingests the first half of a session, checkpoints it
        // over the wire; server B adopts the snapshot and ingests the
        // rest. B's summary must be byte-identical to an uninterrupted
        // in-process run, and A must count the tenant as finished.
        let config = SessionConfig::new(45_000);
        let w = suite::by_name("172.mgrid").unwrap();
        let n = 24;
        let split = 11;
        let intervals: Vec<_> = Sampler::new(&w, config.sampling).take(n).collect();
        let admit = AdmitFrame {
            tenant: 0,
            name: "mgrid#0".into(),
            workload: "172.mgrid".into(),
            config: config.clone(),
            max_intervals: n as u64,
        };

        // --- server A: Hello(2), Admit, first half, Checkpoint.
        let mut request = Vec::new();
        request.extend_from_slice(&Frame::hello().encode());
        request.extend_from_slice(&Frame::Admit(Box::new(admit.clone())).encode());
        for chunk in intervals[..split].chunks(4) {
            request.extend_from_slice(
                &Frame::Batch {
                    tenant: 0,
                    intervals: chunk.to_vec(),
                }
                .encode(),
            );
        }
        request.extend_from_slice(&Frame::Checkpoint { tenant: 0 }.encode());
        let server_a = Server::new(ServeOptions::default());
        let mut transport = Loopback {
            input: &request,
            replies: Vec::new(),
        };
        assert_eq!(server_a.handle_io(&mut transport).unwrap(), 1);
        assert!(server_a.done(), "migration counts toward expect_sessions");
        let report_a = server_a.finish();
        assert!(report_a.errors.is_empty(), "{:?}", report_a.errors);
        assert!(report_a.sessions[0].migrated);
        assert!(report_a.sessions[0].summary.is_none());

        // The replies: a Hello answer, then the Snapshot frame.
        let mut replies = FrameReader::new(transport.replies.as_slice());
        assert_eq!(replies.next_frame().unwrap().unwrap(), Frame::hello());
        let snapshot_frame = replies.next_frame().unwrap().unwrap();
        let Frame::Snapshot(snap) = &snapshot_frame else {
            panic!("expected Snapshot reply, got {snapshot_frame:?}");
        };
        assert_eq!(snap.workload, "172.mgrid");

        // --- server B: Hello(2), Snapshot, second half, Finish.
        let mut request = Vec::new();
        request.extend_from_slice(&Frame::hello().encode());
        request.extend_from_slice(&snapshot_frame.encode());
        for chunk in intervals[split..].chunks(4) {
            request.extend_from_slice(
                &Frame::Batch {
                    tenant: 0,
                    intervals: chunk.to_vec(),
                }
                .encode(),
            );
        }
        request.extend_from_slice(&Frame::Finish { tenant: 0 }.encode());
        let server_b = Server::new(ServeOptions::default());
        server_b.handle(request.as_slice()).unwrap();
        let report_b = server_b.finish();
        assert!(report_b.errors.is_empty(), "{:?}", report_b.errors);

        let direct = MonitoringSession::run_limited(&w, &config, n);
        let served = report_b.sessions[0].summary.as_ref().unwrap();
        assert_eq!(format!("{served:?}"), format!("{direct:?}"));
    }

    #[test]
    fn two_connections_with_clashing_wire_ids_are_remapped() {
        let config_a = SessionConfig::new(45_000);
        let config_b = SessionConfig::new(450_000);
        let server = Arc::new(Server::new(ServeOptions {
            shards: 2,
            queue_depth: 16,
            expect_sessions: 2,
            ..ServeOptions::default()
        }));
        // Both producers call their session "tenant 0".
        let a = stream_for("172.mgrid", &config_a, 12, 0);
        let b = stream_for("181.mcf", &config_b, 12, 0);
        let sa = Arc::clone(&server);
        let ta = std::thread::spawn(move || sa.handle(a.as_slice()).unwrap());
        let sb = Arc::clone(&server);
        let tb = std::thread::spawn(move || sb.handle(b.as_slice()).unwrap());
        assert_eq!(ta.join().unwrap() + tb.join().unwrap(), 2);
        let report = server.finish();
        assert_eq!(report.connections, 2);
        assert_eq!(report.sessions.len(), 2);
        for session in &report.sessions {
            assert!(session.summary.is_some(), "{} lost", session.name);
        }
    }

    #[test]
    fn corrupt_stream_is_rejected_but_server_survives() {
        let config = SessionConfig::new(45_000);
        let server = Server::new(ServeOptions {
            shards: 1,
            queue_depth: 16,
            expect_sessions: 1,
            ..ServeOptions::default()
        });
        let mut bad = stream_for("172.mgrid", &config, 6, 0);
        let idx = bad.len() / 2;
        bad[idx] ^= 0xFF;
        assert!(server.handle(bad.as_slice()).is_err());
        // A clean producer still gets through.
        let good = stream_for("172.mgrid", &config, 6, 0);
        server.handle(good.as_slice()).unwrap();
        let report = server.finish();
        assert_eq!(report.errors.len(), 1);
        assert!(report
            .sessions
            .iter()
            .any(|s| s.summary.as_ref().is_some_and(|sum| sum.intervals == 6)));
    }

    #[test]
    fn snapshot_region_outside_the_image_is_rejected_but_server_survives() {
        // A CRC-valid snapshot whose monitor holds a region far wider
        // than the program image: restoring it would size a histogram
        // by the region (2^34 slots) and abort the process.
        let config = SessionConfig::new(45_000);
        let w = suite::by_name("181.mcf").unwrap();
        let mut session = MonitoringSession::new(config.clone());
        session.attach_binary(&w);
        let intervals: Vec<_> = Sampler::new(&w, config.sampling).take(16).collect();
        for interval in &intervals[..8] {
            session.process_interval(interval);
        }
        let mut snapshot = session.snapshot();
        let huge = AddrRange::new(Addr::new(0), Addr::new(1 << 36));
        snapshot.monitor.regions.push(RegionRecord {
            id: RegionId(snapshot.monitor.next_id),
            range: huge,
            kind: RegionKind::Custom,
            created_interval: 8,
        });
        snapshot.monitor.next_id += 1;
        let bytes = crate::snapshot::encode_snapshot(&snapshot);
        assert!(crate::snapshot::decode_snapshot(&bytes).is_ok());

        let mut request = Vec::new();
        request.extend_from_slice(&Frame::hello().encode());
        request.extend_from_slice(
            &Frame::Snapshot(Box::new(crate::wire::SnapshotFrame {
                tenant: 7,
                name: "mcf#bad".into(),
                workload: "181.mcf".into(),
                max_intervals: 16,
                snapshot: bytes,
            }))
            .encode(),
        );
        request.extend_from_slice(
            &Frame::Batch {
                tenant: 7,
                intervals: intervals[8..].to_vec(),
            }
            .encode(),
        );
        let server = Server::new(ServeOptions {
            expect_sessions: 1,
            ..ServeOptions::default()
        });
        let err = server.handle(request.as_slice()).unwrap_err();
        let ServeError::BadSnapshot { tenant, error } = &err else {
            panic!("expected BadSnapshot, got {err}");
        };
        assert_eq!(tenant, "mcf#bad");
        assert_eq!(error.range, huge);
        assert_eq!(error.region, RegionId(snapshot.monitor.next_id - 1));
        let message = err.to_string();
        assert!(
            message.contains("mcf#bad") && message.contains("0-1000000000"),
            "{message}"
        );

        // The server keeps serving: a clean session comes out exactly as
        // an in-process run.
        let good = stream_for("181.mcf", &config, 16, 0);
        server.handle(good.as_slice()).unwrap();
        let report = server.finish();
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.sessions.len(), 1);
        let served = report.sessions[0].summary.as_ref().unwrap();
        let direct = MonitoringSession::run_limited(&w, &config, 16);
        assert_eq!(format!("{served:?}"), format!("{direct:?}"));
    }

    #[test]
    fn batch_before_admit_is_a_protocol_error() {
        let server = Server::new(ServeOptions::default());
        let mut bytes = Vec::new();
        crate::wire::write_frame(&mut bytes, &Frame::hello()).unwrap();
        crate::wire::write_frame(
            &mut bytes,
            &Frame::Batch {
                tenant: 7,
                intervals: Vec::new(),
            },
        )
        .unwrap();
        let err = server.handle(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    }
}
