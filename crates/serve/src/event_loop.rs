//! The serve loop behind [`crate::server::serve_unix`] and
//! [`crate::server::serve_tcp`] (unix only).
//!
//! A small fixed pool of workers multiplexes *all* connections: each
//! worker owns a set of nonblocking sockets, sleeps in `poll(2)` until
//! one of them is readable (or writable, when a reply is pending), and
//! feeds whatever bytes arrive through that connection's
//! [`FrameParser`] + [`Conn`] state machine — the same machinery
//! [`Server::handle_io`] runs in-process, so results are
//! byte-identical. 256 idle producers cost 256 pollfd entries, not 256
//! threads.
//!
//! `poll(2)` is declared directly against glibc rather than pulled in
//! as a dependency: one `#[repr(C)]` struct and one foreign function,
//! confined to the [`sys`] module.
//!
//! Properties:
//!
//! * **Per-connection error isolation** — a bad stream is recorded in
//!   the report and its socket dropped; every other connection on the
//!   same worker keeps flowing.
//! * **Graceful drain** — when the expected number of sessions has
//!   finished, the listener stops accepting but workers keep polling
//!   until every live connection reaches EOF, then the engine's drain
//!   barrier runs as usual.
//! * **Bounded shutdown** — connections still open at the drain
//!   deadline are force-dropped and counted as stragglers.
//! * **Idle reaping** — a connection silent past
//!   [`ServeOptions::idle_timeout`] is dropped with a timeout error.
//! * **Admission control** — beyond [`ServeOptions::max_conns`] live
//!   connections, new ones get a `Busy` reply instead of a slot.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::server::{Conn, ServeOptions, ServeReport, Server};
use crate::wire::FrameParser;

/// Direct glibc declarations for `poll(2)`, kept to the bare minimum
/// the loop needs (the crate otherwise denies `unsafe_code`).
#[allow(unsafe_code)]
mod sys {
    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// There is data to read.
    pub const POLLIN: i16 = 0x1;
    /// Writing now will not block.
    pub const POLLOUT: i16 = 0x4;

    extern "C" {
        /// `int poll(struct pollfd *fds, nfds_t nfds, int timeout)`.
        fn poll(fds: *mut pollfd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
    }

    /// Waits up to `timeout_ms` for readiness on `fds`, returning how
    /// many entries have non-zero `revents`.
    pub fn poll_fds(fds: &mut [pollfd], timeout_ms: i32) -> std::io::Result<usize> {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // correctly-laid-out (#[repr(C)]) pollfd structs, and the
        // length passed matches the slice; the kernel only writes the
        // `revents` fields within it.
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

/// One multiplexed connection: socket, incremental parser, protocol
/// state machine.
struct EventConn<S> {
    stream: S,
    parser: FrameParser,
    conn: Conn,
    /// Last time this socket showed readiness; drives idle reaping.
    last_activity: Instant,
}

/// State shared between the accept loop and the worker pool.
struct WorkerShared {
    /// The listener is still accepting; workers exit once this drops
    /// and their connection set drains.
    accepting: AtomicBool,
    /// Live multiplexed connections, for admission control.
    live: AtomicUsize,
    /// Connections force-dropped at the drain deadline.
    stragglers: AtomicUsize,
}

/// Writes as much pending reply as the socket will take without
/// blocking; leftovers stay queued and POLLOUT re-arms the flush.
fn flush_replies<S: Write>(c: &mut EventConn<S>) -> Result<(), ServeError> {
    while !c.conn.out.is_empty() {
        match c.stream.write(&c.conn.out) {
            Ok(0) => {
                return Err(ServeError::Io(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "peer stopped accepting reply bytes",
                )))
            }
            Ok(n) => {
                c.conn.out.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    Ok(())
}

/// Services one ready connection: flush pending replies, then read and
/// parse until the socket would block. `Ok(false)` means the peer
/// closed cleanly and the connection is complete.
fn service<S: Read + Write>(
    server: &Server,
    c: &mut EventConn<S>,
    telemetry_on: bool,
    flush_deadline: Duration,
) -> Result<bool, ServeError> {
    flush_replies(c)?;
    let mut buf = [0u8; 16 * 1024];
    loop {
        match c.stream.read(&mut buf) {
            Ok(0) => {
                c.parser.finish_eof()?;
                // Final replies (e.g. a Snapshot answering a Checkpoint
                // that closed the stream): the peer half-closed its
                // write side but still reads, so retry through
                // WouldBlock — bounded, so a peer that never reads
                // cannot pin this worker past the drain deadline.
                let deadline = Instant::now() + flush_deadline;
                while !c.conn.out.is_empty() {
                    let before = c.conn.out.len();
                    flush_replies(c)?;
                    if c.conn.out.len() == before {
                        if Instant::now() >= deadline {
                            return Err(ServeError::Timeout(
                                "peer stopped reading its final replies".into(),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                return Ok(false);
            }
            Ok(n) => {
                server.account(n as u64, 0, telemetry_on);
                c.parser.feed(&buf[..n]);
                server.drain_parser(&mut c.parser, &mut c.conn, telemetry_on)?;
                flush_replies(c)?;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
}

fn worker_loop<S: Read + Write + AsRawFd>(
    server: &Server,
    injector: &Mutex<Vec<S>>,
    shared: &WorkerShared,
    telemetry_on: bool,
    idle: Option<Duration>,
    drain_deadline: Duration,
) {
    let mut conns: Vec<EventConn<S>> = Vec::new();
    let mut fds: Vec<sys::pollfd> = Vec::new();
    let mut drain_since: Option<Instant> = None;
    loop {
        for stream in injector.lock().expect("injector poisoned").drain(..) {
            server.conn_opened(telemetry_on);
            conns.push(EventConn {
                stream,
                parser: FrameParser::new(),
                conn: Conn::new(),
                last_activity: Instant::now(),
            });
        }
        let accepting = shared.accepting.load(Ordering::Acquire);
        if conns.is_empty() {
            if !accepting {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        if !accepting {
            // Bounded drain: give straggling connections up to the
            // deadline to reach EOF, then force-drop them — one stuck
            // peer must never hang shutdown.
            let since = *drain_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= drain_deadline {
                let n = conns.len();
                shared.stragglers.fetch_add(n, Ordering::Relaxed);
                shared.live.fetch_sub(n, Ordering::Relaxed);
                for _ in conns.drain(..) {
                    server.conn_closed(
                        &Err(ServeError::Timeout(
                            "connection unfinished at the drain deadline".into(),
                        )),
                        telemetry_on,
                    );
                }
                return;
            }
        }
        fds.clear();
        for c in &conns {
            let mut events = sys::POLLIN;
            if !c.conn.out.is_empty() {
                events |= sys::POLLOUT;
            }
            fds.push(sys::pollfd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        let ready = match sys::poll_fds(&mut fds, 5) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if telemetry_on && ready > 0 {
            regmon_telemetry::metrics::SERVE_EVENT_WAKEUPS.inc();
        }
        let now = Instant::now();
        // Reverse order so swap_remove never disturbs an index still
        // to be visited.
        for i in (0..conns.len()).rev() {
            // POLLERR/POLLHUP arrive unrequested; any readiness bit
            // means "go find out via read/write".
            if fds[i].revents == 0 {
                // No readiness: reap the connection if it has been
                // idle past the deadline.
                if let Some(idle) = idle {
                    if now.duration_since(conns[i].last_activity) >= idle {
                        conns.swap_remove(i);
                        shared.live.fetch_sub(1, Ordering::Relaxed);
                        if telemetry_on {
                            regmon_telemetry::metrics::SERVE_TIMEOUTS.inc();
                        }
                        server.conn_closed(
                            &Err(ServeError::Timeout(
                                "connection idle past the read deadline".into(),
                            )),
                            telemetry_on,
                        );
                    }
                }
                continue;
            }
            conns[i].last_activity = now;
            match service(server, &mut conns[i], telemetry_on, drain_deadline) {
                Ok(true) => {}
                Ok(false) => {
                    let c = conns.swap_remove(i);
                    shared.live.fetch_sub(1, Ordering::Relaxed);
                    server.conn_closed(&Ok(c.conn.finished_sessions()), telemetry_on);
                }
                Err(e) => {
                    conns.swap_remove(i);
                    shared.live.fetch_sub(1, Ordering::Relaxed);
                    server.conn_closed(&Err(e), telemetry_on);
                }
            }
        }
    }
}

/// Runs the accept loop with a fixed pool of readiness workers, until
/// the server's expected sessions have finished; then drains every
/// remaining connection to EOF and collects the report.
///
/// # Errors
///
/// Recovery failures; accept failures, named by `socket`.
/// Per-connection errors land in [`ServeReport::errors`].
pub(crate) fn serve_events<L, S>(
    socket: &str,
    listener: L,
    accept: impl Fn(&L) -> std::io::Result<S>,
    options: ServeOptions,
) -> Result<ServeReport, ServeError>
where
    S: Read + Write + AsRawFd + Send + 'static,
{
    let telemetry_on = regmon_telemetry::enabled();
    let workers = options.event_workers.max(1);
    let max_conns = options.max_conns;
    let idle = options.idle_timeout;
    let drain_deadline = options.drain_deadline;
    let server = Arc::new(Server::new(options));
    if let Err(e) = server.recover() {
        // The engine has no `Drop`: join its shard threads.
        let _ = server.finish();
        return Err(e);
    }
    let shared = Arc::new(WorkerShared {
        accepting: AtomicBool::new(true),
        live: AtomicUsize::new(0),
        stragglers: AtomicUsize::new(0),
    });
    let injectors: Vec<Arc<Mutex<Vec<S>>>> = (0..workers)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let handles: Vec<_> = injectors
        .iter()
        .map(|injector| {
            let server = Arc::clone(&server);
            let injector = Arc::clone(injector);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                worker_loop(
                    &server,
                    &injector,
                    &shared,
                    telemetry_on,
                    idle,
                    drain_deadline,
                )
            })
        })
        .collect();
    let mut next = 0usize;
    let mut listen_error = None;
    while !server.done() {
        match accept(&listener) {
            Ok(mut stream) => {
                // Admission control at accept time: beyond the cap the
                // connection gets a graceful Busy reply, not a handler.
                if max_conns > 0 && shared.live.load(Ordering::Relaxed) >= max_conns {
                    server.shed(&mut stream, telemetry_on);
                    continue;
                }
                shared.live.fetch_add(1, Ordering::Relaxed);
                injectors[next % workers]
                    .lock()
                    .expect("injector poisoned")
                    .push(stream);
                next += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                listen_error = Some(e);
                break;
            }
        }
    }
    shared.accepting.store(false, Ordering::Release);
    for handle in handles {
        let _ = handle.join();
    }
    if let Some(e) = listen_error {
        // Still drain what we ingested so the engine shuts down clean.
        let _ = server.finish();
        return Err(crate::server::socket_error(socket, e));
    }
    let mut report = server.finish();
    report.stragglers = shared.stragglers.load(Ordering::Relaxed);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalWriter;
    use crate::wire::{AdmitFrame, Frame};
    use regmon::{MonitoringSession, SessionConfig};
    use regmon_sampling::Sampler;
    use regmon_workload::suite;
    use std::os::unix::net::{UnixListener, UnixStream};

    fn socket_path(stem: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("regmon-serve-eventloop-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{stem}-{}.sock", std::process::id()))
    }

    /// A producer stream: one session's journal, `Hello` to `Finish`.
    fn session_stream(workload: &str, config: &SessionConfig, n: usize) -> Vec<u8> {
        let w = suite::by_name(workload).unwrap();
        let mut journal = JournalWriter::new(Vec::new()).unwrap();
        journal
            .admit(AdmitFrame {
                tenant: 0,
                name: format!("{workload}#0"),
                workload: workload.to_string(),
                config: config.clone(),
                max_intervals: n as u64,
            })
            .unwrap();
        let intervals: Vec<_> = Sampler::new(&w, config.sampling).take(n).collect();
        for chunk in intervals.chunks(3) {
            journal.batch(0, chunk.to_vec()).unwrap();
        }
        journal.finish(0).unwrap();
        journal.into_inner().unwrap()
    }

    /// Streams `bytes` as a producer: writes them all, half-closes, then
    /// reads the server's replies to EOF.
    fn produce(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut stream = UnixStream::connect(path)?;
        stream.write_all(bytes)?;
        stream.shutdown(std::net::Shutdown::Write)?;
        let mut replies = Vec::new();
        stream.read_to_end(&mut replies)?;
        Ok(replies)
    }

    #[test]
    fn event_loop_serves_idle_and_active_connections() {
        let config = SessionConfig::new(45_000);
        let active = 3usize;
        let path = socket_path("mixed");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        listener.set_nonblocking(true).unwrap();
        let options = ServeOptions {
            expect_sessions: active,
            event_workers: 2,
            ..ServeOptions::default()
        };
        let server_path = path.clone();
        let serving = std::thread::spawn(move || {
            serve_events(
                "test.sock",
                listener,
                |l| {
                    let (stream, _) = l.accept()?;
                    stream.set_nonblocking(true)?;
                    Ok(stream)
                },
                options,
            )
        });
        // A few producers that connect and say nothing...
        let idle: Vec<UnixStream> = (0..5)
            .map(|_| UnixStream::connect(&server_path).unwrap())
            .collect();
        // ...and some that stream full sessions concurrently.
        let senders: Vec<_> = (0..active)
            .map(|_| {
                let bytes = session_stream("172.mgrid", &config, 10);
                let path = server_path.clone();
                std::thread::spawn(move || {
                    let replies = produce(&path, &bytes).unwrap();
                    assert_eq!(replies, Frame::hello().encode());
                })
            })
            .collect();
        for sender in senders {
            sender.join().unwrap();
        }
        // Idle connections must close for the drain to complete.
        drop(idle);
        let report = serving.join().unwrap().unwrap();
        std::fs::remove_file(&server_path).ok();

        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.sessions.len(), active);
        assert_eq!(report.connections, active + 5);
        let w = suite::by_name("172.mgrid").unwrap();
        let direct = MonitoringSession::run_limited(&w, &config, 10);
        for session in &report.sessions {
            let summary = session.summary.as_ref().unwrap();
            assert_eq!(format!("{summary:?}"), format!("{direct:?}"));
        }
    }

    #[test]
    fn bad_stream_is_isolated_from_healthy_ones() {
        let config = SessionConfig::new(45_000);
        let path = socket_path("isolated");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        listener.set_nonblocking(true).unwrap();
        let options = ServeOptions {
            expect_sessions: 1,
            event_workers: 1,
            ..ServeOptions::default()
        };
        let server_path = path.clone();
        let serving = std::thread::spawn(move || {
            serve_events(
                "test.sock",
                listener,
                |l| {
                    let (stream, _) = l.accept()?;
                    stream.set_nonblocking(true)?;
                    Ok(stream)
                },
                options,
            )
        });
        // A corrupt producer (bad CRC mid-stream)...
        let mut bad = session_stream("172.mgrid", &config, 6);
        let idx = bad.len() / 2;
        bad[idx] ^= 0xFF;
        let _ = produce(&server_path, &bad);
        // ...must not stop a healthy one on the same worker.
        let good = session_stream("172.mgrid", &config, 6);
        let replies = produce(&server_path, &good).unwrap();
        assert_eq!(replies, Frame::hello().encode());
        let report = serving.join().unwrap().unwrap();
        std::fs::remove_file(&server_path).ok();

        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(report
            .sessions
            .iter()
            .any(|s| s.summary.as_ref().is_some_and(|sum| sum.intervals == 6)));
    }
}
