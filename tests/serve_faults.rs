//! Fault-injection and durability suite.
//!
//! Drives the retrying wire client, the write-ahead log and the
//! recovery path through scripted failures and asserts the one
//! property that matters everywhere: **recovery identity** — no matter
//! where a connection dies, where the process is killed, or where a
//! WAL tail is torn, the session that eventually finishes is
//! byte-identical (same `SessionSummary`) to one that never failed,
//! with no duplicated and no lost intervals.
//!
//! All faults are deterministic: seeded [`FaultPlan`]s script wire
//! mangling frame-by-frame, and every failing case reproduces from its
//! seed alone.
#![cfg(unix)]

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use regmon::SessionConfig;
use regmon_sampling::{Interval, Sampler};
use regmon_serve::wire::{read_frame, AdmitFrame, Frame};
use regmon_serve::{
    parse_wal, send_plan, serve_unix, ClientError, DurableOptions, Fault, FaultKind, FaultPlan,
    FsyncPolicy, RetryPolicy, SendPlan, ServeOptions, ServeReport, Server, SessionStream,
};
use regmon_workload::suite;

const WORKLOAD: &str = "181.mcf";
const TOTAL: usize = 24;
const BATCH: usize = 4;

fn config() -> SessionConfig {
    SessionConfig::new(45_000)
}

fn intervals() -> Vec<Interval> {
    let w = suite::by_name(WORKLOAD).unwrap();
    Sampler::new(&w, config().sampling).take(TOTAL).collect()
}

fn admit() -> AdmitFrame {
    AdmitFrame {
        tenant: 0,
        name: WORKLOAD.to_string(),
        workload: WORKLOAD.to_string(),
        config: config(),
        max_intervals: TOTAL as u64,
    }
}

/// A single-session plan carrying the first `take` intervals.
fn plan(take: usize, finish: bool) -> SendPlan {
    let all = intervals();
    SendPlan {
        sessions: vec![SessionStream {
            admit: admit(),
            snapshot: None,
            base: 0,
            batches: all[..take].chunks(BATCH).map(<[_]>::to_vec).collect(),
            finish,
            checkpoint: false,
        }],
    }
}

fn policy(retries: u32) -> RetryPolicy {
    RetryPolicy {
        retries,
        timeout: Duration::from_secs(5),
        backoff: Duration::from_millis(1),
    }
}

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("regmon-faults-{tag}-{}.sock", std::process::id()))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regmon-faults-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(path: &Path, options: ServeOptions) -> JoinHandle<ServeReport> {
    std::fs::remove_file(path).ok();
    let bound = path.to_path_buf();
    let handle = std::thread::spawn(move || serve_unix(&bound, options).expect("serve"));
    let deadline = Instant::now() + Duration::from_secs(5);
    while !path_bound(path) {
        assert!(Instant::now() < deadline, "server socket never appeared");
        std::thread::sleep(Duration::from_millis(2));
    }
    handle
}

fn path_bound(path: &Path) -> bool {
    path.exists()
}

/// Connects, retrying briefly: `UnixListener::bind` creates the socket
/// file on the `bind` syscall, before `listen`, so an early dial can
/// land in that window and see `ConnectionRefused`.
fn connect_ready(path: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return stream,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => panic!("connect {path:?}: {e}"),
        }
    }
}

/// A connect closure dialing `path` with the policy's read deadline.
fn dial(path: &Path) -> impl FnMut() -> std::io::Result<UnixStream> + '_ {
    move || {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(stream)
    }
}

/// The summary of an uninterrupted serve run (the identity target),
/// rendered through `Debug` (field-by-field equality).
fn clean_summary() -> &'static str {
    static CLEAN: OnceLock<String> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let server = Arc::new(Server::new(ServeOptions::default()));
        let (client, srv) = UnixStream::pair().unwrap();
        let handle = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.handle_io(srv))
        };
        let mut stream = Some(client);
        send_plan(
            move || Ok(stream.take().unwrap()),
            &plan(TOTAL, true),
            &policy(0),
            false,
            None,
        )
        .unwrap();
        handle.join().unwrap().unwrap();
        let report = server.finish();
        summary_of(&report)
    })
}

fn summary_of(report: &ServeReport) -> String {
    assert_eq!(report.sessions.len(), 1, "exactly one session expected");
    let session = &report.sessions[0];
    format!(
        "{:?}",
        session
            .summary
            .as_ref()
            .expect("session should have finished")
    )
}

/// Every seeded fault schedule — drops, torn frames, bit flips and
/// delays at scripted wire positions — converges within the retry
/// budget to a session byte-identical to the unfaulted run.
#[test]
fn injected_faults_converge_within_retry_budget() {
    for seed in 1..=6u64 {
        let mut faults = FaultPlan::seeded(seed, 40, 3);
        let sock = sock_path(&format!("matrix-{seed}"));
        let server = start_server(&sock, ServeOptions::default());
        let outcome = send_plan(
            dial(&sock),
            &plan(TOTAL, true),
            &policy(10),
            false,
            Some(&mut faults),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: send failed: {e}"));
        assert_eq!(outcome.intervals, TOTAL as u64, "seed {seed}");
        let report = server.join().unwrap();
        assert_eq!(summary_of(&report), clean_summary(), "seed {seed}");
        std::fs::remove_file(&sock).ok();
    }
}

/// With the retry budget exhausted, the client reports the exact
/// frame / interval position it reached and exits with an error; a
/// later `--resume` send picks the stream up with no duplicated and
/// no lost intervals.
#[test]
fn dropped_send_reports_position_and_resumes() {
    let sock = sock_path("dropped");
    let server = start_server(&sock, ServeOptions::default());
    // Frames: 0 Hello, 1 Admit, 2.. batches. Dropping before frame 4
    // lands exactly two batches (eight intervals) on the wire.
    let mut faults = FaultPlan::new(vec![Fault {
        frame: 4,
        kind: FaultKind::Drop,
    }]);
    let err = send_plan(
        dial(&sock),
        &plan(TOTAL, true),
        &policy(0),
        false,
        Some(&mut faults),
    )
    .expect_err("the drop must surface once retries are exhausted");
    match &err {
        ClientError::Dropped {
            intervals,
            attempts,
            ..
        } => {
            assert_eq!(*intervals, 2 * BATCH as u64);
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected Dropped, got {other}"),
    }
    let text = err.to_string();
    assert!(
        text.contains("connection dropped at frame") && text.contains("interval(s) sent"),
        "{text}"
    );

    // A fresh process resumes the same plan: the server acks the last
    // folded interval and only the tail travels again.
    let outcome = send_plan(dial(&sock), &plan(TOTAL, true), &policy(0), true, None).unwrap();
    assert_eq!(outcome.intervals, TOTAL as u64);
    let report = server.join().unwrap();
    assert_eq!(summary_of(&report), clean_summary());
    std::fs::remove_file(&sock).ok();
}

/// Truncating a WAL byte stream at **every** possible offset always
/// lands on the last complete record: the scanner never yields a
/// partial frame and never consumes past a record boundary.
#[test]
fn torn_wal_tail_lands_on_last_complete_record() {
    // Slim the sample buffers down: the scanner's behavior is
    // payload-agnostic and the every-byte sweep is quadratic in the
    // stream length.
    let mut all = intervals();
    for interval in &mut all {
        interval.samples.truncate(4);
    }
    let mut frames = vec![Frame::Admit(Box::new(admit()))];
    for chunk in all.chunks(BATCH) {
        frames.push(Frame::Batch {
            tenant: 0,
            intervals: chunk.to_vec(),
        });
    }
    frames.push(Frame::Finish { tenant: 0 });

    let mut bytes = Vec::new();
    let mut bounds = vec![0usize];
    for frame in &frames {
        bytes.extend_from_slice(&frame.encode());
        bounds.push(bytes.len());
    }

    for cut in 0..=bytes.len() {
        let (parsed, consumed) = parse_wal(&bytes[..cut]).expect("torn tails are not errors");
        let whole = bounds.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(consumed, bounds[whole], "cut at byte {cut}");
        assert_eq!(parsed.len(), whole, "cut at byte {cut}");
        let reencoded: Vec<u8> = parsed.iter().flat_map(Frame::encode).collect();
        assert_eq!(reencoded, bytes[..consumed], "cut at byte {cut}");
    }

    // A flipped byte mid-record stops the scan at the previous
    // boundary instead of yielding a corrupt frame.
    let mut corrupt = bytes.clone();
    let mid = bounds[2] + (bounds[3] - bounds[2]) / 2;
    corrupt[mid] ^= 0x01;
    let (parsed, consumed) = parse_wal(&corrupt).expect("torn tails are not errors");
    assert_eq!(consumed, bounds[2]);
    assert_eq!(parsed.len(), 2);
}

fn durable(dir: &Path) -> Option<DurableOptions> {
    Some(DurableOptions {
        dir: dir.to_path_buf(),
        checkpoint_every: 4,
        fsync: FsyncPolicy::Never,
    })
}

/// Feeds `take` intervals (no finish) into a durable server over an
/// in-process socket pair, then abandons it mid-session — the WAL and
/// checkpoints on disk are all that survives, exactly like a SIGKILL.
fn ingest_partial(dir: &Path, take: usize) {
    let server = Arc::new(Server::new(ServeOptions {
        durable: durable(dir),
        ..ServeOptions::default()
    }));
    let (client, srv) = UnixStream::pair().unwrap();
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.handle_io(srv))
    };
    let mut stream = Some(client);
    send_plan(
        move || Ok(stream.take().unwrap()),
        &plan(take, false),
        &policy(0),
        false,
        None,
    )
    .unwrap();
    handle.join().unwrap().unwrap();
    // No finish(): the session is mid-flight when the server dies.
}

/// Recovers from `dir` and resumes the full stream; returns the
/// recovered server's report.
fn recover_and_complete(dir: &Path) -> ServeReport {
    let server = Arc::new(Server::new(ServeOptions {
        durable: durable(dir),
        recover: true,
        ..ServeOptions::default()
    }));
    assert_eq!(server.recover().unwrap(), 1);
    let (client, srv) = UnixStream::pair().unwrap();
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.handle_io(srv))
    };
    let mut stream = Some(client);
    let outcome = send_plan(
        move || Ok(stream.take().unwrap()),
        &plan(TOTAL, true),
        &policy(0),
        true,
        None,
    )
    .unwrap();
    assert_eq!(outcome.intervals, TOTAL as u64);
    handle.join().unwrap().unwrap();
    server.finish()
}

/// Crash-recovery identity: kill a durable server mid-session at
/// several different points (straddling checkpoint boundaries),
/// recover, resume — the finished session is byte-identical to one
/// that never crashed.
#[test]
fn crash_recovery_is_byte_identical() {
    for take in [1, 4, 7, 13, 23] {
        let dir = temp_dir(&format!("crash-{take}"));
        ingest_partial(&dir, take);
        let report = recover_and_complete(&dir);
        assert_eq!(report.recovered, 1, "take {take}");
        assert_eq!(summary_of(&report), clean_summary(), "take {take}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A WAL whose tail was torn by the crash (half a record on disk) is
/// truncated to the last complete record at recovery — never fatal —
/// and the resumed stream still lands on the identical session.
#[test]
fn recovery_truncates_torn_wal_tail() {
    let dir = temp_dir("torn");
    ingest_partial(&dir, 13);
    let wal = dir.join("session-0000.wal");
    let full = std::fs::metadata(&wal).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(full - 3).unwrap();
    drop(file);

    let report = recover_and_complete(&dir);
    assert_eq!(report.recovered, 1);
    assert_eq!(summary_of(&report), clean_summary());
    assert!(
        std::fs::metadata(&wal).unwrap().len() > full - 3,
        "the resumed tail should have been re-logged past the torn point"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A server over `dir`, rebuilt from it first when `recover` is set.
fn durable_server(dir: &Path, recover: bool) -> Arc<Server> {
    let server = Arc::new(Server::new(ServeOptions {
        durable: durable(dir),
        recover,
        ..ServeOptions::default()
    }));
    let recovered = server.recover().unwrap();
    assert_eq!(recovered, usize::from(recover));
    server
}

/// Streams `plan` into `server` over one in-process socket pair; with
/// `resume` the connection opens with a `Resume` handshake.
fn send_to(server: &Arc<Server>, plan: &SendPlan, resume: bool) {
    let (client, srv) = UnixStream::pair().unwrap();
    let handle = {
        let server = Arc::clone(server);
        std::thread::spawn(move || server.handle_io(srv))
    };
    let mut stream = Some(client);
    let dial = move || Ok(stream.take().unwrap());
    send_plan(dial, plan, &policy(0), resume, None).unwrap();
    handle.join().unwrap().unwrap();
}

/// A session admitted by a `Snapshot` frame (a migration's second half)
/// into a durable server crashes, recovers from its WAL and resumes
/// byte-identically.
#[test]
fn snapshot_admitted_session_recovers_byte_identically() {
    const BASE: usize = 6;
    let w = suite::by_name(WORKLOAD).unwrap();
    let mut session = regmon::MonitoringSession::new(config());
    session.attach_binary(&w);
    let all = intervals();
    for interval in &all[..BASE] {
        session.process_interval(interval);
    }
    let blob = regmon_serve::snapshot::encode_snapshot(&session.snapshot());
    let suffix = |take: usize, finish: bool| SendPlan {
        sessions: vec![SessionStream {
            snapshot: Some(blob.clone()),
            base: BASE as u64,
            batches: all[BASE..take].chunks(BATCH).map(<[_]>::to_vec).collect(),
            finish,
            ..plan(0, false).sessions.remove(0)
        }],
    };
    for take in [BASE + 3, BASE + 9] {
        let dir = temp_dir(&format!("snapshot-{take}"));
        send_to(&durable_server(&dir, false), &suffix(take, false), false);
        let server = durable_server(&dir, true);
        send_to(&server, &suffix(TOTAL, true), true);
        let report = Arc::into_inner(server).unwrap().finish();
        assert_eq!(summary_of(&report), clean_summary(), "take {take}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A WAL closed by `Checkpoint` recovers as a migrated session: no
/// summary, counted finished. A WAL closed by `Finish` recovers its
/// summary, counts finished, and is never appended to again.
#[test]
fn closed_wals_recover_as_migrated_or_finished() {
    let dir = temp_dir("closed-checkpoint");
    let mut handoff = plan(10, false);
    handoff.sessions[0].checkpoint = true;
    send_to(&durable_server(&dir, false), &handoff, false);
    let server = durable_server(&dir, true);
    assert!(server.done(), "a migrated session counts as finished");
    let report = Arc::into_inner(server).unwrap().finish();
    assert_eq!(report.recovered, 1);
    assert!(report.sessions[0].migrated);
    assert!(report.sessions[0].summary.is_none());
    std::fs::remove_dir_all(&dir).ok();

    let dir = temp_dir("closed-finish");
    send_to(&durable_server(&dir, false), &plan(TOTAL, true), false);
    let wal = dir.join("session-0000.wal");
    let closed = std::fs::read(&wal).unwrap();
    let server = durable_server(&dir, true);
    assert!(server.done(), "a finished session counts as finished");
    // A resuming producer learns the session is done and sends nothing.
    send_to(&server, &plan(TOTAL, true), true);
    let report = Arc::into_inner(server).unwrap().finish();
    assert_eq!(report.recovered, 1);
    assert!(!report.sessions[0].migrated);
    assert_eq!(summary_of(&report), clean_summary());
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        closed,
        "finished WAL reopened"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A producer that reconnects with `Resume` under another wire tenant
/// id writes later WAL records under that id; the WAL is still one
/// session, and recovery stays byte-identical.
#[test]
fn session_resumed_under_another_wire_id_recovers_byte_identically() {
    let dir = temp_dir("rebound");
    let server = durable_server(&dir, false);
    send_to(&server, &plan(7, false), false);
    let mut rebound = plan(15, false);
    rebound.sessions[0].admit.tenant = 5;
    send_to(&server, &rebound, true);
    drop(server);

    let report = recover_and_complete(&dir);
    assert_eq!(report.recovered, 1);
    assert_eq!(summary_of(&report), clean_summary());
    std::fs::remove_dir_all(&dir).ok();
}

/// `Batch` frames that re-send intervals already folded in, in part and
/// in whole, are dropped live; after a crash the recovered session
/// holds each interval exactly once.
#[test]
fn overlapping_batches_recover_byte_identically() {
    let all = intervals();
    let mut bytes = Frame::hello().encode();
    bytes.extend_from_slice(&Frame::Admit(Box::new(admit())).encode());
    for range in [0..4, 2..8, 0..8, 5..13] {
        let batch = Frame::Batch {
            tenant: 0,
            intervals: all[range].to_vec(),
        };
        bytes.extend_from_slice(&batch.encode());
    }
    let dir = temp_dir("overlap");
    durable_server(&dir, false)
        .handle(bytes.as_slice())
        .unwrap();

    let report = recover_and_complete(&dir);
    assert_eq!(report.recovered, 1);
    assert_eq!(summary_of(&report), clean_summary());
    std::fs::remove_dir_all(&dir).ok();
}

/// A last WAL with no complete record is what a crash between creating
/// it and appending its opener leaves: a session that was never
/// admitted. Recovery skips it without counting it, and the next
/// admission takes its slot.
#[test]
fn opener_less_last_wal_frees_its_slot() {
    let opener = Frame::Admit(Box::new(admit())).encode();
    for (tag, left) in [
        ("empty", &opener[..0]),
        ("torn", &opener[..opener.len() / 2]),
    ] {
        let dir = temp_dir(&format!("opener-less-{tag}"));
        send_to(&durable_server(&dir, false), &plan(TOTAL, true), false);
        let wal = dir.join("session-0001.wal");
        std::fs::write(&wal, left).unwrap();
        let server = durable_server(&dir, true);
        send_to(&server, &plan(TOTAL, true), false);
        let report = Arc::into_inner(server).unwrap().finish();
        assert_eq!(report.recovered, 1, "{tag}");
        assert_eq!(report.sessions.len(), 2, "{tag}");
        for session in &report.sessions {
            let summary = session.summary.as_ref().expect("session finished");
            assert_eq!(format!("{summary:?}"), clean_summary(), "{tag}");
        }
        let relogged = parse_wal(&std::fs::read(&wal).unwrap()).unwrap().0;
        assert_eq!(relogged.first(), Some(&Frame::Admit(Box::new(admit()))));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A WAL with no opener before the last slot cannot be a crash during
/// admission, and recovery fails naming it.
#[test]
fn opener_less_wal_before_the_last_fails_by_name() {
    let dir = temp_dir("opener-less-first");
    send_to(&durable_server(&dir, false), &plan(TOTAL, true), false);
    std::fs::rename(dir.join("session-0000.wal"), dir.join("session-0001.wal")).unwrap();
    std::fs::write(dir.join("session-0000.wal"), b"").unwrap();
    let server = Server::new(ServeOptions {
        durable: durable(&dir),
        recover: true,
        ..ServeOptions::default()
    });
    let err = server.recover().unwrap_err().to_string();
    let _ = server.finish();
    assert!(
        err.contains("session-0000.wal") && err.contains("WAL opens with no record"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Past `--max-conns`, new connections get a graceful `Busy` reply
/// (not a hang, not a reset) and a retrying client converges once a
/// slot frees up.
#[test]
fn excess_connections_shed_with_busy() {
    let sock = sock_path("busy");
    let server = start_server(
        &sock,
        ServeOptions {
            max_conns: 1,
            ..ServeOptions::default()
        },
    );
    // Hold the only slot with a silent connection.
    let held = connect_ready(&sock);
    // Give the acceptor time to hand the held connection off.
    std::thread::sleep(Duration::from_millis(30));
    let second = connect_ready(&sock);
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match read_frame(&mut &second) {
        Ok(Some(Frame::Busy { message })) => {
            assert!(message.contains("retry"), "{message}");
        }
        other => panic!("expected a Busy reply, got {other:?}"),
    }
    drop(second);
    drop(held);

    // With the slot free again, a retrying send converges.
    let outcome = send_plan(dial(&sock), &plan(TOTAL, true), &policy(8), false, None).unwrap();
    assert_eq!(outcome.intervals, TOTAL as u64);
    let report = server.join().unwrap();
    assert!(report.shed >= 1, "shed {}", report.shed);
    assert_eq!(summary_of(&report), clean_summary());
    std::fs::remove_file(&sock).ok();
}

/// One wedged peer never hangs shutdown: the poll workers force-drop
/// unfinished connections once the drain deadline expires and report
/// a straggler.
#[test]
fn stuck_peer_cannot_hang_shutdown() {
    let sock = sock_path("stuck");
    let server = start_server(
        &sock,
        ServeOptions {
            // No idle reaping: only the drain deadline may save us.
            idle_timeout: None,
            drain_deadline: Duration::from_millis(300),
            ..ServeOptions::default()
        },
    );
    // A peer that sends half a frame header and wedges forever.
    let mut stuck = connect_ready(&sock);
    stuck.write_all(&[0x20, 0x00]).unwrap();
    stuck.flush().unwrap();
    std::thread::sleep(Duration::from_millis(30));

    let outcome = send_plan(dial(&sock), &plan(TOTAL, true), &policy(0), false, None).unwrap();
    assert_eq!(outcome.intervals, TOTAL as u64);

    let started = Instant::now();
    let report = server.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(report.stragglers, 1, "errors: {:?}", report.errors);
    assert_eq!(summary_of(&report), clean_summary());
    drop(stuck);
    std::fs::remove_file(&sock).ok();
}

/// A connection that goes silent mid-stream is reaped by the idle
/// deadline instead of pinning its handler forever.
#[test]
fn idle_peer_is_reaped() {
    let sock = sock_path("idle");
    let server = start_server(
        &sock,
        ServeOptions {
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServeOptions::default()
        },
    );
    let idle = connect_ready(&sock);
    std::thread::sleep(Duration::from_millis(30));

    let outcome = send_plan(dial(&sock), &plan(TOTAL, true), &policy(0), false, None).unwrap();
    assert_eq!(outcome.intervals, TOTAL as u64);
    let report = server.join().unwrap();
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.contains("idle past the read deadline")),
        "errors: {:?}",
        report.errors
    );
    assert_eq!(report.stragglers, 0);
    assert_eq!(summary_of(&report), clean_summary());
    drop(idle);
    std::fs::remove_file(&sock).ok();
}
