//! End-to-end tests of the serve-mode subcommands: `--record`,
//! `replay`, `serve` and `send`.
//!
//! The core guarantee under test: every transport — in-process run,
//! journal replay, checkpoint/resume replay, and a served wire stream —
//! emits *byte-identical* `--json` reports for the same session.

use std::path::PathBuf;
use std::process::Command;

fn regmon(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_regmon"))
        .args(args)
        .output()
        .expect("spawn regmon");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_dir(stem: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regmon-serve-cli-{stem}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn record_then_replay_is_byte_identical_to_run() {
    let dir = temp_dir("replay");
    let journal = dir.join("session.rgj");
    let journal = journal.to_str().unwrap();

    let (ok, run_json, _) = regmon(&[
        "run",
        "181.mcf",
        "--intervals",
        "30",
        "--json",
        "--record",
        journal,
    ]);
    assert!(ok);
    let (ok, replay_json, _) = regmon(&["replay", journal, "--json"]);
    assert!(ok);
    assert_eq!(
        run_json, replay_json,
        "replay --json diverged from run --json"
    );

    // Text mode agrees too.
    let (ok, run_text, _) = regmon(&["run", "181.mcf", "--intervals", "30"]);
    assert!(ok);
    let (ok, replay_text, _) = regmon(&["replay", journal]);
    assert!(ok);
    assert_eq!(run_text, replay_text);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_and_resume_replays_match_the_straight_run() {
    let dir = temp_dir("resume");
    let journal = dir.join("session.rgj");
    let journal = journal.to_str().unwrap();
    let checkpoint = dir.join("ck.rgsn");
    let checkpoint = checkpoint.to_str().unwrap();

    let (ok, run_json, _) = regmon(&[
        "run",
        "254.gap",
        "--intervals",
        "36",
        "--json",
        "--record",
        journal,
    ]);
    assert!(ok);
    let (ok, snap_json, stderr) = regmon(&[
        "replay",
        journal,
        "--json",
        "--snapshot-at",
        "13",
        "--snapshot-out",
        checkpoint,
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("checkpoint written"));
    let (ok, resume_json, _) = regmon(&["replay", journal, "--json", "--resume", checkpoint]);
    assert!(ok);
    assert_eq!(run_json, snap_json, "checkpointing perturbed the replay");
    assert_eq!(run_json, resume_json, "resumed replay diverged");

    // `--resume` really reads its FILE: a missing or garbage checkpoint
    // is an error, not a silent full replay.
    let missing = dir.join("missing.rgsn");
    let (ok, stdout, _) = regmon(&["replay", journal, "--resume", missing.to_str().unwrap()]);
    assert!(!ok, "replay --resume <missing file> succeeded: {stdout}");
    let garbage = dir.join("garbage.rgsn");
    std::fs::write(&garbage, b"not a snapshot").unwrap();
    let (ok, stdout, _) = regmon(&["replay", journal, "--resume", garbage.to_str().unwrap()]);
    assert!(!ok, "replay --resume <garbage file> succeeded: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_a_region_outside_the_image_without_aborting() {
    use regmon::binary::{Addr, AddrRange};
    use regmon::regions::{RegionId, RegionKind, RegionRecord};
    use regmon_serve::snapshot::{load_snapshot, save_snapshot};

    let dir = temp_dir("bad-resume");
    let journal = dir.join("session.rgj");
    let journal = journal.to_str().unwrap();
    let checkpoint = dir.join("ck.rgsn");
    let (ok, _, stderr) = regmon(&["run", "181.mcf", "--intervals", "20", "--record", journal]);
    assert!(ok, "{stderr}");
    let (ok, _, stderr) = regmon(&[
        "replay",
        journal,
        "--snapshot-at",
        "8",
        "--snapshot-out",
        checkpoint.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");

    // A CRC-valid snapshot whose monitor holds [0, 2^36).
    let mut snapshot = load_snapshot(&checkpoint).unwrap();
    snapshot.monitor.regions.push(RegionRecord {
        id: RegionId(snapshot.monitor.next_id),
        range: AddrRange::new(Addr::new(0), Addr::new(1 << 36)),
        kind: RegionKind::Custom,
        created_interval: 8,
    });
    snapshot.monitor.next_id += 1;
    let bad = dir.join("bad.rgsn");
    save_snapshot(&bad, &snapshot).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_regmon"))
        .args([
            "replay",
            journal,
            "--json",
            "--resume",
            bad.to_str().unwrap(),
        ])
        .output()
        .expect("spawn regmon");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // A clean error exit, not an abort (which has no exit code on unix).
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr.contains("181.mcf") && stderr.contains("[0-1000000000]"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_record_writes_replayable_per_tenant_journals() {
    let dir = temp_dir("fleet");
    let journals = dir.join("journals");
    let journals_s = journals.to_str().unwrap();

    let (ok, _, stderr) = regmon(&[
        "fleet",
        "mcf",
        "--tenants",
        "3",
        "--shards",
        "2",
        "--intervals",
        "8",
        "--period",
        "90000",
        "--record",
        journals_s,
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("3 wire journal(s)"));

    // Each journal replays to the equivalent single run.
    let (ok, run_json, _) = regmon(&[
        "run",
        "181.mcf",
        "--period",
        "90000",
        "--intervals",
        "8",
        "--json",
    ]);
    assert!(ok);
    for i in 0..3 {
        let journal = journals.join(format!("tenant-{i:03}.rgj"));
        assert!(journal.is_file(), "{} missing", journal.display());
        let (ok, replay_json, _) = regmon(&["replay", journal.to_str().unwrap(), "--json"]);
        assert!(ok);
        assert_eq!(run_json, replay_json, "tenant {i} journal diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_journal_is_refused_by_replay() {
    let dir = temp_dir("corrupt");
    let journal = dir.join("session.rgj");
    let journal_s = journal.to_str().unwrap();
    let (ok, _, _) = regmon(&[
        "run",
        "172.mgrid",
        "--intervals",
        "6",
        "--json",
        "--record",
        journal_s,
    ]);
    assert!(ok);

    let mut bytes = std::fs::read(&journal).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&journal, &bytes).unwrap();
    let (ok, _, stderr) = regmon(&["replay", journal_s, "--json"]);
    assert!(!ok, "corrupted journal must be refused");
    assert!(stderr.contains("error"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_journal_is_refused_by_replay() {
    let dir = temp_dir("empty");
    let journal = dir.join("empty.rgj");
    std::fs::write(&journal, b"").unwrap();
    let (ok, stdout, stderr) = regmon(&["replay", journal.to_str().unwrap(), "--json"]);
    assert!(!ok, "a zero-byte journal must be refused");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("empty journal"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_flag_pairing_is_enforced() {
    let (ok, _, stderr) = regmon(&["replay", "whatever.rgj", "--snapshot-at", "5"]);
    assert!(!ok);
    assert!(stderr.contains("--snapshot-out"));
    let (ok, _, stderr) = regmon(&["serve"]);
    assert!(!ok);
    assert!(stderr.contains("--unix PATH or --tcp ADDR"));
    let (ok, _, stderr) = regmon(&["send", "whatever.rgj"]);
    assert!(!ok);
    assert!(stderr.contains("--unix PATH or --tcp ADDR"));
}

/// A `--snapshot-at` the replay never reaches (past the journal's end,
/// or at or below the resumed checkpoint's position) is an error that
/// names it, and no checkpoint file appears.
#[test]
fn unreached_snapshot_at_fails_and_writes_nothing() {
    let dir = temp_dir("unreached");
    let journal = dir.join("session.rgj");
    run_recorded("30", &journal);
    let journal = journal.to_str().unwrap();
    let out = dir.join("never.rgsn");
    let out_s = out.to_str().unwrap();
    let args = [
        "replay",
        journal,
        "--snapshot-at",
        "100",
        "--snapshot-out",
        out_s,
    ];
    let (ok, _, stderr) = regmon(&args);
    assert!(!ok, "an unreached --snapshot-at must fail");
    assert!(stderr.contains("--snapshot-at 100"), "{stderr}");
    assert!(!stderr.contains("written to"), "{stderr}");
    assert!(!out.exists(), "{} was written", out.display());

    let checkpoint = dir.join("ck.rgsn");
    let checkpoint = checkpoint.to_str().unwrap();
    let (ok, _, stderr) = regmon(&[
        "replay",
        journal,
        "--snapshot-at",
        "12",
        "--snapshot-out",
        checkpoint,
    ]);
    assert!(ok, "{stderr}");
    let resumed = [
        "--resume",
        checkpoint,
        "--snapshot-at",
        "8",
        "--snapshot-out",
        out_s,
    ];
    let (ok, _, stderr) = regmon(&[&["replay", journal], &resumed[..]].concat());
    assert!(!ok, "a --snapshot-at the checkpoint covers must fail");
    assert!(stderr.contains("--snapshot-at 8"), "{stderr}");
    assert!(!out.exists(), "{} was written", out.display());
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns `regmon serve --unix <sock> --expect-sessions 1 --json
/// <extra...>` and waits for the socket to appear.
#[cfg(unix)]
fn spawn_server(sock: &std::path::Path, extra: &[&str]) -> std::process::Child {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut args = vec![
        "serve",
        "--unix",
        sock.to_str().unwrap(),
        "--expect-sessions",
        "1",
        "--json",
    ];
    args.extend_from_slice(extra);
    let server = Command::new(env!("CARGO_BIN_EXE_regmon"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn regmon serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "server socket never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    server
}

/// A journal sent to a server with one or two event workers must emit
/// the byte-identical `--json` report of the in-process run.
#[cfg(unix)]
#[test]
fn event_worker_matrix_is_byte_identical_to_run() {
    let dir = temp_dir("matrix");
    let journal = dir.join("session.rgj");
    let journal_s = journal.to_str().unwrap();

    let (ok, run_json, _) = regmon(&[
        "run",
        "181.mcf",
        "--intervals",
        "20",
        "--json",
        "--record",
        journal_s,
    ]);
    assert!(ok);

    for workers in ["1", "2"] {
        let label = format!("{workers} event worker(s)");
        let sock = dir.join("regmon.sock");
        let server = spawn_server(&sock, &["--event-workers", workers]);
        let send_args = ["send", journal_s, "--unix", sock.to_str().unwrap()];
        let (ok, _, send_err) = regmon(&send_args);
        assert!(ok, "{label}: {send_err}");
        assert!(send_err.contains("bytes streamed"), "{label}: {send_err}");

        let out = server.wait_with_output().expect("server exit");
        let served_json = String::from_utf8_lossy(&out.stdout).into_owned();
        let served_err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{label}: {served_err}");
        assert_eq!(
            run_json, served_json,
            "{label}: served --json diverged from run --json"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `regmon migrate` hands a session from server A to server B
/// mid-stream; B's report must be byte-identical to the uninterrupted
/// run and A must account the tenant as migrated, not lost.
#[cfg(unix)]
#[test]
fn migrated_session_resumes_byte_identically() {
    let dir = temp_dir("migrate");
    let journal = dir.join("session.rgj");
    let journal_s = journal.to_str().unwrap();

    let (ok, run_json, _) = regmon(&[
        "run",
        "172.mgrid",
        "--intervals",
        "24",
        "--json",
        "--record",
        journal_s,
    ]);
    assert!(ok);

    let sock_a = dir.join("a.sock");
    let sock_b = dir.join("b.sock");
    let server_a = spawn_server(&sock_a, &[]);
    let server_b = spawn_server(&sock_b, &[]);

    let (ok, _, stderr) = regmon(&[
        "migrate",
        journal_s,
        "--at",
        "11",
        "--from",
        sock_a.to_str().unwrap(),
        "--to",
        sock_b.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("handed off after 11/24"), "{stderr}");

    let out_a = server_a.wait_with_output().expect("server A exit");
    let err_a = String::from_utf8_lossy(&out_a.stderr).into_owned();
    assert!(out_a.status.success(), "{err_a}");
    assert!(err_a.contains("migrated away"), "{err_a}");
    assert_eq!(
        String::from_utf8_lossy(&out_a.stdout),
        "",
        "the migrated-away session must not be reported by server A"
    );

    let out_b = server_b.wait_with_output().expect("server B exit");
    let err_b = String::from_utf8_lossy(&out_b.stderr).into_owned();
    assert!(out_b.status.success(), "{err_b}");
    let served_json = String::from_utf8_lossy(&out_b.stdout).into_owned();
    assert_eq!(
        run_json, served_json,
        "migrated session diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The durability smoke, end to end through the CLI: a `--durable`
/// server is SIGKILLed mid-ingest, restarted with `--recover`, and a
/// `send --resume` completes the stream — the final `--json` report is
/// byte-identical to the uninterrupted in-process run.
#[cfg(unix)]
#[test]
fn kill9_recovery_resumes_byte_identically() {
    use std::time::{Duration, Instant};

    let dir = temp_dir("kill9");
    let wal_dir = dir.join("wal");
    let wal_dir_s = wal_dir.to_str().unwrap();
    let full = dir.join("full.rgj");
    let full_s = full.to_str().unwrap();
    let prefix = dir.join("prefix.rgj");
    let prefix_s = prefix.to_str().unwrap();
    let sock = dir.join("regmon.sock");
    let sock_s = sock.to_str().unwrap();

    // The same workload/config samples identically, so the 12-interval
    // journal is an exact prefix of the 30-interval one.
    let (ok, run_json, _) = regmon(&[
        "run",
        "181.mcf",
        "--intervals",
        "30",
        "--json",
        "--record",
        full_s,
    ]);
    assert!(ok);
    let (ok, _, _) = regmon(&["run", "181.mcf", "--intervals", "12", "--record", prefix_s]);
    assert!(ok);

    let mut server = spawn_server(&sock, &["--durable", wal_dir_s, "--checkpoint-every", "5"]);
    let (ok, _, stderr) = regmon(&["send", prefix_s, "--unix", sock_s, "--no-finish"]);
    assert!(ok, "{stderr}");

    // Wait for the write-ahead log to exist, then SIGKILL mid-session.
    let wal = wal_dir.join("session-0000.wal");
    let deadline = Instant::now() + Duration::from_secs(10);
    while std::fs::metadata(&wal).map_or(true, |m| m.len() == 0) {
        assert!(Instant::now() < deadline, "WAL never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.kill().expect("kill -9 the server");
    server.wait().expect("reap the killed server");
    std::fs::remove_file(&sock).ok();

    let server = spawn_server(&sock, &["--recover", wal_dir_s]);
    let (ok, _, stderr) = regmon(&[
        "send",
        full_s,
        "--unix",
        sock_s,
        "--resume",
        "--retries",
        "3",
    ]);
    assert!(ok, "{stderr}");

    let out = server.wait_with_output().expect("server exit");
    let served_json = String::from_utf8_lossy(&out.stdout).into_owned();
    let served_err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{served_err}");
    assert!(served_err.contains("recovered"), "{served_err}");
    assert_eq!(
        run_json, served_json,
        "recovered session diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A send whose retry budget is exhausted exits nonzero and reports
/// the exact stream position it reached.
#[test]
fn exhausted_send_reports_position_and_exits_nonzero() {
    let dir = temp_dir("exhausted");
    let journal = dir.join("session.rgj");
    let journal_s = journal.to_str().unwrap();
    let (ok, _, _) = regmon(&["run", "181.mcf", "--intervals", "6", "--record", journal_s]);
    assert!(ok);

    // Nobody is listening: connection refused on every attempt.
    let (ok, _, stderr) = regmon(&[
        "send",
        journal_s,
        "--tcp",
        "127.0.0.1:1",
        "--retries",
        "1",
        "--backoff-ms",
        "1",
    ]);
    assert!(!ok, "send against a dead server must fail");
    assert!(
        stderr.contains("connection dropped at frame") && stderr.contains("after 2 attempt(s)"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wire_flag_typos_get_spelling_help() {
    let (ok, _, stderr) = regmon(&["send", "x.rgj", "--unix", "/nope", "--retires", "1"]);
    assert!(!ok);
    assert!(stderr.contains("did you mean --retries?"), "{stderr}");
    // Removed options fail loudly instead of being swallowed along
    // with their value.
    for (argv, option) in [
        (
            &["serve", "--unix", "/nope", "--serve-loop", "events"][..],
            "--serve-loop",
        ),
        (
            &["serve", "--unix", "/nope", "--wire-version", "2"],
            "--wire-version",
        ),
        (
            &["send", "x.rgj", "--unix", "/nope", "--wire-version", "1"],
            "--wire-version",
        ),
        (
            &["send", "x.rgj", "--unix", "/nope", "--compress"],
            "--compress",
        ),
        (
            &["migrate", "x.rgj", "--at", "1", "--compress"],
            "--compress",
        ),
    ] {
        let (ok, _, stderr) = regmon(argv);
        assert!(!ok, "{option} was accepted");
        assert!(
            stderr.contains(&format!("unknown option {option}")),
            "{stderr}"
        );
    }
}

/// The serve smoke: a server on a unix socket, a producer streaming a
/// recorded journal with `regmon send`, and the served `--json` report
/// byte-identical to the in-process `regmon run --json`.
#[cfg(unix)]
#[test]
fn served_session_json_matches_in_process_run() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = temp_dir("serve");
    let journal = dir.join("session.rgj");
    let journal_s = journal.to_str().unwrap();
    let sock = dir.join("regmon.sock");
    let sock_s = sock.to_str().unwrap();

    let (ok, run_json, _) = regmon(&[
        "run",
        "181.mcf",
        "--intervals",
        "25",
        "--json",
        "--record",
        journal_s,
    ]);
    assert!(ok);

    let server = Command::new(env!("CARGO_BIN_EXE_regmon"))
        .args([
            "serve",
            "--unix",
            sock_s,
            "--expect-sessions",
            "1",
            "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn regmon serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "server socket never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (ok, _, stderr) = regmon(&["send", journal_s, "--unix", sock_s]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("bytes streamed"));

    let out = server.wait_with_output().expect("server exit");
    let served_json = String::from_utf8_lossy(&out.stdout).into_owned();
    let served_err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{served_err}");
    assert!(served_err.contains("1 session(s)"), "{served_err}");
    assert_eq!(
        run_json, served_json,
        "served --json diverged from run --json"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Frame type of a wire-v1 `Batch` (raw samples).
const TYPE_BATCH: u8 = 3;
/// Frame type of a wire-v2 `Batch2` (delta-encoded columns).
const TYPE_BATCH2: u8 = 5;

/// The type byte of every frame in a wire byte image (a journal or a
/// WAL), read from the `[len][crc][type ...]` headers.
fn frame_types(bytes: &[u8]) -> Vec<u8> {
    let mut types = Vec::new();
    let mut pos = 0;
    while pos + 8 < bytes.len() {
        types.push(bytes[pos + 8]);
        pos += 8 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    }
    assert_eq!(pos, bytes.len(), "image ends mid-frame");
    types
}

/// `regmon run 181.mcf --intervals N --json --record <journal>`: the
/// report every other transport must reproduce.
fn run_recorded(intervals: &str, journal: &std::path::Path) -> String {
    let record = ["--json", "--record", journal.to_str().unwrap()];
    let (ok, json, stderr) =
        regmon(&[&["run", "181.mcf", "--intervals", intervals], &record[..]].concat());
    assert!(ok, "{stderr}");
    json
}

/// Runs `regmon send <send...> --unix <sock>` into a fresh server (see
/// [`spawn_server`]) and returns the server's stdout and stderr once it
/// exits cleanly.
#[cfg(unix)]
fn serve_one(sock: &std::path::Path, serve_extra: &[&str], send: &[&str]) -> (String, String) {
    let server = spawn_server(sock, serve_extra);
    let argv = [&["send"], send, &["--unix", sock.to_str().unwrap()]].concat();
    let (ok, _, stderr) = regmon(&argv);
    assert!(ok, "{stderr}");
    let out = server.wait_with_output().expect("server exit");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stderr}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

/// Frame type of the retired LZSS-compressed wrapper.
const TYPE_COMPRESSED: u8 = 6;

/// Seals a hand-written frame body (`[type][payload]`) in the wire
/// envelope: `[len u32][crc32 u32][body]`.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&regmon_serve::crc::crc32(body).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// A wire-v1 `Batch` frame as older builds wrote it: tenant 0, one
/// interval holding one raw `[addr u64][cycle u64]` sample.
fn v1_batch() -> Vec<u8> {
    let mut body = vec![TYPE_BATCH];
    body.extend_from_slice(&0u32.to_le_bytes()); // tenant
    body.extend_from_slice(&1u32.to_le_bytes()); // intervals
    for field in [0u64, 0, 45_000] {
        body.extend_from_slice(&field.to_le_bytes()); // index, start, end
    }
    body.extend_from_slice(&1u32.to_le_bytes()); // samples
    for field in [0x4000_1000u64, 45_000] {
        body.extend_from_slice(&field.to_le_bytes()); // addr, cycle
    }
    seal(&body)
}

/// Runs `regmon <args>` with stdout discarded, failing the test if it
/// has not exited within 20 s. Returns success and stderr.
#[cfg(unix)]
fn regmon_bounded(args: &[&str]) -> (bool, String) {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_regmon"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn regmon");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll regmon").is_none() {
        if Instant::now() >= deadline {
            child.kill().ok();
            panic!("regmon {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("reap regmon");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Wire v1 and LZSS compression are retired. A v1 journal and a
/// journal holding a compressed frame make `replay` and `send` exit
/// nonzero with an error naming the format, and a WAL of v1 records
/// makes `serve --recover` do the same, leaving the WAL untouched
/// instead of truncating its batches away as a torn tail.
#[cfg(unix)]
#[test]
fn retired_formats_fail_replay_send_and_recover_by_name() {
    use regmon_serve::Frame;
    let dir = temp_dir("retired");
    let recorded = dir.join("v2.rgj");
    run_recorded("4", &recorded);
    let admit = regmon_serve::read_journal(&recorded)
        .unwrap()
        .into_iter()
        .find(|frame| matches!(frame, Frame::Admit(_)))
        .expect("journal admits a tenant");
    let (admit, finish) = (admit.encode(), Frame::Finish { tenant: 0 }.encode());

    // Admit and Finish are spelled the same in v1 and v2.
    let v1 = [
        Frame::Hello { version: 1 }.encode(),
        admit.clone(),
        v1_batch(),
        finish.clone(),
    ];
    let packed_batch = seal(&[TYPE_COMPRESSED, TYPE_BATCH2, 0, 0, 0, 0]);
    let packed = [Frame::hello().encode(), admit.clone(), packed_batch, finish];
    let nobody = dir.join("nobody.sock");
    for (name, bytes, cause) in [
        ("v1.rgj", v1.concat(), "wire v1 is no longer read"),
        (
            "packed.rgj",
            packed.concat(),
            "compression is no longer read",
        ),
    ] {
        let journal = dir.join(name);
        std::fs::write(&journal, bytes).unwrap();
        let journal = journal.to_str().unwrap();
        for argv in [
            &["replay", journal, "--json"][..],
            &["send", journal, "--unix", nobody.to_str().unwrap()],
        ] {
            let (ok, _, stderr) = regmon(argv);
            assert!(!ok, "{argv:?} accepted a retired format");
            assert!(stderr.contains(cause), "{argv:?}: {stderr}");
        }
    }

    // A WAL holds no Hello: its opener, then each folded batch.
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let wal = wal_dir.join("session-0000.wal");
    let records = [admit, v1_batch()].concat();
    std::fs::write(&wal, &records).unwrap();
    let sock = dir.join("regmon.sock");
    let (ok, stderr) = regmon_bounded(&[
        "serve",
        "--unix",
        sock.to_str().unwrap(),
        "--expect-sessions",
        "1",
        "--recover",
        wal_dir.to_str().unwrap(),
    ]);
    assert!(!ok, "serve --recover accepted a v1 WAL");
    assert!(stderr.contains("wire v1 is no longer read"), "{stderr}");
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        records,
        "the v1 WAL was rewritten"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Nothing writes wire v1 any more: a fresh `run --record` journal, the
/// `fleet --record` journals and a fresh `serve --durable` WAL hold
/// `Batch2` frames and no v1 `Batch`.
#[cfg(unix)]
#[test]
fn fresh_journals_and_wals_hold_no_v1_batch() {
    let dir = temp_dir("no-v1");
    let (journal, fleet_dir, wal_dir) = (dir.join("s.rgj"), dir.join("fleet"), dir.join("wal"));
    run_recorded("12", &journal);
    let fleet = "fleet all --tenants 3 --intervals 6 --record".split(' ');
    let (ok, _, stderr) = regmon(
        &fleet
            .chain([fleet_dir.to_str().unwrap()])
            .collect::<Vec<_>>(),
    );
    assert!(ok, "{stderr}");
    let durable = ["--durable", wal_dir.to_str().unwrap()];
    serve_one(
        &dir.join("regmon.sock"),
        &durable,
        &[journal.to_str().unwrap()],
    );

    let mut images = vec![journal, wal_dir.join("session-0000.wal")];
    for entry in std::fs::read_dir(&fleet_dir).unwrap() {
        images.push(entry.unwrap().path());
    }
    assert_eq!(images.len(), 5);
    for path in images {
        let types = frame_types(&std::fs::read(&path).unwrap());
        let only_v2 = types.contains(&TYPE_BATCH2) && !types.contains(&TYPE_BATCH);
        assert!(only_v2, "{}: {types:?}", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--durable` server started without `--recover` refuses a directory
/// that an earlier run left session files in, before it accepts
/// anything: the error names the first such file and `--recover`, and
/// the directory is left byte for byte as it was.
#[cfg(unix)]
#[test]
fn durable_serve_refuses_a_used_directory() {
    let dir = temp_dir("used-dir");
    let journal = dir.join("session.rgj");
    run_recorded("10", &journal);
    let used = dir.join("wal");
    let durable = [
        "--durable",
        used.to_str().unwrap(),
        "--checkpoint-every",
        "4",
    ];
    serve_one(
        &dir.join("first.sock"),
        &durable,
        &[journal.to_str().unwrap()],
    );
    // The same directory, and one holding only a copy of the WAL.
    let wal_only = dir.join("wal-only");
    std::fs::create_dir_all(&wal_only).unwrap();
    std::fs::copy(
        used.join("session-0000.wal"),
        wal_only.join("session-0000.wal"),
    )
    .unwrap();

    let image = |d: &std::path::Path| {
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(p).unwrap()))
            .collect();
        files.sort();
        files
    };
    for (d, first) in [
        (&used, "session-0000.rgsn"),
        (&wal_only, "session-0000.wal"),
    ] {
        let before = image(d);
        let sock = dir.join("again.sock");
        let (ok, stderr) = regmon_bounded(&[
            "serve",
            "--unix",
            sock.to_str().unwrap(),
            "--expect-sessions",
            "1",
            "--durable",
            d.to_str().unwrap(),
        ]);
        assert!(!ok, "serve --durable adopted {}", d.display());
        assert!(stderr.contains(first), "{stderr}");
        assert!(stderr.contains("--recover"), "{stderr}");
        assert!(!stderr.contains("--unix"), "not a socket error: {stderr}");
        assert_eq!(image(d), before, "{} changed", d.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A socket that cannot be bound fails `serve` with an error naming the
/// socket path.
#[cfg(unix)]
#[test]
fn serve_bind_failure_names_the_socket() {
    let dir = temp_dir("bind");
    let sock = dir.join("no-such-dir").join("s.sock");
    let sock = sock.to_str().unwrap();
    let (ok, stderr) = regmon_bounded(&["serve", "--unix", sock, "--expect-sessions", "1"]);
    assert!(!ok, "serve bound {sock}");
    assert!(stderr.contains(sock), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `replay --resume` refuses a checkpoint taken under another session
/// config than the journal's `Admit`.
#[test]
fn resume_refuses_a_checkpoint_under_another_config() {
    let dir = temp_dir("resume-config");
    let (journal, other, checkpoint) = (dir.join("a.rgj"), dir.join("b.rgj"), dir.join("b.rgsn"));
    run_recorded("12", &journal);
    let (ok, _, stderr) = regmon(&[
        "run",
        "181.mcf",
        "--intervals",
        "12",
        "--period",
        "90000",
        "--record",
        other.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let (ok, _, stderr) = regmon(&[
        "replay",
        other.to_str().unwrap(),
        "--snapshot-at",
        "6",
        "--snapshot-out",
        checkpoint.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = regmon(&[
        "replay",
        journal.to_str().unwrap(),
        "--json",
        "--resume",
        checkpoint.to_str().unwrap(),
    ]);
    assert!(!ok, "resumed under another config: {stdout}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("resume snapshot config differs"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
