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

/// Every wire version × compression combination must emit
/// the byte-identical `--json` report of the in-process run — including
/// both halves of version negotiation (new client × old server, old
/// client × new server).
#[cfg(unix)]
#[test]
fn wire_version_matrix_is_byte_identical_to_run() {
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

    let cases: &[(&str, &[&str], &[&str])] = &[
        ("v2 server, v1 sender", &[], &["--wire-version", "1"]),
        ("v1 server, v2 sender", &["--wire-version", "1"], &[]),
        ("v2 negotiated", &[], &["--wire-version", "2"]),
        ("v2 compressed", &[], &["--compress"]),
        (
            "two event workers, v2 compressed",
            &["--event-workers", "2"],
            &["--compress"],
        ),
    ];
    for (label, serve_extra, send_extra) in cases {
        let sock = dir.join("regmon.sock");
        let server = spawn_server(&sock, serve_extra);
        let mut send_args = vec!["send", journal_s, "--unix", sock.to_str().unwrap()];
        send_args.extend_from_slice(send_extra);
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
        "--compress",
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
    let (ok, _, stderr) = regmon(&["send", "x.rgj", "--unix", "/nope", "--wire-version", "3"]);
    assert!(!ok);
    assert!(stderr.contains("\"auto\""), "{stderr}");
    // A removed option fails loudly instead of being swallowed along
    // with its value.
    let (ok, _, stderr) = regmon(&["serve", "--unix", "/nope", "--serve-loop", "events"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option --serve-loop"), "{stderr}");
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
