//! Telemetry must be a pure observer: enabling the journal, the trace
//! writer and the periodic exposition may not perturb a lockstep
//! fleet's `--json` output by a single byte, at every batching factor
//! and queue policy. Also smoke-tests the `regmon metrics` surface
//! end-to-end through the real binary.

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

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "regmon_telemetry_cli_{}_{name}",
        std::process::id()
    ));
    p
}

#[test]
fn fleet_json_is_byte_identical_with_telemetry_on() {
    for &batch in &["1", "8"] {
        for &policy in &["block", "drop-oldest"] {
            let base = vec![
                "fleet",
                "all",
                "--tenants",
                "8",
                "--shards",
                "2",
                "--intervals",
                "10",
                "--batch",
                batch,
                "--policy",
                policy,
                "--json",
            ];
            let (ok, plain, _) = regmon(&base);
            assert!(ok, "plain fleet run failed (batch {batch}, {policy})");

            let trace = temp_path(&format!("trace_b{batch}_{policy}.json"));
            let trace_str = trace.to_str().expect("utf8 temp path");
            let mut instrumented = base.clone();
            instrumented.extend(["--metrics-every", "1", "--trace-out", trace_str]);
            let (ok, traced, stderr) = regmon(&instrumented);
            assert!(ok, "instrumented fleet run failed: {stderr}");

            assert_eq!(
                plain, traced,
                "telemetry changed fleet --json output (batch {batch}, {policy})"
            );
            // The periodic exposition goes to stderr, never stdout.
            assert!(
                stderr.contains("regmon_intervals_processed_total"),
                "--metrics-every 1 produced no exposition on stderr"
            );
            let written = std::fs::read_to_string(&trace).expect("trace file written");
            assert!(written.contains("\"traceEvents\""));
            std::fs::remove_file(&trace).ok();
        }
    }
}

#[test]
fn metrics_command_emits_valid_exposition_and_checks_artifacts() {
    let (ok, stdout, _) = regmon(&["metrics", "mcf", "--intervals", "30"]);
    assert!(ok);
    assert!(stdout.contains("# TYPE regmon_intervals_processed_total counter"));
    assert!(stdout.contains("regmon_attrib_interval_samples_bucket{le=\"+Inf\"}"));

    // The exposition it printed must pass its own validator.
    let expo = temp_path("expo.prom");
    std::fs::write(&expo, &stdout).expect("write exposition");
    let (ok, stdout, _) = regmon(&["metrics", "--check", expo.to_str().expect("utf8 temp path")]);
    assert!(ok);
    assert!(stdout.contains("ok: prometheus exposition"));
    std::fs::remove_file(&expo).ok();

    // A solo run's trace file must check out too (journal non-empty).
    let trace = temp_path("run_trace.json");
    let trace_str = trace.to_str().expect("utf8 temp path");
    let (ok, _, _) = regmon(&["run", "mcf", "--intervals", "40", "--trace-out", trace_str]);
    assert!(ok);
    let (ok, stdout, _) = regmon(&["metrics", "--check", trace_str]);
    assert!(ok, "trace file failed --check");
    assert!(stdout.contains("ok: trace with"));
    std::fs::remove_file(&trace).ok();

    // Garbage must be rejected.
    let bad = temp_path("bad.json");
    std::fs::write(&bad, "{\"traceEvents\":").expect("write bad file");
    let (ok, _, stderr) = regmon(&["metrics", "--check", bad.to_str().expect("utf8 temp path")]);
    assert!(!ok, "malformed file must fail --check");
    assert!(stderr.contains("error"));
    std::fs::remove_file(&bad).ok();
}

#[test]
fn metrics_json_snapshot_has_schema_and_clock() {
    let (ok, stdout, _) = regmon(&["metrics", "mcf", "--intervals", "20", "--json"]);
    assert!(ok);
    assert!(stdout.contains("\"schema\":\"regmon-telemetry-v1\""));
    assert!(stdout.contains("\"clock\""));
    assert!(stdout.contains("\"regmon_intervals_processed_total\""));
}
