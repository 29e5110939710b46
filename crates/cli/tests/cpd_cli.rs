//! End-to-end CLI contract for change-point detection:
//!
//! - `fleet --json` must be byte-identical with `--cpd` off, and with
//!   it on the document must be the same bytes plus one trailing
//!   `"cpd"` member — at every batching factor.
//! - Offline `regmon cpd --trace` must find the same planted change
//!   point the online run reported.
//! - Offline `regmon cpd --bench` must report a step planted in a
//!   BENCH snapshot history at the file where it starts, and treat a
//!   history too short to scan as a note, not an error.
//! - `regmon cpd` output must be byte-identical across `REGMON_SIMD` levels
//!   and across the shard (worker thread) count of the recording run.
//! - Typos get spelling suggestions, and `metrics --check` understands
//!   traces that carry change-point events.

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

fn temp_path(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("regmon_cpd_cli_{}_{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn fleet_json_gains_only_a_trailing_cpd_member() {
    for &batch in &["1", "8"] {
        let base = vec![
            "fleet",
            "all",
            "--tenants",
            "6",
            "--shards",
            "2",
            "--intervals",
            "48",
            "--batch",
            batch,
            "--degrade",
            "3:20",
            "--json",
        ];
        let (ok, plain, _) = regmon(&base);
        assert!(ok, "plain fleet run failed (batch {batch})");

        let mut with_cpd = base.clone();
        with_cpd.push("--cpd");
        let (ok, cpd, _) = regmon(&with_cpd);
        assert!(ok, "cpd fleet run failed (batch {batch})");

        // Identical prefix: strip the final `}` from the plain doc, the
        // cpd doc must continue it with exactly `,"cpd":`.
        let prefix = plain.trim_end().strip_suffix('}').expect("json object");
        assert!(
            cpd.starts_with(prefix),
            "--cpd perturbed earlier fields (batch {batch})"
        );
        assert!(
            cpd[prefix.len()..].starts_with(",\"cpd\":{"),
            "--cpd must only append a trailing member, got {:?}",
            &cpd[prefix.len()..cpd.len().min(prefix.len() + 40)]
        );
    }
}

#[test]
fn cpd_detections_are_identical_across_batch_sizes() {
    let mut outputs = Vec::new();
    for &batch in &["1", "8", "32"] {
        let args = [
            "fleet",
            "all",
            "--tenants",
            "6",
            "--shards",
            "2",
            "--intervals",
            "48",
            "--batch",
            batch,
            "--cpd",
            "--degrade",
            "3:20",
            "--json",
        ];
        let (ok, out, _) = regmon(&args);
        assert!(ok);
        // The document as a whole legitimately encodes the batch
        // setting; the detection member may not.
        let cpd_member = out
            .find("\"cpd\":")
            .map(|i| out[i..].to_string())
            .expect("cpd member present");
        outputs.push(cpd_member);
    }
    for other in &outputs[1..] {
        assert_eq!(
            other, &outputs[0],
            "cpd detections must be byte-identical across batch sizes"
        );
    }
}

#[test]
fn offline_trace_finds_the_online_change_point() {
    let trace = temp_path("trace.json");
    let (ok, online, _) = regmon(&[
        "fleet",
        "all",
        "--tenants",
        "6",
        "--shards",
        "2",
        "--intervals",
        "96",
        "--cpd",
        "--degrade",
        "3:40",
        "--json",
        "--trace-out",
        &trace,
    ]);
    assert!(ok, "online run failed");
    let needle = "\"tenant\":3,\"region\":null,\"metric\":\"ucr\",\"round\":40";
    assert!(
        online.contains(needle),
        "online --cpd must attribute the planted regression: {online}"
    );

    let (ok, offline, _) = regmon(&["cpd", "--trace", &trace, "--json"]);
    assert!(ok, "offline analysis failed");
    assert!(
        offline.contains("\"series\":\"tenant 3 ucr\",\"round\":40"),
        "offline --trace must find the same change point: {offline}"
    );

    // metrics --check recognizes the change-point events in the trace.
    let (ok, check, _) = regmon(&["metrics", "--check", &trace]);
    assert!(ok);
    assert!(
        check.contains("change-point"),
        "metrics --check must count cpd events: {check}"
    );
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn cpd_output_is_byte_identical_across_simd_and_worker_counts() {
    // Two recordings of the same tenants over different worker (shard)
    // counts: the per-tenant series in the trace are equivalence-
    // guaranteed, so the offline analysis must not see a difference.
    let mut outputs = Vec::new();
    for (shards, name) in [("2", "s2.json"), ("4", "s4.json")] {
        let trace = temp_path(name);
        let (ok, _, _) = regmon(&[
            "fleet",
            "all",
            "--tenants",
            "6",
            "--shards",
            shards,
            "--intervals",
            "64",
            "--cpd",
            "--degrade",
            "3:30",
            "--trace-out",
            &trace,
        ]);
        assert!(ok);
        for simd in [None, Some("scalar")] {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_regmon"));
            cmd.args(["cpd", "--trace", trace.as_str(), "--json"]);
            if let Some(level) = simd {
                cmd.env("REGMON_SIMD", level);
            }
            let out = cmd.output().expect("spawn regmon");
            assert!(
                out.status.success(),
                "cpd --trace failed (shards {shards} simd {simd:?})"
            );
            let out = String::from_utf8_lossy(&out.stdout).into_owned();
            // Outputs carry the trace path; normalize it away so the
            // two recordings compare.
            outputs.push(out.replace(trace.as_str(), "TRACE"));
        }
        let _ = std::fs::remove_file(&trace);
    }
    for other in &outputs[1..] {
        assert_eq!(
            other, &outputs[0],
            "offline cpd output must be byte-identical across simd levels and shard counts"
        );
    }
}

#[test]
fn typos_get_spelling_suggestions() {
    let (ok, _, err) = regmon(&["cdp"]);
    assert!(!ok);
    assert!(
        err.contains("did you mean \"cpd\"?"),
        "subcommand typo must suggest cpd: {err}"
    );

    let (ok, _, err) = regmon(&["cpd", "trace"]);
    assert!(!ok);
    assert!(
        err.contains("did you mean --trace?"),
        "positional mode must suggest the flag: {err}"
    );

    let (ok, _, err) = regmon(&["fleet", "all", "--cpd", "--pacing", "freerun"]);
    assert!(!ok);
    assert!(
        err.contains("lockstep"),
        "--cpd under freerun must explain the pacing requirement: {err}"
    );
}

/// Runs `regmon cpd --bench` (plus `args`) over one BENCH-shaped
/// snapshot per value of the planted headline series, each with a
/// steady wobbling field beside it.
fn cpd_over_history(tag: &str, cpd_rates: &[f64], args: &[&str]) -> (bool, String, String) {
    let files: Vec<String> = cpd_rates
        .iter()
        .enumerate()
        .map(|(i, rate)| {
            let path = temp_path(&format!("{tag}_{i}.json"));
            let doc = format!(
                "{{\"schema\": \"regmon-fleet-matrix-v1\", \"reps\": 11, \"headline\": \
                 {{\"tenants\": 64, \"ring_batch_m_intervals_per_sec\": 2.{}, \
                 \"cpd_m_points_per_sec\": {rate}}}}}",
                i % 3
            );
            std::fs::write(&path, doc).expect("write bench snapshot");
            path
        })
        .collect();
    let list = files.join(",");
    let result = regmon(&[&["cpd", "--bench", &list], args].concat());
    for f in &files {
        let _ = std::fs::remove_file(f);
    }
    result
}

#[test]
fn bench_history_reports_a_planted_step_at_its_file() {
    // Files 0..=4 at the old rate, files 5..=8 at half of it.
    let rates = [
        0.044, 0.045, 0.043, 0.044, 0.044, 0.022, 0.021, 0.022, 0.023,
    ];
    let (ok, out, err) = cpd_over_history("step", &rates, &["--json"]);
    assert!(ok, "cpd --bench failed: {err}");
    assert!(
        out.contains("{\"series\":\"headline.cpd_m_points_per_sec\",\"round\":5,"),
        "the step must be reported at file 5: {out}"
    );
    assert!(!out.contains("ring_batch"), "steady field reported: {out}");
}

#[test]
fn short_bench_history_notes_the_minimum_and_succeeds() {
    let (ok, out, err) = cpd_over_history("short", &[0.044, 0.022, 0.022], &[]);
    assert!(ok, "a short history is not an error: {err}");
    let note = "3 file(s) give series of at most 3 point(s)";
    assert!(err.contains(note), "{err}");
    assert!(out.contains("no change points detected"), "{out}");
}
