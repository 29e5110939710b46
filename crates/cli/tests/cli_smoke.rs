//! End-to-end tests of the `regmon` binary.

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

#[test]
fn list_names_every_benchmark() {
    let (ok, stdout, _) = regmon(&["list"]);
    assert!(ok);
    for name in ["164.gzip", "181.mcf", "301.apsi"] {
        assert!(stdout.contains(name), "{name} missing");
    }
}

#[test]
fn run_reports_both_detectors() {
    let (ok, stdout, _) = regmon(&["run", "172.mgrid", "--intervals", "20"]);
    assert!(ok);
    assert!(stdout.contains("GPD"));
    assert!(stdout.contains("LPD"));
    assert!(stdout.contains("regions formed"));
}

#[test]
fn run_json_is_parseable_shape() {
    let (ok, stdout, _) = regmon(&["run", "mcf", "--intervals", "10", "--json"]);
    assert!(ok);
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'));
    assert!(line.contains("\"benchmark\":\"181.mcf\""));
    assert!(line.contains("\"regions\":["));
    // Balanced braces/brackets (the emitter is hand-rolled).
    let opens = line.matches('{').count();
    let closes = line.matches('}').count();
    assert_eq!(opens, closes);
}

#[test]
fn run_json_is_identical_for_every_index_kind() {
    // The default index must not change a byte, and neither may the
    // two reference kinds it replaced on the default path.
    let base = ["run", "181.mcf", "--json"];
    let (ok, default, _) = regmon(&base);
    assert!(ok);
    for kind in ["flat", "tree", "linear"] {
        let (ok, got, _) = regmon(&[&base[..], &["--index", kind]].concat());
        assert!(ok, "--index {kind}");
        assert_eq!(got, default, "--index {kind} changed the report");
    }
}

#[test]
fn fuzzy_names_resolve_unambiguously() {
    let (ok, stdout, _) = regmon(&["run", "facerec", "--intervals", "8"]);
    assert!(ok);
    assert!(stdout.contains("187.facerec"));
}

#[test]
fn unknown_benchmark_fails_with_hint() {
    let (ok, _, stderr) = regmon(&["run", "999.nope"]);
    assert!(!ok);
    assert!(stderr.contains("regmon list"));
}

#[test]
fn unknown_subcommand_prints_usage() {
    let (ok, _, stderr) = regmon(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn failing_subcommand_prints_one_line_pointer_not_usage() {
    let (ok, _, stderr) = regmon(&["replay", "/nonexistent/session.rgj"]);
    assert!(!ok);
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("see 'regmon help'"), "{stderr}");
    assert!(!stderr.contains("USAGE"), "{stderr}");
    assert_eq!(stderr.lines().count(), 2, "{stderr}");
}

#[test]
fn missing_flag_value_is_an_error() {
    let (ok, _, stderr) = regmon(&["run", "172.mgrid", "--period"]);
    assert!(!ok);
    assert!(stderr.contains("requires a value"));
}

#[test]
fn baselines_compares_four_detectors() {
    let (ok, stdout, _) = regmon(&["baselines", "172.mgrid", "--intervals", "20"]);
    assert!(ok);
    for detector in [
        "centroid",
        "basic-block vector",
        "working-set signature",
        "local",
    ] {
        assert!(stdout.contains(detector), "{detector} missing");
    }
}

#[test]
fn fleet_text_reports_shards_and_aggregate() {
    let (ok, stdout, _) = regmon(&[
        "fleet",
        "all",
        "--tenants",
        "12",
        "--shards",
        "3",
        "--intervals",
        "10",
    ]);
    assert!(ok);
    assert!(stdout.contains("12 tenants over 3 shards"));
    assert!(stdout.contains("completed 12"));
    assert!(stdout.contains("high-water"));
}

#[test]
fn serve_and_fleet_share_the_default_queue_depth() {
    let (ok, stdout, _) = regmon(&[
        "fleet",
        "mcf",
        "--tenants",
        "2",
        "--intervals",
        "2",
        "--json",
    ]);
    assert!(ok);
    let depth = regmon_serve::ServeOptions::default().queue_depth;
    assert!(
        stdout.contains(&format!("\"queue_depth\":{depth},")),
        "fleet default differs from serve default {depth}: {stdout}"
    );
}

#[test]
fn fleet_json_is_deterministic_across_runs() {
    let args = [
        "fleet",
        "all",
        "--tenants",
        "16",
        "--shards",
        "4",
        "--intervals",
        "12",
        "--json",
    ];
    let (ok_a, a, _) = regmon(&args);
    let (ok_b, b, _) = regmon(&args);
    assert!(ok_a && ok_b);
    assert_eq!(a, b, "fleet --json must be byte-identical across runs");
    let line = a.trim();
    assert!(line.starts_with('{') && line.ends_with('}'));
    for key in [
        "\"aggregate\":",
        "\"shards_detail\":",
        "\"tenants_detail\":",
        "\"backpressure_stalls\":",
        "\"gpd_phase_changes\":",
        "\"lpd_phase_changes\":",
        "\"ucr_median",
    ] {
        assert!(line.contains(key), "{key} missing from fleet JSON");
    }
    assert!(
        !line.contains("wall_ms"),
        "wall clock must stay out of JSON"
    );
    assert_eq!(line.matches('{').count(), line.matches('}').count());
}

#[test]
fn fleet_single_benchmark_and_drop_policy() {
    let (ok, stdout, _) = regmon(&[
        "fleet",
        "mcf",
        "--tenants",
        "6",
        "--shards",
        "2",
        "--intervals",
        "8",
        "--queue-depth",
        "1",
        "--policy",
        "drop-oldest",
    ]);
    assert!(ok);
    assert!(stdout.contains("181.mcf"));
    assert!(stdout.contains("completed 6"));
}

#[test]
fn fleet_rejects_bad_policy_and_zero_sizes() {
    let (ok, _, stderr) = regmon(&["fleet", "all", "--policy", "newest-wins"]);
    assert!(!ok);
    assert!(stderr.contains("queue policy"));
    for spelling in ["block", "drop-oldest", "drop_oldest", "dropoldest", "drop"] {
        assert!(
            stderr.contains(spelling),
            "policy error must list the {spelling:?} spelling"
        );
    }
    let (ok, _, stderr) = regmon(&["fleet", "all", "--shards", "0"]);
    assert!(!ok);
    assert!(stderr.contains("positive"));
    let (ok, _, stderr) = regmon(&["fleet", "all", "--batch", "0"]);
    assert!(!ok);
    assert!(stderr.contains("positive"));
    let (ok, _, stderr) = regmon(&["fleet", "all", "--pacing", "warp"]);
    assert!(!ok);
    assert!(stderr.contains("lockstep"));
    // Tenants live on `id % shards`: there is no stealing or pinning.
    for gone in ["--steal", "--pin"] {
        let (ok, _, stderr) = regmon(&["fleet", "all", gone]);
        assert!(!ok, "{gone} must be rejected");
        assert!(
            stderr.contains(&format!("unknown option {gone}")),
            "{stderr}"
        );
    }
}

#[test]
fn fleet_accepts_drop_alias() {
    let (ok, stdout, _) = regmon(&[
        "fleet",
        "mcf",
        "--tenants",
        "4",
        "--shards",
        "2",
        "--intervals",
        "6",
        "--queue-depth",
        "1",
        "--policy",
        "drop",
    ]);
    assert!(ok, "--policy drop (short alias) must be accepted");
    assert!(stdout.contains("DropOldest"));
}

#[test]
fn fleet_batched_json_matches_per_interval_baseline() {
    let base = [
        "fleet",
        "all",
        "--tenants",
        "12",
        "--shards",
        "3",
        "--intervals",
        "10",
        "--json",
    ];
    let (ok_a, a, _) = regmon(&base);
    let mut batched: Vec<&str> = base.to_vec();
    batched.extend(["--batch", "8"]);
    let (ok_b, b, _) = regmon(&batched);
    assert!(ok_a && ok_b);
    assert!(a.contains("\"batch\":1"));
    assert!(b.contains("\"batch\":8"));
    assert!(b.contains("\"batch_sizes\":"));
    // The per-tenant detector results and shards must not depend on
    // transport batching: compare the tenants_detail blobs whole.
    let detail = |s: &str| {
        let start = s.find("\"tenants_detail\":").expect("tenants_detail");
        s[start..].to_string()
    };
    assert_eq!(
        detail(&a),
        detail(&b),
        "batching must not change any tenant's results or shard"
    );
}

#[test]
fn rto_reports_speedup() {
    let (ok, stdout, _) = regmon(&[
        "rto",
        "172.mgrid",
        "--period",
        "100000",
        "--intervals",
        "30",
    ]);
    assert!(ok);
    assert!(stdout.contains("RTO_LPD over RTO_ORIG"));
}

#[test]
fn zero_period_is_rejected_without_a_panic() {
    for command in ["run", "rto", "baselines"] {
        let out = Command::new(env!("CARGO_BIN_EXE_regmon"))
            .args([command, "181.mcf", "--period", "0"])
            .output()
            .expect("spawn regmon");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains("--period must be positive"),
            "{command}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
}

#[test]
fn unrecognized_simd_override_is_rejected() {
    // `sse2` was a level once; `avx3` never was. Either must stop every
    // subcommand instead of silently running at full dispatch.
    for value in ["avx3", "sse2"] {
        for args in [&["run", "181.mcf", "--json"][..], &["features"], &["list"]] {
            let out = Command::new(env!("CARGO_BIN_EXE_regmon"))
                .args(args)
                .env("REGMON_SIMD", value)
                .output()
                .expect("spawn regmon");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{value} {args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("REGMON_SIMD \"{value}\": expected scalar|avx2")),
                "{value} {args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{value} {args:?} printed a result");
        }
    }
}
