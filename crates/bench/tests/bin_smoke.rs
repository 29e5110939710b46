//! Every figure-regeneration binary runs to completion (in REGMON_FAST
//! mode) and produces well-formed output. This substantiates the claim
//! that every figure of the paper's evaluation regenerates on demand.

use std::process::Command;

fn run_fast(exe: &str) -> String {
    let out = Command::new(exe)
        .env("REGMON_FAST", "1")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("figure output is UTF-8");
    assert!(!stdout.trim().is_empty(), "{exe} produced no output");
    assert!(
        stdout.starts_with('#'),
        "{exe} output must start with a figure header"
    );
    stdout
}

macro_rules! smoke {
    ($name:ident, $bin:literal) => {
        #[test]
        fn $name() {
            let _ = run_fast(env!(concat!("CARGO_BIN_EXE_", $bin)));
        }
    };
}

smoke!(fig02, "fig02_mcf_region_chart");
smoke!(fig03, "fig03_gpd_phase_changes");
smoke!(fig04, "fig04_gpd_stable_time");
smoke!(fig05, "fig05_facerec_region_chart");
smoke!(fig06, "fig06_ucr_median");
smoke!(fig07, "fig07_ucr_timeline");
smoke!(fig08, "fig08_pearson_demo");
smoke!(fig09, "fig09_mcf_regions");
smoke!(fig10, "fig10_mcf_pearson");
smoke!(fig11, "fig11_gap_pearson");
smoke!(fig12, "fig12_state_machine");
smoke!(fig13, "fig13_lpd_phase_changes");
smoke!(fig14, "fig14_lpd_stable_time");
smoke!(fig15, "fig15_overhead");
smoke!(fig16, "fig16_interval_tree");
smoke!(fig17, "fig17_rto_speedup");
smoke!(ext_baselines_bin, "ext_baselines");
smoke!(ext_adaptive_window_bin, "ext_adaptive_window");
smoke!(ext_perf_metrics_bin, "ext_perf_metrics");
smoke!(ext_phase_prediction_bin, "ext_phase_prediction");
smoke!(ext_rto_sensitivity_bin, "ext_rto_sensitivity");

/// The fleet matrix binary emits well-formed JSON with its kept
/// supporting rows and none of the retired legacy or telemetry fields.
#[test]
fn fleet_matrix_emits_headline_json() {
    let out_path =
        std::env::temp_dir().join(format!("fleet_matrix_smoke_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_fleet_matrix"))
        .arg(&out_path)
        .env("QUICK_BENCH", "1")
        .output()
        .expect("spawn fleet_matrix");
    assert!(
        out.status.success(),
        "fleet_matrix failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).expect("matrix json written");
    let _ = std::fs::remove_file(&out_path);
    for key in [
        "\"schema\": \"regmon-fleet-matrix-v1\"",
        "\"headline\"",
        "\"ring_batch_m_intervals_per_sec\"",
        "\"wire_v2_m_intervals_per_sec\"",
        "\"cpd_m_points_per_sec\"",
        "\"serve_scaling\"",
        "\"transport\": \"ring\"",
        "\"transport\": \"wire2\"",
    ] {
        assert!(json.contains(key), "{key} missing from fleet matrix JSON");
    }
    for gone in [
        "legacy",
        "speedup",
        "telemetry_",
        "\"transport\": \"wire\"",
        "wire_decode_",
    ] {
        assert!(
            !json.contains(gone),
            "{gone} is back in the fleet matrix JSON"
        );
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// The attribution matrix binary emits well-formed JSON with its
/// headline, its per-SIMD-level rows, its sparse-layout rows and the
/// similarity rows, which sit
/// outside `headline` so `regmon cpd --bench` and `bench_gate` never
/// read them as headline history.
#[test]
fn attribution_matrix_emits_headline_simd_and_similarity_json() {
    let out_path = std::env::temp_dir().join(format!(
        "attribution_matrix_smoke_{}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_attribution_matrix"))
        .arg(&out_path)
        .env("QUICK_BENCH", "1")
        .output()
        .expect("spawn attribution_matrix");
    assert!(
        out.status.success(),
        "attribution_matrix failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).expect("matrix json written");
    let _ = std::fs::remove_file(&out_path);
    for key in [
        "\"schema\": \"regmon-attribution-matrix-v1\"",
        "\"headline\"",
        "\"flat_batch_ns_per_sample\"",
        "\"flat_batch_scalar_ns_per_sample\"",
        "\"flat_batch_simd_ns_per_sample\"",
        "\"simd_level\"",
        "\"simd_speedup\"",
        "\"flat_batch_simd_random_ns_per_sample\"",
        "\"simd_speedup_random\"",
        "\"simd\": [",
        "\"kernel\": \"attribution_flat_batch\", \"level\": \"scalar\"",
        "\"flat_uniform_random_ns_per_sample\"",
        "\"flat_sparse_random_ns_per_sample\"",
        "\"sparse\": [",
        "\"layout\": \"uniform\"",
        "\"layout\": \"sparse\"",
        "\"similarity\": [",
        "\"cells\": [",
        "\"index\": \"list\"",
        "\"index\": \"tree\"",
        "\"index\": \"flat\"",
    ] {
        assert!(
            json.contains(key),
            "{key} missing from attribution matrix JSON"
        );
    }
    for kind in ["pearson", "cosine", "manhattan", "rank"] {
        for slots in [16, 64, 256] {
            let row = format!("{{\"kind\": \"{kind}\", \"slots\": {slots}, \"ns_per_score\": ");
            assert!(json.contains(&row), "no {kind}@{slots} similarity row");
        }
    }
    let headline = json
        .split("\"headline\": {")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .expect("headline object");
    assert!(
        !headline.contains("similarity") && !headline.contains("ns_per_score"),
        "similarity rows leaked into the headline"
    );
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// The committed benchmark documents carry no row of a retired SIMD
/// path: every dispatch level is `scalar` or `avx2`, and no wire-v1
/// decode rows remain.
#[test]
fn committed_bench_files_hold_no_retired_simd_rows() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for name in ["BENCH_fleet.json", "BENCH_attribution.json"] {
        let json =
            std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"));
        for row in json.split("\"level\": \"").skip(1) {
            let level = row.split('"').next().unwrap_or_default();
            assert!(
                ["scalar", "avx2"].contains(&level),
                "{name} holds a {level} row"
            );
        }
        assert!(!json.contains("wire_decode_"), "{name} holds wire_decode_");
    }
}

#[test]
fn fig03_rows_are_csv_with_three_periods() {
    let out = run_fast(env!("CARGO_BIN_EXE_fig03_gpd_phase_changes"));
    let rows: Vec<&str> = out
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("benchmark"))
        .collect();
    assert_eq!(rows.len(), 21, "Figure 3 covers 21 benchmarks");
    for row in rows {
        assert_eq!(row.split(',').count(), 4, "bad row: {row}");
    }
}

#[test]
fn fig17_rows_cover_the_four_benchmarks() {
    let out = run_fast(env!("CARGO_BIN_EXE_fig17_rto_speedup"));
    for name in ["181.mcf", "172.mgrid", "254.gap", "191.fma3d"] {
        assert!(out.contains(name), "{name} missing from Figure 17");
    }
}
