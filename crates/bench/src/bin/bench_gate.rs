//! `bench_gate BASE_DIR HEAD_DIR ATTRIBUTION_JSON` — the performance
//! gate: a change against its base, both measured on this host now.
//!
//! `BASE_DIR` and `HEAD_DIR` are source trees with
//! `pipebench/target/release/pipebench` built, and `ATTRIBUTION_JSON` a
//! fresh `attribution_matrix` output; `scripts/bench_guard.sh` prepares
//! all three. For every workload `HEAD_DIR/BENCHMARK.json` gates, the
//! gate runs [`PAIRS`] end-to-end and [`TRACED`] traced pairs (seeds
//! from 1, the side that goes first alternating), then prints one table
//! (`regmon_bench::gate`) and exits 1 if any check fails.

use std::path::Path;
use std::process::{Command, ExitCode};

use regmon_bench::gate::{self, Check, RunResult, Verdict, QUEUE_STALLS, STAGE_SUM};

/// End-to-end pairs per workload.
const PAIRS: u64 = 5;
/// Traced pairs per workload.
const TRACED: u64 = 3;
/// `pipebench --seconds` for every run.
const SECONDS: &str = "4";
/// The monitoring-overhead budget for telemetry on the real path, in
/// percent: the head's median traced `telemetry.overhead_pct`.
const TELEMETRY_BUDGET_PCT: f64 = 8.0;
/// How many times the base's median traced `cpd.observe_us_per_point`
/// the head's may be.
const CPD_FACTOR: f64 = 2.0;

fn main() -> ExitCode {
    match run_gate() {
        Ok(verdict) => {
            print!("{verdict}");
            let passed = verdict.passed();
            println!("bench gate: {}", if passed { "OK" } else { "FAIL" });
            ExitCode::from(u8::from(!passed))
        }
        Err(e) => {
            eprintln!("bench gate: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_gate() -> Result<Verdict, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base, head, attribution] = args.as_slice() else {
        return Err("usage: bench_gate BASE_DIR HEAD_DIR ATTRIBUTION_JSON".into());
    };
    let (base, head) = (Path::new(base), Path::new(head));
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let spec = gate::spec(&read(&head.join("BENCHMARK.json"))?)?;
    let traced_checks = [
        ("telemetry.overhead_pct", Check::Limit(TELEMETRY_BUDGET_PCT)),
        ("cpd.observe_us_per_point", Check::Factor(CPD_FACTOR)),
        ("session.stage_sum_ratio", STAGE_SUM),
        ("fleet.queue_stalls", QUEUE_STALLS),
    ]
    .map(|(metric, check)| (metric.to_string(), check));

    let attribution = read(Path::new(attribution))?;
    let mut verdict = Verdict {
        rows: gate::simd_rows(&attribution)?,
        problems: Vec::new(),
    };
    if verdict.rows.is_empty() {
        println!("bench gate: no vector level above scalar on this host; no SIMD rows");
    }
    verdict.rows.extend(gate::sparse_rows(&attribution)?);
    for workload in &spec.workloads {
        let (b, h) = pairs(base, head, workload, PAIRS, false)?;
        verdict.judge(workload, &spec.end_to_end, &b, &h);
        let (b, h) = pairs(base, head, workload, TRACED, true)?;
        verdict.judge(&format!("{workload} traced"), &traced_checks, &b, &h);
    }
    Ok(verdict)
}

/// Runs `count` pairs of `workload` with seeds `1..=count`, one run per
/// side each; the side that runs first alternates. Returns the base's
/// and the head's results.
fn pairs(
    base: &Path,
    head: &Path,
    workload: &str,
    count: u64,
    trace: bool,
) -> Result<(Vec<RunResult>, Vec<RunResult>), String> {
    let (mut base_runs, mut head_runs) = (Vec::new(), Vec::new());
    for seed in 1..=count {
        let head_first = seed % 2 == 0;
        for run_head in [head_first, !head_first] {
            let (dir, runs) = if run_head {
                (head, &mut head_runs)
            } else {
                (base, &mut base_runs)
            };
            runs.push(pipebench(dir, workload, seed, trace)?);
        }
        let shown = ["intervals_per_s", "session.process_us_p50"][usize::from(trace)];
        let last = |runs: &[RunResult]| runs.last().and_then(|r| r.metrics.get(shown)).copied();
        let (b, h) = (last(&base_runs), last(&head_runs));
        let (b, h) = (b.unwrap_or(f64::NAN), h.unwrap_or(f64::NAN));
        eprintln!("bench gate: {workload} seed {seed}/{count}: {shown} base {b:.1} head {h:.1}");
    }
    Ok((base_runs, head_runs))
}

/// One `pipebench` run of the tree at `dir`, from that directory.
fn pipebench(dir: &Path, workload: &str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let exe = dir.join("pipebench/target/release/pipebench");
    let trace = u8::from(trace);
    let args = format!("--workload {workload} --seed {seed} --seconds {SECONDS} --trace {trace}");
    let out = Command::new(&exe)
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let what = format!("{} {args}", exe.display());
    if !out.status.success() {
        return Err(format!(
            "{what} exited with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    gate::result_line(&String::from_utf8_lossy(&out.stdout)).map_err(|e| format!("{what}: {e}"))
}
