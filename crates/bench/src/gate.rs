//! The performance gate's decisions: a change against its base, both
//! measured on one host in one run.
//!
//! `scripts/bench_guard.sh` builds the base revision's `pipebench` next
//! to the working tree's and runs the `bench_gate` binary, which
//! interleaves the two and hands their result lines here. Every check
//! is one [`Row`]: the base side's median, the head side's median and
//! the [`Check`] between them. A run that reports `correct: false`, a
//! metric missing from a result line, or a failing row fails the gate.

use std::collections::BTreeMap;
use std::fmt;

use regmon_stats::median;
use regmon_telemetry::parse::{parse, JsonValue};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughputs).
    Higher,
    /// Smaller values are better (times, memory).
    Lower,
}

/// What a row requires of the head's median, given the base's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// The head may be worse than the base by at most this share of
    /// the base (`BENCHMARK.json`'s end-to-end bounds).
    Worse(Better, f64),
    /// The head may be at most this multiple of the base.
    Factor(f64),
    /// The head may be at most this value, whatever the base.
    Limit(f64),
    /// The head must lie in this closed range, whatever the base.
    Band(f64, f64),
}

impl Check {
    /// Whether `head` passes against `base`. NaN never passes.
    #[must_use]
    pub fn passes(self, base: f64, head: f64) -> bool {
        match self {
            Check::Worse(Better::Higher, bound) => (base - head) / base <= bound,
            Check::Worse(Better::Lower, bound) => (head - base) / base <= bound,
            Check::Factor(factor) => head <= base * factor,
            Check::Limit(limit) => head <= limit,
            Check::Band(lo, hi) => (lo..=hi).contains(&head),
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Check::Worse(_, bound) => format!("worse <= {bound}"),
            Check::Factor(factor) => format!("<= {factor}x base"),
            Check::Limit(limit) => format!("<= {limit}"),
            Check::Band(lo, hi) => format!("in [{lo}, {hi}]"),
        };
        f.pad(&text)
    }
}

/// The gated workloads and end-to-end checks `BENCHMARK.json` declares.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// One `(metric, Check::Worse)` per `end_to_end` entry.
    pub end_to_end: Vec<(String, Check)>,
}

/// Reads a `BENCHMARK.json` text.
///
/// # Errors
///
/// On malformed JSON, or a missing name, `better` or `bound`.
pub fn spec(text: &str) -> Result<Spec, String> {
    let doc = parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))
    };
    let text_of = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: an entry without {key}"))
    };
    let mut spec = Spec::default();
    for w in list("workloads")? {
        spec.workloads.push(text_of(w, "name")?);
    }
    for m in list("end_to_end")? {
        let better = match text_of(m, "better")?.as_str() {
            "higher" => Better::Higher,
            "lower" => Better::Lower,
            other => return Err(format!("BENCHMARK.json: better is {other:?}")),
        };
        let bound = m.get("bound").and_then(JsonValue::as_f64);
        let bound = bound.ok_or("BENCHMARK.json: an entry without bound")?;
        spec.end_to_end
            .push((text_of(m, "name")?, Check::Worse(better, bound)));
    }
    Ok(spec)
}

/// One `pipebench` result line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Whether every correctness check of the run held.
    pub correct: bool,
    /// Intervals sent.
    pub attempted: u64,
    /// Intervals whose verdicts did not match the reference, plus
    /// report errors.
    pub failed: u64,
    /// Metric name → value; a `null` value is left out.
    pub metrics: BTreeMap<String, f64>,
}

/// Where a traced run's stage spans must sum to, as a share of its
/// `process_interval` spans: pipebench's `1 ± STAGE_SUM_TOLERANCE`.
pub const STAGE_SUM: Check = Check::Band(0.9, 1.1);

/// The most traced `fleet.queue_stalls` the head's median may read,
/// whatever the base's: a quarter of `serve_churn`'s 1,200 intervals
/// per repetition. A shard queue that wakes its parked feed thread on
/// every pop from a full ring stalls on most intervals (about 1,000 to
/// 1,450); one that wakes it at half drain stalls about 100 times.
pub const QUEUE_STALLS: Check = Check::Limit(300.0);

impl RunResult {
    /// Whether the run is incorrect for a reason other than the traced
    /// stage-sum timing check. That check alone can fail a single run on
    /// a noisy host, so the gate judges it on the head's median
    /// `session.stage_sum_ratio` instead; failed intervals still count.
    #[must_use]
    pub fn incorrect(&self) -> bool {
        let ratio = self.metrics.get("session.stage_sum_ratio");
        let stage_sum_off = ratio.is_some_and(|r| !STAGE_SUM.passes(1.0, *r));
        !self.correct && (self.failed > 0 || !stage_sum_off)
    }
}

/// Parses the last non-empty line of a `pipebench` run's stdout.
///
/// # Errors
///
/// When there is no such line, it is not JSON, or it lacks `correct`,
/// `attempted`, `failed` or `metrics`.
pub fn result_line(stdout: &str) -> Result<RunResult, String> {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let line = line.ok_or("no result line")?;
    let doc = parse(line).map_err(|e| format!("result line {line:?}: {e}"))?;
    let missing = |key: &str| format!("result line without {key}: {line}");
    let count = |key: &str| {
        let v = doc.get(key).and_then(JsonValue::as_f64);
        v.map(|v| v as u64).ok_or(missing(key))
    };
    let metrics = doc.get("metrics").and_then(JsonValue::as_object);
    Ok(RunResult {
        correct: doc
            .get("correct")
            .and_then(JsonValue::as_bool)
            .ok_or(missing("correct"))?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics: metrics
            .ok_or(missing("metrics"))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// One line of the gate's table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload (or source) the row measures.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The base side's median.
    pub base: f64,
    /// The head side's median.
    pub head: f64,
    /// What the head must satisfy.
    pub check: Check,
}

impl Row {
    /// Whether the head passes the row's check.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.check.passes(self.base, self.head)
    }
}

/// Rows plus the problems that fail the gate outside any row. Its
/// `Display` is the gate's table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Compared medians.
    pub rows: Vec<Row>,
    /// Incorrect runs and missing metrics, one line each.
    pub problems: Vec<String>,
}

impl Verdict {
    /// No problem and every row passes.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.rows.iter().all(Row::passes)
    }

    /// Compares one workload's base and head runs: every run must be
    /// correct, the head's failed share may not exceed the base's, and
    /// each `(metric, check)` must hold between the two sides' medians.
    pub fn judge(
        &mut self,
        workload: &str,
        checks: &[(String, Check)],
        base: &[RunResult],
        head: &[RunResult],
    ) {
        let sides = [("base", base), ("head", head)];
        for (side, runs) in sides {
            if runs.is_empty() {
                self.problems.push(format!("{workload}: no {side} runs"));
            }
            for (i, _) in runs.iter().enumerate().filter(|(_, r)| r.incorrect()) {
                let n = i + 1;
                let problem = format!("{workload}: {side} run {n} reports correct: false");
                self.problems.push(problem);
            }
        }
        let mut row = |metric: &str, base: f64, head: f64, check: Check| {
            self.rows.push(Row {
                workload: workload.to_string(),
                metric: metric.to_string(),
                base,
                head,
                check,
            });
        };
        row(
            "failed_share",
            failed_share(base),
            failed_share(head),
            Check::Factor(1.0),
        );
        for (metric, check) in checks {
            match (side_median(base, metric), side_median(head, metric)) {
                (Ok(b), Ok(h)) => row(metric, b, h, *check),
                (b, h) => {
                    for (side, err) in [("base", b.err()), ("head", h.err())] {
                        if let Some(err) = err {
                            self.problems.push(format!("{workload}: {side} {err}"));
                        }
                    }
                }
            }
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:<40} {:>14} {:>14} {:>8}  {:<16} verdict",
            "workload", "metric", "base median", "head median", "ratio", "bound"
        )?;
        for row in &self.rows {
            let ratio = if row.base <= 0.0 {
                "-".to_string()
            } else {
                format!("{:.3}", row.head / row.base)
            };
            writeln!(
                f,
                "{:<18} {:<40} {:>14} {:>14} {ratio:>8}  {:<16} {}",
                row.workload,
                row.metric,
                number(row.base),
                number(row.head),
                row.check,
                if row.passes() { "ok" } else { "FAIL" }
            )?;
        }
        for problem in &self.problems {
            writeln!(f, "FAIL: {problem}")?;
        }
        Ok(())
    }
}

/// Failed intervals over attempted ones, across runs; 1 if nothing was
/// attempted.
fn failed_share(runs: &[RunResult]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The median of `metric` over `runs`; an error names the first run
/// that lacks it.
fn side_median(runs: &[RunResult], metric: &str) -> Result<f64, String> {
    let mut values = Vec::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        let value = run.metrics.get(metric);
        values.push(*value.ok_or(format!("run {} has no {metric}", i + 1))?);
    }
    median(&values).ok_or(format!("no value of {metric}"))
}

/// The `headline` object of an `attribution_matrix` JSON.
fn attribution_headline(attribution_json: &str) -> Result<JsonValue, String> {
    let doc = parse(attribution_json).map_err(|e| format!("attribution matrix: {e}"))?;
    doc.get("headline")
        .cloned()
        .ok_or("attribution matrix has no headline".to_string())
}

/// A numeric `headline` field.
fn headline_number(headline: &JsonValue, key: &str) -> Result<f64, String> {
    headline
        .get(key)
        .ok_or(format!("attribution matrix headline has no {key}"))?
        .as_f64()
        .ok_or(format!("attribution matrix {key} is not a number"))
}

/// The within-run SIMD rows of an `attribution_matrix` JSON: the flat
/// path under the widest vector level must take at most half the
/// forced-scalar time on the `local` stream (≥ 2x) and at most 0.8 of
/// it on the `random` stream (≥ 1.25x). Here the "base" column is the
/// forced-scalar time and the "head" column the vector time. No rows
/// when the host has no vector level.
///
/// # Errors
///
/// On malformed JSON or a missing headline field.
pub fn simd_rows(attribution_json: &str) -> Result<Vec<Row>, String> {
    let headline = attribution_headline(attribution_json)?;
    let level = headline
        .get("simd_level")
        .ok_or("attribution matrix headline has no simd_level")?
        .as_str()
        .ok_or("simd_level is not a string")?;
    if level == "scalar" {
        return Ok(Vec::new());
    }
    let mut rows = Vec::new();
    for (locality, infix, factor) in [("local", "", 0.5), ("random", "_random", 0.8)] {
        rows.push(Row {
            workload: "attribution_matrix".to_string(),
            metric: format!("flat ns/sample {locality}, scalar vs {level}"),
            base: headline_number(
                &headline,
                &format!("flat_batch_scalar{infix}_ns_per_sample"),
            )?,
            head: headline_number(&headline, &format!("flat_batch_simd{infix}_ns_per_sample"))?,
            check: Check::Factor(factor),
        });
    }
    Ok(rows)
}

/// How many times the uniform layout's ns/sample the sparse layout's
/// may be on `attribution_matrix`'s `random` stream, within one run.
/// Measured in 20 interleaved runs each on a 2-vCPU VM: a bucket table
/// sized at ~4 buckets per segment reads 1.11–1.39 (median 1.28), one
/// sized by the narrowest segment 0.98–1.12 (median 1.01).
pub const SPARSE_FACTOR: f64 = 1.18;

/// The within-run sparse-layout row of an `attribution_matrix` JSON:
/// the flat index on regions that lie far apart must cost at most
/// [`SPARSE_FACTOR`] times what it costs on the same regions laid out
/// every 0x100 bytes. The "base" column is the uniform layout's time
/// and the "head" column the sparse layout's.
///
/// # Errors
///
/// On malformed JSON or a missing headline field.
pub fn sparse_rows(attribution_json: &str) -> Result<Vec<Row>, String> {
    let headline = attribution_headline(attribution_json)?;
    Ok(vec![Row {
        workload: "attribution_matrix".to_string(),
        metric: "flat ns/sample random, uniform vs sparse layout".to_string(),
        base: headline_number(&headline, "flat_uniform_random_ns_per_sample")?,
        head: headline_number(&headline, "flat_sparse_random_ns_per_sample")?,
        check: Check::Factor(SPARSE_FACTOR),
    }])
}

fn number(v: f64) -> String {
    match v.abs() {
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.6}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Check = Check::Worse(Better::Higher, 0.25);
    const LOWER: Check = Check::Worse(Better::Lower, 0.25);

    fn run(metric: &str, value: f64) -> RunResult {
        RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: [(metric.to_string(), value)].into_iter().collect(),
        }
    }

    fn judged(check: Check, base: &[RunResult], head: &[RunResult]) -> Verdict {
        let mut verdict = Verdict::default();
        verdict.judge("w", &[("m".to_string(), check)], base, head);
        verdict
    }

    fn passes(check: Check, base: f64, head: f64) -> bool {
        judged(check, &[run("m", base)], &[run("m", head)]).passed()
    }

    #[test]
    fn higher_is_better_passes_at_the_bound_and_fails_past_it() {
        assert!(passes(HIGHER, 100.0, 75.0));
        assert!(!passes(HIGHER, 100.0, 74.9));
        assert!(passes(HIGHER, 100.0, 180.0));
    }

    #[test]
    fn lower_is_better_passes_at_the_bound_and_fails_past_it() {
        assert!(passes(LOWER, 100.0, 125.0));
        assert!(!passes(LOWER, 100.0, 125.1));
        assert!(passes(LOWER, 100.0, 10.0));
    }

    #[test]
    fn factor_and_limit_checks() {
        assert!(passes(Check::Factor(2.0), 8.0, 16.0));
        assert!(!passes(Check::Factor(2.0), 8.0, 16.1));
        assert!(passes(Check::Limit(8.0), 100.0, 8.0));
        assert!(!passes(Check::Limit(8.0), -5.0, 8.5));
        assert!(passes(STAGE_SUM, 5.0, 1.1) && !passes(STAGE_SUM, 1.0, 0.89));
    }

    #[test]
    fn queue_stalls_row_bounds_the_head_median_whatever_the_base() {
        let verdict = |base: f64, head: [f64; 3]| {
            let mut verdict = Verdict::default();
            let checks = [("fleet.queue_stalls".to_string(), QUEUE_STALLS)];
            let runs = |values: [f64; 3]| values.map(|v| run("fleet.queue_stalls", v));
            verdict.judge("w", &checks, &runs([base; 3]), &runs(head));
            verdict
        };
        // A wake per interval fails even against a quiet base...
        let stalled = verdict(88.0, [1100.0, 290.0, 1200.0]);
        assert!(!stalled.passed(), "{stalled}");
        assert_eq!(stalled.rows[1].head, 1100.0);
        // ...and a median at the limit passes against a stalling one.
        let quiet = verdict(1300.0, [85.0, 400.0, 300.0]);
        assert!(quiet.passed(), "{quiet}");
        assert!(quiet.to_string().contains("<= 300"));
    }

    #[test]
    fn medians_not_single_runs_are_compared() {
        let base = [100.0, 101.0, 99.0].map(|v| run("m", v));
        // One slow head run among good ones does not move the median.
        let head = [10.0, 100.0, 98.0].map(|v| run("m", v));
        let verdict = judged(HIGHER, &base, &head);
        assert!(verdict.passed(), "{verdict}");
        assert_eq!((verdict.rows[1].base, verdict.rows[1].head), (100.0, 98.0));
    }

    #[test]
    fn an_incorrect_run_fails_whatever_the_numbers() {
        let mut bad = run("m", 100.0);
        bad.correct = false;
        let verdict = judged(HIGHER, &[run("m", 100.0)], &[bad]);
        assert!(!verdict.passed());
        assert_eq!(verdict.problems, ["w: head run 1 reports correct: false"]);
    }

    #[test]
    fn only_a_stage_sum_outside_its_tolerance_leaves_a_run_correct() {
        let traced = |correct, failed, ratio| RunResult {
            correct,
            failed,
            ..run("session.stage_sum_ratio", ratio)
        };
        assert!(!traced(false, 0, 1.15).incorrect() && !traced(true, 0, 1.0).incorrect());
        assert!(traced(false, 1, 1.15).incorrect() && traced(false, 0, 1.05).incorrect());
        let no_ratio = RunResult {
            correct: false,
            ..run("m", 1.0)
        };
        assert!(no_ratio.incorrect());
    }

    #[test]
    fn a_higher_failed_share_fails() {
        let mut head = run("m", 100.0);
        head.failed = 1;
        let verdict = judged(HIGHER, &[run("m", 100.0)], &[head]);
        assert!(!verdict.passed());
        assert_eq!(verdict.rows[0].metric, "failed_share");
        assert!(!verdict.rows[0].passes() && verdict.rows[1].passes());
        // Equal shares pass, zero included.
        assert!(passes(HIGHER, 1.0, 1.0));
    }

    #[test]
    fn a_missing_metric_fails_loudly() {
        let mut verdict = Verdict::default();
        let checks = [("intervals_per_s".to_string(), HIGHER)];
        let base = run("intervals_per_s", 100.0);
        let head = run("cpu_us_per_interval", 50.0);
        verdict.judge("serve_loops", &checks, &[base], &[head]);
        assert!(!verdict.passed());
        let problem = "serve_loops: head run 1 has no intervals_per_s";
        assert_eq!(verdict.problems, [problem]);
        assert!(verdict.to_string().contains(&format!("FAIL: {problem}")));
    }

    #[test]
    fn result_lines_parse_and_nulls_count_as_missing() {
        let stdout = "progress\n{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
                      \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \
                      \"b\": {\"value\": null, \"unit\": \"s\"}}}\n";
        let r = result_line(stdout).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (10, 0));
        assert_eq!(r.metrics.get("a"), Some(&1.5));
        assert_eq!(r.metrics.get("b"), None);
        assert!(result_line("").is_err());
        assert!(result_line("{\"correct\": true}").is_err());
    }

    #[test]
    fn spec_reads_the_end_to_end_bounds() {
        let s = spec(include_str!("../../../BENCHMARK.json")).unwrap();
        assert_eq!(s.workloads, ["serve_loops", "serve_churn"]);
        assert_eq!(s.end_to_end[0], ("intervals_per_s".to_string(), HIGHER));
        let rss = Check::Worse(Better::Lower, 0.2);
        assert!(s.end_to_end.contains(&("peak_rss_mb".to_string(), rss)));
        let no_better = r#"{"workloads": [], "end_to_end": [{"name": "x", "bound": 1}]}"#;
        assert!(spec(no_better).is_err());
    }

    #[test]
    fn simd_rows_gate_the_within_run_ratios() {
        let doc = |level: &str, local: f64, random: f64| {
            format!(
                "{{\"headline\": {{\"simd_level\": \"{level}\", \
                 \"flat_batch_scalar_ns_per_sample\": 10.0, \
                 \"flat_batch_simd_ns_per_sample\": {local}, \
                 \"flat_batch_scalar_random_ns_per_sample\": 10.0, \
                 \"flat_batch_simd_random_ns_per_sample\": {random}}}}}"
            )
        };
        let verdicts = |local, random| -> Vec<bool> {
            let rows = simd_rows(&doc("avx2", local, random)).unwrap();
            rows.iter().map(Row::passes).collect()
        };
        assert_eq!(verdicts(5.0, 8.0), [true, true]);
        assert_eq!(verdicts(5.1, 8.0), [false, true]);
        assert_eq!(verdicts(5.0, 8.1), [true, false]);
        assert!(simd_rows(&doc("scalar", 10.0, 10.0)).unwrap().is_empty());
        assert!(simd_rows("{\"headline\": {\"simd_level\": \"avx2\"}}").is_err());
    }

    #[test]
    fn sparse_row_gates_the_within_run_layout_ratio() {
        let doc = |sparse: f64| {
            format!(
                "{{\"headline\": {{\"flat_uniform_random_ns_per_sample\": 10.0, \
                 \"flat_sparse_random_ns_per_sample\": {sparse}}}}}"
            )
        };
        let verdict = |sparse| sparse_rows(&doc(sparse)).unwrap()[0].passes();
        assert!(verdict(9.0) && verdict(11.7));
        assert!(!verdict(11.9));
        assert!(sparse_rows("{\"headline\": {}}").is_err());
        assert!(sparse_rows("{}").is_err());
    }
}
