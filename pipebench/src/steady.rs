//! Steadiness mode: the run-to-run spread of every end-to-end metric,
//! next to the bound `BENCHMARK.json` gives it.
//!
//! Each run is a child process with its own seed, started with the same
//! arguments a single run takes. The spread is the distance between the
//! first and third quartile as a share of the median. Two passes of N
//! runs each are made one after the other, and each metric's median in
//! the second is compared with the first, as a gate compares a change
//! with its parent.

use std::collections::BTreeMap;
use std::process::Command;

use regmon_telemetry::parse::{parse, JsonValue};

use crate::stats::quartiles;

/// The bounds and workloads declared in `BENCHMARK.json`.
#[derive(Debug, Default)]
pub struct Declared {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metric name → bound.
    pub bounds: BTreeMap<String, f64>,
    /// Per-layer metric names.
    pub per_layer: Vec<String>,
    /// Every metric's `(unit, better)`.
    pub kinds: BTreeMap<String, (String, String)>,
}

/// Reads a `BENCHMARK.json` text.
///
/// # Errors
///
/// On malformed JSON or missing keys.
pub fn declared(text: &str) -> Result<Declared, String> {
    let doc = parse(text)?;
    let list = |key: &str| -> Result<&[JsonValue], String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))
    };
    let name = |v: &JsonValue| -> Result<String, String> {
        v.get("name")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or("an entry without a name".to_string())
    };
    let text_of = |v: &JsonValue, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or(format!("a metric without {key}"))
    };
    let mut out = Declared::default();
    for w in list("workloads")? {
        out.workloads.push(name(w)?);
    }
    for m in list("end_to_end")?.iter().chain(list("per_layer")?) {
        let kind = (text_of(m, "unit")?, text_of(m, "better")?);
        out.kinds.insert(name(m)?, kind);
    }
    for m in list("end_to_end")? {
        let bound = m
            .get("bound")
            .and_then(JsonValue::as_f64)
            .ok_or("a metric without a bound")?;
        out.bounds.insert(name(m)?, bound);
    }
    for m in list("per_layer")? {
        out.per_layer.push(name(m)?);
    }
    Ok(out)
}

/// One run's result line, parsed.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = parse(line).map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    if doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: run is not correct: {line}"
        ));
    }
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or(format!("{workload} seed {seed}: result without metrics"))?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// Passes `--steady` makes. A gate compares two passes' medians, so
/// one pass's spread alone does not show that a gate would hold.
pub const PASSES: u64 = 2;

/// Each workload's metric values over one pass: workload → metric →
/// one value per run.
type Pass = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// How much worse `after` is than `before`, as a share of `before`;
/// negative when it is better.
#[must_use]
pub fn worsening(before: f64, after: f64, better: &str) -> f64 {
    let change = (after - before) / before;
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Runs `workload` (or every declared workload for `all`) `runs` times
/// in each of [`PASSES`] passes, one pass after the other, and prints
/// each end-to-end metric's median, quartiles and spread per pass, then
/// how far the last pass's median moved from the first's, next to the
/// metric's bound. Pass `p` (from 0) uses seeds `p * runs + 1 ..= (p +
/// 1) * runs`.
///
/// # Errors
///
/// When `BENCHMARK.json` is unreadable, a run fails, a spread exceeds
/// its bound, or a median worsens between the passes by more than it.
pub fn report(workload: &str, runs: usize, seconds: f64) -> Result<(), String> {
    if runs < 2 {
        return Err("--steady needs at least 2 runs".into());
    }
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let declared = declared(&text)?;
    let workloads = if workload == "all" {
        declared.workloads.clone()
    } else {
        vec![workload.to_string()]
    };
    let mut passes: Vec<Pass> = Vec::new();
    for pass in 0..PASSES {
        let mut values = Pass::new();
        for w in &workloads {
            let per_metric = values.entry(w.clone()).or_default();
            for seed in pass * runs as u64 + 1..=(pass + 1) * runs as u64 {
                eprintln!("pipebench: pass {} {w} seed {seed}", pass + 1);
                for (k, v) in run_once(w, seed, seconds)? {
                    per_metric.entry(k).or_default().push(v);
                }
            }
        }
        passes.push(values);
    }

    let mut over = Vec::new();
    let mut medians: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    println!(
        "{:<4} {:<14} {:<20} {:>12} {:>12} {:>12} {:>7} {:>6}  verdict",
        "pass", "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (pass, values) in passes.iter().enumerate() {
        for w in &workloads {
            for (metric, &bound) in &declared.bounds {
                let v = values[w]
                    .get(metric)
                    .ok_or(format!("{w}: no {metric} reported"))?;
                let m = regmon_stats::median(v).ok_or(format!("{w}: no {metric} values"))?;
                let (q1, q3) = quartiles(v);
                let spread = (q3 - q1) / m;
                let verdict = verdict(spread, bound);
                if spread > bound {
                    over.push(format!("pass {} {w}/{metric} spread", pass + 1));
                }
                medians.entry((w, metric)).or_default().push(m);
                println!(
                    "{:<4} {w:<14} {metric:<20} {m:>12.6} {q1:>12.6} {q3:>12.6} {spread:>7.4} \
                     {bound:>6}  {verdict}",
                    pass + 1
                );
                let runs: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
                println!("{:<40} runs: {}", "", runs.join(" "));
            }
        }
    }

    println!(
        "\n{:<14} {:<20} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median last", "worse by", "bound"
    );
    for ((w, metric), m) in &medians {
        let bound = declared.bounds[*metric];
        let better = declared
            .kinds
            .get(*metric)
            .map_or("lower", |k| k.1.as_str());
        let (first, last) = (m[0], m[m.len() - 1]);
        let worse = worsening(first, last, better);
        let verdict = verdict(worse, bound);
        if worse > bound {
            over.push(format!("{w}/{metric} between passes"));
        }
        println!(
            "{w:<14} {metric:<20} {first:>12.6} {last:>12.6} {worse:>8.4} {bound:>6}  {verdict}"
        );
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("over its bound: {}", over.join(", ")))
    }
}

/// `steady` below a third of the bound, `within bound` up to it, else
/// `OVER`.
fn verdict(share: f64, bound: f64) -> &'static str {
    if share <= bound / 3.0 {
        "steady"
    } else if share <= bound {
        "within bound"
    } else {
        "OVER"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 80.0, "higher") - 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, "lower") + 0.2).abs() < 1e-12);
        assert_eq!(verdict(0.05, 0.25), "steady");
        assert_eq!(verdict(0.2, 0.25), "within bound");
        assert_eq!(verdict(0.3, 0.25), "OVER");
    }
}
