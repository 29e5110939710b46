//! `pipebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. `--steady N` instead runs the workload (or
//! `all`) N times in each of two passes, in child processes with a seed
//! each, and prints each end-to-end metric's median and quartiles per
//! pass, and how far its median moved between the passes, next to its
//! bound.

use std::process::ExitCode;

use regmon_pipebench::metrics::{end_to_end, Outcome};
use regmon_pipebench::traffic::Workload;
use regmon_pipebench::{steady, trace};

const USAGE: &str = "usage: pipebench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--steady RUNS]\n  workloads: serve_loops, serve_churn, \
                     serve_durable, fleet_cpd (--steady also takes `all`)";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot parse {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                other => return Err(bad(other)),
            },
            "--steady" => {
                let v = value()?;
                args.steady = Some(v.parse().map_err(|_| bad(&v))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return match steady::report(&args.workload, runs, args.seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pipebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("pipebench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let intervals = workload.default_intervals();
    let outcome: Outcome = if args.trace {
        trace::per_layer(workload, args.seed, args.seconds, intervals)
    } else {
        end_to_end(workload, args.seed, args.seconds, intervals)
    };
    if !outcome.correct {
        eprintln!("pipebench: correctness check failed");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
