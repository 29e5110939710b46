//! `regmon` — command-line front end to the phase-detection library.
//!
//! ```text
//! regmon list
//! regmon run 181.mcf [--period 45000] [--intervals 200] [--json]
//! regmon sweep 187.facerec [--intervals 400]
//! regmon rto 181.mcf [--period 1500000] [--intervals 200]
//! regmon baselines 187.facerec [--period 45000] [--intervals 200]
//! regmon fleet all [--tenants 64] [--shards 4] [--intervals 50] [--json]
//! regmon replay session.rgj [--json] [--snapshot-at 20 --snapshot-out ck.rgsn]
//! regmon serve --unix /tmp/regmon.sock [--expect-sessions 4] [--json]
//! regmon send session.rgj --unix /tmp/regmon.sock [--wire-version auto] [--compress]
//! regmon migrate session.rgj --at 20 --from /tmp/a.sock --to /tmp/b.sock
//! regmon metrics [187.facerec] [--json] | regmon metrics --check trace.json
//! regmon cpd --trace trace.json [--json] | regmon cpd --bench BENCH_a.json,BENCH_b.json
//! ```

mod args;
mod commands;
mod json;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "list" => {
            commands::list();
            Ok(())
        }
        "run" => commands::run(rest),
        "features" => commands::features(rest),
        "sweep" => commands::sweep(rest),
        "rto" => commands::rto(rest),
        "baselines" => commands::baselines(rest),
        "fleet" => commands::fleet(rest),
        "replay" => commands::replay(rest),
        "serve" => commands::serve(rest),
        "send" => commands::send(rest),
        "migrate" => commands::migrate(rest),
        "metrics" => commands::metrics(rest),
        "cpd" => commands::cpd(rest),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(unknown_subcommand(other)),
    }
}

const SUBCOMMANDS: [&str; 13] = [
    "list",
    "run",
    "features",
    "sweep",
    "rto",
    "baselines",
    "fleet",
    "replay",
    "serve",
    "send",
    "migrate",
    "metrics",
    "cpd",
];

/// `unknown subcommand "cdp"; did you mean "cpd"?` — the same
/// ergonomics the benchmark argument already has.
fn unknown_subcommand(given: &str) -> String {
    match commands::closest(given, &SUBCOMMANDS) {
        Some(best) => format!("unknown subcommand {given:?}; did you mean {best:?}?"),
        None => format!("unknown subcommand {given:?}"),
    }
}
