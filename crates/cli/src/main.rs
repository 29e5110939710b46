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
//! regmon send session.rgj --unix /tmp/regmon.sock [--retries 3]
//! regmon migrate session.rgj --at 20 --from /tmp/a.sock --to /tmp/b.sock
//! regmon metrics [187.facerec] [--json] | regmon metrics --check trace.json
//! regmon cpd --trace trace.json [--json] | regmon cpd --bench BENCH_a.json,BENCH_b.json
//! ```
//!
//! Every wire byte `regmon` writes or reads (`--record` journals, the
//! `--durable` WAL, `send` and `migrate`) is wire v2; wire v1 journals
//! and WALs from older builds fail with an error naming the format.

mod args;
mod commands;
mod json;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
        Err(Failure::Command(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("see 'regmon help' for usage");
            ExitCode::FAILURE
        }
    }
}

/// Why `regmon` exits non-zero.
enum Failure {
    /// No subcommand, or an unknown one: the full `USAGE` follows.
    Usage(String),
    /// A subcommand failed: one line points at `regmon help`.
    Command(String),
}

fn run(argv: &[String]) -> Result<(), Failure> {
    let Some(cmd) = argv.first() else {
        return Err(Failure::Usage("missing subcommand".into()));
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", commands::USAGE);
        return Ok(());
    }
    let Some((_, handler)) = SUBCOMMANDS.iter().find(|(name, _)| name == cmd) else {
        return Err(Failure::Usage(unknown_subcommand(cmd)));
    };
    // An unrecognized dispatch override is a typo, not a request for
    // the default: refuse it rather than run at a level nobody asked for.
    if let Err(raw) = regmon_stats::simd::env_request() {
        return Err(Failure::Command(format!(
            "{} {raw:?}: expected scalar|avx2",
            regmon_stats::simd::SIMD_ENV
        )));
    }
    handler(&argv[1..]).map_err(Failure::Command)
}

/// A subcommand: it receives the arguments after its name.
type Handler = fn(&[String]) -> Result<(), String>;

/// Every subcommand, in `USAGE` order: the dispatch table and the
/// candidates for did-you-mean suggestions.
const SUBCOMMANDS: [(&str, Handler); 13] = [
    ("list", commands::list),
    ("run", commands::run),
    ("features", commands::features),
    ("sweep", commands::sweep),
    ("rto", commands::rto),
    ("baselines", commands::baselines),
    ("fleet", commands::fleet),
    ("replay", commands::replay),
    ("serve", commands::serve),
    ("send", commands::send),
    ("migrate", commands::migrate),
    ("metrics", commands::metrics),
    ("cpd", commands::cpd),
];

/// `unknown subcommand "cdp"; did you mean "cpd"?` — the same
/// ergonomics the benchmark argument already has.
fn unknown_subcommand(given: &str) -> String {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, _)| *name).collect();
    match commands::closest(given, &names) {
        Some(best) => format!("unknown subcommand {given:?}; did you mean {best:?}?"),
        None => format!("unknown subcommand {given:?}"),
    }
}
