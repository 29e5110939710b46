//! Minimal flag parsing (no external dependencies).
//!
//! The `USAGE` text is the option table: a subcommand accepts exactly
//! the `--options` its usage block lists, and an option takes a value
//! when the block shows one after it (`[--period N]`) and is a flag
//! when it does not (`[--json]`).

use crate::commands::{closest, USAGE};

/// Parsed positional arguments and `--key value` / `--flag` options.
#[derive(Debug, Default)]
pub struct Parsed {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// The options `regmon <command>` accepts, each with whether it takes
/// a value, in the order its `USAGE` block lists them.
fn options_of(command: &str) -> Vec<(&'static str, bool)> {
    let mut out: Vec<(&'static str, bool)> = Vec::new();
    let mut in_block = false;
    for line in USAGE.lines() {
        if let Some(rest) = line.trim_start().strip_prefix("regmon ") {
            // A synopsis line opens a block; indented lines continue it.
            in_block = line.starts_with("  ") && rest.split_whitespace().next() == Some(command);
        } else if !line.starts_with("   ") {
            in_block = false;
        }
        if !in_block {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for (i, token) in tokens.iter().enumerate() {
            let Some(name) = token.trim_start_matches(['[', '(']).strip_prefix("--") else {
                continue;
            };
            let closed = name.ends_with([']', ')']);
            let name = name.trim_end_matches([']', ')']);
            let takes_value = !closed
                && tokens
                    .get(i + 1)
                    .is_some_and(|next| !next.starts_with(['-', '[', '(', '|']));
            if !out.iter().any(|(known, _)| *known == name) {
                out.push((name, takes_value));
            }
        }
    }
    out
}

/// Parses `regmon <command>`'s `argv` into positionals and options.
///
/// # Errors
///
/// Returns an error for an option `command` does not accept (with a
/// did-you-mean when one is close) and for an option missing its value.
pub fn parse(command: &str, argv: &[String]) -> Result<Parsed, String> {
    let accepted = options_of(command);
    let mut out = Parsed::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            let Some(&(_, takes_value)) = accepted.iter().find(|(name, _)| *name == key) else {
                let names: Vec<&str> = accepted.iter().map(|(name, _)| *name).collect();
                return Err(match closest(key, &names) {
                    Some(best) => {
                        format!("regmon {command}: unknown option --{key}; did you mean --{best}?")
                    }
                    None => format!("regmon {command}: unknown option --{key}"),
                });
            };
            let value = if takes_value {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{key} requires a value"))?;
                Some(value.clone())
            } else {
                None
            };
            out.options.push((key.to_string(), value));
        } else {
            out.positional.push(arg.clone());
        }
    }
    Ok(out)
}

impl Parsed {
    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// `true` when the boolean flag `key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    /// The value of `--key`, parsed, or `default`.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse as `T`.
    pub fn value_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.iter().rev().find(|(k, _)| k == key) {
            Some((_, Some(v))) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
            _ => Ok(default),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| (*v).to_string()).collect()
    }

    #[test]
    fn positionals_and_options() {
        let p = parse("run", &argv(&["181.mcf", "--period", "45000", "--json"])).unwrap();
        assert_eq!(p.positional(0), Some("181.mcf"));
        assert!(p.flag("json"));
        assert_eq!(p.value_or("period", 0u64).unwrap(), 45_000);
        assert_eq!(p.value_or("intervals", 7usize).unwrap(), 7);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse("run", &argv(&["--period"])).is_err());
    }

    #[test]
    fn bad_value_is_an_error() {
        let p = parse("run", &argv(&["--period", "abc"])).unwrap();
        assert!(p.value_or("period", 0u64).is_err());
    }

    #[test]
    fn cpd_is_a_bool_flag() {
        // `--cpd` must not swallow the following argument as a value.
        let p = parse("fleet", &argv(&["--cpd", "--batch", "8"])).unwrap();
        assert!(p.flag("cpd"));
        assert_eq!(p.value_or("batch", 1usize).unwrap(), 8);
    }

    #[test]
    fn bool_flag_does_not_eat_the_next_flag() {
        // `--cpd --json` must leave `--json` intact, not eat it as a value.
        let p = parse("fleet", &argv(&["--cpd", "--json"])).unwrap();
        assert!(p.flag("cpd") && p.flag("json"));
        let p = parse("fleet", &argv(&["--json", "--cpd"])).unwrap();
        assert!(p.flag("cpd") && p.flag("json"));
    }

    #[test]
    fn last_occurrence_wins() {
        let p = parse("run", &argv(&["--period", "1", "--period", "2"])).unwrap();
        assert_eq!(p.value_or("period", 0u64).unwrap(), 2);
    }

    #[test]
    fn resume_takes_a_file_in_replay_but_not_in_send() {
        let p = parse("replay", &argv(&["j.rgj", "--resume", "ck.rgsn", "--json"])).unwrap();
        assert_eq!(p.value_or("resume", String::new()).unwrap(), "ck.rgsn");
        assert_eq!(p.positional(1), None);
        let p = parse("send", &argv(&["j.rgj", "--resume", "--unix", "s.sock"])).unwrap();
        assert!(p.flag("resume"));
        assert_eq!(p.value_or("unix", String::new()).unwrap(), "s.sock");
    }

    #[test]
    fn unknown_option_is_an_error_with_a_suggestion() {
        let err = parse("fleet", &argv(&["--bacth", "8"])).unwrap_err();
        assert!(
            err.contains("--bacth") && err.contains("did you mean --batch?"),
            "{err}"
        );
        // Options belong to their subcommand: `--cpd` is a fleet flag.
        let err = parse("run", &argv(&["--cpd"])).unwrap_err();
        assert!(err.contains("unknown option --cpd"), "{err}");
        // Tenants have one placement rule: no stealing, no pinning.
        for gone in ["--steal", "--pin"] {
            let err = parse("fleet", &argv(&[gone])).unwrap_err();
            assert!(err.contains(&format!("unknown option {gone}")), "{err}");
        }
    }

    #[test]
    fn options_are_read_from_each_usage_block() {
        assert_eq!(
            options_of("replay"),
            [
                ("json", false),
                ("snapshot-at", true),
                ("snapshot-out", true),
                ("resume", true),
            ]
        );
        // Both `regmon metrics` synopsis lines count.
        assert_eq!(
            options_of("metrics"),
            [("intervals", true), ("json", false), ("check", true)]
        );
        assert!(options_of("list").is_empty());
        for (command, _) in crate::SUBCOMMANDS {
            let synopsis = format!("  regmon {command}");
            assert!(
                USAGE
                    .lines()
                    .any(|l| l == synopsis || l.starts_with(&format!("{synopsis} "))),
                "no USAGE block for {command}"
            );
        }
    }
}
