//! A small `--key value` / `--flag` argument parser.
//!
//! Deliberately tiny: the `ldafp` CLI has a handful of flags per
//! subcommand, and the offline dependency set contains no argument-parsing
//! crate. Unknown flags are errors (typo protection), and so is a flag the
//! command does not read ([`ParsedArgs::parse_command`]).

use crate::{CliError, Result};
use std::collections::BTreeMap;

/// Options every command reads: `--trace <file>` streams events,
/// `--out <file>` writes the output to a file, `--metrics-summary` prints
/// the metrics registry on exit.
const GLOBAL_VALUED: &[&str] = &["trace", "out"];
const GLOBAL_SWITCHES: &[&str] = &["metrics-summary"];

/// Each `ldafp` command with the options it reads beyond the global ones:
/// `(command, options taking a value, switches)`.
pub const COMMAND_OPTIONS: &[(&str, &[&str], &[&str])] = &[
    (
        "train",
        &[
            "data",
            "bits",
            "family",
            "k",
            "rho",
            "rounding",
            "budget-secs",
            "max-solver-retries",
            "solver-threads",
        ],
        &["baseline", "quick"],
    ),
    ("eval", &["model", "data"], &[]),
    ("predict", &["model", "input", "addr", "name", "wire"], &[]),
    (
        "serve",
        &[
            "model",
            "addr",
            "models",
            "batch-rows",
            "batch-deadline-us",
            "max-inflight",
            "max-pending-rows",
            "read-deadline-ms",
        ],
        &[],
    ),
    ("reload", &["addr", "model", "name", "wire"], &[]),
    ("info", &["model"], &[]),
    ("export-rtl", &["model", "module"], &["testbench"]),
    (
        "wordlength",
        &[
            "data",
            "target",
            "min-bits",
            "max-bits",
            "family",
            "k",
            "rho",
            "rounding",
            "threads",
            "solver-threads",
            "budget-secs",
            "max-solver-retries",
        ],
        &["quick"],
    ),
    (
        "explore",
        &[
            "data",
            "holdout",
            "min-bits",
            "max-bits",
            "k",
            "rho",
            "rounding",
            "family",
            "threads",
            "solver-threads",
            "budget-secs",
            "max-solver-retries",
            "cache-dir",
            "json",
            "resume",
            "checkpoint-nodes",
            "pareto",
        ],
        &["quick", "no-cache"],
    ),
    ("demo", &["bits"], &[]),
    ("trace-check", &["input"], &[]),
    ("help", &[], &[]),
];

/// Parsed arguments: positional values plus `--key`-ed options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl ParsedArgs {
    /// Parses raw arguments. `valued` lists the option names that consume a
    /// value; `switches` lists boolean flags. Anything else beginning with
    /// `--` is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for unknown options or a valued option at the
    /// end of the argument list.
    pub fn parse<I, S>(raw: I, valued: &[&str], switches: &[&str]) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = ParsedArgs::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if switches.contains(&name) {
                    out.flags.push(name.to_string());
                } else if valued.contains(&name) {
                    let value = iter
                        .next()
                        .ok_or_else(|| CliError(format!("option --{name} expects a value")))?;
                    out.options.insert(name.to_string(), value);
                } else {
                    return Err(CliError(format!("unknown option --{name}")));
                }
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// Parses an `ldafp` command line. The command is the first positional
    /// argument (`help` when there is none); a known command accepts only
    /// its own options from [`COMMAND_OPTIONS`] and the global ones.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for an option no command reads, a valued option
    /// at the end of the argument list, or an option the command does not
    /// read (the message names both).
    pub fn parse_command<I, S>(raw: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut valued = GLOBAL_VALUED.to_vec();
        let mut switches = GLOBAL_SWITCHES.to_vec();
        for (_, v, s) in COMMAND_OPTIONS {
            valued.extend_from_slice(v);
            switches.extend_from_slice(s);
        }
        let args = ParsedArgs::parse(raw, &valued, &switches)?;
        let command = args.command();
        if let Some((_, valued, switches)) = COMMAND_OPTIONS.iter().find(|c| c.0 == command) {
            let reads = |name: &str| {
                [*valued, *switches, GLOBAL_VALUED, GLOBAL_SWITCHES]
                    .iter()
                    .any(|list| list.contains(&name))
            };
            if let Some(name) = args.options.keys().chain(&args.flags).find(|n| !reads(n)) {
                return Err(CliError(format!(
                    "{command} does not read --{name}\nrun `ldafp help` for each command's options"
                )));
            }
        }
        Ok(args)
    }

    /// Refuses any of `names` that was given: options `command` reads in
    /// another mode but not in the one `mode` describes (e.g. "with
    /// --family os-elm"). The message names the command, the option and
    /// the mode.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] naming the first such option given.
    pub fn refuse_in_mode(&self, command: &str, mode: &str, names: &[&str]) -> Result<()> {
        match names
            .iter()
            .find(|&&n| self.options.contains_key(n) || self.has_flag(n))
        {
            Some(name) => Err(CliError(format!(
                "{command} does not read --{name} {mode}
run `ldafp help` for each command's options"
            ))),
            None => Ok(()),
        }
    }

    /// The command: the first positional argument, `help` when there is
    /// none.
    pub fn command(&self) -> &str {
        self.positional.first().map_or("help", String::as_str)
    }

    /// The value of option `name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Whether boolean flag `name` was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of option `name` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("option --{name}: cannot parse '{v}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ParsedArgs> {
        ParsedArgs::parse(
            args.iter().copied(),
            &["data", "bits"],
            &["quick", "testbench"],
        )
    }

    #[test]
    fn parses_mixture() {
        let a = parse(&["train", "--data", "d.csv", "--quick", "--bits", "6"]).unwrap();
        assert_eq!(a.command(), "train");
        assert_eq!(a.get("data"), Some("d.csv"));
        assert!(a.has_flag("quick"));
        assert!(!a.has_flag("testbench"));
        assert_eq!(a.get_parsed::<u32>("bits", 8).unwrap(), 6);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.get_parsed::<u32>("bits", 8).unwrap(), 8);
        assert_eq!(a.get("data"), None);
    }

    #[test]
    fn unknown_option_rejected() {
        let err = parse(&["--bogus"]).unwrap_err();
        assert!(err.0.contains("unknown option"), "{}", err.0);
    }

    #[test]
    fn missing_value_rejected() {
        let err = parse(&["--data"]).unwrap_err();
        assert!(err.0.contains("expects a value"), "{}", err.0);
    }

    #[test]
    fn command_accepts_its_own_and_the_global_options() {
        let a = ParsedArgs::parse_command([
            "--trace",
            "t.ndjson",
            "export-rtl",
            "--model",
            "m.json",
            "--testbench",
            "--out",
            "clf.v",
            "--metrics-summary",
        ])
        .unwrap();
        assert_eq!(a.command(), "export-rtl");
        assert!(a.has_flag("testbench") && a.has_flag("metrics-summary"));
        assert_eq!(
            ParsedArgs::parse_command(Vec::<String>::new())
                .unwrap()
                .command(),
            "help"
        );
    }

    #[test]
    fn bad_parse_rejected() {
        let a = parse(&["--bits", "six"]).unwrap();
        assert!(a.get_parsed::<u32>("bits", 8).is_err());
    }
}
