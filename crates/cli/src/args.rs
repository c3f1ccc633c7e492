//! A small `--key value` / `--flag` argument parser.
//!
//! Deliberately tiny: the `ldafp` CLI has a handful of flags per
//! subcommand, and the offline dependency set contains no argument-parsing
//! crate. Unknown flags are errors (typo protection).

use crate::{CliError, Result};
use std::collections::BTreeMap;

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

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
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
        assert_eq!(a.positional(), &["train".to_string()]);
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
    fn bad_parse_rejected() {
        let a = parse(&["--bits", "six"]).unwrap();
        assert!(a.get_parsed::<u32>("bits", 8).is_err());
    }
}
