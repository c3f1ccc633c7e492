//! Library side of the `ldafp` command-line tool.
//!
//! Everything the binary does lives here as testable functions:
//!
//! * [`csv`] — a minimal CSV reader/writer for labeled feature data
//!   (hand-rolled: the offline dependency set has no CSV crate, and the
//!   format needed here is trivial — comma-separated floats plus a label);
//! * [`args`] — a small flag parser (`--key value` / `--flag`);
//! * [`commands`] — the `train`, `eval`, `predict`, `serve`, `export-rtl`,
//!   `info` and `demo` subcommand implementations, each returning its
//!   output as a `String` so tests can assert on it. The one model file
//!   they share is the serving artifact (`ldafp_serve::ModelArtifact`):
//!   `train` writes it, every other model-reading command parses it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod csv;

/// CLI-level errors: user-facing messages, one per failure.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

impl From<ldafp_core::CoreError> for CliError {
    fn from(e: ldafp_core::CoreError) -> Self {
        CliError(format!("training error: {e}"))
    }
}

impl From<ldafp_fixedpoint::FixedPointError> for CliError {
    fn from(e: ldafp_fixedpoint::FixedPointError) -> Self {
        CliError(format!("fixed-point error: {e}"))
    }
}

impl From<ldafp_serve::ServeError> for CliError {
    fn from(e: ldafp_serve::ServeError) -> Self {
        CliError(format!("serving error: {e}"))
    }
}

impl From<ldafp_net::NetError> for CliError {
    fn from(e: ldafp_net::NetError) -> Self {
        CliError(format!("net error: {e}"))
    }
}

/// Convenience alias for CLI results.
pub type Result<T> = std::result::Result<T, CliError>;
