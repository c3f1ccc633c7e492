//! Error vocabulary for the evented tier and its client.
//!
//! The shape mirrors [`ldafp_serve::ServeError`] but adds the two outcomes
//! that only exist on this tier: a typed **overloaded** rejection (the
//! load-shedder refused the request; the connection is still healthy and
//! the client may retry) and **unsupported** (the epoll loop is only
//! implemented for Linux on x86-64/aarch64).

use ldafp_serve::ServeError;
use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, NetError>;

/// Anything the evented tier or [`crate::NetClient`] can fail with.
#[derive(Debug)]
pub enum NetError {
    /// A transport-level failure (dial, read, write, poll).
    Io {
        /// What was being talked to (address or role).
        target: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The peer violated the framing or body layout; the stream position
    /// is no longer trustworthy and the connection must be dropped.
    Protocol(String),
    /// The server answered with a typed error reply (bad request, unknown
    /// model, …). The connection remains usable.
    Server(String),
    /// The server shed this request under load. Not an error reply — a
    /// deliberate, typed "try again later" that never corrupts in-flight
    /// responses.
    Overloaded,
    /// The evented loop is not available on this platform.
    Unsupported(&'static str),
    /// A failure bubbled up from the serving layer (artifact validation,
    /// JSON schema, engine shape checks).
    Serve(ServeError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { target, source } => write!(f, "i/o error ({target}): {source}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::Server(msg) => write!(f, "server error: {msg}"),
            NetError::Overloaded => write!(f, "server overloaded: request shed, retry later"),
            NetError::Unsupported(what) => write!(f, "unsupported on this platform: {what}"),
            NetError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            NetError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for NetError {
    fn from(e: ServeError) -> Self {
        NetError::Serve(e)
    }
}

impl NetError {
    /// Wraps an `io::Error` with the address or role it concerns.
    pub fn io(target: impl Into<String>, source: std::io::Error) -> Self {
        NetError::Io {
            target: target.into(),
            source,
        }
    }
}
