//! Error taxonomy for the serving layer.

use ldafp_obs::json::JsonError;
use std::fmt;

/// Everything that can go wrong between a model artifact on disk and a
/// prediction on the wire.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The artifact (or a JSON request body) is not syntactically valid JSON.
    /// Carries the line/column/byte-offset of the first offending byte, so
    /// truncation and corruption are diagnosable from the message alone.
    Json(JsonError),
    /// The artifact parsed but a required field is missing or has the
    /// wrong shape. `context` names the field path.
    Schema {
        /// Dotted path of the offending field (e.g. `payload.binary.weights`).
        context: String,
        /// What was wrong with it.
        message: String,
    },
    /// A request field is missing, has the wrong shape, or names an
    /// operation or model that does not exist. `context` names the field
    /// (`op`, `rows[i][j]`, `model`, …).
    Request {
        /// Path of the offending request field.
        context: String,
        /// What was wrong with it.
        message: String,
    },
    /// The artifact declares a format version newer than this runtime
    /// understands (forward-compatibility stop, not a parse failure).
    UnsupportedVersion {
        /// Version found in the artifact.
        found: u32,
        /// Newest version this runtime can read.
        supported: u32,
    },
    /// The artifact is not an `ldafp-model` document at all.
    WrongMagic {
        /// The `format` field that was found (or a note that it is absent).
        found: String,
    },
    /// The payload checksum does not match the stored one: the file was
    /// modified or corrupted after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the artifact.
        stored: String,
        /// Checksum of the payload as read.
        computed: String,
    },
    /// The reconstructed model was rejected by the core layer (out-of-range
    /// raw weights, inconsistent heads, …).
    Model(ldafp_core::CoreError),
    /// An I/O failure, with the path involved.
    Io {
        /// File or address the operation targeted.
        target: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A predict request's rows do not match the model's feature count.
    FeatureMismatch {
        /// Features the model expects.
        expected: usize,
        /// Features the offending row carried.
        got: usize,
        /// Index of the offending row within the request.
        row: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Json(e) => write!(f, "invalid JSON: {e}"),
            ServeError::Schema { context, message } => {
                write!(f, "invalid artifact field '{context}': {message}")
            }
            ServeError::Request { context, message } => {
                write!(f, "invalid request field '{context}': {message}")
            }
            ServeError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is newer than supported version {supported}; \
                 upgrade the serving runtime"
            ),
            ServeError::WrongMagic { found } => {
                write!(f, "not an ldafp model artifact (format field is {found})")
            }
            ServeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored}, computed {computed} — \
                 the file was corrupted or hand-edited"
            ),
            ServeError::Model(e) => write!(f, "model rejected: {e}"),
            ServeError::Io { target, source } => write!(f, "i/o error on {target}: {source}"),
            ServeError::FeatureMismatch { expected, got, row } => write!(
                f,
                "row {row} has {got} features but the model expects {expected}"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Json(e) => Some(e),
            ServeError::Model(e) => Some(e),
            ServeError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<JsonError> for ServeError {
    fn from(e: JsonError) -> Self {
        ServeError::Json(e)
    }
}

impl From<ldafp_core::CoreError> for ServeError {
    fn from(e: ldafp_core::CoreError) -> Self {
        ServeError::Model(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_location_for_json_errors() {
        let e = ServeError::from(JsonError {
            message: "unexpected end of input (document truncated?)".to_string(),
            line: 3,
            column: 7,
            offset: 41,
        });
        let text = e.to_string();
        assert!(text.contains("line 3"), "{text}");
        assert!(text.contains("offset 41"), "{text}");
    }

    #[test]
    fn display_version_and_checksum() {
        let v = ServeError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(v.to_string().contains("version 9"), "{v}");
        let c = ServeError::ChecksumMismatch {
            stored: "fnv1a64:00".to_string(),
            computed: "fnv1a64:ff".to_string(),
        };
        assert!(c.to_string().contains("mismatch"), "{c}");
    }
}
