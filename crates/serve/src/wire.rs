//! Length-prefixed JSON framing and the request/response vocabulary.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! ┌────────────────────┬──────────────────────────────┐
//! │ length: u32 BE     │ body: UTF-8 JSON, `length` B │
//! └────────────────────┴──────────────────────────────┘
//! ```
//!
//! Requests are `{"op": "predict"|"health"|"stats"|"reload"|"shutdown",
//! ...}`;
//! responses carry `"ok": true` plus op-specific fields, or
//! `"ok": false, "error": "..."`. The length prefix bounds reads (a frame
//! larger than the configured maximum is rejected *before* its body is
//! read), and a short read inside a frame is a protocol error, not a
//! silent truncation.

use crate::engine::BatchOutput;
use crate::error::{Result, ServeError};
use ldafp_obs::json::{self, Value};
use std::io::{Read, Write};

/// Default bound on a single frame body (16 MiB).
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify a batch of rows.
    Predict {
        /// Feature rows, batch-ordered.
        rows: Vec<Vec<f64>>,
        /// Registry route (`None` = the server's default model), resolved
        /// through the server's `ModelRegistry`.
        model: Option<String>,
    },
    /// Liveness + model identity probe.
    Health,
    /// Rolling metrics snapshot.
    Stats,
    /// Atomically install (or replace) a model in the server's registry.
    Reload {
        /// Registry name to install under.
        name: String,
        /// The full artifact document, embedded verbatim.
        artifact: Value,
    },
    /// Ask the server to stop accepting connections and drain.
    Shutdown,
}

impl Request {
    /// Serializes the request to its wire JSON.
    pub fn to_json(&self) -> Value {
        match self {
            Request::Predict { rows, model } => {
                let mut fields = vec![
                    ("op", Value::from("predict")),
                    (
                        "rows",
                        Value::Array(rows.iter().map(|r| Value::from(r.clone())).collect()),
                    ),
                ];
                if let Some(name) = model {
                    fields.push(("model", Value::from(name.as_str())));
                }
                Value::object(fields)
            }
            Request::Health => Value::object([("op", Value::from("health"))]),
            Request::Stats => Value::object([("op", Value::from("stats"))]),
            Request::Reload { name, artifact } => Value::object([
                ("op", Value::from("reload")),
                ("name", Value::from(name.as_str())),
                ("artifact", artifact.clone()),
            ]),
            Request::Shutdown => Value::object([("op", Value::from("shutdown"))]),
        }
    }

    /// Parses a request from its wire JSON.
    ///
    /// # Errors
    ///
    /// [`ServeError::Schema`] for unknown ops or malformed rows.
    pub fn from_json(v: &Value) -> Result<Self> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::Schema {
                context: "op".to_string(),
                message: "expected a string naming the operation".to_string(),
            })?;
        match op {
            "predict" => {
                let rows = v
                    .get("rows")
                    .and_then(Value::as_array)
                    .ok_or_else(|| ServeError::Schema {
                        context: "rows".to_string(),
                        message: "predict requires an array of rows".to_string(),
                    })?
                    .iter()
                    .enumerate()
                    .map(|(i, row)| {
                        row.as_array()
                            .ok_or_else(|| ServeError::Schema {
                                context: format!("rows[{i}]"),
                                message: "expected an array of numbers".to_string(),
                            })?
                            .iter()
                            .enumerate()
                            .map(|(j, x)| {
                                x.as_f64().ok_or_else(|| ServeError::Schema {
                                    context: format!("rows[{i}][{j}]"),
                                    message: "expected a number".to_string(),
                                })
                            })
                            .collect()
                    })
                    .collect::<Result<Vec<Vec<f64>>>>()?;
                let model = match v.get("model") {
                    None => None,
                    Some(m) => Some(
                        m.as_str()
                            .ok_or_else(|| ServeError::Schema {
                                context: "model".to_string(),
                                message: "expected a string model name".to_string(),
                            })?
                            .to_string(),
                    ),
                };
                Ok(Request::Predict { rows, model })
            }
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "reload" => {
                let name = v
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ServeError::Schema {
                        context: "name".to_string(),
                        message: "reload requires a string model name".to_string(),
                    })?
                    .to_string();
                let artifact = v
                    .get("artifact")
                    .ok_or_else(|| ServeError::Schema {
                        context: "artifact".to_string(),
                        message: "reload requires an embedded artifact document".to_string(),
                    })?
                    .clone();
                Ok(Request::Reload { name, artifact })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServeError::Schema {
                context: "op".to_string(),
                message: format!("unknown operation '{other}'"),
            }),
        }
    }
}

/// Renders a classified batch as the wire's JSON predict response,
/// naming each row's class from `labels` (the served artifact's
/// `class_labels`).
pub fn predict_response(out: &BatchOutput, labels: &[String]) -> Value {
    Value::object([
        ("ok", Value::from(true)),
        (
            "predictions",
            Value::Array(
                out.predictions
                    .iter()
                    .map(|p| {
                        Value::object([
                            ("class", Value::from(p.class_index)),
                            ("label", Value::from(labels[p.class_index].as_str())),
                            ("score", Value::from(p.score)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("rows", Value::from(out.stats.rows)),
        (
            "accumulator_wraps",
            Value::from(out.stats.accumulator_wraps),
        ),
        ("saturated_inputs", Value::from(out.stats.saturated_inputs)),
    ])
}

/// Builds the error response for a failed request.
pub fn error_response(e: &ServeError) -> Value {
    Value::object([
        ("ok", Value::from(false)),
        ("error", Value::from(e.to_string())),
    ])
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates I/O failures (as raw `io::Error` for the caller to wrap with
/// its target address).
pub fn write_frame(w: &mut impl Write, v: &Value) -> std::io::Result<()> {
    let body = v.to_compact_string();
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads one frame, returning `None` on clean EOF *between* frames.
///
/// # Errors
///
/// * [`ServeError::FrameTooLarge`] when the prefix exceeds `max` (the body
///   is not read);
/// * [`ServeError::Protocol`] when the stream ends inside a frame;
/// * [`ServeError::Json`] when the body is not valid JSON;
/// * [`ServeError::Io`] for transport failures (timeouts included).
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Value>> {
    let mut prefix = [0u8; 4];
    match read_exact_or_eof(r, &mut prefix)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Short(n) => {
            return Err(ServeError::Protocol(format!(
                "stream ended {n} bytes into a frame length prefix"
            )))
        }
        ReadOutcome::Full => {}
    }
    let length = u32::from_be_bytes(prefix) as usize;
    if length > max {
        return Err(ServeError::FrameTooLarge { length, max });
    }
    let mut body = vec![0u8; length];
    match read_exact_or_eof(r, &mut body)? {
        ReadOutcome::Full => {}
        ReadOutcome::CleanEof | ReadOutcome::Short(_) => {
            return Err(ServeError::Protocol(format!(
                "stream ended inside a {length}-byte frame body"
            )))
        }
    }
    let text = std::str::from_utf8(&body)
        .map_err(|e| ServeError::Protocol(format!("frame body is not UTF-8: {e}")))?;
    Ok(Some(json::parse(text)?))
}

enum ReadOutcome {
    Full,
    CleanEof,
    Short(usize),
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Short(filled)
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(ServeError::Io {
                    target: "stream".to_string(),
                    source: e,
                })
            }
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let req = Request::Predict {
            rows: vec![vec![0.5, -0.25], vec![1.0, 0.0]],
            model: None,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.to_json()).unwrap();
        let back = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(Request::from_json(&back).unwrap(), req);
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut &*empty, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_rejected_without_reading_body() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1_000_000u32).to_be_bytes());
        // No body at all: the bound check must fire first.
        match read_frame(&mut buf.as_slice(), 1024) {
            Err(ServeError::FrameTooLarge { length, max }) => {
                assert_eq!((length, max), (1_000_000, 1024));
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_protocol_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Value::from("hello")).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_prefix_is_protocol_error() {
        let buf = [0u8, 0u8];
        assert!(matches!(
            read_frame(&mut &buf[..], 1024),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn unknown_op_rejected() {
        let v = Value::object([("op", Value::from("teleport"))]);
        assert!(matches!(
            Request::from_json(&v),
            Err(ServeError::Schema { .. })
        ));
    }

    #[test]
    fn routed_predict_and_reload_roundtrip() {
        let routed = Request::Predict {
            rows: vec![vec![1.0]],
            model: Some("canary".to_string()),
        };
        assert_eq!(Request::from_json(&routed.to_json()).unwrap(), routed);
        let reload = Request::Reload {
            name: "canary".to_string(),
            artifact: Value::object([("format", Value::from("ldafp-model"))]),
        };
        assert_eq!(Request::from_json(&reload.to_json()).unwrap(), reload);
        // Reload without an artifact is a schema error, not a panic.
        let v = json::parse("{\"op\": \"reload\", \"name\": \"x\"}").unwrap();
        assert!(matches!(
            Request::from_json(&v),
            Err(ServeError::Schema { context, .. }) if context == "artifact"
        ));
    }

    #[test]
    fn malformed_rows_rejected_with_position() {
        let v = json::parse("{\"op\": \"predict\", \"rows\": [[1.0, \"x\"]]}").unwrap();
        match Request::from_json(&v) {
            Err(ServeError::Schema { context, .. }) => {
                assert_eq!(context, "rows[0][1]");
            }
            other => panic!("expected Schema, got {other:?}"),
        }
    }
}
