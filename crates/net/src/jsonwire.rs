//! The length-prefixed JSON codec: its framing and reply vocabulary.
//!
//! Every JSON message on the wire is one frame:
//!
//! ```text
//! ┌────────────────────┬──────────────────────────────┐
//! │ length: u32 BE     │ body: UTF-8 JSON, `length` B │
//! └────────────────────┴──────────────────────────────┘
//! ```
//!
//! Requests are `{"op": "predict"|"health"|"stats"|"reload"|"shutdown",
//! ...}`: the client builds them from a [`crate::binwire::BinRequest`] and
//! the server decodes them beside binary frames. Replies carry
//! `"ok": true` plus op-specific fields, or `"ok": false, "error": "..."`
//! (and `"overloaded": true` when the load-shedder refused the request).
//! The length prefix bounds reads: a frame larger than the configured
//! maximum is rejected before its body is read
//! ([`crate::binwire::scan_frame`] on the server, the client's reply
//! reader on the other side).

use crate::error::{NetError, Result};
use ldafp_obs::json::Value;
use ldafp_serve::BatchOutput;

/// Default bound on a single frame body of either codec (16 MiB).
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Frames `v` as one complete JSON frame (length prefix + compact body).
///
/// # Errors
///
/// [`NetError::Protocol`] when the body does not fit the `u32` prefix.
pub fn encode_frame(v: &Value) -> Result<Vec<u8>> {
    let body = v.to_compact_string();
    let len = u32::try_from(body.len()).map_err(|_| {
        NetError::Protocol(format!(
            "a {}-byte JSON body exceeds the u32 frame length",
            body.len()
        ))
    })?;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    Ok(frame)
}

/// Renders a classified batch as the JSON predict reply, naming each
/// row's class from `labels` (the served artifact's `class_labels`).
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

/// The JSON error reply for a failed request; a shed request
/// ([`NetError::Overloaded`]) also carries `"overloaded": true`.
pub fn error_response(e: &NetError) -> Value {
    let mut fields = vec![
        ("ok", Value::from(false)),
        ("error", Value::from(e.to_string())),
    ];
    if matches!(e, NetError::Overloaded) {
        fields.push(("overloaded", Value::from(true)));
    }
    Value::object(fields)
}
