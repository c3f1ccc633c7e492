//! The compact binary wire protocol, negotiated per-frame beside the
//! existing JSON framing.
//!
//! ## Why a magic byte works
//!
//! A JSON frame starts with a `u32` **big-endian** length bounded by the
//! server's frame limit (≤ 16 MiB), so its first byte on the wire is
//! `0x00` (or `0x01` for a frame of exactly 16 MiB). The binary protocol
//! claims first byte [`MAGIC`] = `0xB1` — a value a bounded JSON length
//! prefix can never produce — letting one listener speak both codecs with
//! **per-frame** negotiation and zero handshake:
//!
//! ```text
//! first byte 0xB1 → binary frame        anything else → JSON length prefix
//! ```
//!
//! ## Frame layout
//!
//! ```text
//! ┌──────┬────────┬───────┬────────┬──────────────┬──────────────┐
//! │ 0xB1 │ opcode │ flags │ status │ len (u32 LE) │ body (len B) │
//! └──────┴────────┴───────┴────────┴──────────────┴──────────────┘
//!   8-byte header; multi-byte integers little-endian (the body too).
//! ```
//!
//! `status` is `0` on requests; replies carry [`STATUS_OK`],
//! [`STATUS_ERROR`] (body = UTF-8 message) or [`STATUS_OVERLOADED`]
//! (empty body — the load-shedder's typed "try again").
//!
//! ## Predict bodies
//!
//! Request (`opcode` [`OP_PREDICT`]):
//!
//! ```text
//! u16 model-name len │ name bytes │ u8 encoding │ u8 reserved=0
//! │ u32 rows │ u32 features │ rows×features elements
//! ```
//!
//! with two element encodings: [`ENC_F64`] (8-byte IEEE-754 LE, the
//! float path — server scales + quantizes) and [`ENC_RAW`] (4-byte `i32`
//! LE raw two's-complement `QK.F` words, the client has already
//! quantized; scaling is bypassed and the words wrap exactly as the
//! hardware register would).
//!
//! Reply:
//!
//! ```text
//! u32 rows │ u64 wraps │ u64 saturated │ u16 label-count
//! │ labels (u16 len + bytes each) │ rows × (u32 class, f64 score)
//! ```
//!
//! The label table is the model's full class-label list, indexed by each
//! row's class word — labels cross the wire once per reply, not per row.
//! `wraps` is the engine's `BatchStats::accumulator_wraps`: the number of
//! MACs whose exact sum left the format's range, not a count of
//! intermediate accumulator wraps.
//!
//! Health/stats/reload/shutdown replies reuse the binary framing with a
//! UTF-8 JSON body, so admin plumbing shares the JSON tier's vocabulary.
//!
//! Every decoder in this module goes through the bounds-checked
//! [`Reader`]; hostile input produces [`NetError::Protocol`], never a
//! panic (property-tested in the crate's test suite).

use crate::error::{NetError, Result};
use ldafp_serve::BatchOutput;

/// First byte of every binary frame.
pub const MAGIC: u8 = 0xB1;

/// Classify a batch of rows.
pub const OP_PREDICT: u8 = 1;
/// Liveness + model identity probe (optionally routed).
pub const OP_HEALTH: u8 = 2;
/// Rolling metrics snapshot.
pub const OP_STATS: u8 = 3;
/// Drain and stop the server.
pub const OP_SHUTDOWN: u8 = 4;
/// Atomically install/replace a model in the registry.
pub const OP_RELOAD: u8 = 5;

/// Reply status: success.
pub const STATUS_OK: u8 = 0;
/// Reply status: typed error, body is a UTF-8 message.
pub const STATUS_ERROR: u8 = 1;
/// Reply status: request shed by the load-shedder; empty body.
pub const STATUS_OVERLOADED: u8 = 2;

/// Predict element encoding: IEEE-754 f64, little-endian.
pub const ENC_F64: u8 = 0;
/// Predict element encoding: raw two's-complement `QK.F` words as i32 LE.
pub const ENC_RAW: u8 = 1;

/// Size of the fixed frame header.
pub const HEADER_LEN: usize = 8;

/// A decoded binary frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Operation (`OP_*`).
    pub opcode: u8,
    /// Opcode-specific flags (predict: element encoding).
    pub flags: u8,
    /// `STATUS_*` on replies; 0 on requests.
    pub status: u8,
    /// Body length in bytes.
    pub len: u32,
}

/// Serializes a header.
pub fn encode_header(h: Header) -> [u8; HEADER_LEN] {
    let len = h.len.to_le_bytes();
    [
        MAGIC, h.opcode, h.flags, h.status, len[0], len[1], len[2], len[3],
    ]
}

/// What the incremental frame scanner found at the front of a read
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOutcome {
    /// Not enough bytes yet to know the frame boundary.
    NeedMore,
    /// A complete binary frame: body is `buf[HEADER_LEN..frame_len]`.
    Binary {
        /// The decoded header.
        header: Header,
        /// Total frame length (header + body).
        frame_len: usize,
    },
    /// A complete JSON frame: body is `buf[4..frame_len]`.
    Json {
        /// Total frame length (prefix + body).
        frame_len: usize,
    },
}

/// Incrementally scans the front of `buf` for one complete frame of
/// either codec. Returns [`ScanOutcome::NeedMore`] while the frame is
/// still arriving; callers keep appending and re-scanning.
///
/// # Errors
///
/// [`NetError::Protocol`] when the claimed length exceeds `max_frame`
/// (checked from the prefix alone, *before* any body arrives — an
/// attacker cannot make the server buffer an oversized frame).
pub fn scan_frame(buf: &[u8], max_frame: usize) -> Result<ScanOutcome> {
    if buf.is_empty() {
        return Ok(ScanOutcome::NeedMore);
    }
    if buf[0] == MAGIC {
        if buf.len() < HEADER_LEN {
            return Ok(ScanOutcome::NeedMore);
        }
        let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        if len as usize > max_frame {
            return Err(NetError::Protocol(format!(
                "binary frame body of {len} bytes exceeds the {max_frame}-byte limit"
            )));
        }
        let header = Header {
            opcode: buf[1],
            flags: buf[2],
            status: buf[3],
            len,
        };
        let frame_len = HEADER_LEN + len as usize;
        if buf.len() < frame_len {
            return Ok(ScanOutcome::NeedMore);
        }
        return Ok(ScanOutcome::Binary { header, frame_len });
    }
    // Anything else is a JSON big-endian length prefix. Garbage first
    // bytes imply absurd lengths and die on the same bound check.
    if buf.len() < 4 {
        return Ok(ScanOutcome::NeedMore);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > max_frame {
        return Err(NetError::Protocol(format!(
            "JSON frame body of {len} bytes exceeds the {max_frame}-byte limit"
        )));
    }
    let frame_len = 4 + len;
    if buf.len() < frame_len {
        return Ok(ScanOutcome::NeedMore);
    }
    Ok(ScanOutcome::Json { frame_len })
}

/// Bounds-checked little-endian cursor over a frame body. Every accessor
/// fails with a positioned [`NetError::Protocol`] instead of slicing out
/// of range — the decoders' no-panic guarantee rests here.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(NetError::Protocol(format!(
                "truncated body: needed {n} bytes for {what} at offset {}, only {} remain",
                self.pos,
                self.buf.len() - self.pos
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn i32(&mut self, what: &str) -> Result<i32> {
        let b = self.take(4, what)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f64(&mut self, what: &str) -> Result<f64> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn string(&mut self, len: usize, what: &str) -> Result<String> {
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| NetError::Protocol(format!("{what} is not UTF-8: {e}")))
    }

    fn expect_end(&self, what: &str) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(NetError::Protocol(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// The rows of a binary predict request, in their wire encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum RowsPayload {
    /// Float rows (server scales + quantizes), flat row-major.
    F64 {
        /// Columns per row.
        features: usize,
        /// `rows × features` values.
        values: Vec<f64>,
    },
    /// Raw two's-complement `QK.F` words (client already quantized),
    /// flat row-major.
    Raw {
        /// Columns per row.
        features: usize,
        /// `rows × features` words, sign-extended to i64.
        words: Vec<i64>,
    },
}

impl RowsPayload {
    /// Number of rows in the payload.
    pub fn rows(&self) -> usize {
        match self {
            RowsPayload::F64 { features, values } => values.len() / features.max(&1),
            RowsPayload::Raw { features, words } => words.len() / features.max(&1),
        }
    }

    /// Columns per row.
    pub fn features(&self) -> usize {
        match self {
            RowsPayload::F64 { features, .. } | RowsPayload::Raw { features, .. } => *features,
        }
    }
}

/// A decoded binary request.
#[derive(Debug, Clone, PartialEq)]
pub enum BinRequest {
    /// Classify rows, optionally routed to a named registry model
    /// (empty name = the server's default).
    Predict {
        /// Registry route; empty = default model.
        model: String,
        /// The rows.
        payload: RowsPayload,
    },
    /// Probe liveness and model identity (empty name = default model).
    Health {
        /// Registry route; empty = default model.
        model: String,
    },
    /// Rolling metrics snapshot.
    Stats,
    /// Drain and stop.
    Shutdown,
    /// Install/replace a registry model.
    Reload {
        /// Registry name to install under.
        name: String,
        /// The artifact document, as JSON text.
        artifact_json: String,
    },
}

/// Serializes a request into one complete frame (header + body).
pub fn encode_request(req: &BinRequest) -> Vec<u8> {
    let (opcode, flags, body) = match req {
        BinRequest::Predict { model, payload } => {
            let (enc, features, rows, elem_bytes) = match payload {
                RowsPayload::F64 { features, values } => {
                    (ENC_F64, *features, values.len() / features.max(&1), 8)
                }
                RowsPayload::Raw { features, words } => {
                    (ENC_RAW, *features, words.len() / features.max(&1), 4)
                }
            };
            let mut body = Vec::with_capacity(2 + model.len() + 10 + rows * features * elem_bytes);
            body.extend_from_slice(&(model.len() as u16).to_le_bytes());
            body.extend_from_slice(model.as_bytes());
            body.push(enc);
            body.push(0); // reserved
            body.extend_from_slice(&(rows as u32).to_le_bytes());
            body.extend_from_slice(&(features as u32).to_le_bytes());
            match payload {
                RowsPayload::F64 { values, .. } => {
                    for v in values {
                        body.extend_from_slice(&v.to_le_bytes());
                    }
                }
                RowsPayload::Raw { words, .. } => {
                    for w in words {
                        body.extend_from_slice(&(*w as i32).to_le_bytes());
                    }
                }
            }
            (OP_PREDICT, enc, body)
        }
        BinRequest::Health { model } => {
            let mut body = Vec::with_capacity(2 + model.len());
            body.extend_from_slice(&(model.len() as u16).to_le_bytes());
            body.extend_from_slice(model.as_bytes());
            (OP_HEALTH, 0, body)
        }
        BinRequest::Stats => (OP_STATS, 0, Vec::new()),
        BinRequest::Shutdown => (OP_SHUTDOWN, 0, Vec::new()),
        BinRequest::Reload {
            name,
            artifact_json,
        } => {
            let mut body = Vec::with_capacity(6 + name.len() + artifact_json.len());
            body.extend_from_slice(&(name.len() as u16).to_le_bytes());
            body.extend_from_slice(name.as_bytes());
            body.extend_from_slice(&(artifact_json.len() as u32).to_le_bytes());
            body.extend_from_slice(artifact_json.as_bytes());
            (OP_RELOAD, 0, body)
        }
    };
    frame(opcode, flags, 0, &body)
}

/// Parses a request body against its header.
///
/// # Errors
///
/// [`NetError::Protocol`] for unknown opcodes/encodings, truncated or
/// oversized bodies, shape lies (`rows × features` disagreeing with the
/// payload size) and non-UTF-8 names. Never panics.
pub fn decode_request(header: Header, body: &[u8]) -> Result<BinRequest> {
    if body.len() != header.len as usize {
        return Err(NetError::Protocol(format!(
            "header claims {} body bytes, got {}",
            header.len,
            body.len()
        )));
    }
    let mut r = Reader::new(body);
    match header.opcode {
        OP_PREDICT => {
            let name_len = r.u16("model-name length")? as usize;
            let model = r.string(name_len, "model name")?;
            let enc = r.u8("row encoding")?;
            let _reserved = r.u8("reserved byte")?;
            let rows = r.u32("row count")? as usize;
            let features = r.u32("feature count")? as usize;
            let elems = rows.checked_mul(features).ok_or_else(|| {
                NetError::Protocol(format!("rows×features overflows: {rows}×{features}"))
            })?;
            // The claimed shape must match the bytes actually present
            // *before* any allocation sized from it — a hostile header
            // cannot make the server reserve memory it never received.
            let elem_size = if enc == ENC_RAW { 4usize } else { 8usize };
            let expected = elems.checked_mul(elem_size).ok_or_else(|| {
                NetError::Protocol(format!("payload size overflows: {elems}×{elem_size}"))
            })?;
            let remaining = body.len() - r.pos;
            if expected != remaining {
                return Err(NetError::Protocol(format!(
                    "shape {rows}×{features} wants {expected} payload bytes, body has {remaining}"
                )));
            }
            let payload = match enc {
                ENC_F64 => {
                    let mut values = Vec::new();
                    values.try_reserve_exact(elems).map_err(|_| {
                        NetError::Protocol(format!("cannot allocate {elems} f64 elements"))
                    })?;
                    for i in 0..elems {
                        values.push(r.f64(&format!("f64 element {i}"))?);
                    }
                    RowsPayload::F64 { features, values }
                }
                ENC_RAW => {
                    let mut words = Vec::new();
                    words.try_reserve_exact(elems).map_err(|_| {
                        NetError::Protocol(format!("cannot allocate {elems} raw words"))
                    })?;
                    for i in 0..elems {
                        words.push(i64::from(r.i32(&format!("raw word {i}"))?));
                    }
                    RowsPayload::Raw { features, words }
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "unknown row encoding {other} (want {ENC_F64}=f64 or {ENC_RAW}=raw)"
                    )))
                }
            };
            r.expect_end("predict payload")?;
            Ok(BinRequest::Predict { model, payload })
        }
        OP_HEALTH => {
            let name_len = r.u16("model-name length")? as usize;
            let model = r.string(name_len, "model name")?;
            r.expect_end("health body")?;
            Ok(BinRequest::Health { model })
        }
        OP_STATS => {
            r.expect_end("stats body")?;
            Ok(BinRequest::Stats)
        }
        OP_SHUTDOWN => {
            r.expect_end("shutdown body")?;
            Ok(BinRequest::Shutdown)
        }
        OP_RELOAD => {
            let name_len = r.u16("model-name length")? as usize;
            let name = r.string(name_len, "model name")?;
            let json_len = r.u32("artifact length")? as usize;
            let artifact_json = r.string(json_len, "artifact document")?;
            r.expect_end("reload body")?;
            Ok(BinRequest::Reload {
                name,
                artifact_json,
            })
        }
        other => Err(NetError::Protocol(format!("unknown opcode {other}"))),
    }
}

/// A decoded binary predict reply.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictReplyBin {
    /// The model's class-label table (winner indices point into it).
    pub labels: Vec<String>,
    /// Winning class index per row, input order.
    pub classes: Vec<u32>,
    /// Advisory decision margin per row.
    pub scores: Vec<f64>,
    /// MACs whose exact sum left the format's range, across the batch
    /// (`BatchStats::accumulator_wraps`).
    pub accumulator_wraps: u64,
    /// Out-of-range inputs clipped at quantization.
    pub saturated_inputs: u64,
}

impl PredictReplyBin {
    /// The label of row `i`'s winning class (empty on a malformed index —
    /// decoders validate, so reachable only through manual construction).
    pub fn label(&self, i: usize) -> &str {
        self.classes
            .get(i)
            .and_then(|&c| self.labels.get(c as usize))
            .map(String::as_str)
            .unwrap_or("")
    }
}

/// Serializes a classified batch as a predict reply frame. `labels` is
/// the engine's full class-label table.
pub fn encode_predict_reply(out: &BatchOutput, labels: &[String]) -> Vec<u8> {
    let mut body = Vec::with_capacity(24 + labels.len() * 12 + out.predictions.len() * 12);
    body.extend_from_slice(&(out.predictions.len() as u32).to_le_bytes());
    body.extend_from_slice(&out.stats.accumulator_wraps.to_le_bytes());
    body.extend_from_slice(&out.stats.saturated_inputs.to_le_bytes());
    body.extend_from_slice(&(labels.len() as u16).to_le_bytes());
    for label in labels {
        body.extend_from_slice(&(label.len() as u16).to_le_bytes());
        body.extend_from_slice(label.as_bytes());
    }
    for p in &out.predictions {
        body.extend_from_slice(&(p.class_index as u32).to_le_bytes());
        body.extend_from_slice(&p.score.to_le_bytes());
    }
    frame(OP_PREDICT, 0, STATUS_OK, &body)
}

/// Parses a predict reply body.
///
/// # Errors
///
/// [`NetError::Protocol`] on truncation, trailing bytes, or a class
/// index outside the label table.
pub fn decode_predict_reply(body: &[u8]) -> Result<PredictReplyBin> {
    let mut r = Reader::new(body);
    let rows = r.u32("row count")? as usize;
    let accumulator_wraps = r.u64("wrap counter")?;
    let saturated_inputs = r.u64("saturation counter")?;
    let label_count = r.u16("label count")? as usize;
    let mut labels = Vec::with_capacity(label_count.min(1024));
    for i in 0..label_count {
        let len = r.u16(&format!("label {i} length"))? as usize;
        labels.push(r.string(len, &format!("label {i}"))?);
    }
    let mut classes = Vec::with_capacity(rows.min(1 << 20));
    let mut scores = Vec::with_capacity(rows.min(1 << 20));
    for i in 0..rows {
        let class = r.u32(&format!("row {i} class"))?;
        if class as usize >= labels.len() {
            return Err(NetError::Protocol(format!(
                "row {i} class {class} outside the {}-entry label table",
                labels.len()
            )));
        }
        classes.push(class);
        scores.push(r.f64(&format!("row {i} score"))?);
    }
    r.expect_end("predict reply")?;
    Ok(PredictReplyBin {
        labels,
        classes,
        scores,
        accumulator_wraps,
        saturated_inputs,
    })
}

/// Wraps JSON text (admin replies: health/stats/reload/shutdown) in a
/// binary OK frame for `opcode`.
pub fn encode_json_reply(opcode: u8, json_text: &str) -> Vec<u8> {
    frame(opcode, 0, STATUS_OK, json_text.as_bytes())
}

/// A typed error reply: `status` = [`STATUS_ERROR`], body = the message.
pub fn encode_error_reply(opcode: u8, message: &str) -> Vec<u8> {
    frame(opcode, 0, STATUS_ERROR, message.as_bytes())
}

/// The load-shedder's rejection: `status` = [`STATUS_OVERLOADED`], empty
/// body.
pub fn encode_overloaded_reply(opcode: u8) -> Vec<u8> {
    frame(opcode, 0, STATUS_OVERLOADED, &[])
}

fn frame(opcode: u8, flags: u8, status: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&encode_header(Header {
        opcode,
        flags,
        status,
        len: body.len() as u32,
    }));
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_full(frame: &[u8]) -> (Header, usize) {
        match scan_frame(frame, 16 << 20).unwrap() {
            ScanOutcome::Binary { header, frame_len } => (header, frame_len),
            other => panic!("expected a binary frame, got {other:?}"),
        }
    }

    #[test]
    fn predict_f64_roundtrip() {
        let req = BinRequest::Predict {
            model: "canary".to_string(),
            payload: RowsPayload::F64 {
                features: 3,
                values: vec![0.5, -1.25, 2.0, 0.0, 1.0, -0.5],
            },
        };
        let bytes = encode_request(&req);
        let (header, frame_len) = scan_full(&bytes);
        assert_eq!(frame_len, bytes.len());
        assert_eq!(header.opcode, OP_PREDICT);
        assert_eq!(header.flags, ENC_F64);
        let back = decode_request(header, &bytes[HEADER_LEN..]).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn predict_raw_roundtrip_preserves_sign() {
        let req = BinRequest::Predict {
            model: String::new(),
            payload: RowsPayload::Raw {
                features: 2,
                words: vec![-128, 127, -1, 0],
            },
        };
        let bytes = encode_request(&req);
        let (header, _) = scan_full(&bytes);
        assert_eq!(header.flags, ENC_RAW);
        let back = decode_request(header, &bytes[HEADER_LEN..]).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn admin_ops_roundtrip() {
        for req in [
            BinRequest::Health {
                model: "m".to_string(),
            },
            BinRequest::Stats,
            BinRequest::Shutdown,
            BinRequest::Reload {
                name: "fresh".to_string(),
                artifact_json: "{\"format\":\"ldafp-model\"}".to_string(),
            },
        ] {
            let bytes = encode_request(&req);
            let (header, _) = scan_full(&bytes);
            assert_eq!(decode_request(header, &bytes[HEADER_LEN..]).unwrap(), req);
        }
    }

    #[test]
    fn scanner_distinguishes_codecs_bytewise() {
        // A JSON frame's first byte is its BE length's high byte: 0x00.
        let mut json = Vec::new();
        json.extend_from_slice(&5u32.to_be_bytes());
        json.extend_from_slice(b"\"hi\" ");
        assert_eq!(
            scan_frame(&json, 1024).unwrap(),
            ScanOutcome::Json { frame_len: 9 }
        );
        let bin = encode_request(&BinRequest::Stats);
        assert!(matches!(
            scan_frame(&bin, 1024).unwrap(),
            ScanOutcome::Binary { .. }
        ));
        // Incremental: every prefix short of the boundary wants more.
        for cut in 0..bin.len() {
            assert_eq!(
                scan_frame(&bin[..cut], 1024).unwrap(),
                ScanOutcome::NeedMore,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_claims_rejected_from_the_prefix_alone() {
        // Binary: 8-byte header claiming a huge body, no body sent.
        let hdr = encode_header(Header {
            opcode: OP_PREDICT,
            flags: 0,
            status: 0,
            len: u32::MAX,
        });
        assert!(matches!(scan_frame(&hdr, 1024), Err(NetError::Protocol(_))));
        // "JSON" whose first byte is garbage implies a ≥32 MiB length.
        let garbage = [0x7Bu8, 0x22, 0x6F, 0x70, 0x22]; // literally '{"op"'
        assert!(matches!(
            scan_frame(&garbage, 16 << 20),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn shape_lies_are_protocol_errors_not_panics() {
        // rows×features says 4 elements but only 2 arrive.
        let good = encode_request(&BinRequest::Predict {
            model: String::new(),
            payload: RowsPayload::F64 {
                features: 2,
                values: vec![1.0, 2.0, 3.0, 4.0],
            },
        });
        let (header, _) = scan_full(&good);
        let torn = &good[HEADER_LEN..good.len() - 16];
        let torn_header = Header {
            len: torn.len() as u32,
            ..header
        };
        assert!(matches!(
            decode_request(torn_header, torn),
            Err(NetError::Protocol(_))
        ));
        // rows×features overflowing usize must not wrap into a small alloc.
        let mut body = Vec::new();
        body.extend_from_slice(&0u16.to_le_bytes());
        body.push(ENC_F64);
        body.push(0);
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let h = Header {
            opcode: OP_PREDICT,
            flags: 0,
            status: 0,
            len: body.len() as u32,
        };
        assert!(matches!(
            decode_request(h, &body),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_request(&BinRequest::Stats);
        bytes.push(0xFF);
        let header = Header {
            opcode: OP_STATS,
            flags: 0,
            status: 0,
            len: 1,
        };
        assert!(matches!(
            decode_request(header, &bytes[HEADER_LEN..]),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn predict_reply_rejects_class_outside_label_table() {
        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes()); // 1 row
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes()); // 1 label
        body.extend_from_slice(&1u16.to_le_bytes());
        body.push(b'a');
        body.extend_from_slice(&7u32.to_le_bytes()); // class 7 of 1
        body.extend_from_slice(&0f64.to_le_bytes());
        assert!(matches!(
            decode_predict_reply(&body),
            Err(NetError::Protocol(_))
        ));
    }
}
