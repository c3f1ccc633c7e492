//! Exact reply bytes of the evented server, on both codecs, for every op
//! and every error path: frames are written by hand on a raw socket and
//! each reply is read back whole and compared with a pinned rendering.
//!
//! The rendering is lossless. A JSON reply checks its big-endian length
//! prefix against its body and renders as `J <body text>`. A binary reply
//! checks its magic byte and little-endian length and renders as
//! `B <opcode> <flags> <status> <body>`, where a predict OK body is hex
//! and every other body (error text, admin JSON) is its UTF-8 text.
//! `stats` replies carry timings, so only their key set is checked.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use ldafp_core::FixedPointClassifier;
use ldafp_fixedpoint::QFormat;
use ldafp_net::binwire::{self, BinRequest, RowsPayload};
use ldafp_net::{serve_evented, EventedConfig, EventedHandle};
use ldafp_obs::json::{self, Value};
use ldafp_serve::{InferenceEngine, ModelArtifact, ModelRegistry};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

fn artifact() -> ModelArtifact {
    let clf = FixedPointClassifier::from_float(
        &[0.875, -1.25, 0.375],
        0.1875,
        QFormat::new(3, 8).unwrap(),
    )
    .unwrap();
    let mut artifact = ModelArtifact::binary(clf);
    artifact.class_labels = vec!["hit".to_string(), "miss".to_string()];
    artifact
}

fn server(config: EventedConfig) -> EventedHandle {
    let engine = InferenceEngine::new(artifact()).unwrap();
    serve_evented(ModelRegistry::with_default(engine), "127.0.0.1:0", config).unwrap()
}

fn json_frame(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

fn binary_frame(opcode: u8, flags: u8, body: &[u8]) -> Vec<u8> {
    let mut frame = binwire::encode_header(binwire::Header {
        opcode,
        flags,
        status: 0,
        len: body.len() as u32,
    })
    .to_vec();
    frame.extend_from_slice(body);
    frame
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Sends `frame` on a fresh connection and renders the one reply frame.
fn exchange(handle: &EventedHandle, frame: &[u8]) -> String {
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(frame).unwrap();
    let mut first = [0u8; 4];
    s.read_exact(&mut first).unwrap();
    if first[0] == binwire::MAGIC {
        let mut rest = [0u8; binwire::HEADER_LEN - 4];
        s.read_exact(&mut rest).unwrap();
        let len = u32::from_le_bytes(rest) as usize;
        let mut body = vec![0u8; len];
        s.read_exact(&mut body).unwrap();
        let (opcode, flags, status) = (first[1], first[2], first[3]);
        let text = if opcode == binwire::OP_PREDICT && status == binwire::STATUS_OK {
            hex(&body)
        } else {
            String::from_utf8(body).unwrap()
        };
        format!("B {opcode} {flags} {status} {text}")
    } else {
        let len = u32::from_be_bytes(first) as usize;
        let mut body = vec![0u8; len];
        s.read_exact(&mut body).unwrap();
        format!("J {}", String::from_utf8(body).unwrap())
    }
}

fn binary(handle: &EventedHandle, req: &BinRequest) -> String {
    exchange(handle, &binwire::encode_request(req))
}

fn json(handle: &EventedHandle, body: &str) -> String {
    exchange(handle, &json_frame(body.as_bytes()))
}

fn predict(model: &str, payload: RowsPayload) -> BinRequest {
    BinRequest::Predict {
        model: model.to_string(),
        payload,
    }
}

fn f64_rows(features: usize, values: &[f64]) -> RowsPayload {
    RowsPayload::F64 {
        features,
        values: values.to_vec(),
    }
}

/// Compares every rendered reply with its pin, reporting all mismatches.
fn pin(got: &[String], want: &[&str]) {
    let diffs: Vec<String> = (0..got.len().max(want.len()))
        .filter(|&i| got.get(i).map(String::as_str) != want.get(i).copied())
        .map(|i| format!("#{i}\n  got:  {:?}\n  want: {:?}", got.get(i), want.get(i)))
        .collect();
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

const ROWS: [f64; 6] = [0.5, -0.25, 1.0, -1.0, 0.75, 0.0];

fn raw_rows(features: usize, words: &[i64]) -> RowsPayload {
    RowsPayload::Raw {
        features,
        words: words.to_vec(),
    }
}

#[test]
fn predict_replies() {
    let h = server(EventedConfig::default());
    let got = [
        binary(&h, &predict("", f64_rows(3, &ROWS))),
        binary(&h, &predict("", raw_rows(3, &[16, -8, 32, -32, 24, 0]))),
        json(
            &h,
            r#"{"op":"predict","rows":[[0.5,-0.25,1.0],[-1.0,0.75,0.0]]}"#,
        ),
    ];
    pin(
        &got,
        &[
            r#"B 1 0 0 02000000000000000000000000000000000000000200030068697404006d69737300000000000000000000ee3f0100000000000000000000c0"#,
            r#"B 1 0 0 02000000000000000000000000000000000000000200030068697404006d69737301000000000000000000a8bf01000000000000000080dabf"#,
            r#"J {"accumulator_wraps":0,"ok":true,"predictions":[{"class":0,"label":"hit","score":0.9375},{"class":1,"label":"miss","score":-2}],"rows":2,"saturated_inputs":0}"#,
        ],
    );
}

#[test]
fn predict_errors() {
    let h = server(EventedConfig::default());
    let got = [
        // An unknown route.
        binary(&h, &predict("nosuch", f64_rows(3, &ROWS))),
        json(
            &h,
            r#"{"op":"predict","model":"nosuch","rows":[[0.5,-0.25,1.0]]}"#,
        ),
        // Two-feature rows for a three-feature model.
        binary(&h, &predict("", f64_rows(2, &ROWS[..4]))),
        binary(&h, &predict("", raw_rows(2, &[16, -8, 32, -32]))),
        json(&h, r#"{"op":"predict","rows":[[0.5,-0.25],[1.0,-1.0]]}"#),
        // Zero features, in both element encodings.
        binary(&h, &predict("", f64_rows(0, &[]))),
        binary(&h, &predict("", raw_rows(0, &[]))),
    ];
    pin(
        &got,
        &[
            r#"B 1 0 1 invalid request field 'model': unknown model 'nosuch' (registered: default)"#,
            r#"J {"error":"invalid request field 'model': unknown model 'nosuch' (registered: default)","ok":false}"#,
            r#"B 1 0 1 row 0 has 2 features but the model expects 3"#,
            // Raw words claim one width for all rows: the first row is
            // named, as on the float path.
            r#"B 1 0 1 row 0 has 2 features but the model expects 3"#,
            r#"J {"error":"row 0 has 2 features but the model expects 3","ok":false}"#,
            r#"B 1 0 1 protocol error: zero-feature predict"#,
            r#"B 1 0 1 protocol error: zero-feature predict"#,
        ],
    );
}

#[test]
fn undecodable_bodies() {
    let h = server(EventedConfig::default());
    let got = [
        exchange(&h, &binary_frame(9, 0, b"xyz")),
        exchange(&h, &json_frame(&[0xFF, 0xFE])),
        json(&h, "{\"op\":"),
        json(&h, r#"{"op":"teleport"}"#),
        json(&h, r#"{"op":"predict","rows":[[1.0,"x"]]}"#),
        json(&h, r#"{"op":"predict","rows":[5]}"#),
        json(&h, r#"{"op":"predict"}"#),
        json(&h, r#"{"op":"predict","rows":[],"model":7}"#),
    ];
    pin(
        &got,
        &[
            r#"B 9 0 1 protocol error: unknown opcode 9"#,
            r#"J {"error":"protocol error: frame body is not UTF-8: invalid utf-8 sequence of 1 bytes from index 0","ok":false}"#,
            r#"J {"error":"invalid JSON: unexpected end of input (document truncated?) at line 1, column 7 (byte offset 6)","ok":false}"#,
            r#"J {"error":"invalid request field 'op': unknown operation 'teleport'","ok":false}"#,
            r#"J {"error":"invalid request field 'rows[0][1]': expected a number","ok":false}"#,
            r#"J {"error":"invalid request field 'rows[0]': expected an array of numbers","ok":false}"#,
            r#"J {"error":"invalid request field 'rows': predict requires an array of rows","ok":false}"#,
            r#"J {"error":"invalid request field 'model': expected a string model name","ok":false}"#,
        ],
    );
}

#[test]
fn health_replies() {
    let h = server(EventedConfig::default());
    let health = |model: &str| BinRequest::Health {
        model: model.to_string(),
    };
    let got = [
        binary(&h, &health("")),
        json(&h, r#"{"op":"health"}"#),
        binary(&h, &health("default")),
        binary(&h, &health("nosuch")),
    ];
    pin(
        &got,
        &[
            r#"B 2 0 0 {"default":"default","evented":true,"generation":1,"model":{"classes":2,"family":"lda","features":3,"kind":"binary","qformat":"Q3.8"},"models":["default"],"ok":true,"status":"healthy"}"#,
            r#"J {"default":"default","evented":true,"generation":1,"model":{"classes":2,"family":"lda","features":3,"kind":"binary","qformat":"Q3.8"},"models":["default"],"ok":true,"status":"healthy"}"#,
            r#"B 2 0 0 {"default":"default","evented":true,"generation":1,"model":{"classes":2,"family":"lda","features":3,"kind":"binary","qformat":"Q3.8"},"models":["default"],"ok":true,"status":"healthy"}"#,
            r#"B 2 0 1 invalid request field 'model': unknown model 'nosuch' (registered: default)"#,
        ],
    );
}

#[test]
fn reload_replies() {
    let reload = |artifact_json: &str| BinRequest::Reload {
        name: "canary".to_string(),
        artifact_json: artifact_json.to_string(),
    };
    let good = artifact().to_json_string();
    let h = server(EventedConfig::default());
    let fresh = server(EventedConfig::default());
    let got = [
        binary(&h, &reload(r#"{"format":"nope"}"#)),
        json(
            &h,
            r#"{"op":"reload","name":"canary","artifact":{"format":"nope"}}"#,
        ),
        json(&h, r#"{"op":"reload","name":"canary"}"#),
        binary(&h, &reload(&good)),
        json(
            &fresh,
            &format!(r#"{{"op":"reload","name":"canary","artifact":{good}}}"#),
        ),
    ];
    pin(
        &got,
        &[
            r#"B 5 0 1 not an ldafp model artifact (format field is '"nope"')"#,
            r#"J {"error":"not an ldafp model artifact (format field is '\"nope\"')","ok":false}"#,
            r#"J {"error":"invalid request field 'artifact': reload requires an embedded artifact document","ok":false}"#,
            r#"B 5 0 0 {"family":"lda","generation":2,"model":"canary","ok":true,"replaced":false}"#,
            r#"J {"family":"lda","generation":2,"model":"canary","ok":true,"replaced":false}"#,
        ],
    );
}

/// A frame refused for its length is answered, then the connection
/// closes.
#[test]
fn oversized_frames() {
    let h = server(EventedConfig {
        max_frame: 64,
        ..EventedConfig::default()
    });
    let header = binwire::encode_header(binwire::Header {
        opcode: binwire::OP_HEALTH,
        flags: 0,
        status: 0,
        len: 65,
    });
    let got = [exchange(&h, &header), exchange(&h, &65u32.to_be_bytes())];
    pin(
        &got,
        &[
            // Answered under the refused frame's own opcode (health).
            r#"B 2 0 1 protocol error: binary frame body of 65 bytes exceeds the 64-byte limit"#,
            r#"J {"error":"protocol error: JSON frame body of 65 bytes exceeds the 64-byte limit","ok":false}"#,
        ],
    );
}

/// With no inflight allowance every predict is shed.
#[test]
fn overloaded_refusals() {
    let h = server(EventedConfig {
        max_inflight_per_conn: 0,
        ..EventedConfig::default()
    });
    let got = [
        binary(&h, &predict("", f64_rows(3, &ROWS))),
        json(&h, r#"{"op":"predict","rows":[[0.5,-0.25,1.0]]}"#),
    ];
    pin(
        &got,
        &[
            r#"B 1 0 2 "#,
            r#"J {"error":"server overloaded: request shed, retry later","ok":false,"overloaded":true}"#,
        ],
    );
}

#[test]
fn shutdown_acks() {
    let got = [
        binary(&server(EventedConfig::default()), &BinRequest::Shutdown),
        json(&server(EventedConfig::default()), r#"{"op":"shutdown"}"#),
    ];
    pin(
        &got,
        &[
            r#"B 4 0 0 {"ok":true,"shutting_down":true}"#,
            r#"J {"ok":true,"shutting_down":true}"#,
        ],
    );
}

#[test]
fn stats_key_sets() {
    let h = server(EventedConfig::default());
    let keys = |reply: String| -> String {
        let text = reply
            .strip_prefix("B 3 0 0 ")
            .or_else(|| reply.strip_prefix("J "))
            .unwrap_or_else(|| panic!("not a stats OK reply: {reply}"));
        let v = json::parse(text).unwrap();
        let top = v.as_object().unwrap().keys().cloned();
        let stats = v.get("stats").and_then(Value::as_object).unwrap().keys();
        top.chain(stats.map(|k| format!("stats.{k}")))
            .collect::<Vec<_>>()
            .join(",")
    };
    let got = [
        keys(binary(&h, &BinRequest::Stats)),
        keys(json(&h, r#"{"op":"stats"}"#)),
    ];
    pin(
        &got,
        &[
            r#"generation,ok,stats,stats.accepts,stats.accumulator_wraps,stats.batch_rows_p50,stats.batches,stats.closes,stats.connections,stats.deadline_closes,stats.errors,stats.frames_in,stats.frames_out,stats.p50_us,stats.p99_us,stats.queue_wait_p50_us,stats.queue_wait_p99_us,stats.reloads,stats.requests,stats.rows,stats.saturated_inputs,stats.shed,stats.uptime_ms"#,
            r#"generation,ok,stats,stats.accepts,stats.accumulator_wraps,stats.batch_rows_p50,stats.batches,stats.closes,stats.connections,stats.deadline_closes,stats.errors,stats.frames_in,stats.frames_out,stats.p50_us,stats.p99_us,stats.queue_wait_p50_us,stats.queue_wait_p99_us,stats.reloads,stats.requests,stats.rows,stats.saturated_inputs,stats.shed,stats.uptime_ms"#,
        ],
    );
}
