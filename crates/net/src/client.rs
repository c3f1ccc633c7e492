//! The workspace's blocking client, for both wire codecs.
//!
//! [`NetClient`] keeps one connection alive and speaks the [`Codec`]
//! fixed at connect: the compact frames of [`crate::binwire`] or the
//! length-prefixed JSON of [`crate::jsonwire`]. Only two private steps
//! know the codec, request encoding and reply decoding; the JSON
//! vocabulary has no raw-word predict and no routed health probe, so
//! those two requests are refused with [`NetError::Protocol`] before
//! anything is sent.
//!
//! The transport is shared: a dial that tries every resolved address,
//! [`RetryPolicy`]'s jittered backoff (`client.retry` counter and event),
//! and, for request/reply calls, a redial and one replay when the
//! kept-alive socket has died (`client.reconnect`). Every request is
//! idempotent, so the replay is safe. The pipelined
//! [`NetClient::send_predict_rows`] / [`NetClient::recv_predict`] halves
//! never redial or replay: a reply cannot be matched to a request sent on
//! a socket that is gone.
//!
//! A server error reply surfaces as [`NetError::Server`] and a shed
//! request as [`NetError::Overloaded`] over either codec, so callers can
//! retry on exactly the right condition.

use crate::binwire::{
    self, BinRequest, PredictReplyBin, RowsPayload, STATUS_ERROR, STATUS_OK, STATUS_OVERLOADED,
};
use crate::error::{NetError, Result};
use crate::jsonwire::{self, DEFAULT_MAX_FRAME};
use ldafp_fixedpoint::{InputScale, QFormat, RoundingMode};
use ldafp_obs as obs;
use ldafp_obs::json::{self, Value};
use ldafp_serve::ServeError;
use ldafp_stats::{fnv1a64, FNV1A64_OFFSET};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side quantization for the raw-word predict mode: maps float
/// rows onto the model's `QK.F` grid, producing the flat word buffer
/// [`NetClient::predict_raw`] ships. Shipping words instead of floats
/// moves the quantization cost to the client and halves the payload
/// (4 bytes/element vs 8).
///
/// The server's float path multiplies each row by the artifact's
/// `input_scale` before it quantizes. For a model whose scale is not the
/// identity, apply `input_scale` to the rows first; only then do these
/// words equal the float path's.
pub fn quantize_rows(format: QFormat, rounding: RoundingMode, rows: &[Vec<f64>]) -> Vec<i64> {
    let mut words = vec![0; rows.iter().map(Vec::len).sum()];
    format.quantize_rows_into(rows, InputScale::Identity, rounding, &mut words, |_| {});
    words
}

/// A wire codec: the one a [`NetClient`] speaks, fixed at connect, and
/// the one the server answers a request in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// The compact frames of [`crate::binwire`].
    Binary,
    /// The length-prefixed JSON frames of [`crate::jsonwire`].
    Json,
}

/// Bounded retry policy for dialing: [`NetClient::connect_with_retry`]
/// and every later reconnect of a dead kept-alive socket.
///
/// Only transport failures ([`NetError::Io`]: refused, unreachable,
/// timed-out connects) are retried — a server that *answers* wrongly is a
/// protocol or server error, and retrying would just repeat the
/// conversation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts, including the first (`>= 1`; `1` means
    /// no retries at all).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt thereafter.
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Backoff before 1-based attempt `attempt` (the first attempt is
    /// immediate): exponential doubling from `base_delay`, capped at
    /// `max_delay`, scaled by a jitter factor in `[0.75, 1.25)` derived by
    /// hashing `(addr, attempt)`. The crate carries no RNG dependency;
    /// hash-derived jitter still de-synchronizes thundering-herd clients
    /// (distinct addresses/attempts land on distinct offsets) while
    /// keeping every test run reproducible.
    #[must_use]
    pub fn delay_before(&self, attempt: u32, addr: &str) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let doublings = attempt.saturating_sub(2).min(20);
        let raw = self
            .base_delay
            .saturating_mul(1u32 << doublings)
            .min(self.max_delay);
        // FNV-1a over (addr, attempt) → jitter in [0.75, 1.25).
        let h = fnv1a64(addr.as_bytes(), FNV1A64_OFFSET);
        let h = fnv1a64(&attempt.to_le_bytes(), h);
        let jitter = 0.75 + (h >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        raw.mul_f64(jitter).min(self.max_delay)
    }
}

/// Class indices a JSON predict reply may name: the binary codec's `u16`
/// label-table limit, which also bounds the table a reply can make the
/// client allocate.
const MAX_LABELS: usize = 1 << 16;

/// A blocking, keep-alive connection to one server (see the module docs).
#[derive(Debug)]
pub struct NetClient {
    /// `None` once a transport failure poisoned the socket; the next
    /// request/reply call redials.
    stream: Option<TcpStream>,
    addr: String,
    timeout: Duration,
    codec: Codec,
    reconnect: RetryPolicy,
    max_frame: usize,
}

/// An accepted reply (status OK), still in its codec's body form.
enum Reply {
    Binary(Vec<u8>),
    Json(Value),
}

impl NetClient {
    /// Dials `addr` (`host:port`; host names included) once, speaking the
    /// binary codec, with `timeout` applied to connect, reads and writes.
    /// Later reconnects use [`RetryPolicy::default`].
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when resolution or the dial fails.
    pub fn connect(addr: &str, timeout: Duration) -> Result<NetClient> {
        let stream = dial(addr, timeout)?;
        Ok(NetClient::open(stream, addr, timeout, Codec::Binary))
    }

    /// [`NetClient::connect`] for the JSON codec.
    ///
    /// # Errors
    ///
    /// As [`NetClient::connect`].
    pub fn connect_json(addr: &str, timeout: Duration) -> Result<NetClient> {
        let stream = dial(addr, timeout)?;
        Ok(NetClient::open(stream, addr, timeout, Codec::Json))
    }

    /// Dials `addr` through `policy` (each retry increments the global
    /// `client.retry` counter and emits a `client.retry` event) and keeps
    /// the policy for later reconnects.
    ///
    /// # Errors
    ///
    /// The last attempt's [`NetError::Io`] once the budget is spent.
    pub fn connect_with_retry(
        addr: &str,
        timeout: Duration,
        codec: Codec,
        policy: &RetryPolicy,
    ) -> Result<NetClient> {
        let stream = dial_with_retry(addr, timeout, policy)?;
        let mut client = NetClient::open(stream, addr, timeout, codec);
        client.reconnect = policy.clone();
        Ok(client)
    }

    fn open(stream: TcpStream, addr: &str, timeout: Duration, codec: Codec) -> NetClient {
        NetClient {
            stream: Some(stream),
            addr: addr.to_string(),
            timeout,
            codec,
            reconnect: RetryPolicy::default(),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }

    /// The address this client dialed.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Classifies nested float rows (one request, one reply; replayed
    /// once on a fresh socket if the kept-alive one has died).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] for ragged rows; otherwise as
    /// [`Self::recv_predict`].
    pub fn predict_rows(
        &mut self,
        model: Option<&str>,
        rows: &[Vec<f64>],
    ) -> Result<PredictReplyBin> {
        let request = predict_request(model, rows)?;
        self.call(&request, Self::recv_predict)
    }

    /// Sends one float predict without waiting for the reply — the
    /// pipelining half; pair each call with one [`Self::recv_predict`].
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] for ragged rows, [`NetError::Io`] on
    /// transport failure or when an earlier failure lost the socket.
    pub fn send_predict_rows(&mut self, model: Option<&str>, rows: &[Vec<f64>]) -> Result<()> {
        let frame = self.encode(&predict_request(model, rows)?)?;
        self.write(&frame)
    }

    /// Classifies pre-quantized raw `QK.F` words (flat row-major; see
    /// [`quantize_rows`]). The server applies no input scaling to raw
    /// words: apply the artifact's `input_scale` to the rows first.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] over the JSON codec, which has no raw-word
    /// mode; otherwise as [`Self::recv_predict`].
    pub fn predict_raw(
        &mut self,
        model: Option<&str>,
        features: usize,
        words: &[i64],
    ) -> Result<PredictReplyBin> {
        let request = BinRequest::Predict {
            model: model.unwrap_or("").to_string(),
            payload: RowsPayload::Raw {
                features,
                words: words.to_vec(),
            },
        };
        self.call(&request, Self::recv_predict)
    }

    /// Receives one predict reply (pairs with a prior send).
    ///
    /// # Errors
    ///
    /// [`NetError::Overloaded`] when the shedder refused the request,
    /// [`NetError::Server`] for typed errors, [`NetError::Protocol`] /
    /// [`NetError::Io`] for wire trouble.
    pub fn recv_predict(&mut self) -> Result<PredictReplyBin> {
        match self.read_reply()? {
            Reply::Binary(body) => binwire::decode_predict_reply(&body),
            Reply::Json(reply) => json_predict_reply(&reply),
        }
    }

    /// Liveness + model identity (`model = None` probes the default).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] for a routed probe over the JSON codec,
    /// which has no health route; otherwise as [`Self::recv_predict`],
    /// with JSON parse failures as [`NetError::Protocol`].
    pub fn health(&mut self, model: Option<&str>) -> Result<Value> {
        let request = BinRequest::Health {
            model: model.unwrap_or("").to_string(),
        };
        self.call(&request, Self::read_value)
    }

    /// Rolling `net.*` metrics snapshot; the counters sit under the
    /// reply's `stats` key.
    ///
    /// # Errors
    ///
    /// As [`Self::health`].
    pub fn stats(&mut self) -> Result<Value> {
        self.call(&BinRequest::Stats, Self::read_value)
    }

    /// Atomically installs (or replaces) a registry model from an
    /// artifact JSON document.
    ///
    /// # Errors
    ///
    /// [`NetError::Server`] when the artifact fails validation; over the
    /// JSON codec, [`NetError::Serve`] when `artifact_json` is not JSON
    /// (checked before anything is sent).
    pub fn reload(&mut self, name: &str, artifact_json: &str) -> Result<Value> {
        let request = BinRequest::Reload {
            name: name.to_string(),
            artifact_json: artifact_json.to_string(),
        };
        self.call(&request, Self::read_value)
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// As [`Self::health`].
    pub fn shutdown_server(&mut self) -> Result<Value> {
        self.call(&BinRequest::Shutdown, Self::read_value)
    }

    /// One request/reply exchange. When the kept-alive socket turns out
    /// dead (a transport failure on write or read), it is dropped, the
    /// address redialed through the reconnect policy, and the request
    /// replayed exactly once. A fresh dial that failed already spent the
    /// retry budget, so it is not replayed.
    fn call<T>(&mut self, request: &BinRequest, read: fn(&mut Self) -> Result<T>) -> Result<T> {
        let frame = self.encode(request)?;
        let had_stream = self.stream.is_some();
        match self.exchange(&frame, read) {
            Err(e @ NetError::Io { .. }) if had_stream => {
                obs::Registry::global().counter("client.reconnect").inc();
                if obs::enabled() {
                    obs::emit(
                        obs::Event::new("client.reconnect")
                            .with("target", self.addr.clone())
                            .with("error", e.to_string()),
                    );
                }
                self.exchange(&frame, read)
            }
            other => other,
        }
    }

    fn exchange<T>(&mut self, frame: &[u8], read: fn(&mut Self) -> Result<T>) -> Result<T> {
        if self.stream.is_none() {
            self.stream = Some(dial_with_retry(&self.addr, self.timeout, &self.reconnect)?);
        }
        self.write(frame)?;
        read(self)
    }

    /// Codec step one: a request as one complete frame. Requests the JSON
    /// vocabulary cannot express are refused here, before any I/O.
    fn encode(&self, request: &BinRequest) -> Result<Vec<u8>> {
        let op = |name: &str| ("op", Value::from(name));
        let json_request = match (self.codec, request) {
            (Codec::Binary, _) => return Ok(binwire::encode_request(request)),
            (Codec::Json, BinRequest::Predict { model, payload }) => {
                let RowsPayload::F64 { features, values } = payload else {
                    return Err(NetError::Protocol(
                        "the JSON codec has no raw-word predict".to_string(),
                    ));
                };
                let rows = values
                    .chunks((*features).max(1))
                    .map(|row| Value::from(row.to_vec()))
                    .collect();
                let mut fields = vec![op("predict"), ("rows", Value::Array(rows))];
                if !model.is_empty() {
                    fields.push(("model", Value::from(model.as_str())));
                }
                Value::object(fields)
            }
            (Codec::Json, BinRequest::Health { model }) if !model.is_empty() => {
                return Err(NetError::Protocol(
                    "the JSON codec has no routed health probe".to_string(),
                ))
            }
            (Codec::Json, BinRequest::Health { .. }) => Value::object([op("health")]),
            (Codec::Json, BinRequest::Stats) => Value::object([op("stats")]),
            (Codec::Json, BinRequest::Shutdown) => Value::object([op("shutdown")]),
            (
                Codec::Json,
                BinRequest::Reload {
                    name,
                    artifact_json,
                },
            ) => Value::object([
                op("reload"),
                ("name", Value::from(name.as_str())),
                (
                    "artifact",
                    json::parse(artifact_json).map_err(ServeError::from)?,
                ),
            ]),
        };
        jsonwire::encode_frame(&json_request)
    }

    /// Codec step two: one reply frame, with error statuses mapped to
    /// their typed outcomes. A transport or framing failure poisons the
    /// socket, since the stream position is no longer known.
    fn read_reply(&mut self) -> Result<Reply> {
        let reply = self.read_frame();
        if matches!(reply, Err(NetError::Io { .. } | NetError::Protocol(_))) {
            self.stream = None;
        }
        reply
    }

    /// Reads one frame of either codec: its prefix (the binary header or
    /// the JSON length), a body bounded by `max_frame`, then the status.
    fn read_frame(&mut self) -> Result<Reply> {
        let max_frame = self.max_frame;
        let codec = self.codec;
        let (stream, addr) = self.stream_mut()?;
        let mut header = [0u8; binwire::HEADER_LEN];
        let prefix = match codec {
            Codec::Binary => &mut header[..],
            Codec::Json => &mut header[..4],
        };
        if !read_full(stream, prefix, addr)? {
            return Err(closed_before_reply(addr));
        }
        let len = match codec {
            Codec::Binary if header[0] != binwire::MAGIC => {
                return Err(NetError::Protocol(format!(
                    "reply does not start with the binary magic byte (got {:#04x})",
                    header[0]
                )))
            }
            Codec::Binary => u32::from_le_bytes([header[4], header[5], header[6], header[7]]),
            Codec::Json => u32::from_be_bytes([header[0], header[1], header[2], header[3]]),
        } as usize;
        if len > max_frame {
            return Err(NetError::Protocol(format!(
                "reply body of {len} bytes exceeds the {max_frame}-byte limit"
            )));
        }
        let mut body = vec![0u8; len];
        if !read_full(stream, &mut body, addr)? {
            return Err(NetError::Protocol(
                "server closed the connection inside a reply body".to_string(),
            ));
        }
        if codec == Codec::Binary {
            return match header[3] {
                STATUS_OK => Ok(Reply::Binary(body)),
                STATUS_OVERLOADED => Err(NetError::Overloaded),
                STATUS_ERROR => Err(NetError::Server(
                    String::from_utf8_lossy(&body).into_owned(),
                )),
                other => Err(NetError::Protocol(format!("unknown reply status {other}"))),
            };
        }
        let reply = parse_json_body(&body)?;
        if reply.get("overloaded").and_then(Value::as_bool) == Some(true) {
            return Err(NetError::Overloaded);
        }
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            let message = reply
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("server reported failure without a message");
            return Err(NetError::Server(message.to_string()));
        }
        Ok(Reply::Json(reply))
    }

    fn read_value(&mut self) -> Result<Value> {
        match self.read_reply()? {
            Reply::Binary(body) => parse_json_body(&body),
            Reply::Json(reply) => Ok(reply),
        }
    }

    /// Writes one frame; a failure poisons the socket.
    fn write(&mut self, frame: &[u8]) -> Result<()> {
        let (stream, addr) = self.stream_mut()?;
        let written = stream
            .write_all(frame)
            .and_then(|()| stream.flush())
            .map_err(|e| NetError::io(addr, e));
        if written.is_err() {
            self.stream = None;
        }
        written
    }

    fn stream_mut(&mut self) -> Result<(&mut TcpStream, &str)> {
        match self.stream.as_mut() {
            Some(stream) => Ok((stream, &self.addr)),
            None => Err(io_error(
                &self.addr,
                ErrorKind::NotConnected,
                "the connection was lost by an earlier call",
            )),
        }
    }
}

/// A float predict request; rows must all have the first row's width.
fn predict_request(model: Option<&str>, rows: &[Vec<f64>]) -> Result<BinRequest> {
    let features = rows.first().map_or(1, Vec::len);
    let mut values = Vec::with_capacity(rows.len() * features);
    for (i, row) in rows.iter().enumerate() {
        if row.len() != features {
            return Err(NetError::Protocol(format!(
                "ragged batch: row {i} has {} features, row 0 has {features}",
                row.len()
            )));
        }
        values.extend_from_slice(row);
    }
    Ok(BinRequest::Predict {
        model: model.unwrap_or("").to_string(),
        payload: RowsPayload::F64 { features, values },
    })
}

/// Maps a JSON predict reply onto [`PredictReplyBin`], rebuilding the
/// label table from each row's `class` and `label`. Hostile replies are
/// [`NetError::Protocol`], never a panic or an unbounded allocation.
fn json_predict_reply(reply: &Value) -> Result<PredictReplyBin> {
    let bad = |what: String| NetError::Protocol(format!("malformed JSON predict reply: {what}"));
    let rows = reply
        .get("predictions")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("'predictions' is not an array".to_string()))?;
    let mut labels: Vec<Option<&str>> = Vec::new();
    let mut classes = Vec::with_capacity(rows.len());
    let mut scores = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let class = row
            .get("class")
            .and_then(Value::as_i64)
            .and_then(|c| usize::try_from(c).ok())
            .filter(|&c| c < MAX_LABELS)
            .ok_or_else(|| {
                bad(format!(
                    "row {i} 'class' is not an integer in 0..{MAX_LABELS}"
                ))
            })?;
        let label = row
            .get("label")
            .and_then(Value::as_str)
            .ok_or_else(|| bad(format!("row {i} has no string 'label'")))?;
        let score = row
            .get("score")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad(format!("row {i} has no numeric 'score'")))?;
        if labels.len() <= class {
            labels.resize(class + 1, None);
        }
        match labels[class] {
            None => labels[class] = Some(label),
            Some(known) if known == label => {}
            Some(known) => {
                return Err(bad(format!(
                    "class {class} is labelled both '{known}' and '{label}'"
                )))
            }
        }
        classes.push(class as u32);
        scores.push(score);
    }
    let counter = |key: &str| {
        reply
            .get(key)
            .and_then(Value::as_i64)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| bad(format!("'{key}' is not a non-negative integer")))
    };
    Ok(PredictReplyBin {
        labels: labels
            .into_iter()
            .map(|l| l.unwrap_or_default().to_string())
            .collect(),
        classes,
        scores,
        accumulator_wraps: counter("accumulator_wraps")?,
        saturated_inputs: counter("saturated_inputs")?,
    })
}

/// Parses a reply body that holds JSON text (every JSON reply, and the
/// binary codec's admin replies).
fn parse_json_body(body: &[u8]) -> Result<Value> {
    let text = std::str::from_utf8(body)
        .map_err(|e| NetError::Protocol(format!("reply body is not UTF-8: {e}")))?;
    json::parse(text).map_err(|e| NetError::Protocol(format!("reply is not JSON: {e}")))
}

/// Fills `buf` from `stream`. `Ok(false)` is a clean EOF before the
/// first byte; an EOF after it is a protocol error.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], addr: &str) -> Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(NetError::Protocol(format!(
                    "server closed the connection {filled} bytes into a reply"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::io(addr, e)),
        }
    }
    Ok(true)
}

/// EOF where a reply should start: the server dropped the connection
/// (restart, idle close), a transport failure worth one replay.
fn closed_before_reply(addr: &str) -> NetError {
    io_error(
        addr,
        ErrorKind::UnexpectedEof,
        "connection closed before a reply arrived",
    )
}

fn io_error(addr: &str, kind: ErrorKind, message: &str) -> NetError {
    NetError::io(addr, std::io::Error::new(kind, message))
}

/// Resolves `target` and dials each address it yields until one
/// connects, applying `timeout` to connect, reads and writes.
fn dial(target: &str, timeout: Duration) -> Result<TcpStream> {
    let mut last = None;
    let stream = target
        .to_socket_addrs()
        .map_err(|e| NetError::io(target, e))?
        .find_map(|a| {
            TcpStream::connect_timeout(&a, timeout)
                .map_err(|e| last = Some(e))
                .ok()
        })
        .ok_or_else(|| match last {
            Some(e) => NetError::io(target, e),
            None => io_error(
                target,
                ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            ),
        })?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| NetError::io(target, e))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// [`dial`] under a [`RetryPolicy`]: transport failures are retried with
/// jittered exponential backoff, counting each retry on the global
/// `client.retry` counter and emitting a `client.retry` event.
fn dial_with_retry(target: &str, timeout: Duration, policy: &RetryPolicy) -> Result<TcpStream> {
    let attempts = policy.max_attempts.max(1);
    let mut attempt = 1u32;
    loop {
        match dial(target, timeout) {
            Ok(stream) => return Ok(stream),
            Err(err @ NetError::Io { .. }) if attempt < attempts => {
                attempt += 1;
                let delay = policy.delay_before(attempt, target);
                obs::Registry::global().counter("client.retry").inc();
                if obs::enabled() {
                    obs::emit(
                        obs::Event::new("client.retry")
                            .with("target", target.to_string())
                            .with("attempt", attempt)
                            .with("delay_ms", delay.as_secs_f64() * 1e3)
                            .with("error", err.to_string()),
                    );
                }
                std::thread::sleep(delay);
            }
            Err(err) => return Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};

    /// The retry tests share the global `client.retry` and
    /// `client.reconnect` counters; serialize them so their before/after
    /// deltas don't interleave.
    static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    const CODECS: [Codec; 2] = [Codec::Binary, Codec::Json];

    fn quick_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
        }
    }

    fn connect(addr: SocketAddr, codec: Codec, policy: &RetryPolicy) -> NetClient {
        NetClient::connect_with_retry(&addr.to_string(), Duration::from_millis(500), codec, policy)
            .unwrap()
    }

    /// Reserves a local port that is (momentarily) not listening.
    fn free_addr() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    /// Reads one request frame in whichever codec it arrives; `None` at
    /// EOF or on a transport error.
    fn read_request(stream: &mut TcpStream) -> Option<Codec> {
        let mut first = [0u8; 1];
        stream.read_exact(&mut first).ok()?;
        let (codec, len) = if first[0] == binwire::MAGIC {
            let mut rest = [0u8; binwire::HEADER_LEN - 1];
            stream.read_exact(&mut rest).ok()?;
            (
                Codec::Binary,
                u32::from_le_bytes([rest[3], rest[4], rest[5], rest[6]]),
            )
        } else {
            let mut rest = [0u8; 3];
            stream.read_exact(&mut rest).ok()?;
            (
                Codec::Json,
                u32::from_be_bytes([first[0], rest[0], rest[1], rest[2]]),
            )
        };
        stream.read_exact(&mut vec![0u8; len as usize]).ok()?;
        Some(codec)
    }

    fn write_json(stream: &mut TcpStream, v: &Value) -> std::io::Result<()> {
        stream.write_all(&jsonwire::encode_frame(v).unwrap())
    }

    /// Answers a predict in `codec`: an empty batch when `ok`, else the
    /// typed rejection "nope".
    fn answer(stream: &mut TcpStream, codec: Codec, ok: bool) -> std::io::Result<()> {
        match (codec, ok) {
            (Codec::Binary, true) => {
                // rows u32, wraps u64, saturated u64, label count u16.
                let mut frame = binwire::encode_header(binwire::Header {
                    opcode: binwire::OP_PREDICT,
                    flags: 0,
                    status: STATUS_OK,
                    len: 22,
                })
                .to_vec();
                frame.extend([0u8; 22]);
                stream.write_all(&frame)
            }
            (Codec::Binary, false) => {
                stream.write_all(&binwire::encode_error_reply(binwire::OP_PREDICT, "nope"))
            }
            (Codec::Json, true) => write_json(
                stream,
                &Value::object([
                    ("ok", Value::from(true)),
                    ("predictions", Value::Array(vec![])),
                    ("accumulator_wraps", Value::from(0u64)),
                    ("saturated_inputs", Value::from(0u64)),
                ]),
            ),
            (Codec::Json, false) => write_json(
                stream,
                &Value::object([("ok", Value::from(false)), ("error", Value::from("nope"))]),
            ),
        }
    }

    /// A scripted one-thread server: accepts `conns` connections in turn,
    /// answers `replies_per_conn` frames on each with an empty predict
    /// reply in the codec it was sent, then drops the connection. Returns
    /// the accept count observed.
    fn scripted_server(
        listener: TcpListener,
        conns: usize,
        replies_per_conn: usize,
    ) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let mut accepted = 0usize;
            for _ in 0..conns {
                let Ok((mut stream, _)) = listener.accept() else {
                    break;
                };
                accepted += 1;
                for _ in 0..replies_per_conn {
                    let Some(codec) = read_request(&mut stream) else {
                        break;
                    };
                    if answer(&mut stream, codec, true).is_err() {
                        break;
                    }
                }
                // Dropping the stream closes it: the client's kept-alive
                // socket dies between calls.
            }
            accepted
        })
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(450),
        };
        assert_eq!(policy.delay_before(1, "a:1"), Duration::ZERO);
        let d2 = policy.delay_before(2, "a:1");
        let d3 = policy.delay_before(3, "a:1");
        let d8 = policy.delay_before(8, "a:1");
        // Jitter keeps each delay within ±25% of the nominal rung.
        assert!(
            d2 >= Duration::from_millis(75) && d2 < Duration::from_millis(125),
            "{d2:?}"
        );
        assert!(
            d3 >= Duration::from_millis(150) && d3 < Duration::from_millis(250),
            "{d3:?}"
        );
        // Deep attempts stay under the cap even after jitter.
        assert!(d8 <= Duration::from_millis(450), "{d8:?}");
        // Deterministic: same (addr, attempt) → same delay; different
        // addresses de-synchronize.
        assert_eq!(d2, policy.delay_before(2, "a:1"));
        assert_ne!(
            policy.delay_before(2, "a:1"),
            policy.delay_before(2, "b:2"),
            "distinct clients should land on distinct jitter offsets"
        );
    }

    #[test]
    fn retry_exhausts_budget_against_a_dead_port_and_counts_attempts() {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let addr = free_addr(); // listener dropped: connects are refused
        let counter = obs::Registry::global().counter("client.retry");
        let before = counter.get();
        let err = NetClient::connect_with_retry(
            &addr.to_string(),
            Duration::from_millis(200),
            Codec::Binary,
            &quick_policy(3),
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Io { .. }), "{err}");
        assert_eq!(
            counter.get() - before,
            2,
            "3 attempts = 2 retries on the global client.retry counter"
        );
    }

    #[test]
    fn retry_succeeds_once_a_flaky_listener_comes_up() {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let addr = free_addr();
        // Flaky server: the port stays dead through the first attempts,
        // then a listener appears and serves one connection.
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let listener = TcpListener::bind(addr).expect("rebind reserved port");
            let (_stream, _) = listener.accept().unwrap();
            // Hold the connection briefly so the client's connect completes.
            std::thread::sleep(Duration::from_millis(50));
        });
        let client = NetClient::connect_with_retry(
            &addr.to_string(),
            Duration::from_millis(500),
            Codec::Json,
            &quick_policy(10),
        );
        server.join().unwrap();
        assert!(client.is_ok(), "{:?}", client.err().map(|e| e.to_string()));
    }

    #[test]
    fn keep_alive_reuses_one_connection_across_calls() {
        for codec in CODECS {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = scripted_server(listener, 1, 3);
            let mut client = connect(addr, codec, &RetryPolicy::default());
            for _ in 0..3 {
                client.predict_rows(None, &[]).unwrap();
            }
            assert!(client.stream.is_some(), "{codec:?}");
            drop(client);
            assert_eq!(
                server.join().unwrap(),
                1,
                "{codec:?}: three calls, one connection"
            );
        }
    }

    #[test]
    fn dead_keep_alive_socket_reconnects_and_replays_once() {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for codec in CODECS {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            // Each connection answers exactly one frame, then dies: every
            // second call finds a dead socket and must redial.
            let server = scripted_server(listener, 2, 1);
            let reconnects = obs::Registry::global().counter("client.reconnect");
            let before = reconnects.get();
            let mut client = connect(addr, codec, &quick_policy(4));
            client.predict_rows(None, &[]).unwrap();
            client.predict_rows(None, &[]).unwrap(); // dead socket → reconnect → replay
            assert_eq!(server.join().unwrap(), 2, "{codec:?}");
            assert_eq!(
                reconnects.get() - before,
                1,
                "{codec:?}: exactly one reconnect"
            );
        }
    }

    #[test]
    fn server_rejections_are_not_replayed() {
        for codec in CODECS {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut served = 0usize;
                while let Some(codec) = read_request(&mut stream) {
                    served += 1;
                    if answer(&mut stream, codec, false).is_err() {
                        break;
                    }
                }
                served
            });
            let mut client = connect(addr, codec, &RetryPolicy::default());
            let err = client.predict_rows(None, &[]).unwrap_err();
            assert!(
                matches!(&err, NetError::Server(msg) if msg == "nope"),
                "{codec:?}: {err}"
            );
            drop(client);
            assert_eq!(
                server.join().unwrap(),
                1,
                "{codec:?}: a typed rejection must reach the server exactly once"
            );
        }
    }

    #[test]
    fn single_attempt_policy_never_retries() {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let addr = free_addr();
        let counter = obs::Registry::global().counter("client.retry");
        let before = counter.get();
        let err = NetClient::connect_with_retry(
            &addr.to_string(),
            Duration::from_millis(100),
            Codec::Binary,
            &quick_policy(1),
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Io { .. }), "{err}");
        assert_eq!(counter.get(), before, "max_attempts=1 must not retry");
    }

    /// Raw words and a routed health probe have no JSON spelling: both
    /// are refused before a byte reaches the server.
    #[test]
    fn json_refuses_raw_words_and_routed_health_before_sending() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut frames = 0usize;
            while read_request(&mut stream).is_some() {
                frames += 1;
            }
            frames
        });
        let mut client = connect(addr, Codec::Json, &RetryPolicy::default());
        let raw = client.predict_raw(None, 1, &[0]).unwrap_err();
        assert!(matches!(raw, NetError::Protocol(_)), "{raw}");
        let health = client.health(Some("canary")).unwrap_err();
        assert!(matches!(health, NetError::Protocol(_)), "{health}");
        assert!(
            client.stream.is_some(),
            "a refusal does not touch the socket"
        );
        drop(client);
        assert_eq!(server.join().unwrap(), 0, "nothing was sent");
    }

    /// A scripted JSON server feeds the decoder hostile predict replies on
    /// one connection: each is a typed protocol error (never a panic, a
    /// huge allocation or a dropped socket), and a well-formed reply
    /// after them still decodes, its label table rebuilt from the rows.
    #[test]
    fn hostile_json_predict_replies_are_protocol_errors() {
        let ok_with = |predictions: &str| {
            format!(
                r#"{{"ok":true,"predictions":{predictions},"accumulator_wraps":3,"saturated_inputs":1}}"#
            )
        };
        let hostile = [
            ok_with("5"),
            ok_with(r#"{"class":0}"#),
            r#"{"ok":true,"accumulator_wraps":0,"saturated_inputs":0}"#.to_string(),
            ok_with(r#"[{"label":"a","score":0.5}]"#),
            ok_with(r#"[{"class":-1,"label":"a","score":0.5}]"#),
            ok_with(r#"[{"class":1.5,"label":"a","score":0.5}]"#),
            ok_with(r#"[{"class":"0","label":"a","score":0.5}]"#),
            ok_with(r#"[{"class":65536,"label":"a","score":0.5}]"#),
            ok_with(r#"[{"class":4000000000000,"label":"a","score":0.5}]"#),
            ok_with(r#"[{"class":0,"score":0.5}]"#),
            ok_with(r#"[{"class":0,"label":7,"score":0.5}]"#),
            ok_with(r#"[{"class":1,"label":"a","score":0.5},{"class":1,"label":"b","score":0.5}]"#),
        ];
        let valid = ok_with(
            r#"[{"class":2,"label":"c","score":0.5},{"class":0,"label":"a","score":-1.25},{"class":2,"label":"c","score":2}]"#,
        );
        let replies: Vec<String> = hostile.iter().cloned().chain([valid]).collect();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for text in replies {
                assert_eq!(read_request(&mut stream), Some(Codec::Json));
                write_json(&mut stream, &json::parse(&text).unwrap()).unwrap();
            }
        });
        let mut client = connect(addr, Codec::Json, &RetryPolicy::default());
        for text in &hostile {
            match client.predict_rows(None, &[vec![0.0]]) {
                Err(NetError::Protocol(_)) => {}
                other => panic!("{text}: expected a protocol error, got {other:?}"),
            }
        }
        let reply = client.predict_rows(None, &[vec![0.0]]).unwrap();
        server.join().unwrap();
        assert_eq!(reply.labels, ["a", "", "c"]);
        assert_eq!(reply.classes, [2, 0, 2]);
        assert_eq!(reply.scores, [0.5, -1.25, 2.0]);
        assert_eq!((reply.label(0), reply.label(1)), ("c", "a"));
        assert_eq!((reply.accumulator_wraps, reply.saturated_inputs), (3, 1));
    }

    /// The framing checks of the JSON reply reader: a clean EOF where a
    /// reply should start is a replayable transport failure; a torn
    /// prefix or body and an oversized length are protocol errors, the
    /// last raised from the prefix alone.
    #[test]
    fn json_reply_framing_errors_are_typed() {
        let oversized = ((DEFAULT_MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        let mut torn_body = 10u32.to_be_bytes().to_vec();
        torn_body.extend_from_slice(b"{\"ok\"");
        let cases: [(Vec<u8>, &str); 4] = [
            (vec![], "connection closed before a reply arrived"),
            (vec![0, 0], "2 bytes into a reply"),
            (torn_body, "5 bytes into a reply"),
            (oversized, "exceeds the 16777216-byte limit"),
        ];
        for (bytes, expected) in cases {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                stream.write_all(&bytes).unwrap();
            });
            let mut client = connect(addr, Codec::Json, &RetryPolicy::default());
            server.join().unwrap();
            let err = client.recv_predict().unwrap_err();
            assert!(
                matches!(
                    (&err, expected.starts_with("connection")),
                    (NetError::Io { .. }, true) | (NetError::Protocol(_), false)
                ),
                "{expected}: {err}"
            );
            assert!(err.to_string().contains(expected), "{expected}: {err}");
            assert!(
                client.stream.is_none(),
                "a framing failure drops the socket"
            );
        }
    }
}
