//! The evented serving loop: one thread, one epoll instance, every
//! connection nonblocking, cross-connection micro-batching in the middle.
//!
//! ## Shape
//!
//! ```text
//!            epoll (sys.rs)                  ModelRegistry
//!                 │                               │
//!   sockets ──► read → scan_frame → decode → dispatch ─┬─► admin ops (answered inline)
//!                                                      └─► predict → shed? → pending queue
//!                                                                              │
//!  read pass done (+ batch_deadline) / batch_max_rows ─────────────────────────┤
//!                                                                              ▼
//!                                         one predict_[raw_]segmented() per engine-run
//!                                                                              │
//!   sockets ◄── write ◄─ reply (in the codec of the request) ◄─────────────────┘
//! ```
//!
//! Only two steps know the codec. Each frame is decoded into one private
//! request type, whatever its codec (`decode_binary`, `decode_json`), and
//! every answer leaves through one reply step (`EventLoop::reply`),
//! which encodes a JSON value, a predict output or an error in the codec
//! the request arrived on. Routing, admission, shedding and batching in
//! between see one request vocabulary.
//!
//! Requests decoded from *different* sockets land in one FIFO queue.
//! Batching is *natural* by default: each `epoll_wait` pass reads every
//! ready socket to `WouldBlock`, then flushes the queue, so requests that
//! arrived together form one batch and a request that arrived alone is
//! dispatched at once instead of waiting for company. A nonzero
//! `batch_deadline` is an opt-in linger: the flush then waits until the
//! oldest entry has waited that long or the queue holds `batch_max_rows`
//! rows. A flush takes the longest front run
//! sharing an engine (and payload kind) and classifies it as **one**
//! engine dispatch via [`InferenceEngine::predict_segmented`] (float
//! rows) or [`InferenceEngine::predict_raw_segmented`] (binary-protocol
//! raw words, decoded zero-copy into the kernels' SoA batch), so the
//! row-invariant setup is paid once for rows from many clients while
//! wrap/saturation counters stay per-request. FIFO draining means a
//! connection's replies always come back in its request order.
//!
//! Admin ops (health/stats/reload/shutdown) are answered inline as they
//! are decoded — on a connection that pipelines a predict *before* an
//! admin op, the admin reply can overtake the predict reply. Clients in
//! this workspace are request-response per op; the wire format does not
//! carry correlation ids.
//!
//! ## Backpressure and shedding
//!
//! Two bounds, both answered with the **typed overloaded reply** (binary:
//! [`binwire::STATUS_OVERLOADED`]; JSON: `"ok": false, "overloaded":
//! true`) rather than a stalled or dropped connection:
//!
//! * `max_inflight_per_conn` — decoded predicts not yet replied, per
//!   connection: bounds one client's claim on the queue.
//! * `max_pending_rows` — rows queued across all connections: bounds the
//!   server's total deferred work.
//!
//! A shed request never corrupts in-flight work: admitted requests keep
//! their queue slots and reply normally. Partial frames that outlive
//! `read_deadline` get the slowloris treatment (connection closed,
//! `net.deadline_closes`).
//!
//! ## Hot reload
//!
//! The loop shares an [`Arc<ModelRegistry>`] with the handle; a `reload`
//! op (either codec) parses and validates the artifact *outside* the
//! registry lock, then swaps atomically. Requests already queued ride
//! their old `Arc<InferenceEngine>` to completion — a reload never
//! changes the model of an admitted request.

use crate::binwire::{self, BinRequest, RowsPayload, ScanOutcome};
use crate::error::{NetError, Result};
use crate::jsonwire;
use crate::metrics::{micros, NetMetrics};
use crate::sys::{self, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::Codec;
use ldafp_obs as obs;
use ldafp_obs::json::{self, Value};
use ldafp_serve::{BatchOutput, InferenceEngine, ModelRegistry, ServeError};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Tunables for [`serve_evented`]. `Default` is sized for a loopback
/// deployment on a small machine.
#[derive(Debug, Clone)]
pub struct EventedConfig {
    /// Bound on a single frame body, bytes (both codecs).
    pub max_frame: usize,
    /// Queue-depth trigger: flush once this many rows are pending.
    pub batch_max_rows: usize,
    /// Linger before a flush. Zero (the default) flushes whatever each
    /// read pass collected, once every ready socket has been read. A
    /// nonzero value holds the queue until its oldest request has waited
    /// this long (or `batch_max_rows` rows are pending), at millisecond
    /// resolution, because `epoll_wait` takes its timeout in ms.
    pub batch_deadline: Duration,
    /// Decoded-but-unreplied predicts allowed per connection before the
    /// shedder answers `overloaded`.
    pub max_inflight_per_conn: usize,
    /// Rows allowed in the pending queue across all connections.
    pub max_pending_rows: usize,
    /// How long a partial frame may sit before the connection is closed
    /// (slowloris defense).
    pub read_deadline: Duration,
    /// Open-connection cap; excess accepts are closed immediately.
    pub max_connections: usize,
}

impl Default for EventedConfig {
    fn default() -> Self {
        EventedConfig {
            max_frame: jsonwire::DEFAULT_MAX_FRAME,
            batch_max_rows: 256,
            batch_deadline: Duration::ZERO,
            max_inflight_per_conn: 32,
            max_pending_rows: 16_384,
            read_deadline: Duration::from_secs(5),
            max_connections: 1024,
        }
    }
}

/// Control handle for a running evented server.
#[derive(Debug)]
pub struct EventedHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<NetMetrics>,
    registry: Arc<ModelRegistry>,
    driver: Option<thread::JoinHandle<()>>,
}

impl EventedHandle {
    /// The actually-bound address (resolves `:0` to the assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live metrics.
    pub fn metrics(&self) -> &Arc<NetMetrics> {
        &self.metrics
    }

    /// The shared registry — models installed through it are visible to
    /// the loop immediately, exactly like a wire `reload`.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Whether shutdown has been requested (by this handle or a client).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and blocks until the loop drains and exits.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake(self.addr);
        if let Some(handle) = self.driver.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the loop exits (e.g. after a client-initiated
    /// shutdown), without initiating shutdown itself.
    pub fn join(&mut self) {
        if let Some(handle) = self.driver.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for EventedHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pokes the listener so a parked `epoll_wait` returns and observes the
/// shutdown flag.
fn wake(addr: SocketAddr) {
    if let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
        let _ = s.shutdown(NetShutdown::Both);
    }
}

/// Binds `addr` and starts the evented loop in the background.
///
/// # Errors
///
/// * [`NetError::Unsupported`] off Linux/x86-64/aarch64;
/// * [`NetError::Io`] when binding or epoll creation fails.
pub fn serve_evented(
    registry: ModelRegistry,
    addr: impl ToSocketAddrs + std::fmt::Display,
    config: EventedConfig,
) -> Result<EventedHandle> {
    if !sys::supported() {
        return Err(NetError::Unsupported(
            "epoll event loop (linux x86-64/aarch64 only)",
        ));
    }
    let listener = TcpListener::bind(&addr).map_err(|e| NetError::io(addr.to_string(), e))?;
    let local = listener
        .local_addr()
        .map_err(|e| NetError::io(addr.to_string(), e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::io("listener", e))?;
    let ep = Epoll::new().map_err(|e| NetError::io("epoll_create1", e))?;
    ep.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
        .map_err(|e| NetError::io("epoll_ctl(listener)", e))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(NetMetrics::new());
    let registry = Arc::new(registry);
    let driver = {
        let mut looper = EventLoop {
            ep,
            listener,
            local,
            config,
            registry: Arc::clone(&registry),
            metrics: Arc::clone(&metrics),
            shutdown: Arc::clone(&shutdown),
            conns: HashMap::new(),
            pending: VecDeque::new(),
            pending_rows: 0,
            next_token: FIRST_CONN_TOKEN,
        };
        thread::Builder::new()
            .name("ldafp-net-loop".to_string())
            .spawn(move || looper.run())
            .map_err(|e| NetError::io("loop thread", e))?
    };
    Ok(EventedHandle {
        addr: local,
        shutdown,
        metrics,
        registry,
        driver: Some(driver),
    })
}

const LISTENER_TOKEN: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1;
/// Readable interest for every connection.
const CONN_INTEREST: u32 = EPOLLIN | EPOLLRDHUP;
/// Read chunk per `read()` call.
const READ_CHUNK: usize = 64 * 1024;
/// Idle epoll timeout; also the slowloris sweep cadence upper bound.
const IDLE_TIMEOUT_MS: i32 = 250;

/// One decoded request, whatever its codec: the only shape `dispatch`
/// sees.
#[derive(Debug, PartialEq)]
enum Request {
    /// Classify rows; `None` routes to the default model.
    Predict { model: Option<String>, rows: Rows },
    /// Liveness and model identity; `None` probes the default model (the
    /// JSON vocabulary has no route).
    Health { model: Option<String> },
    /// Rolling metrics snapshot.
    Stats,
    /// Install the artifact document (JSON text) under `name`.
    Reload { name: String, artifact: String },
    /// Drain and stop.
    Shutdown,
}

/// A predict's rows, in a form the engine can consume directly.
#[derive(Debug, PartialEq)]
enum Rows {
    /// Nested float rows (JSON bodies, and binary `ENC_F64` after
    /// chunking) — grouped runs go through `predict_segmented`.
    Nested(Vec<Vec<f64>>),
    /// Flat raw words (binary `ENC_RAW`) with the client's claimed row
    /// width, shape-validated against the routed model at admission —
    /// grouped runs go through `predict_raw_segmented`, which wraps each
    /// buffer as a zero-copy SoA batch.
    Raw { features: usize, words: Vec<i64> },
}

impl Rows {
    fn count(&self) -> usize {
        match self {
            Rows::Nested(rows) => rows.len(),
            Rows::Raw { features, words } => words.len() / (*features).max(1),
        }
    }

    /// Rejects rows whose width is not the model's `m`, naming the first
    /// offending row. Raw words carry one claimed width for all their
    /// rows, so a mismatch names row 0, as on the float path; the words
    /// must not be silently re-chunked into a different row count.
    fn check_width(&self, m: usize) -> Result<()> {
        let bad = match self {
            Rows::Nested(rows) => rows
                .iter()
                .position(|r| r.len() != m)
                .map(|i| (i, rows[i].len())),
            Rows::Raw { features, .. } => (*features != m).then_some((0, *features)),
        };
        match bad {
            Some((row, got)) => Err(ServeError::FeatureMismatch {
                expected: m,
                got,
                row,
            }
            .into()),
            None => Ok(()),
        }
    }
}

/// What a reply carries before `EventLoop::reply` encodes it.
enum Reply<'a> {
    /// An admin op's JSON body (health, stats, reload, shutdown).
    Value(Value),
    /// A classified batch and the model's class-label table.
    Predict(&'a BatchOutput, &'a [String]),
    /// A failed request; [`NetError::Overloaded`] is the shedder's typed
    /// refusal.
    Error(NetError),
}

/// Decodes a binary frame body into a [`Request`].
fn decode_binary(header: binwire::Header, body: &[u8]) -> Result<Request> {
    let route = |model: String| (!model.is_empty()).then_some(model);
    Ok(match binwire::decode_request(header, body)? {
        BinRequest::Predict { model, payload } => {
            let rows = match payload {
                RowsPayload::F64 { features: 0, .. } | RowsPayload::Raw { features: 0, .. } => {
                    return Err(NetError::Protocol("zero-feature predict".to_string()))
                }
                RowsPayload::F64 { features, values } => {
                    Rows::Nested(values.chunks(features).map(<[f64]>::to_vec).collect())
                }
                RowsPayload::Raw { features, words } => Rows::Raw { features, words },
            };
            Request::Predict {
                model: route(model),
                rows,
            }
        }
        BinRequest::Health { model } => Request::Health {
            model: route(model),
        },
        BinRequest::Stats => Request::Stats,
        BinRequest::Reload {
            name,
            artifact_json,
        } => Request::Reload {
            name,
            artifact: artifact_json,
        },
        BinRequest::Shutdown => Request::Shutdown,
    })
}

/// Decodes a JSON frame body into a [`Request`]. A malformed field is a
/// [`ServeError::Request`] naming its position (`rows[i][j]`).
fn decode_json(body: &[u8]) -> Result<Request> {
    let text = std::str::from_utf8(body)
        .map_err(|e| NetError::Protocol(format!("frame body is not UTF-8: {e}")))?;
    let v = json::parse(text).map_err(ServeError::from)?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| request("op", "expected a string naming the operation"))?;
    Ok(match op {
        "predict" => {
            let rows = v
                .get("rows")
                .and_then(Value::as_array)
                .ok_or_else(|| request("rows", "predict requires an array of rows"))?
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    row.as_array()
                        .ok_or_else(|| {
                            request(format!("rows[{i}]"), "expected an array of numbers")
                        })?
                        .iter()
                        .enumerate()
                        .map(|(j, x)| {
                            x.as_f64().ok_or_else(|| {
                                request(format!("rows[{i}][{j}]"), "expected a number")
                            })
                        })
                        .collect()
                })
                .collect::<Result<Vec<Vec<f64>>>>()?;
            let model = v
                .get("model")
                .map(|m| {
                    m.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| request("model", "expected a string model name"))
                })
                .transpose()?;
            Request::Predict {
                model,
                rows: Rows::Nested(rows),
            }
        }
        "health" => Request::Health { model: None },
        "stats" => Request::Stats,
        "reload" => Request::Reload {
            name: v
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| request("name", "reload requires a string model name"))?
                .to_string(),
            artifact: v
                .get("artifact")
                .ok_or_else(|| {
                    request("artifact", "reload requires an embedded artifact document")
                })?
                .to_compact_string(),
        },
        "shutdown" => Request::Shutdown,
        other => return Err(request("op", format!("unknown operation '{other}'"))),
    })
}

fn request(context: impl Into<String>, message: impl Into<String>) -> NetError {
    ServeError::Request {
        context: context.into(),
        message: message.into(),
    }
    .into()
}

struct PendingPredict {
    token: u64,
    codec: Codec,
    engine: Arc<InferenceEngine>,
    rows: Rows,
    nrows: usize,
    enqueued: Instant,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Decoded predicts not yet replied.
    inflight: usize,
    /// When the current partial frame started accumulating.
    partial_since: Option<Instant>,
    /// Whether EPOLLOUT is currently subscribed.
    want_write: bool,
    /// Peer closed its write half; finish replies, then close.
    peer_closed: bool,
}

impl Conn {
    fn has_backlog(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

struct EventLoop {
    ep: Epoll,
    listener: TcpListener,
    local: SocketAddr,
    config: EventedConfig,
    registry: Arc<ModelRegistry>,
    metrics: Arc<NetMetrics>,
    shutdown: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    pending: VecDeque<PendingPredict>,
    pending_rows: usize,
    next_token: u64,
}

impl EventLoop {
    fn run(&mut self) {
        if obs::enabled() {
            obs::emit(
                obs::Event::new("net.listen")
                    .with("addr", self.local.to_string())
                    .with("batch_max_rows", self.config.batch_max_rows as u64),
            );
        }
        let mut events = [EpollEvent::default(); 64];
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let timeout = self.poll_timeout_ms();
            let n = match self.ep.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in &events[..n] {
                let (mask, token) = ev.parts();
                if token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_event(token, mask);
                }
            }
            self.flush_batches(false);
            self.sweep_read_deadlines();
            self.flush_writes();
        }
        self.drain();
        if obs::enabled() {
            obs::emit(obs::Event::new("net.shutdown").with("addr", self.local.to_string()));
        }
    }

    /// Epoll timeout: tight when a linger is pending, lazy otherwise
    /// (shutdown wakes the loop via a self-connection).
    fn poll_timeout_ms(&self) -> i32 {
        match self.pending.front() {
            Some(front) => {
                let left = self
                    .config
                    .batch_deadline
                    .saturating_sub(front.enqueued.elapsed());
                ceil_ms(left).min(IDLE_TIMEOUT_MS)
            }
            None => IDLE_TIMEOUT_MS,
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.config.max_connections {
                        // Over the cap: close immediately. No reply — the
                        // handshake never completed at the protocol level.
                        self.metrics.shed.inc();
                        if obs::enabled() {
                            obs::emit(obs::Event::new("net.shed").with("reason", "connections"));
                        }
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .ep
                        .add(stream.as_raw_fd(), CONN_INTEREST, token)
                        .is_err()
                    {
                        continue;
                    }
                    self.metrics.accepts.inc();
                    self.metrics.connections.add(1);
                    if obs::enabled() {
                        obs::emit(obs::Event::new("net.accept").with("token", token));
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            wpos: 0,
                            inflight: 0,
                            partial_since: None,
                            want_write: false,
                            peer_closed: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, mask: u32) {
        if mask & EPOLLERR != 0 {
            self.close_conn(token);
            return;
        }
        if mask & EPOLLOUT != 0 {
            self.flush_conn_write(token);
        }
        if mask & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0 {
            self.conn_readable(token);
        }
        self.maybe_finish_close(token);
    }

    /// Closes a peer-closed connection once nothing is owed to it.
    fn maybe_finish_close(&mut self, token: u64) {
        let done = match self.conns.get(&token) {
            Some(c) => c.peer_closed && c.inflight == 0 && !c.has_backlog(),
            None => false,
        };
        if done {
            self.close_conn(token);
        }
    }

    fn conn_readable(&mut self, token: u64) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    if !self.process_frames(token) {
                        return; // connection closed mid-processing
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Decodes and dispatches every complete frame at the front of the
    /// read buffer. Returns `false` when the connection was closed.
    fn process_frames(&mut self, token: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            let (codec, opcode, request) =
                match binwire::scan_frame(&conn.rbuf, self.config.max_frame) {
                    Ok(ScanOutcome::NeedMore) => {
                        if conn.rbuf.is_empty() {
                            conn.partial_since = None;
                        } else if conn.partial_since.is_none() {
                            conn.partial_since = Some(Instant::now());
                        }
                        return true;
                    }
                    Ok(ScanOutcome::Binary { header, frame_len }) => {
                        let request =
                            decode_binary(header, &conn.rbuf[binwire::HEADER_LEN..frame_len]);
                        conn.rbuf.drain(..frame_len);
                        (Codec::Binary, header.opcode, request)
                    }
                    Ok(ScanOutcome::Json { frame_len }) => {
                        let request = decode_json(&conn.rbuf[4..frame_len]);
                        conn.rbuf.drain(..frame_len);
                        // JSON frames carry no opcode.
                        (Codec::Json, 0, request)
                    }
                    Err(e) => {
                        // Length-bound violation: the stream position is no
                        // longer trustworthy. Best-effort typed reply in the
                        // codec, and under the opcode, the offending frame
                        // announced, then close.
                        let (codec, opcode) = match conn.rbuf[..] {
                            [binwire::MAGIC, opcode, ..] => (Codec::Binary, opcode),
                            _ => (Codec::Json, 0),
                        };
                        self.reply(token, codec, opcode, Reply::Error(e));
                        self.flush_conn_write(token);
                        self.close_conn(token);
                        return false;
                    }
                };
            conn.partial_since = None;
            self.metrics.frames_in.inc();
            self.dispatch(token, codec, opcode, request);
            if !self.conns.contains_key(&token) {
                return false;
            }
        }
    }

    // ---- dispatch ------------------------------------------------------

    /// Answers one decoded request: predicts go through admission, admin
    /// ops are answered inline.
    fn dispatch(&mut self, token: u64, codec: Codec, opcode: u8, request: Result<Request>) {
        let outcome = match request {
            Err(e) => Err(e),
            Ok(Request::Predict { model, rows }) => {
                return self.admit_predict(token, codec, model.as_deref(), rows)
            }
            Ok(Request::Health { model }) => self
                .registry
                .route(model.as_deref())
                .map(|engine| self.health_value(&engine))
                .map_err(NetError::from),
            Ok(Request::Stats) => Ok(self.stats_value()),
            Ok(Request::Reload { name, artifact }) => self.do_reload(&name, &artifact),
            Ok(Request::Shutdown) => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok(Value::object([
                    ("ok", Value::from(true)),
                    ("shutting_down", Value::from(true)),
                ]))
            }
        };
        let reply = match outcome {
            Ok(v) => Reply::Value(v),
            Err(e) => Reply::Error(e),
        };
        self.reply(token, codec, opcode, reply);
    }

    /// Routes, shape-checks and either queues or sheds one predict.
    ///
    /// Validation happens **here**, at admission, so a formed batch can
    /// never fail on one member's bad shape mid-dispatch.
    fn admit_predict(&mut self, token: u64, codec: Codec, model: Option<&str>, rows: Rows) {
        let admitted = self
            .registry
            .route(model)
            .map_err(NetError::from)
            .and_then(|engine| rows.check_width(engine.num_features()).map(|()| engine));
        let engine = match admitted {
            Ok(engine) => engine,
            Err(e) => return self.reply(token, codec, binwire::OP_PREDICT, Reply::Error(e)),
        };
        let nrows = rows.count();
        let inflight = self.conns.get(&token).map_or(0, |c| c.inflight);
        let shed_reason = if inflight >= self.config.max_inflight_per_conn {
            Some("inflight")
        } else if self.pending_rows + nrows > self.config.max_pending_rows {
            Some("queue")
        } else {
            None
        };
        if let Some(reason) = shed_reason {
            self.metrics.shed.inc();
            if obs::enabled() {
                obs::emit(
                    obs::Event::new("net.shed")
                        .with("reason", reason)
                        .with("token", token)
                        .with("rows", nrows as u64),
                );
            }
            let refusal = Reply::Error(NetError::Overloaded);
            return self.reply(token, codec, binwire::OP_PREDICT, refusal);
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inflight += 1;
        }
        self.pending_rows += nrows;
        self.metrics.requests.inc();
        self.pending.push_back(PendingPredict {
            token,
            codec,
            engine,
            rows,
            nrows,
            enqueued: Instant::now(),
        });
    }

    // ---- micro-batching ------------------------------------------------

    /// Drains due batches. With `force`, drains everything (shutdown).
    fn flush_batches(&mut self, force: bool) {
        loop {
            let due = match self.pending.front() {
                None => false,
                Some(front) => {
                    force
                        || self.pending_rows >= self.config.batch_max_rows
                        || front.enqueued.elapsed() >= self.config.batch_deadline
                }
            };
            if !due {
                return;
            }
            // Take the longest front run sharing engine and payload kind,
            // up to the row cap (a single oversized request still goes
            // whole — requests are never split).
            let first = self.pending.pop_front().expect("checked non-empty");
            let mut batch_rows = first.nrows;
            let mut group = vec![first];
            while let Some(next) = self.pending.front() {
                if batch_rows >= self.config.batch_max_rows
                    || !Arc::ptr_eq(&next.engine, &group[0].engine)
                    || std::mem::discriminant(&next.rows) != std::mem::discriminant(&group[0].rows)
                {
                    break;
                }
                batch_rows += next.nrows;
                group.push(self.pending.pop_front().expect("front exists"));
            }
            self.pending_rows -= batch_rows;
            self.execute_group(group, batch_rows);
        }
    }

    /// One engine dispatch for a same-engine, same-kind run of requests.
    fn execute_group(&mut self, group: Vec<PendingPredict>, batch_rows: usize) {
        let engine = Arc::clone(&group[0].engine);
        self.metrics.batches.inc();
        self.metrics.batch_rows.record(batch_rows as u64);
        let dispatched = Instant::now();
        for req in &group {
            self.metrics
                .record_queue_wait(dispatched.duration_since(req.enqueued));
        }
        if obs::enabled() {
            // FIFO queue: the first member has waited longest.
            let oldest = dispatched.duration_since(group[0].enqueued);
            obs::emit(
                obs::Event::new("net.batch")
                    .with("requests", group.len() as u64)
                    .with("rows", batch_rows as u64)
                    .with("queue_wait_us", micros(oldest)),
            );
        }
        let result = match group[0].rows {
            Rows::Nested(_) => engine.predict_segmented(group.iter().map(|p| match &p.rows {
                Rows::Nested(rows) => rows.as_slice(),
                Rows::Raw { .. } => unreachable!("kind-homogeneous group"),
            })),
            Rows::Raw { .. } => engine.predict_raw_segmented(group.iter().map(|p| match &p.rows {
                Rows::Raw { words, .. } => words.as_slice(),
                Rows::Nested(_) => unreachable!("kind-homogeneous group"),
            })),
        };
        // Admission validated shapes and row boundaries, so a batch-level
        // failure is defensive: fail every member rather than none.
        // `ServeError` is not `Clone` (it owns `io::Error`), so each member
        // gets its `Display` form.
        let outputs: Vec<Result<BatchOutput>> = match result {
            Ok(outs) => outs.into_iter().map(Ok).collect(),
            Err(e) => group
                .iter()
                .map(|_| Err(NetError::Protocol(e.to_string())))
                .collect(),
        };
        let labels = &engine.artifact().class_labels;
        for (req, out) in group.iter().zip(outputs) {
            if let Some(conn) = self.conns.get_mut(&req.token) {
                conn.inflight = conn.inflight.saturating_sub(1);
            }
            match out {
                Ok(out) => {
                    self.metrics.record_request(
                        out.stats.rows as u64,
                        out.stats.accumulator_wraps,
                        out.stats.saturated_inputs,
                        req.enqueued.elapsed(),
                    );
                    let reply = Reply::Predict(&out, labels);
                    self.reply(req.token, req.codec, binwire::OP_PREDICT, reply);
                }
                Err(e) => self.reply(req.token, req.codec, binwire::OP_PREDICT, Reply::Error(e)),
            }
            self.maybe_finish_close(req.token);
        }
    }

    // ---- admin bodies --------------------------------------------------

    fn health_value(&self, engine: &InferenceEngine) -> Value {
        let artifact = engine.artifact();
        let format = artifact.model.format();
        Value::object([
            ("ok", Value::from(true)),
            ("status", Value::from("healthy")),
            ("evented", Value::from(true)),
            (
                "model",
                Value::object([
                    ("kind", Value::from(artifact.model.kind_name())),
                    ("family", Value::from(artifact.model.family().name())),
                    ("qformat", Value::from(format.to_string())),
                    ("features", Value::from(engine.num_features())),
                    ("classes", Value::from(engine.num_classes())),
                ]),
            ),
            ("default", Value::from(self.registry.default_name())),
            (
                "models",
                Value::Array(self.registry.names().into_iter().map(Value::from).collect()),
            ),
            ("generation", Value::from(self.registry.generation())),
        ])
    }

    fn stats_value(&self) -> Value {
        let s = self.metrics.snapshot();
        Value::object([
            ("ok", Value::from(true)),
            (
                "stats",
                Value::object([
                    ("accepts", Value::from(s.accepts)),
                    ("connections", Value::from(s.connections)),
                    ("closes", Value::from(s.closes)),
                    ("deadline_closes", Value::from(s.deadline_closes)),
                    ("frames_in", Value::from(s.frames_in)),
                    ("frames_out", Value::from(s.frames_out)),
                    ("requests", Value::from(s.requests)),
                    ("rows", Value::from(s.rows)),
                    ("batches", Value::from(s.batches)),
                    ("shed", Value::from(s.shed)),
                    ("errors", Value::from(s.errors)),
                    ("reloads", Value::from(s.reloads)),
                    ("accumulator_wraps", Value::from(s.accumulator_wraps)),
                    ("saturated_inputs", Value::from(s.saturated_inputs)),
                    ("p50_us", Value::from(s.p50_us)),
                    ("p99_us", Value::from(s.p99_us)),
                    ("queue_wait_p50_us", Value::from(s.queue_wait_p50_us)),
                    ("queue_wait_p99_us", Value::from(s.queue_wait_p99_us)),
                    ("batch_rows_p50", Value::from(s.batch_rows_p50)),
                    ("uptime_ms", Value::from(s.uptime_ms)),
                ]),
            ),
            ("generation", Value::from(self.registry.generation())),
        ])
    }

    fn do_reload(&self, name: &str, artifact_json: &str) -> Result<Value> {
        let outcome = self.registry.reload(name, artifact_json)?;
        self.metrics.reloads.inc();
        if obs::enabled() {
            obs::emit(
                obs::Event::new("net.reload")
                    .with("model", name)
                    .with("family", outcome.family.name())
                    .with("replaced", outcome.replaced)
                    .with("generation", outcome.generation),
            );
        }
        Ok(Value::object([
            ("ok", Value::from(true)),
            ("model", Value::from(name)),
            ("replaced", Value::from(outcome.replaced)),
            ("family", Value::from(outcome.family.name())),
            ("generation", Value::from(outcome.generation)),
        ]))
    }

    // ---- write path ----------------------------------------------------

    /// The one step that encodes a reply, in the codec its request arrived
    /// on, and queues it on the connection. `opcode` names a binary
    /// reply's operation; JSON replies carry none. Every error reply is
    /// counted on `net.errors` here, except the shedder's refusal, which
    /// `net.shed` counts.
    fn reply(&mut self, token: u64, codec: Codec, opcode: u8, reply: Reply<'_>) {
        if matches!(&reply, Reply::Error(e) if !matches!(e, NetError::Overloaded)) {
            self.metrics.errors.inc();
        }
        let frame = match codec {
            Codec::Binary => match reply {
                Reply::Value(v) => binwire::encode_json_reply(opcode, &v.to_compact_string()),
                Reply::Predict(out, labels) => binwire::encode_predict_reply(out, labels),
                Reply::Error(NetError::Overloaded) => binwire::encode_overloaded_reply(opcode),
                Reply::Error(e) => binwire::encode_error_reply(opcode, &e.to_string()),
            },
            Codec::Json => {
                let v = match reply {
                    Reply::Value(v) => v,
                    Reply::Predict(out, labels) => jsonwire::predict_response(out, labels),
                    Reply::Error(e) => jsonwire::error_response(&e),
                };
                match jsonwire::encode_frame(&v) {
                    Ok(frame) => frame,
                    Err(e) => return self.reply(token, codec, opcode, Reply::Error(e)),
                }
            }
        };
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // connection died while its request was queued
        };
        // Compact the consumed prefix before growing the backlog.
        if conn.wpos > 0 && !conn.has_backlog() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        conn.wbuf.extend_from_slice(&frame);
        self.metrics.frames_out.inc();
    }

    /// Tries to push one connection's backlog to the socket, toggling
    /// EPOLLOUT interest to match what remains.
    fn flush_conn_write(&mut self, token: u64) {
        let ep = &self.ep;
        let broken = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut broken = false;
            while conn.has_backlog() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => conn.wpos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if !broken {
                let backlog = conn.has_backlog();
                if !backlog {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                }
                if backlog != conn.want_write {
                    let interest = if backlog {
                        CONN_INTEREST | EPOLLOUT
                    } else {
                        CONN_INTEREST
                    };
                    if ep.modify(conn.stream.as_raw_fd(), interest, token).is_ok() {
                        conn.want_write = backlog;
                    }
                }
            }
            broken
        };
        if broken {
            self.close_conn(token);
        }
    }

    fn flush_writes(&mut self) {
        let dirty: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.has_backlog())
            .map(|(t, _)| *t)
            .collect();
        for token in dirty {
            self.flush_conn_write(token);
            self.maybe_finish_close(token);
        }
    }

    // ---- lifecycle -----------------------------------------------------

    fn sweep_read_deadlines(&mut self) {
        let deadline = self.config.read_deadline;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.partial_since.is_some_and(|t| t.elapsed() >= deadline))
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            self.metrics.deadline_closes.inc();
            if obs::enabled() {
                obs::emit(obs::Event::new("net.deadline_close").with("token", token));
            }
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.ep.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(NetShutdown::Both);
            self.metrics.connections.add(-1);
            self.metrics.closes.inc();
            if obs::enabled() {
                obs::emit(obs::Event::new("net.close").with("token", token));
            }
        }
    }

    /// Shutdown path: classify everything still queued, then push each
    /// connection's remaining replies out with a short blocking window so
    /// in-flight requests complete rather than vanish.
    fn drain(&mut self) {
        self.flush_batches(true);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.has_backlog() {
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let span = conn.wpos..;
                    let _ = conn.stream.write_all(&conn.wbuf[span]);
                    conn.wpos = conn.wbuf.len();
                }
            }
            self.close_conn(token);
        }
    }
}

/// `left` rounded up to whole milliseconds, so the loop never wakes
/// before a linger ends (and never spins at 0 ms while one is pending);
/// saturates at `i32::MAX`.
fn ceil_ms(left: Duration) -> i32 {
    i32::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSON decode checks that moved here with the decoder: the
    /// unknown op, positioned row errors, routes and reload bodies.
    #[test]
    fn json_bodies_decode_into_the_request_type() {
        let context = |body: &str| match decode_json(body.as_bytes()) {
            Err(NetError::Serve(ServeError::Request { context, .. })) => context,
            other => panic!("{body}: expected a request error, got {other:?}"),
        };
        assert_eq!(context(r#"{"op":"teleport"}"#), "op");
        assert_eq!(
            context(r#"{"op":"predict","rows":[[1.0,"x"]]}"#),
            "rows[0][1]"
        );
        assert_eq!(context(r#"{"op":"predict","rows":[[1.0],5]}"#), "rows[1]");
        assert_eq!(context(r#"{"op":"reload","name":"x"}"#), "artifact");
        assert_eq!(
            decode_json(br#"{"op":"predict","rows":[[1.0]],"model":"canary"}"#).unwrap(),
            Request::Predict {
                model: Some("canary".to_string()),
                rows: Rows::Nested(vec![vec![1.0]]),
            }
        );
        assert_eq!(
            decode_json(br#"{"op":"reload","name":"canary","artifact":{"b":1, "a":[]}}"#).unwrap(),
            Request::Reload {
                name: "canary".to_string(),
                artifact: r#"{"a":[],"b":1}"#.to_string(),
            }
        );
        assert!(matches!(
            decode_json(&[0xFF]),
            Err(NetError::Protocol(msg)) if msg.contains("not UTF-8")
        ));
    }

    #[test]
    fn ceil_ms_rounds_up_to_whole_milliseconds() {
        assert_eq!(ceil_ms(Duration::ZERO), 0);
        assert_eq!(ceil_ms(Duration::from_micros(1)), 1);
        assert_eq!(ceil_ms(Duration::from_micros(999)), 1);
        assert_eq!(ceil_ms(Duration::from_millis(1)), 1);
        assert_eq!(ceil_ms(Duration::from_micros(1_001)), 2);
        assert_eq!(ceil_ms(Duration::from_nanos(1_000_001)), 2);
        assert_eq!(ceil_ms(Duration::from_millis(50)), 50);
        assert_eq!(ceil_ms(Duration::from_secs(u64::from(u32::MAX))), i32::MAX);
    }
}
