//! The evented serving loop: one thread, one epoll instance, every
//! connection nonblocking, cross-connection micro-batching in the middle.
//!
//! ## Shape
//!
//! ```text
//!            epoll (sys.rs)                  ModelRegistry
//!                 │                               │
//!   sockets ──► read → scan_frame ─┬─► admin ops (answered inline)
//!                                  └─► predict → shed? → pending queue
//!                                                          │
//!  read pass done (+ batch_deadline) / batch_max_rows ─────┤
//!                                                          ▼
//!                     one predict_[raw_]segmented() per engine-run
//!                                                          │
//!   sockets ◄── write ◄─ per-request replies (codec of the request) ◄┘
//! ```
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

use crate::binwire::{self, BinRequest, RowsPayload};
use crate::error::{NetError, Result};
use crate::metrics::{micros, NetMetrics};
use crate::sys::{self, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use ldafp_obs as obs;
use ldafp_obs::json::Value;
use ldafp_serve::wire::{self, predict_response, Request};
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
            max_frame: wire::DEFAULT_MAX_FRAME,
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

/// Which codec a request arrived on — its reply must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplyCodec {
    Json,
    Binary,
}

/// Queued rows, in a form the engine can consume directly.
enum PendingRows {
    /// Nested float rows (JSON bodies, and binary `ENC_F64` after
    /// chunking) — grouped runs go through `predict_segmented`.
    Nested(Vec<Vec<f64>>),
    /// Flat raw words (binary `ENC_RAW`) with the client's claimed row
    /// width, shape-validated against the routed model at admission —
    /// grouped runs go through `predict_raw_segmented`, which wraps each
    /// buffer as a zero-copy SoA batch.
    Raw { features: usize, words: Vec<i64> },
}

impl PendingRows {
    fn kind(&self) -> u8 {
        match self {
            PendingRows::Nested(_) => 0,
            PendingRows::Raw { .. } => 1,
        }
    }
}

struct PendingPredict {
    token: u64,
    codec: ReplyCodec,
    engine: Arc<InferenceEngine>,
    rows: PendingRows,
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

    /// Parses and dispatches every complete frame at the front of the
    /// read buffer. Returns `false` when the connection was closed.
    fn process_frames(&mut self, token: u64) -> bool {
        loop {
            let scan = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return false;
                };
                binwire::scan_frame(&conn.rbuf, self.config.max_frame)
            };
            match scan {
                Ok(binwire::ScanOutcome::NeedMore) => {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return false;
                    };
                    if conn.rbuf.is_empty() {
                        conn.partial_since = None;
                    } else if conn.partial_since.is_none() {
                        conn.partial_since = Some(Instant::now());
                    }
                    return true;
                }
                Ok(binwire::ScanOutcome::Binary { header, frame_len }) => {
                    let body = {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            return false;
                        };
                        let body = conn.rbuf[binwire::HEADER_LEN..frame_len].to_vec();
                        conn.rbuf.drain(..frame_len);
                        conn.partial_since = None;
                        body
                    };
                    self.metrics.frames_in.inc();
                    self.dispatch_binary(token, header, &body);
                }
                Ok(binwire::ScanOutcome::Json { frame_len }) => {
                    let body = {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            return false;
                        };
                        let body = conn.rbuf[4..frame_len].to_vec();
                        conn.rbuf.drain(..frame_len);
                        conn.partial_since = None;
                        body
                    };
                    self.metrics.frames_in.inc();
                    self.dispatch_json(token, &body);
                }
                Err(e) => {
                    // Length-bound violation: the stream position is no
                    // longer trustworthy. Best-effort typed reply in the
                    // codec the offending frame announced, then close.
                    self.metrics.errors.inc();
                    let codec = match self.conns.get(&token) {
                        Some(c) if c.rbuf.first() == Some(&binwire::MAGIC) => ReplyCodec::Binary,
                        _ => ReplyCodec::Json,
                    };
                    self.queue_error(token, codec, binwire::OP_PREDICT, &e);
                    self.flush_conn_write(token);
                    self.close_conn(token);
                    return false;
                }
            }
            if !self.conns.contains_key(&token) {
                return false;
            }
        }
    }

    // ---- dispatch ------------------------------------------------------

    fn dispatch_json(&mut self, token: u64, body: &[u8]) {
        let parsed = std::str::from_utf8(body)
            .map_err(|e| ServeError::Protocol(format!("frame body is not UTF-8: {e}")))
            .and_then(|text| ldafp_obs::json::parse(text).map_err(ServeError::from))
            .and_then(|v| Request::from_json(&v));
        let request = match parsed {
            Ok(r) => r,
            Err(e) => {
                self.metrics.errors.inc();
                self.queue_json(token, &wire::error_response(&e));
                return;
            }
        };
        match request {
            Request::Predict { rows, model } => {
                let nrows = rows.len();
                self.admit_predict(
                    token,
                    ReplyCodec::Json,
                    model.as_deref(),
                    PendingRows::Nested(rows),
                    nrows,
                );
            }
            Request::Health => match self.registry.route(None) {
                Ok(engine) => {
                    let v = self.health_value(&engine);
                    self.queue_json(token, &v);
                }
                Err(e) => {
                    self.metrics.errors.inc();
                    self.queue_json(token, &wire::error_response(&e));
                }
            },
            Request::Stats => {
                let v = self.stats_value();
                self.queue_json(token, &v);
            }
            Request::Reload { name, artifact } => {
                let v = match self.do_reload(&name, &artifact.to_compact_string()) {
                    Ok(v) => v,
                    Err(e) => {
                        self.metrics.errors.inc();
                        wire::error_response(&e)
                    }
                };
                self.queue_json(token, &v);
            }
            Request::Shutdown => {
                let ack = Value::object([
                    ("ok", Value::from(true)),
                    ("shutting_down", Value::from(true)),
                ]);
                self.queue_json(token, &ack);
                self.shutdown.store(true, Ordering::SeqCst);
            }
        }
    }

    fn dispatch_binary(&mut self, token: u64, header: binwire::Header, body: &[u8]) {
        let request = match binwire::decode_request(header, body) {
            Ok(r) => r,
            Err(e) => {
                // The frame boundary was sound (scan_frame vouched for
                // it), only the body was malformed: typed error, the
                // connection stays usable.
                self.metrics.errors.inc();
                self.queue_error(token, ReplyCodec::Binary, header.opcode, &e);
                return;
            }
        };
        match request {
            BinRequest::Predict { model, payload } => {
                let model = (!model.is_empty()).then_some(model);
                let nrows = payload.rows();
                let rows = match payload {
                    RowsPayload::F64 { features, values } => {
                        if features == 0 {
                            self.metrics.errors.inc();
                            self.queue_error(
                                token,
                                ReplyCodec::Binary,
                                binwire::OP_PREDICT,
                                &NetError::Protocol("zero-feature predict".to_string()),
                            );
                            return;
                        }
                        PendingRows::Nested(values.chunks(features).map(<[f64]>::to_vec).collect())
                    }
                    RowsPayload::Raw { features, words } => {
                        if features == 0 {
                            self.metrics.errors.inc();
                            self.queue_error(
                                token,
                                ReplyCodec::Binary,
                                binwire::OP_PREDICT,
                                &NetError::Protocol("zero-feature predict".to_string()),
                            );
                            return;
                        }
                        PendingRows::Raw { features, words }
                    }
                };
                self.admit_predict(token, ReplyCodec::Binary, model.as_deref(), rows, nrows);
            }
            BinRequest::Health { model } => {
                let model = (!model.is_empty()).then_some(model);
                match self.registry.route(model.as_deref()) {
                    Ok(engine) => {
                        let v = self.health_value(&engine);
                        self.queue_binary(
                            token,
                            binwire::encode_json_reply(binwire::OP_HEALTH, &v.to_compact_string()),
                        );
                    }
                    Err(e) => {
                        self.metrics.errors.inc();
                        self.queue_error(
                            token,
                            ReplyCodec::Binary,
                            binwire::OP_HEALTH,
                            &NetError::from(e),
                        );
                    }
                }
            }
            BinRequest::Stats => {
                let v = self.stats_value();
                self.queue_binary(
                    token,
                    binwire::encode_json_reply(binwire::OP_STATS, &v.to_compact_string()),
                );
            }
            BinRequest::Reload {
                name,
                artifact_json,
            } => match self.do_reload(&name, &artifact_json) {
                Ok(v) => self.queue_binary(
                    token,
                    binwire::encode_json_reply(binwire::OP_RELOAD, &v.to_compact_string()),
                ),
                Err(e) => {
                    self.metrics.errors.inc();
                    self.queue_error(
                        token,
                        ReplyCodec::Binary,
                        binwire::OP_RELOAD,
                        &NetError::from(e),
                    );
                }
            },
            BinRequest::Shutdown => {
                let ack = Value::object([
                    ("ok", Value::from(true)),
                    ("shutting_down", Value::from(true)),
                ]);
                self.queue_binary(
                    token,
                    binwire::encode_json_reply(binwire::OP_SHUTDOWN, &ack.to_compact_string()),
                );
                self.shutdown.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Routes, shape-checks and either queues or sheds one predict.
    ///
    /// Validation happens **here**, at admission, so a formed batch can
    /// never fail on one member's bad shape mid-dispatch.
    fn admit_predict(
        &mut self,
        token: u64,
        codec: ReplyCodec,
        model: Option<&str>,
        rows: PendingRows,
        nrows: usize,
    ) {
        let engine = match self.registry.route(model) {
            Ok(e) => e,
            Err(e) => {
                self.metrics.errors.inc();
                match codec {
                    ReplyCodec::Json => self.queue_json(token, &wire::error_response(&e)),
                    ReplyCodec::Binary => self.queue_error(
                        token,
                        ReplyCodec::Binary,
                        binwire::OP_PREDICT,
                        &NetError::from(e),
                    ),
                }
                return;
            }
        };
        let m = engine.num_features();
        let shape_err = match &rows {
            PendingRows::Nested(rs) => {
                rs.iter()
                    .enumerate()
                    .find(|(_, r)| r.len() != m)
                    .map(|(i, r)| ServeError::FeatureMismatch {
                        expected: m,
                        got: r.len(),
                        row: i,
                    })
            }
            // The decoder guaranteed `words.len() = rows × features`; a
            // claimed width differing from the model's must not be
            // silently re-chunked into a different row count.
            PendingRows::Raw { features, words } => {
                (*features != m).then(|| ServeError::FeatureMismatch {
                    expected: m,
                    got: *features,
                    row: words.len() / features.max(&1),
                })
            }
        };
        if let Some(e) = shape_err {
            self.metrics.errors.inc();
            match codec {
                ReplyCodec::Json => self.queue_json(token, &wire::error_response(&e)),
                ReplyCodec::Binary => self.queue_error(
                    token,
                    ReplyCodec::Binary,
                    binwire::OP_PREDICT,
                    &NetError::from(e),
                ),
            }
            return;
        }
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
            match codec {
                ReplyCodec::Json => {
                    let v = Value::object([
                        ("ok", Value::from(false)),
                        ("overloaded", Value::from(true)),
                        (
                            "error",
                            Value::from("server overloaded: request shed, retry later"),
                        ),
                    ]);
                    self.queue_json(token, &v);
                }
                ReplyCodec::Binary => {
                    self.queue_binary(token, binwire::encode_overloaded_reply(binwire::OP_PREDICT))
                }
            }
            return;
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
                    || next.rows.kind() != group[0].rows.kind()
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
        let outputs: Vec<std::result::Result<BatchOutput, ServeError>> = match group[0].rows {
            PendingRows::Nested(_) => {
                let segments = group.iter().map(|p| match &p.rows {
                    PendingRows::Nested(rs) => rs.as_slice(),
                    PendingRows::Raw { .. } => unreachable!("kind-homogeneous group"),
                });
                match engine.predict_segmented(segments) {
                    Ok(outs) => outs.into_iter().map(Ok).collect(),
                    // Admission validated shapes, so this is defensive:
                    // fail every member rather than none.
                    Err(e) => group.iter().map(|_| Err(clone_err(&e))).collect(),
                }
            }
            PendingRows::Raw { .. } => {
                let segments = group.iter().map(|p| match &p.rows {
                    PendingRows::Raw { words, .. } => words.as_slice(),
                    PendingRows::Nested(_) => unreachable!("kind-homogeneous group"),
                });
                match engine.predict_raw_segmented(segments) {
                    Ok(outs) => outs.into_iter().map(Ok).collect(),
                    // Admission validated row boundaries, so this is
                    // defensive: fail every member rather than none.
                    Err(e) => group.iter().map(|_| Err(clone_err(&e))).collect(),
                }
            }
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
                    match req.codec {
                        ReplyCodec::Json => {
                            let v = predict_response(&out, labels);
                            self.queue_json(req.token, &v);
                        }
                        ReplyCodec::Binary => {
                            self.queue_binary(
                                req.token,
                                binwire::encode_predict_reply(&out, labels),
                            );
                        }
                    }
                }
                Err(e) => {
                    self.metrics.errors.inc();
                    match req.codec {
                        ReplyCodec::Json => self.queue_json(req.token, &wire::error_response(&e)),
                        ReplyCodec::Binary => self.queue_error(
                            req.token,
                            ReplyCodec::Binary,
                            binwire::OP_PREDICT,
                            &NetError::from(e),
                        ),
                    }
                }
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

    fn do_reload(&self, name: &str, artifact_json: &str) -> ldafp_serve::Result<Value> {
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

    fn queue_json(&mut self, token: u64, v: &Value) {
        let body = v.to_compact_string();
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
        frame.extend_from_slice(body.as_bytes());
        self.queue_bytes(token, frame);
    }

    fn queue_binary(&mut self, token: u64, frame: Vec<u8>) {
        self.queue_bytes(token, frame);
    }

    fn queue_error(&mut self, token: u64, codec: ReplyCodec, opcode: u8, e: &NetError) {
        match codec {
            ReplyCodec::Binary => {
                self.queue_bytes(token, binwire::encode_error_reply(opcode, &e.to_string()));
            }
            ReplyCodec::Json => {
                let v = Value::object([
                    ("ok", Value::from(false)),
                    ("error", Value::from(e.to_string())),
                ]);
                self.queue_json(token, &v);
            }
        }
    }

    fn queue_bytes(&mut self, token: u64, frame: Vec<u8>) {
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

/// `ServeError` is not `Clone` (it owns `io::Error`); batch-level
/// failures are re-rendered per member through its `Display` form.
fn clone_err(e: &ServeError) -> ServeError {
    ServeError::Protocol(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

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
