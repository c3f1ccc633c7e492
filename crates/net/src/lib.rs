//! `ldafp-net` — the wire and the server for LDA-FP classifiers: both
//! wire codecs, one event loop that serves `ldafp-serve`'s engines over
//! them, and the client, with **zero external dependencies**:
//!
//! * **[`sys`]** — `epoll` via raw syscalls (`core::arch::asm!`, no
//!   libc), the crate's only unsafe surface. Sockets stay on `std::net`
//!   in nonblocking mode.
//! * **[`binwire`]** — a compact length-prefixed binary protocol
//!   (fixed-point rows cross the wire as raw two's-complement `QK.F`
//!   words), negotiated **per frame** beside the JSON framing by a
//!   magic byte no JSON length prefix can produce. One port, both
//!   codecs, byte-identical predictions.
//! * **[`jsonwire`]** — the length-prefixed JSON codec: its frame writer
//!   and reply vocabulary. There is no JSON request type; requests are
//!   built from, and decoded beside, the binary vocabulary.
//! * **[`server`]** — a single-threaded event loop multiplexing every
//!   connection. Each frame is decoded into one request type whatever
//!   its codec, one dispatch answers it, and one reply step encodes the
//!   answer in the request's codec. Predicts get *cross-connection
//!   micro-batching*: rows from many sockets, read in one pass of the
//!   loop, coalesce into one [`ldafp_serve::InferenceEngine`] dispatch
//!   (an optional linger waits for more).
//!   Backpressure is explicit — bounded per-connection inflight, a
//!   global pending-row cap, and a typed `overloaded` reply instead of
//!   silent queueing — and models live in a hot-reloadable
//!   [`ldafp_serve::ModelRegistry`] with per-request routing.
//! * **[`client`]** — the workspace's one blocking client,
//!   [`NetClient`]: either [`Codec`] over one transport with dial retry
//!   and backoff ([`RetryPolicy`]), reconnect-and-replay-once, typed
//!   errors, and a split send/recv API for pipelined load generation.
//! * **[`metrics`]** — the `net.*` counter/histogram families on a
//!   private `ldafp-obs` registry, plus `net.*` trace events for
//!   `--trace` runs.
//!
//! This is the only server in the workspace (`ldafp serve` starts it).
//! The loop is implemented for Linux on x86-64 and aarch64 (the asm
//! syscall shims); everywhere else [`serve_evented`] returns
//! [`NetError::Unsupported`] while the codecs and the client remain fully
//! portable.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod binwire;
pub mod client;
pub mod error;
pub mod jsonwire;
pub mod metrics;
pub mod server;
pub mod sys;

pub use binwire::PredictReplyBin;
pub use client::{quantize_rows, Codec, NetClient, RetryPolicy};
pub use error::{NetError, Result};
pub use metrics::{NetMetrics, NetSnapshot};
pub use server::{serve_evented, EventedConfig, EventedHandle};
