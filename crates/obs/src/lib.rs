//! `ldafp-obs` — zero-dependency observability for the LDA-FP workspace.
//!
//! Three layers, smallest first:
//!
//! * [`metrics`] — atomic [`Counter`]/[`Gauge`] and a bucketed
//!   [`Histogram`] (log2 edges by default, custom edges for callers with
//!   domain knowledge, e.g. the serving latency buckets), grouped in a
//!   [`Registry`]. `Registry::global()` is the process-wide instance the
//!   instrumented crates write to; subsystems that need isolation (the
//!   TCP server, unit tests) own private registries.
//! * [`trace`] — a structured [`Event`]/[`Span`] facade dispatching to at
//!   most one process-wide [`Subscriber`]. With no subscriber installed
//!   (the default) every emission site reduces to one relaxed atomic load
//!   and a predictable branch — cheap enough for the branch-and-bound
//!   hot loop.
//! * [`export`] — JSON/text exporters and [`NdjsonWriter`], a subscriber
//!   that streams one JSON object per line to a file (the CLI's `--trace`).
//!
//! Beside them sits [`json`], the workspace's one JSON reader and writer:
//! the serving artifact, the wire protocol, the explore cache and reports,
//! and the trace lines all go through it.
//!
//! The crate deliberately has **zero dependencies** so every other crate
//! in the workspace can instrument itself, and read and write JSON,
//! without widening its own dependency tree.

pub mod export;
pub mod json;
pub mod metrics;
pub mod trace;

pub use export::NdjsonWriter;
pub use metrics::{
    BucketCount, Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue,
    Registry,
};
pub use trace::{
    clear_subscriber, emit, enabled, flush, set_subscriber, Event, FieldValue, Span, Subscriber,
};
