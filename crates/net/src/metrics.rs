//! Counters, gauges and histograms for the server, on a private
//! [`obs::Registry`] (one per server — tests run many loops per process,
//! and their numbers must not bleed together). The CLI dumps the
//! registry through [`NetMetrics::registry`] after `ldafp serve` exits.

use ldafp_obs as obs;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency bucket edges (µs), roughly logarithmic from 1 µs to 5 s; the
/// last bucket is open-ended. The low edges resolve a request that is
/// dispatched in the read pass that decoded it (a few µs in the server).
const BUCKET_EDGES_US: [u64; 19] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    500_000, 1_000_000, 5_000_000,
];

/// Live metrics for one evented server.
#[derive(Debug)]
pub struct NetMetrics {
    registry: obs::Registry,
    /// Connections accepted.
    pub accepts: Arc<obs::Counter>,
    /// Connections closed (any reason).
    pub closes: Arc<obs::Counter>,
    /// Partial frames that outlived the read deadline (slowloris kills).
    pub deadline_closes: Arc<obs::Counter>,
    /// Currently open connections.
    pub connections: Arc<obs::Gauge>,
    /// Complete frames parsed off sockets (both codecs).
    pub frames_in: Arc<obs::Counter>,
    /// Reply frames queued to sockets.
    pub frames_out: Arc<obs::Counter>,
    /// Predict requests admitted past the shedder.
    pub requests: Arc<obs::Counter>,
    /// Rows classified.
    pub rows: Arc<obs::Counter>,
    /// Engine dispatches (each may serve many requests).
    pub batches: Arc<obs::Counter>,
    /// Predict requests refused with a typed overloaded reply.
    pub shed: Arc<obs::Counter>,
    /// Requests answered with a typed error.
    pub errors: Arc<obs::Counter>,
    /// Successful registry reloads.
    pub reloads: Arc<obs::Counter>,
    /// MACs whose exact sum left the format's range, as the engine
    /// reports them (`BatchStats::accumulator_wraps`); intermediate wraps
    /// are not counted.
    pub accumulator_wraps: Arc<obs::Counter>,
    /// Out-of-range inputs clipped at quantization.
    pub saturated_inputs: Arc<obs::Counter>,
    /// Rows per engine dispatch (log2 buckets).
    pub batch_rows: Arc<obs::Histogram>,
    /// Enqueue→reply latency per predict request.
    pub latency_us: Arc<obs::Histogram>,
    /// Enqueue→engine dispatch wait per predict request (the queue stage
    /// of `latency_us`).
    pub queue_wait_us: Arc<obs::Histogram>,
    started: Instant,
}

/// A point-in-time copy of the counters with derived percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Connections accepted since start.
    pub accepts: u64,
    /// Connections closed (any reason).
    pub closes: u64,
    /// Partial frames closed at the read deadline.
    pub deadline_closes: u64,
    /// Currently open connections.
    pub connections: i64,
    /// Complete frames parsed (both codecs).
    pub frames_in: u64,
    /// Reply frames queued.
    pub frames_out: u64,
    /// Predict requests admitted.
    pub requests: u64,
    /// Rows classified.
    pub rows: u64,
    /// Engine dispatches.
    pub batches: u64,
    /// Requests shed under load.
    pub shed: u64,
    /// Typed error replies.
    pub errors: u64,
    /// Successful reloads.
    pub reloads: u64,
    /// MACs whose exact sum overflowed (see the counter of that name).
    pub accumulator_wraps: u64,
    /// Saturated inputs.
    pub saturated_inputs: u64,
    /// Median request latency (upper bucket edge), µs.
    pub p50_us: u64,
    /// 99th-percentile request latency (upper bucket edge), µs.
    pub p99_us: u64,
    /// Median queue wait before dispatch (upper bucket edge), µs.
    pub queue_wait_p50_us: u64,
    /// 99th-percentile queue wait before dispatch (upper bucket edge), µs.
    pub queue_wait_p99_us: u64,
    /// Median rows per dispatch (upper bucket edge).
    pub batch_rows_p50: u64,
    /// Time since server start, ms.
    pub uptime_ms: u64,
}

impl NetMetrics {
    /// Fresh, zeroed registry; the uptime clock starts now.
    pub fn new() -> Self {
        let registry = obs::Registry::new();
        NetMetrics {
            accepts: registry.counter("net.accepts"),
            closes: registry.counter("net.closes"),
            deadline_closes: registry.counter("net.deadline_closes"),
            connections: registry.gauge("net.connections"),
            frames_in: registry.counter("net.frames_in"),
            frames_out: registry.counter("net.frames_out"),
            requests: registry.counter("net.requests"),
            rows: registry.counter("net.rows"),
            batches: registry.counter("net.batches"),
            shed: registry.counter("net.shed"),
            errors: registry.counter("net.errors"),
            reloads: registry.counter("net.reloads"),
            accumulator_wraps: registry.counter("net.accumulator_wraps"),
            saturated_inputs: registry.counter("net.saturated_inputs"),
            batch_rows: registry.histogram("net.batch_rows"),
            latency_us: registry.histogram_with_edges("net.latency_us", &BUCKET_EDGES_US),
            queue_wait_us: registry.histogram_with_edges("net.queue_wait_us", &BUCKET_EDGES_US),
            registry,
            started: Instant::now(),
        }
    }

    /// The underlying registry, for exporters (`--trace`, `--metrics-summary`).
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }

    /// Records one replied predict request.
    pub fn record_request(&self, rows: u64, wraps: u64, saturated: u64, latency: Duration) {
        self.rows.add(rows);
        self.accumulator_wraps.add(wraps);
        self.saturated_inputs.add(saturated);
        self.latency_us.record(micros(latency));
    }

    /// Records how long one predict request queued before its dispatch.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait_us.record(micros(wait));
    }

    /// Copies the counters and derives percentiles.
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            accepts: self.accepts.get(),
            closes: self.closes.get(),
            deadline_closes: self.deadline_closes.get(),
            connections: self.connections.get(),
            frames_in: self.frames_in.get(),
            frames_out: self.frames_out.get(),
            requests: self.requests.get(),
            rows: self.rows.get(),
            batches: self.batches.get(),
            shed: self.shed.get(),
            errors: self.errors.get(),
            reloads: self.reloads.get(),
            accumulator_wraps: self.accumulator_wraps.get(),
            saturated_inputs: self.saturated_inputs.get(),
            p50_us: self.latency_us.value_at_quantile(0.50),
            p99_us: self.latency_us.value_at_quantile(0.99),
            queue_wait_p50_us: self.queue_wait_us.value_at_quantile(0.50),
            queue_wait_p99_us: self.queue_wait_us.value_at_quantile(0.99),
            batch_rows_p50: self.batch_rows.value_at_quantile(0.50),
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
        }
    }
}

/// `d` in whole microseconds, saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl Default for NetMetrics {
    fn default() -> Self {
        NetMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_registry_agree() {
        let m = NetMetrics::new();
        m.requests.inc();
        m.record_request(12, 3, 1, Duration::from_micros(90));
        m.batches.inc();
        m.batch_rows.record(12);
        m.shed.inc();
        let s = m.snapshot();
        assert_eq!((s.requests, s.rows, s.shed, s.batches), (1, 12, 1, 1));
        assert_eq!(s.accumulator_wraps, 3);
        assert_eq!(s.p50_us, 100);
        let dump = m.registry().dump_json();
        assert!(dump.contains("\"net.requests\":1"), "{dump}");
        assert!(dump.contains("\"net.shed\":1"), "{dump}");
        assert!(dump.contains("\"net.latency_us\""), "{dump}");
        assert!(dump.contains("\"net.queue_wait_us\""), "{dump}");
    }

    #[test]
    fn latency_histograms_resolve_microseconds() {
        let m = NetMetrics::new();
        m.record_request(1, 0, 0, Duration::from_micros(3));
        m.record_queue_wait(Duration::from_micros(1));
        let s = m.snapshot();
        assert!(s.p50_us <= 5, "p50_us = {}", s.p50_us);
        assert!(s.p99_us <= 5, "p99_us = {}", s.p99_us);
        assert_eq!((s.queue_wait_p50_us, s.queue_wait_p99_us), (1, 1));
    }
}
