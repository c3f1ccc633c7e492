//! Atomic metric primitives and the name-keyed [`Registry`].
//!
//! All primitives use relaxed atomics: the numbers feed dashboards and
//! post-hoc reports, not synchronization, so cross-metric ordering is
//! deliberately unspecified. Snapshots are per-field atomic but not
//! cross-field consistent — a histogram snapshot taken during a burst of
//! recording can observe `count` and `sum` from slightly different
//! instants. That is the usual (and acceptable) metrics contract.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping, as `fetch_add` is; u64 wrap takes centuries at
    /// any realistic event rate).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Signed last-write-wins level (queue depths, in-flight work).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (negative to decrement).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucketed distribution of `u64` observations.
///
/// Buckets are defined by a strictly increasing list of **upper-inclusive
/// edges**; one open bucket past the last edge catches everything else.
/// [`Histogram::new`] uses log2 edges (`2^i − 1`), which cover the full
/// `u64` range with 64 buckets and are right for "how many microseconds /
/// nodes / bytes" without prior knowledge of the scale. Callers that know
/// their distribution (e.g. serving latency) supply their own edges via
/// [`Histogram::with_edges`].
///
/// `sum` saturates at `u64::MAX` instead of wrapping so a long-running
/// process reports "at least this much" rather than a small lie.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<u64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// One bucket of a [`HistogramSnapshot`]: `le` is the upper-inclusive
/// edge (`None` for the open bucket past the last edge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketCount {
    /// Upper-inclusive edge; `None` = the open (+∞) bucket.
    pub le: Option<u64>,
    /// Observations that landed in this bucket.
    pub count: u64,
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Saturating sum of all observations.
    pub sum: u64,
    /// `sum / count` (0.0 when empty).
    pub mean: f64,
    /// Median upper-bound (see [`Histogram::value_at_quantile`]).
    pub p50: u64,
    /// 90th-percentile upper-bound.
    pub p90: u64,
    /// 99th-percentile upper-bound.
    pub p99: u64,
    /// Non-empty buckets only, in edge order.
    pub buckets: Vec<BucketCount>,
}

impl Histogram {
    /// Log2-bucketed histogram: edges `2^i − 1` for `i = 0..=62`, plus the
    /// open bucket. Covers all of `u64` with ~2× relative resolution.
    #[must_use]
    pub fn new() -> Self {
        let edges: Vec<u64> = (0..=62).map(|i| (1u64 << i) - 1).collect();
        Histogram::with_edges(&edges)
    }

    /// Histogram over caller-chosen upper-inclusive `edges`.
    ///
    /// # Panics
    ///
    /// When `edges` is empty or not strictly increasing — both are
    /// programming errors in the instrumentation site, not runtime
    /// conditions.
    #[must_use]
    pub fn with_edges(edges: &[u64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = self.edges.partition_point(|e| *e < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        // Saturating, not wrapping: `fetch_update` retries on contention,
        // which is fine at metrics rates.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            });
    }

    /// The configured upper-inclusive edges.
    #[must_use]
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Saturating sum of observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bound on the `q`-quantile: the edge of the first bucket whose
    /// cumulative count reaches `⌈q·n⌉`. Returns 0 when empty and
    /// `u64::MAX` when the quantile falls in the open bucket — "slower
    /// than the instrument can say" is the honest answer there.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return self.edges.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        // Racing recorders can leave `total` ahead of the bucket sums for
        // an instant; answer with the open bucket.
        u64::MAX
    }

    /// Point-in-time copy (non-empty buckets only).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<BucketCount> = self
            .counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then_some(BucketCount {
                    le: self.edges.get(i).copied(),
                    count,
                })
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            p50: self.value_at_quantile(0.50),
            p90: self.value_at_quantile(0.90),
            p99: self.value_at_quantile(0.99),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The three metric kinds a [`Registry`] can hold.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One named metric in a [`Registry::snapshot`].
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Dotted metric name, e.g. `bnb.nodes_assessed`.
    pub name: String,
    /// Kind-tagged value.
    pub value: MetricValue,
}

/// Kind-tagged snapshot value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A [`Counter`] reading.
    Counter(u64),
    /// A [`Gauge`] reading.
    Gauge(i64),
    /// A [`Histogram`] snapshot.
    Histogram(HistogramSnapshot),
}

/// Name-keyed collection of metrics with get-or-create registration.
///
/// Handles are `Arc`s: register once at setup (or lazily from a hot path
/// — one mutex acquisition), then record lock-free through the handle.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry the instrumented crates record into.
    #[must_use]
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get-or-create the counter `name`.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different kind — a
    /// programming error at the instrumentation site.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match entry {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered as a different kind"),
        }
    }

    /// Get-or-create the gauge `name`.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match entry {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered as a different kind"),
        }
    }

    /// Get-or-create the log2-bucketed histogram `name`.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_entry(name, None)
    }

    /// Get-or-create histogram `name` with caller-chosen edges. An
    /// existing histogram keeps its original edges; the `edges` argument
    /// only shapes first registration.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a non-histogram, or `edges`
    /// is invalid (see [`Histogram::with_edges`]).
    #[must_use]
    pub fn histogram_with_edges(&self, name: &str, edges: &[u64]) -> Arc<Histogram> {
        self.histogram_entry(name, Some(edges))
    }

    fn histogram_entry(&self, name: &str, edges: Option<&[u64]>) -> Arc<Histogram> {
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        let entry = map.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Arc::new(match edges {
                Some(e) => Histogram::with_edges(e),
                None => Histogram::new(),
            }))
        });
        match entry {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered as a different kind"),
        }
    }

    /// Snapshot of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.metrics.lock().expect("metrics registry poisoned");
        map.iter()
            .map(|(name, metric)| MetricSnapshot {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics
            .lock()
            .expect("metrics registry poisoned")
            .len()
    }

    /// Whether no metric has been registered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn log2_histogram_buckets_powers() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        // 0 → edge 0; 1 → edge 1; 2,3 → edge 3; 4 → edge 7; 1000 → 1023.
        let snap = h.snapshot();
        let le = |b: &BucketCount| b.le;
        assert_eq!(le(&snap.buckets[0]), Some(0));
        assert_eq!(le(&snap.buckets[1]), Some(1));
        assert_eq!(
            snap.buckets[2],
            BucketCount {
                le: Some(3),
                count: 2
            }
        );
        assert_eq!(le(&snap.buckets[3]), Some(7));
        assert_eq!(le(&snap.buckets[4]), Some(1023));
        // u64::MAX exceeds the last edge (2^62−1) → open bucket.
        assert_eq!(snap.buckets.last().unwrap().le, None);
    }

    #[test]
    fn quantile_upper_bound_semantics() {
        let h = Histogram::with_edges(&[10, 100, 1000]);
        for _ in 0..98 {
            h.record(5);
        }
        h.record(50);
        h.record(5000);
        assert_eq!(h.value_at_quantile(0.50), 10);
        assert_eq!(h.value_at_quantile(0.99), 100);
        assert_eq!(h.value_at_quantile(1.0), u64::MAX, "open bucket → MAX");
    }

    #[test]
    fn registry_get_or_create_returns_same_instance() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn registry_snapshot_sorted_and_tagged() {
        let r = Registry::new();
        r.counter("b.count").add(2);
        r.gauge("a.level").set(-1);
        r.histogram("c.dist").record(42);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a.level", "b.count", "c.dist"]);
        assert!(matches!(snap[0].value, MetricValue::Gauge(-1)));
        assert!(matches!(snap[1].value, MetricValue::Counter(2)));
        match &snap[2].value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn histogram_existing_edges_win() {
        let r = Registry::new();
        let a = r.histogram_with_edges("lat", &[1, 2, 3]);
        let b = r.histogram_with_edges("lat", &[10, 20]);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(b.edges(), &[1, 2, 3]);
    }
}
