//! Exporters: trace lines and the registry dump as JSON, written
//! through [`crate::json`]'s string and number writers, a human-readable
//! text dump, and the [`NdjsonWriter`] subscriber behind the CLI's
//! `--trace`. Integer fields are written as exact integer text, never
//! through a JSON [`Value`](crate::json::Value), whose `f64` would round a
//! `u64` above 2⁵³.

use crate::json::{write_number, write_string};
use crate::metrics::{HistogramSnapshot, MetricValue, Registry};
use crate::trace::{Event, FieldValue, Subscriber};
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Appends `v` as a JSON value. Non-finite floats become `null` — NDJSON
/// consumers get a parseable stream even if an instrumented site reports
/// a NaN bound.
fn push_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::I64(i) => {
            let _ = write!(out, "{i}");
        }
        FieldValue::U64(u) => {
            let _ = write!(out, "{u}");
        }
        FieldValue::F64(f) => write_number(*f, out),
        FieldValue::Str(s) => write_string(s, out),
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

/// One NDJSON line (no trailing newline) for `event`, stamped with the
/// stream-relative time `t_us`. The `event` and `t_us` keys come first so
/// the stream is skimmable with plain `grep`.
#[must_use]
pub fn event_to_json(event: &Event, t_us: u64) -> String {
    let mut out = String::with_capacity(64 + event.fields.len() * 24);
    out.push_str("{\"event\":");
    write_string(event.name, &mut out);
    let _ = write!(out, ",\"t_us\":{t_us}");
    for (key, value) in &event.fields {
        out.push(',');
        write_string(key, &mut out);
        out.push(':');
        push_field_value(&mut out, value);
    }
    out.push('}');
    out
}

fn push_histogram_json(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(out, "{{\"count\":{},\"sum\":{},\"mean\":", h.count, h.sum);
    write_number(if h.mean.is_finite() { h.mean } else { 0.0 }, out);
    let _ = write!(
        out,
        ",\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
        h.p50, h.p90, h.p99
    );
    for (i, b) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match b.le {
            Some(le) => {
                let _ = write!(out, "{{\"le\":{le},\"count\":{}}}", b.count);
            }
            None => {
                let _ = write!(out, "{{\"le\":null,\"count\":{}}}", b.count);
            }
        }
    }
    out.push_str("]}");
}

impl Registry {
    /// Compact single-line JSON document of every registered metric,
    /// grouped by kind:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    #[must_use]
    pub fn dump_json(&self) -> String {
        let snapshot = self.snapshot();
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for m in &snapshot {
            let section = match &m.value {
                MetricValue::Counter(_) => &mut counters,
                MetricValue::Gauge(_) => &mut gauges,
                MetricValue::Histogram(_) => &mut histograms,
            };
            if !section.is_empty() {
                section.push(',');
            }
            write_string(&m.name, section);
            section.push(':');
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(section, "{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(section, "{v}");
                }
                MetricValue::Histogram(h) => push_histogram_json(section, h),
            }
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
        )
    }

    /// Aligned human-readable dump for `--metrics-summary`. Histogram
    /// percentiles print `>max` when the quantile escaped the last bucket.
    #[must_use]
    pub fn dump_text(&self) -> String {
        let snapshot = self.snapshot();
        if snapshot.is_empty() {
            return "  (no metrics recorded)\n".to_string();
        }
        let width = snapshot.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let fmt_edge = |v: u64| {
            if v == u64::MAX {
                ">max".to_string()
            } else {
                v.to_string()
            }
        };
        let mut out = String::new();
        for m in &snapshot {
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "  {:width$}  {v}", m.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "  {:width$}  {v}", m.name);
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "  {:width$}  count={} mean={:.1} p50={} p90={} p99={}",
                        m.name,
                        h.count,
                        h.mean,
                        fmt_edge(h.p50),
                        fmt_edge(h.p90),
                        fmt_edge(h.p99),
                    );
                }
            }
        }
        out
    }
}

/// [`Subscriber`] that streams one JSON object per line to a file.
///
/// Timestamps (`t_us`) are relative to writer creation. Write errors are
/// swallowed: `Subscriber::event` runs inside solver/server hot paths
/// where propagating an I/O failure would be worse than a truncated
/// trace. Call [`NdjsonWriter::dump_registry`] before clearing the
/// subscriber to close the stream with a final metrics snapshot.
pub struct NdjsonWriter {
    out: Mutex<BufWriter<std::fs::File>>,
    epoch: Instant,
}

impl NdjsonWriter {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from file creation.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(NdjsonWriter {
            out: Mutex::new(BufWriter::new(file)),
            epoch: Instant::now(),
        })
    }

    /// Microseconds since the writer was created.
    fn t_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Appends a `registry.dump` line carrying the full [`Registry`]
    /// snapshot as a nested object, then flushes.
    pub fn dump_registry(&self, registry: &Registry) {
        let line = format!(
            "{{\"event\":\"registry.dump\",\"t_us\":{},\"registry\":{}}}",
            self.t_us(),
            registry.dump_json()
        );
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    }
}

impl std::fmt::Debug for NdjsonWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NdjsonWriter").finish_non_exhaustive()
    }
}

impl Subscriber for NdjsonWriter {
    fn event(&self, event: &Event) {
        let line = event_to_json(event, self.t_us());
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{line}");
        }
    }

    fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_shape_and_escaping() {
        let e = Event::new("bnb.prune")
            .with("reason", "bound\"quote")
            .with("depth", 3usize)
            .with("gap", 0.5f64)
            .with("bad", f64::NAN)
            .with("neg", -2i64)
            .with("ok", true);
        let json = event_to_json(&e, 42);
        assert_eq!(
            json,
            "{\"event\":\"bnb.prune\",\"t_us\":42,\"reason\":\"bound\\\"quote\",\
             \"depth\":3,\"gap\":0.5,\"bad\":null,\"neg\":-2,\"ok\":true}"
        );
    }

    #[test]
    fn event_json_parses_for_every_field_kind() {
        use crate::json::{parse, Value};
        let text = "quote\" back\\slash \n\r\t\u{1}\u{1f} héllo — ∑ 中文";
        let e = Event::new("kinds")
            .with("i64", i64::MIN)
            .with("u64", u64::MAX)
            .with("f64", 0.1f64)
            .with("tiny", 1e-7f64)
            .with("nan", f64::NAN)
            .with("inf", f64::INFINITY)
            .with("neg_inf", f64::NEG_INFINITY)
            .with("text", text)
            .with("bool", false);
        let json = event_to_json(&e, 7);
        assert!(json.contains("\"u64\":18446744073709551615,"), "{json}");
        assert!(json.contains("\"i64\":-9223372036854775808,"), "{json}");
        let v = parse(&json).unwrap_or_else(|err| panic!("{err}: {json}"));
        assert_eq!(v.get("event").and_then(Value::as_str), Some("kinds"));
        assert_eq!(v.get("t_us").and_then(Value::as_i64), Some(7));
        assert_eq!(v.get("f64").and_then(Value::as_f64), Some(0.1));
        assert_eq!(v.get("tiny").and_then(Value::as_f64), Some(1e-7));
        for key in ["nan", "inf", "neg_inf"] {
            assert!(v.get(key).is_some_and(Value::is_null), "{key}: {json}");
        }
        assert_eq!(v.get("text").and_then(Value::as_str), Some(text));
        assert_eq!(v.get("bool").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn registry_dump_json_groups_kinds() {
        let r = Registry::new();
        r.counter("c.one").add(3);
        r.gauge("g.depth").set(-4);
        r.histogram_with_edges("h.lat", &[10, 100]).record(7);
        let json = r.dump_json();
        assert!(json.starts_with("{\"counters\":{\"c.one\":3}"), "{json}");
        assert!(json.contains("\"gauges\":{\"g.depth\":-4}"), "{json}");
        assert!(
            json.contains("\"h.lat\":{\"count\":1,\"sum\":7,\"mean\":7,\"p50\":10"),
            "{json}"
        );
        assert!(
            json.contains("\"buckets\":[{\"le\":10,\"count\":1}]"),
            "{json}"
        );
    }

    #[test]
    fn registry_dump_text_aligned() {
        let r = Registry::new();
        r.counter("solver.solves").add(12);
        r.histogram("solver.us").record(100);
        let text = r.dump_text();
        assert!(text.contains("solver.solves"), "{text}");
        assert!(text.contains("count=1"), "{text}");

        let empty = Registry::new();
        assert!(empty.dump_text().contains("no metrics"));
    }

    #[test]
    fn ndjson_writer_streams_lines() {
        let path = std::env::temp_dir().join(format!(
            "ldafp-obs-ndjson-{}-{:?}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        let writer = NdjsonWriter::create(&path).expect("create trace file");
        writer.event(&Event::new("a").with("n", 1u64));
        writer.event(&Event::new("b"));
        let registry = Registry::new();
        registry.counter("k").inc();
        writer.dump_registry(&registry);
        writer.flush();

        let content = std::fs::read_to_string(&path).expect("read trace back");
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"event\":\"a\",\"t_us\":"));
        assert!(lines[2].contains("\"event\":\"registry.dump\""));
        assert!(lines[2].contains("\"k\":1"));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
