//! Structured events, spans, and the process-wide subscriber slot.
//!
//! Cost model: with no subscriber installed (the default), every
//! emission site — `if obs::enabled() { obs::emit(...) }` — is a single
//! relaxed atomic load plus an untaken branch; no event is built, no
//! field is formatted, no lock is touched. The `<2%` overhead gate
//! (`crates/bench/tests/obs_gate.rs`, a release-mode test) holds the
//! solver hot path to that promise.
//!
//! Only one subscriber can be installed at a time; installing replaces
//! the previous one. That keeps dispatch to one `RwLock` read and matches
//! every current consumer (the CLI's NDJSON writer, tests' counting
//! subscribers).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A field value on an [`Event`]. Conversions exist for the common
/// primitive types so instrumentation sites read naturally:
/// `Event::new("bnb.prune").with("reason", "bound").with("depth", depth)`.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v.into())
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v.into())
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured occurrence: a static dotted name plus ordered fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dotted event name, e.g. `bnb.incumbent`.
    pub name: &'static str,
    /// Ordered `(key, value)` pairs; keys are static for zero-alloc names.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// An event with no fields yet.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Event {
            name,
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }
}

/// Receives every emitted [`Event`] while installed. Implementations must
/// tolerate concurrent calls (`Send + Sync`) and must not panic — they run
/// inside solver and server hot paths.
pub trait Subscriber: Send + Sync {
    /// Called once per emitted event.
    fn event(&self, event: &Event);

    /// Flush any buffering; called by [`flush`] and [`clear_subscriber`].
    fn flush(&self) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

/// Whether a subscriber is installed. Hot paths branch on this before
/// building an [`Event`] so the disabled cost is one relaxed load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `subscriber`, replacing (and flushing) any previous one.
pub fn set_subscriber(subscriber: Arc<dyn Subscriber>) {
    let previous = {
        let mut slot = SUBSCRIBER.write().expect("subscriber slot poisoned");
        let previous = slot.take();
        *slot = Some(subscriber);
        previous
    };
    ENABLED.store(true, Ordering::Relaxed);
    if let Some(p) = previous {
        p.flush();
    }
}

/// Removes the current subscriber (flushing it first). Emission sites
/// return to the one-atomic-load disabled path.
pub fn clear_subscriber() {
    ENABLED.store(false, Ordering::Relaxed);
    let previous = SUBSCRIBER.write().expect("subscriber slot poisoned").take();
    if let Some(p) = previous {
        p.flush();
    }
}

/// Delivers `event` to the installed subscriber, if any. Callers on hot
/// paths should guard with [`enabled`] to skip event construction; `emit`
/// re-checks internally so unguarded calls stay correct.
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    if let Some(s) = SUBSCRIBER
        .read()
        .expect("subscriber slot poisoned")
        .as_ref()
    {
        s.event(&event);
    }
}

/// Flushes the installed subscriber, if any.
pub fn flush() {
    if let Some(s) = SUBSCRIBER
        .read()
        .expect("subscriber slot poisoned")
        .as_ref()
    {
        s.flush();
    }
}

/// RAII timing scope: emits `<name>` with a `duration_us` field on drop.
/// When tracing is disabled at `enter` time the span holds no clock and
/// drops for free.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    started: Option<Instant>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// Opens a span; reads the clock only when tracing is enabled.
    #[must_use]
    pub fn enter(name: &'static str) -> Self {
        Span {
            name,
            started: enabled().then(Instant::now),
            fields: Vec::new(),
        }
    }

    /// Attaches a field to the closing event (no-op when disabled).
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.started.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            let mut event = Event::new(self.name).with(
                "duration_us",
                u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
            );
            event.fields.append(&mut self.fields);
            emit(event);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the process-wide subscriber slot.
    pub(crate) static SUBSCRIBER_TESTS: Mutex<()> = Mutex::new(());

    #[derive(Default)]
    struct Collector {
        events: Mutex<Vec<Event>>,
        flushes: Mutex<usize>,
    }

    impl Subscriber for Collector {
        fn event(&self, event: &Event) {
            self.events.lock().unwrap().push(event.clone());
        }
        fn flush(&self) {
            *self.flushes.lock().unwrap() += 1;
        }
    }

    #[test]
    fn disabled_by_default_and_emit_is_noop() {
        let _guard = SUBSCRIBER_TESTS.lock().unwrap();
        clear_subscriber();
        assert!(!enabled());
        emit(Event::new("ignored").with("x", 1u64)); // must not panic
    }

    #[test]
    fn subscriber_receives_events_and_flush_on_clear() {
        let _guard = SUBSCRIBER_TESTS.lock().unwrap();
        let collector = Arc::new(Collector::default());
        set_subscriber(collector.clone());
        assert!(enabled());

        emit(Event::new("a").with("k", "v"));
        {
            let mut span = Span::enter("b.span");
            span.record("extra", true);
        }
        clear_subscriber();
        assert!(!enabled());

        let events = collector.events.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[0].fields, vec![("k", FieldValue::Str("v".into()))]);
        assert_eq!(events[1].name, "b.span");
        assert_eq!(events[1].fields[0].0, "duration_us");
        assert_eq!(events[1].fields[1], ("extra", FieldValue::Bool(true)));
        assert!(*collector.flushes.lock().unwrap() >= 1);
    }

    #[test]
    fn span_without_subscriber_skips_clock() {
        let _guard = SUBSCRIBER_TESTS.lock().unwrap();
        clear_subscriber();
        let span = Span::enter("quiet");
        assert!(span.started.is_none());
    }
}
