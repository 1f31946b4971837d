//! The thread-safe metric registry and its exportable snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::clock::Clock;
use crate::metrics::{Counter, Gauge, Histogram, HistogramCore, HistogramSnapshot};
use crate::span::{SpanCore, SpanGuard, SpanSnapshot};

/// A named collection of counters, gauges, histograms, and spans.
///
/// The registry is a cheap-to-clone handle; clones share state, so one
/// registry can be threaded through a whole closed-loop run and
/// snapshotted once at the end. Instruments are registered by name on
/// first use and looked up on subsequent calls, so hot paths should
/// obtain a handle once and update it directly — handle updates are
/// single relaxed atomic operations and never touch the registry lock.
///
/// [`Registry::disabled`] is the no-op recorder: every instrument it
/// hands out is inert and [`snapshot`](Registry::snapshot) is empty.
/// The default registry is disabled, so embedding a `Registry` field in
/// a config or engine costs nothing until a caller opts in.
///
/// ```
/// use vdo_obs::Registry;
///
/// let obs = Registry::new();
/// let events = obs.counter("engine.events");
/// {
///     let _span = obs.span("engine/tick");
///     events.add(3);
/// }
/// let snap = obs.snapshot();
/// assert_eq!(snap.counter("engine.events"), Some(3));
/// assert_eq!(snap.span_count("engine/tick"), Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

/// Shared state behind an enabled registry.
#[derive(Debug)]
pub(crate) struct RegistryInner {
    pub(crate) clock: Clock,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    spans: Mutex<BTreeMap<String, Arc<SpanCore>>>,
}

impl RegistryInner {
    pub(crate) fn span_core(&self, path: &str) -> Arc<SpanCore> {
        Arc::clone(
            self.spans
                .lock()
                .expect("span table poisoned")
                .entry(path.to_string())
                .or_default(),
        )
    }
}

impl Registry {
    /// An enabled registry on a wall clock.
    #[must_use]
    pub fn new() -> Self {
        Registry::with_clock(Clock::wall())
    }

    /// An enabled registry on the given clock (use [`Clock::simulated`]
    /// for reproducible span durations).
    #[must_use]
    pub fn with_clock(clock: Clock) -> Self {
        Registry {
            inner: Some(Arc::new(RegistryInner {
                clock,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// The no-op recorder: hands out inert instruments, records
    /// nothing, snapshots empty. This is also the [`Default`].
    #[must_use]
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// `true` when instruments actually record.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The registry's clock, when enabled.
    #[must_use]
    pub fn clock(&self) -> Option<Clock> {
        self.inner.as_ref().map(|i| i.clock.clone())
    }

    /// The counter registered under `name` (created at zero on first
    /// use; later calls return a handle to the same cell).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => Counter::from_cell(Arc::clone(
                inner
                    .counters
                    .lock()
                    .expect("counter table poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )),
            None => Counter::disabled(),
        }
    }

    /// The gauge registered under `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => Gauge::from_cell(Arc::clone(
                inner
                    .gauges
                    .lock()
                    .expect("gauge table poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )),
            None => Gauge::disabled(),
        }
    }

    /// The histogram registered under `name`, created with `bounds` on
    /// first use (later calls ignore `bounds` and return the existing
    /// histogram).
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &'static [u64]) -> Histogram {
        match &self.inner {
            Some(inner) => Histogram::from_core(Arc::clone(
                inner
                    .histograms
                    .lock()
                    .expect("histogram table poisoned")
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCore::with_bounds(bounds))),
            )),
            None => Histogram::disabled(),
        }
    }

    /// Opens a span at `path` (use `/` separators for hierarchy;
    /// [`SpanGuard::child`] appends segments). Dropping the guard
    /// records the elapsed clock time.
    #[must_use]
    pub fn span(&self, path: &str) -> SpanGuard {
        match &self.inner {
            Some(inner) => SpanGuard::start(Arc::clone(inner), path.to_string()),
            None => SpanGuard::disabled(),
        }
    }

    /// Times `f` under a span at `path`.
    pub fn time<T>(&self, path: &str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(path);
        f()
    }

    /// Freezes every instrument into an immutable, serialisable
    /// [`Snapshot`]. Empty when disabled.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        Snapshot {
            counters: inner
                .counters
                .lock()
                .expect("counter table poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(std::sync::atomic::Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .expect("gauge table poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(std::sync::atomic::Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .lock()
                .expect("histogram table poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            spans: inner
                .spans
                .lock()
                .expect("span table poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Frozen registry state: every instrument by name, orderings stable
/// (BTreeMap), serialisable to one JSON object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span aggregates by path.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Snapshot {
    /// The value of one counter, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of one gauge, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// How many times the span at `path` was recorded, if ever opened.
    #[must_use]
    pub fn span_count(&self, path: &str) -> Option<u64> {
        self.spans.get(path).map(|s| s.count)
    }

    /// A canonical rendering of everything that must be reproducible
    /// for seeded workloads: counter values, gauge values, histogram
    /// observation counts, and span entry counts — but no durations,
    /// which follow the (possibly wall) clock. Two equal-seed runs of
    /// an instrumented deterministic workload produce identical
    /// fingerprints at any worker count.
    #[must_use]
    pub fn deterministic_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "histogram {name} count = {}", h.count);
        }
        for (path, s) in &self.spans {
            let _ = writeln!(out, "span {path} count = {}", s.count);
        }
        out
    }
}

impl Serialize for Snapshot {
    fn to_value(&self) -> serde::json::Value {
        serde::json::object([
            ("counters", self.counters.to_value()),
            ("gauges", self.gauges.to_value()),
            ("histograms", self.histograms.to_value()),
            ("spans", self.spans.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TICK_BOUNDS;

    #[test]
    fn instruments_register_once_and_share_state() {
        let obs = Registry::new();
        obs.counter("a").add(2);
        obs.counter("a").add(3);
        obs.gauge("g").record_max(7);
        obs.histogram("h", &TICK_BOUNDS).record(1);
        obs.histogram("h", &TICK_BOUNDS).record(100);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("a"), Some(5));
        assert_eq!(snap.gauge("g"), Some(7));
        assert_eq!(snap.histograms["h"].count, 2);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn spans_nest_and_aggregate_by_path() {
        let clock = Clock::simulated();
        let obs = Registry::with_clock(clock.clone());
        for _ in 0..3 {
            let outer = obs.span("loop");
            clock.advance(10);
            {
                let _inner = outer.child("body");
                clock.advance(5);
            }
        }
        let snap = obs.snapshot();
        assert_eq!(snap.span_count("loop"), Some(3));
        assert_eq!(snap.span_count("loop/body"), Some(3));
        assert_eq!(snap.spans["loop/body"].total_nanos, 15);
        assert_eq!(snap.spans["loop"].total_nanos, 45);
        assert_eq!(snap.spans["loop"].max_nanos, 15);
        assert!((snap.spans["loop/body"].mean_nanos() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_registry_is_inert_and_empty() {
        let obs = Registry::disabled();
        assert!(!obs.is_enabled());
        assert!(obs.clock().is_none());
        obs.counter("a").inc();
        obs.gauge("g").set(4);
        obs.histogram("h", &TICK_BOUNDS).record(2);
        {
            let span = obs.span("s");
            assert!(span.path().is_none());
            let _child = span.child("c");
        }
        let snap = obs.snapshot();
        assert_eq!(snap, Snapshot::default());
        assert!(snap.deterministic_fingerprint().is_empty());
    }

    #[test]
    fn time_records_a_span_and_returns_the_value() {
        let obs = Registry::new();
        let v = obs.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(obs.snapshot().span_count("work"), Some(1));
    }

    #[test]
    fn snapshot_serialises_to_one_json_object() {
        let obs = Registry::with_clock(Clock::simulated());
        obs.counter("events").add(9);
        obs.time("phase", || ());
        let json = serde::json::to_string(&obs.snapshot());
        assert!(json.contains("\"counters\":{\"events\":9}"));
        assert!(json.contains("\"phase\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn fingerprint_excludes_durations() {
        let clock = Clock::simulated();
        let obs = Registry::with_clock(clock.clone());
        obs.counter("c").inc();
        obs.time("s", || clock.advance(100));
        let a = obs.snapshot().deterministic_fingerprint();

        let clock2 = Clock::simulated();
        let obs2 = Registry::with_clock(clock2.clone());
        obs2.counter("c").inc();
        obs2.time("s", || clock2.advance(999));
        let b = obs2.snapshot().deterministic_fingerprint();
        assert_eq!(a, b, "durations must not affect the fingerprint");
        assert!(a.contains("counter c = 1"));
        assert!(a.contains("span s count = 1"));
    }

    #[test]
    fn registry_is_thread_safe() {
        let obs = Registry::new();
        let counter = obs.counter("shared");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = counter.clone();
                let obs = obs.clone();
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        counter.inc();
                    }
                    obs.counter("late").inc();
                });
            }
        });
        let snap = obs.snapshot();
        assert_eq!(snap.counter("shared"), Some(4_000));
        assert_eq!(snap.counter("late"), Some(4));
    }
}
