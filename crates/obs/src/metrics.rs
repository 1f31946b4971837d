//! Atomic metric primitives: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Every primitive is a cheap-to-clone *handle*. An enabled handle
//! points at shared atomic state (updated with relaxed ordering from
//! any thread); a disabled handle points at nothing and every operation
//! is a branch-on-`None` no-op — that is the "no-op recorder" the E12
//! experiment measures. Handles come either standalone (constructors
//! here) or registered by name in a [`Registry`](crate::Registry).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;

/// Upper bucket bounds (inclusive) for tick-valued latencies.
pub const TICK_BOUNDS: [u64; 10] = [0, 1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Upper bucket bounds (inclusive) for microsecond-valued durations.
pub const MICROS_BOUNDS: [u64; 10] = [
    10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
];

/// Upper bucket bounds (inclusive) for nanosecond-valued durations —
/// the sub-millisecond preset per-request service latency needs: the
/// [`MICROS_BOUNDS`] preset's first bucket (10µs) already swallows an
/// entire fast request, so this ladder resolves 250ns…1ms instead.
pub const NANOS_BOUNDS: [u64; 12] = [
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000,
];

/// Upper bucket bounds (inclusive) for microsecond-valued durations
/// below one millisecond — a finer companion to [`MICROS_BOUNDS`] for
/// service latencies that live in the 1µs–1ms band.
pub const FINE_MICROS_BOUNDS: [u64; 10] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000];

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A fresh enabled counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter {
            cell: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// A no-op counter: increments vanish, reads return zero.
    #[must_use]
    pub fn disabled() -> Self {
        Counter { cell: None }
    }

    pub(crate) fn from_cell(cell: Arc<AtomicU64>) -> Self {
        Counter { cell: Some(cell) }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (zero when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// `true` when increments are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }
}

/// A last-value / high-water-mark gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A fresh enabled gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge {
            cell: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// A no-op gauge: writes vanish, reads return zero.
    #[must_use]
    pub fn disabled() -> Self {
        Gauge { cell: None }
    }

    pub(crate) fn from_cell(cell: Arc<AtomicU64>) -> Self {
        Gauge { cell: Some(cell) }
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the value to `v` if larger (high-water mark).
    pub fn record_max(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (zero when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A representative observation attached to a histogram bucket: the
/// value plus the trace id of the causal chain that produced it, so a
/// tail-latency spike links directly to a replayable trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed value.
    pub value: u64,
    /// Trace id of the observation's causal chain.
    pub trace_id: u64,
}

/// Shared histogram state behind enabled handles.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// One optional exemplar slot per bucket, kept as the
    /// lexicographic maximum of `(value, trace_id)` so the retained
    /// representative is order-independent — equal observation
    /// multisets yield equal exemplars at any thread interleaving.
    exemplars: Mutex<Vec<Option<Exemplar>>>,
}

impl HistogramCore {
    pub(crate) fn with_bounds(bounds: &'static [u64]) -> Self {
        HistogramCore {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplars: Mutex::new(vec![None; bounds.len() + 1]),
        }
    }

    fn bucket_of(&self, value: u64) -> usize {
        self.bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len())
    }

    fn record(&self, value: u64) {
        let idx = self.bucket_of(value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn record_traced(&self, value: u64, trace_id: u64) {
        self.record(value);
        let idx = self.bucket_of(value);
        let mut slots = self.exemplars.lock().expect("exemplar slots poisoned");
        let candidate = Exemplar { value, trace_id };
        let keep = match slots[idx] {
            Some(cur) => (candidate.value, candidate.trace_id) > (cur.value, cur.trace_id),
            None => true,
        };
        if keep {
            slots[idx] = Some(candidate);
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            exemplars: self
                .exemplars
                .lock()
                .expect("exemplar slots poisoned")
                .clone(),
        }
    }
}

/// A fixed-bucket histogram with atomic buckets. Values above the last
/// bound land in the overflow bucket.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A histogram over caller-chosen inclusive upper bounds.
    #[must_use]
    pub fn with_bounds(bounds: &'static [u64]) -> Self {
        Histogram {
            core: Some(Arc::new(HistogramCore::with_bounds(bounds))),
        }
    }

    /// A histogram bucketed for tick-valued latencies (0..=256+).
    #[must_use]
    pub fn ticks() -> Self {
        Histogram::with_bounds(&TICK_BOUNDS)
    }

    /// A histogram bucketed for microsecond durations (10µs..=500ms+).
    #[must_use]
    pub fn micros() -> Self {
        Histogram::with_bounds(&MICROS_BOUNDS)
    }

    /// A histogram bucketed for sub-millisecond nanosecond durations
    /// (250ns..=1ms+) — per-request service latency resolution.
    #[must_use]
    pub fn nanos() -> Self {
        Histogram::with_bounds(&NANOS_BOUNDS)
    }

    /// A histogram bucketed for sub-millisecond microsecond durations
    /// (1µs..=1ms+).
    #[must_use]
    pub fn fine_micros() -> Self {
        Histogram::with_bounds(&FINE_MICROS_BOUNDS)
    }

    /// A no-op histogram: observations vanish, the snapshot is empty.
    #[must_use]
    pub fn disabled() -> Self {
        Histogram { core: None }
    }

    pub(crate) fn from_core(core: Arc<HistogramCore>) -> Self {
        Histogram { core: Some(core) }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.core {
            core.record(value);
        }
    }

    /// Records one observation carrying the trace id of its causal
    /// chain; the bucket's exemplar slot retains the largest
    /// `(value, trace_id)` seen, so dashboards can jump from a
    /// latency spike straight to the trace that caused it.
    pub fn record_traced(&self, value: u64, trace_id: u64) {
        if let Some(core) = &self.core {
            core.record_traced(value, trace_id);
        }
    }

    /// Immutable copy of the current state (all-empty when disabled).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.core {
            Some(core) => core.snapshot(),
            None => HistogramSnapshot {
                bounds: Vec::new(),
                counts: Vec::new(),
                count: 0,
                sum: 0,
                max: 0,
                exemplars: Vec::new(),
            },
        }
    }

    /// `true` when observations are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }
}

/// Frozen histogram state. `counts` has one more entry than `bounds`
/// (the overflow bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds per bucket.
    pub bounds: Vec<u64>,
    /// Observations per bucket (last entry = overflow).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Optional representative observation per bucket (empty when the
    /// histogram never saw a traced observation; see
    /// [`Histogram::record_traced`]).
    pub exemplars: Vec<Option<Exemplar>>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) estimated by linear interpolation
    /// inside the bucket holding the target rank — the same estimator
    /// Prometheus's `histogram_quantile` uses, so `quantile(0.95)` is
    /// the p95 a dashboard would report. Values in the overflow bucket
    /// interpolate between the last bound and the observed maximum.
    /// Returns `None` for an empty histogram; `q` is clamped.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0.0_f64;
        let mut lower = 0u64;
        for (i, &bound) in self.bounds.iter().enumerate() {
            let n = self.counts[i] as f64;
            if n > 0.0 && cumulative + n >= target {
                let within = ((target - cumulative) / n).clamp(0.0, 1.0);
                return Some(lower as f64 + (bound - lower) as f64 * within);
            }
            cumulative += n;
            lower = bound;
        }
        let overflow = *self.counts.last()? as f64;
        if overflow > 0.0 {
            let within = ((target - cumulative) / overflow).clamp(0.0, 1.0);
            let upper = self.max.max(lower);
            Some(lower as f64 + (upper - lower) as f64 * within)
        } else {
            Some(self.max as f64)
        }
    }
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> serde::json::Value {
        let exemplars: Vec<serde::json::Value> = self
            .exemplars
            .iter()
            .enumerate()
            .filter_map(|(bucket, slot)| {
                slot.map(|e| {
                    serde::json::object([
                        ("bucket", (bucket as u64).to_value()),
                        ("value", e.value.to_value()),
                        ("trace_id", e.trace_id.to_value()),
                    ])
                })
            })
            .collect();
        serde::json::object([
            ("bounds", self.bounds.to_value()),
            ("counts", self.counts.to_value()),
            ("count", self.count.to_value()),
            ("sum", self.sum.to_value()),
            ("max", self.max.to_value()),
            ("mean", self.mean().to_value()),
            ("exemplars", exemplars.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::ticks();
        h.record(0);
        h.record(3);
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.counts[0], 1, "0 lands in the first bucket");
        assert_eq!(s.counts[3], 1, "3 lands in the <=4 bucket");
        assert_eq!(*s.counts.last().unwrap(), 1, "overflow bucket");
        assert_eq!(s.max, 1_000_000);
        assert!((s.mean() - (1_000_003.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn sub_millisecond_presets_resolve_fast_requests() {
        // Every preset ladder must be strictly increasing (the bucket
        // search relies on it) and top out at or below 1ms.
        for bounds in [&NANOS_BOUNDS[..], &FINE_MICROS_BOUNDS[..]] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        }
        assert_eq!(*NANOS_BOUNDS.last().unwrap(), 1_000_000, "1ms in ns");
        assert_eq!(*FINE_MICROS_BOUNDS.last().unwrap(), 1_000, "1ms in µs");

        // A 3µs request is indistinguishable from a 9µs one under the
        // coarse preset (both land in the first <=10µs bucket)…
        let coarse = Histogram::micros();
        coarse.record(3);
        coarse.record(9);
        let s = coarse.snapshot();
        assert_eq!(s.counts[0], 2, "coarse preset merges sub-10µs values");

        // …but the sub-millisecond presets separate them.
        let fine = Histogram::fine_micros();
        fine.record(3);
        fine.record(9);
        let s = fine.snapshot();
        assert_eq!(s.counts[2], 1, "3µs lands in the <=5µs bucket");
        assert_eq!(s.counts[3], 1, "9µs lands in the <=10µs bucket");

        let nanos = Histogram::nanos();
        nanos.record(400); // 400ns
        nanos.record(90_000); // 90µs
        nanos.record(2_000_000); // 2ms -> overflow
        let s = nanos.snapshot();
        assert_eq!(s.counts[1], 1, "400ns lands in the <=500ns bucket");
        assert_eq!(s.counts[8], 1, "90µs lands in the <=100µs bucket");
        assert_eq!(*s.counts.last().unwrap(), 1, ">1ms overflows");
        // Quantiles stay sub-bucket-accurate at this resolution.
        let p50 = s.quantile(0.5).unwrap();
        assert!(p50 < 100_000.0, "median must stay sub-0.1ms: {p50}");
    }

    #[test]
    fn disabled_primitives_are_inert() {
        let c = Counter::disabled();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(!c.is_enabled());
        let g = Gauge::disabled();
        g.set(5);
        g.record_max(9);
        assert_eq!(g.get(), 0);
        let h = Histogram::disabled();
        h.record(42);
        assert_eq!(h.snapshot().count, 0);
        assert!(h.snapshot().bounds.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let c = Counter::new();
        let c2 = c.clone();
        c.add(3);
        c2.add(4);
        assert_eq!(c.get(), 7);
        let g = Gauge::new();
        g.record_max(3);
        g.record_max(9);
        g.record_max(1);
        assert_eq!(g.get(), 9);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn quantile_matches_known_uniform_distribution() {
        static DECADES: [u64; 10] = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        let h = Histogram::with_bounds(&DECADES);
        for v in 1..=100 {
            h.record(v);
        }
        let s = h.snapshot();
        // Uniform 1..=100: the q-quantile is 100q under linear
        // interpolation.
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.95), Some(95.0));
        assert_eq!(s.quantile(0.1), Some(10.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(0.0), "q=0 is the bucket floor");
        assert_eq!(s.quantile(2.0), Some(100.0), "q clamps high");
    }

    #[test]
    fn quantile_interpolates_overflow_against_max() {
        let h = Histogram::ticks();
        h.record(1);
        h.record(1_000);
        let s = h.snapshot();
        // p100 reaches the overflow bucket, bounded by the observed max.
        assert_eq!(s.quantile(1.0), Some(1_000.0));
        let p75 = s.quantile(0.75).unwrap();
        assert!(p75 > 256.0 && p75 <= 1_000.0, "{p75}");
    }

    #[test]
    fn quantile_of_empty_or_skewed_histograms() {
        let h = Histogram::ticks();
        assert_eq!(h.snapshot().quantile(0.5), None);
        for _ in 0..100 {
            h.record(0);
        }
        assert_eq!(h.snapshot().quantile(0.99), Some(0.0), "all-zero mass");
    }

    #[test]
    fn exemplars_link_buckets_to_traces_deterministically() {
        let h = Histogram::ticks();
        h.record(3); // untraced: no exemplar
        h.record_traced(4, 0xAAAA);
        h.record_traced(3, 0xBBBB); // same bucket (<=4), smaller value loses
        h.record_traced(500, 0x1111); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        let in_bucket = s.exemplars[3].unwrap();
        assert_eq!(
            in_bucket,
            Exemplar {
                value: 4,
                trace_id: 0xAAAA
            },
            "bucket keeps the lexicographically largest (value, trace)"
        );
        assert_eq!(s.exemplars.last().unwrap().unwrap().trace_id, 0x1111);
        assert_eq!(s.exemplars[0], None, "untouched buckets stay empty");

        // Order independence: reversed feed retains the same exemplar.
        let h2 = Histogram::ticks();
        h2.record_traced(3, 0xBBBB);
        h2.record_traced(4, 0xAAAA);
        assert_eq!(h2.snapshot().exemplars[3], s.exemplars[3]);

        // Ties on value resolve by trace id.
        let h3 = Histogram::ticks();
        h3.record_traced(4, 1);
        h3.record_traced(4, 9);
        h3.record_traced(4, 5);
        assert_eq!(h3.snapshot().exemplars[3].unwrap().trace_id, 9);

        // Disabled histograms stay inert.
        let d = Histogram::disabled();
        d.record_traced(4, 7);
        assert!(d.snapshot().exemplars.is_empty());
    }

    #[test]
    fn histogram_snapshot_serialises() {
        let h = Histogram::micros();
        h.record(30);
        let json = serde::json::to_string(&h.snapshot());
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"mean\":30"));
    }
}
