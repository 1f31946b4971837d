//! SOC runtime metrics, built on the [`vdo_obs`] primitives.
//!
//! Everything here is updated with relaxed atomics from publisher,
//! worker, and dispatcher threads, and read out as an immutable
//! [`MetricsSnapshot`] that serialises to JSON. Counters measure load
//! (events, batches, checks, retries); the histograms capture the two
//! latency distributions the E11 experiment reports — detection latency
//! in ticks and per-batch processing time in microseconds.
//!
//! The concrete counter/histogram types live in `vdo-obs`; what remains
//! here is the SOC-specific instrument set. [`SocMetrics::disabled`]
//! wires every instrument to the no-op recorder, which is what
//! experiment E12 benchmarks against the enabled default.

use serde::Serialize;
use vdo_obs::{Counter, Gauge};

/// Live counters for one engine run. Shared by reference across the
/// publisher, the worker pool, and the remediation dispatcher.
#[derive(Debug)]
pub struct SocMetrics {
    /// Events accepted onto the bus.
    pub events_published: Counter,
    /// Events deferred at least once due to a full shard queue.
    pub events_deferred: Counter,
    /// Events consumed by workers (including follow-ups).
    pub events_processed: Counter,
    /// Shard batches executed: one per shard per tick whose queue held
    /// events.
    pub batches: Counter,
    /// Catalogue rule verdicts delivered: every rule per re-check
    /// trigger, and every rule per remediation's closing check.
    pub checks_run: Counter,
    /// Rule evaluations that actually ran to produce those verdicts
    /// (the rest came from the per-host verdict cache).
    pub rules_evaluated: Counter,
    /// High-water mark of any shard queue depth.
    pub max_queue_depth: Gauge,
    /// Remediation attempts that were retried after an injected fault.
    pub retries: Counter,
    /// Remediations abandoned to the dead-letter queue.
    pub dead_letters: Counter,
    /// Successful remediations.
    pub remediations: Counter,
    /// Detection latency in ticks (drift tick to detection tick).
    pub detection_latency: vdo_obs::Histogram,
    /// Wall-clock processing time in microseconds of each shard batch
    /// and of each shard's remediation pass.
    pub batch_micros: vdo_obs::Histogram,
}

impl SocMetrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> Self {
        SocMetrics {
            events_published: Counter::new(),
            events_deferred: Counter::new(),
            events_processed: Counter::new(),
            batches: Counter::new(),
            checks_run: Counter::new(),
            rules_evaluated: Counter::new(),
            max_queue_depth: Gauge::new(),
            retries: Counter::new(),
            dead_letters: Counter::new(),
            remediations: Counter::new(),
            detection_latency: vdo_obs::Histogram::ticks(),
            batch_micros: vdo_obs::Histogram::micros(),
        }
    }

    /// The no-op recorder: every instrument is inert, the snapshot is
    /// all zeros. Pass to
    /// [`SocEngine::run_traced`](crate::SocEngine::run_traced) to
    /// measure the engine with observability off (experiment E12).
    #[must_use]
    pub fn disabled() -> Self {
        SocMetrics {
            events_published: Counter::disabled(),
            events_deferred: Counter::disabled(),
            events_processed: Counter::disabled(),
            batches: Counter::disabled(),
            checks_run: Counter::disabled(),
            rules_evaluated: Counter::disabled(),
            max_queue_depth: Gauge::disabled(),
            retries: Counter::disabled(),
            dead_letters: Counter::disabled(),
            remediations: Counter::disabled(),
            detection_latency: vdo_obs::Histogram::disabled(),
            batch_micros: vdo_obs::Histogram::disabled(),
        }
    }

    /// `true` when the instruments record (see [`SocMetrics::disabled`]).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.events_published.is_enabled()
    }

    /// Records a shard queue depth observation.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.max_queue_depth.record_max(depth);
    }

    /// Registers every instrument into `registry` under
    /// `<prefix>.<name>`, so an engine run surfaces in a unified
    /// [`vdo_obs::Snapshot`] alongside the rest of the closed loop.
    /// Only deterministic behaviour instruments are exported:
    /// `max_queue_depth` and `batch_micros` depend on scheduling and
    /// stay engine-local so equal-seed snapshots stay identical at any
    /// worker count, and `rules_evaluated` measures the cost of the
    /// verdicts `checks_run` counts, not what the engine did, so it too
    /// stays in the engine's own snapshot.
    #[must_use]
    pub fn in_registry(registry: &vdo_obs::Registry, prefix: &str) -> Self {
        SocMetrics {
            events_published: registry.counter(&format!("{prefix}.events_published")),
            events_deferred: registry.counter(&format!("{prefix}.events_deferred")),
            events_processed: registry.counter(&format!("{prefix}.events_processed")),
            batches: registry.counter(&format!("{prefix}.batches")),
            checks_run: registry.counter(&format!("{prefix}.checks_run")),
            rules_evaluated: Counter::new(),
            max_queue_depth: Gauge::new(),
            retries: registry.counter(&format!("{prefix}.retries")),
            dead_letters: registry.counter(&format!("{prefix}.dead_letters")),
            remediations: registry.counter(&format!("{prefix}.remediations")),
            detection_latency: registry.histogram(
                &format!("{prefix}.detection_latency"),
                &vdo_obs::TICK_BOUNDS,
            ),
            batch_micros: vdo_obs::Histogram::micros(),
        }
    }

    /// Immutable copy of all counters and histograms.
    #[must_use]
    pub fn snapshot(&self, wall_secs: f64) -> MetricsSnapshot {
        let processed = self.events_processed.get();
        MetricsSnapshot {
            events_published: self.events_published.get(),
            events_deferred: self.events_deferred.get(),
            events_processed: processed,
            batches: self.batches.get(),
            steals: 0,
            checks_run: self.checks_run.get(),
            rules_evaluated: self.rules_evaluated.get(),
            max_queue_depth: self.max_queue_depth.get(),
            retries: self.retries.get(),
            dead_letters: self.dead_letters.get(),
            remediations: self.remediations.get(),
            events_per_sec: if wall_secs > 0.0 {
                processed as f64 / wall_secs
            } else {
                0.0
            },
            detection_latency: self.detection_latency.snapshot(),
            batch_micros: self.batch_micros.snapshot(),
        }
    }
}

impl Default for SocMetrics {
    fn default() -> Self {
        SocMetrics::new()
    }
}

/// Frozen metrics for one run; serialises to JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Events accepted onto the bus.
    pub events_published: u64,
    /// Events deferred at least once by backpressure.
    pub events_deferred: u64,
    /// Events consumed by workers.
    pub events_processed: u64,
    /// Shard batches executed.
    pub batches: u64,
    /// Always 0: the worker pool hands out work from one cursor and
    /// nothing is stolen. The field stays only because the perf
    /// ledger, a package outside the workspace, still reads it; it
    /// goes with the ledger's `soc.steals` row.
    pub steals: u64,
    /// Catalogue rule verdicts delivered.
    pub checks_run: u64,
    /// Rule evaluations that ran; the other verdicts came from the
    /// per-host verdict cache.
    pub rules_evaluated: u64,
    /// High-water mark of shard queue depth.
    pub max_queue_depth: u64,
    /// Remediation retries.
    pub retries: u64,
    /// Remediations dead-lettered.
    pub dead_letters: u64,
    /// Successful remediations.
    pub remediations: u64,
    /// Worker throughput over the run's wall-clock time.
    pub events_per_sec: f64,
    /// Detection latency distribution (ticks).
    pub detection_latency: vdo_obs::HistogramSnapshot,
    /// Batch processing time distribution (µs).
    pub batch_micros: vdo_obs::HistogramSnapshot,
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> serde::json::Value {
        serde::json::object([
            ("events_published", self.events_published.to_value()),
            ("events_deferred", self.events_deferred.to_value()),
            ("events_processed", self.events_processed.to_value()),
            ("batches", self.batches.to_value()),
            ("checks_run", self.checks_run.to_value()),
            ("rules_evaluated", self.rules_evaluated.to_value()),
            ("max_queue_depth", self.max_queue_depth.to_value()),
            ("retries", self.retries.to_value()),
            ("dead_letters", self.dead_letters.to_value()),
            ("remediations", self.remediations.to_value()),
            ("events_per_sec", self.events_per_sec.to_value()),
            ("detection_latency", self.detection_latency.to_value()),
            ("batch_micros", self.batch_micros.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = vdo_obs::Histogram::ticks();
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
    fn snapshot_serialises_to_json() {
        let m = SocMetrics::new();
        m.events_published.add(5);
        m.detection_latency.record(2);
        let json = serde::json::to_string(&m.snapshot(1.0));
        assert!(json.contains("\"events_published\":5"));
        assert!(json.contains("\"detection_latency\""));
    }

    #[test]
    fn queue_depth_keeps_the_high_water_mark() {
        let m = SocMetrics::new();
        m.observe_queue_depth(3);
        m.observe_queue_depth(9);
        m.observe_queue_depth(1);
        assert_eq!(m.max_queue_depth.get(), 9);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = SocMetrics::disabled();
        assert!(!m.is_enabled());
        m.events_published.add(5);
        m.observe_queue_depth(9);
        m.detection_latency.record(2);
        let s = m.snapshot(1.0);
        assert_eq!(s.events_published, 0);
        assert_eq!(s.max_queue_depth, 0);
        assert_eq!(s.detection_latency.count, 0);
    }

    #[test]
    fn registry_backed_metrics_surface_in_the_snapshot() {
        let registry = vdo_obs::Registry::new();
        let m = SocMetrics::in_registry(&registry, "soc");
        m.events_published.add(2);
        m.checks_run.add(17);
        m.detection_latency.record(0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("soc.events_published"), Some(2));
        assert_eq!(snap.counter("soc.checks_run"), Some(17));
        assert_eq!(snap.histograms["soc.detection_latency"].count, 1);
    }
}
