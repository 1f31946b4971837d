//! Resident streaming SLO evaluation — the live half of the
//! telemetry plane.
//!
//! A [`BurnRateRule`] states an objective as an allowed bad-event
//! fraction (the error budget). [`LiveSloEngine`] evaluates each rule
//! over two trailing windows and fires when **both** burn budget faster
//! than `factor` (the Google SRE multi-window discipline: the long
//! window proves the problem is real, the short window proves it is
//! still happening). Alerts fire on the breach transition, are built as
//! journal [`Event`]s with a deterministic [`TraceContext`] into a
//! buffer the caller passes (the caller decides when they reach its
//! [`crate::Journal`]), and are returned to the caller, which can
//! publish them onto the SOC bus to close observability back into
//! reaction.
//!
//! The engine is fed per event into [`vdo_obs::WindowCounter`] /
//! [`vdo_obs::WindowHistogram`] rings — O(1) per observation,
//! O(window) per rule per evaluation, no snapshots anywhere.
//!
//! A latency SLO ("p95 detection latency under N ticks") is a burn
//! rate too: [`SloSignal::HistogramAbove`] treats every observation
//! above the threshold as a bad event, so `objective = 0.05` *is* the
//! p95 target.
//!
//! Feed pattern, once per engine tick on the main thread:
//!
//! ```
//! use vdo_trace::{BurnRateRule, Journal, LiveSloEngine, SloSignal};
//!
//! let rules = vec![BurnRateRule {
//!     name: "dead-letters".into(),
//!     signal: SloSignal::CounterRatio {
//!         bad: "soc.dead_letters".into(),
//!         total: "soc.remediations".into(),
//!     },
//!     objective: 0.05,
//!     long_window: 20,
//!     short_window: 5,
//!     factor: 2.0,
//! }];
//! let journal = Journal::new();
//! let mut live = LiveSloEngine::new(7, rules);
//! let mut fired = Vec::new();
//! for tick in 0..50 {
//!     live.incr("soc.remediations", tick, 10);
//!     live.incr("soc.dead_letters", tick, if tick > 30 { 3 } else { 0 });
//!     let mut events = Vec::new();
//!     fired.extend(live.end_tick(tick, &mut events));
//!     for event in events {
//!         journal.emit(event);
//!     }
//! }
//! assert_eq!(fired.len(), 1, "sustained burn fires exactly once");
//! assert!(!live.firing().is_empty());
//! assert_eq!(journal.snapshot().events_named("slo.alert").len(), 1);
//! ```

use std::collections::{BTreeMap, BTreeSet};

use vdo_obs::{Ewma, WindowCounter, WindowHistogram, TICK_BOUNDS};

use crate::context::TraceContext;
use crate::journal::Event;

/// What a rule counts as bad events within a window.
#[derive(Debug, Clone, PartialEq)]
pub enum SloSignal {
    /// Bad fraction = `bad / total` over two counters (e.g. rejected
    /// vs processed commits, dead letters vs remediations).
    CounterRatio {
        /// Counter of bad events.
        bad: String,
        /// Counter of all events.
        total: String,
    },
    /// Bad fraction = share of histogram observations above
    /// `threshold` (bucket-interpolated) — the latency-SLO shape.
    HistogramAbove {
        /// Histogram name.
        histogram: String,
        /// Inclusive good/bad boundary.
        threshold: u64,
    },
}

/// One multi-window burn-rate rule.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRateRule {
    /// Stable rule name (alert identity).
    pub name: String,
    /// The bad-event signal.
    pub signal: SloSignal,
    /// Allowed bad fraction (the error budget), clamped to a positive
    /// floor at evaluation.
    pub objective: f64,
    /// Long trailing window, in the caller's logical time units.
    pub long_window: u64,
    /// Short trailing window (recency check).
    pub short_window: u64,
    /// Burn-rate threshold: fire when both windows consume budget at
    /// `>= factor ×` the sustainable rate.
    pub factor: f64,
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// The rule that fired.
    pub rule: String,
    /// Logical time of the firing observation.
    pub at: u64,
    /// Burn rate over the long window.
    pub long_burn: f64,
    /// Burn rate over the short window.
    pub short_burn: f64,
    /// Causal context of the alert (root derived from the engine seed
    /// and rule name).
    pub trace: TraceContext,
}

/// Smoothing factor of the per-rule burn-trend EWMA.
const BURN_EWMA_ALPHA: f64 = 0.3;

/// The streaming burn-rate evaluator: pre-registered window rings for
/// every signal a rule references, fed per event, evaluated per tick.
#[derive(Debug)]
pub struct LiveSloEngine {
    rules: Vec<BurnRateRule>,
    seed: u64,
    counters: BTreeMap<String, WindowCounter>,
    histograms: BTreeMap<String, WindowHistogram>,
    firing: BTreeSet<String>,
    /// Smoothed long-window burn per rule — a trend readout for
    /// dashboards, not part of the alert decision.
    burn_trend: BTreeMap<String, Ewma>,
    /// `Some(first_tick)` once [`end_tick`](LiveSloEngine::end_tick)
    /// has run — the first call only seeds the windows.
    started: Option<u64>,
}

impl LiveSloEngine {
    /// Builds the evaluator, sizing one window ring per referenced
    /// signal to the rules' longest window. Histogram signals are
    /// bucketed on the tick ladder ([`TICK_BOUNDS`]), matching every
    /// latency rule in the workspace.
    #[must_use]
    pub fn new(seed: u64, rules: Vec<BurnRateRule>) -> Self {
        let horizon = rules
            .iter()
            .map(|r| r.long_window.max(r.short_window))
            .max()
            .unwrap_or(1)
            .max(1) as usize;
        let mut counters = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        let mut burn_trend = BTreeMap::new();
        for rule in &rules {
            match &rule.signal {
                SloSignal::CounterRatio { bad, total } => {
                    counters
                        .entry(bad.clone())
                        .or_insert_with(|| WindowCounter::new(horizon));
                    counters
                        .entry(total.clone())
                        .or_insert_with(|| WindowCounter::new(horizon));
                }
                SloSignal::HistogramAbove { histogram, .. } => {
                    histograms
                        .entry(histogram.clone())
                        .or_insert_with(|| WindowHistogram::new(&TICK_BOUNDS, horizon));
                }
            }
            burn_trend.insert(rule.name.clone(), Ewma::new(BURN_EWMA_ALPHA));
        }
        LiveSloEngine {
            rules,
            seed,
            counters,
            histograms,
            firing: BTreeSet::new(),
            burn_trend,
            started: None,
        }
    }

    /// The configured rules.
    #[must_use]
    pub fn rules(&self) -> &[BurnRateRule] {
        &self.rules
    }

    /// Rules currently in breach.
    #[must_use]
    pub fn firing(&self) -> Vec<&str> {
        self.firing.iter().map(String::as_str).collect()
    }

    /// Smoothed long-window burn rate of `rule` (`None` for unknown
    /// rules or before the first evaluation).
    #[must_use]
    pub fn burn_trend(&self, rule: &str) -> Option<f64> {
        self.burn_trend.get(rule).and_then(Ewma::value)
    }

    /// Adds `n` to counter signal `name` at `tick`. Names no rule
    /// references are ignored — call sites feed unconditionally.
    pub fn incr(&mut self, name: &str, tick: u64, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            c.incr(tick, n);
        }
    }

    /// Records one observation into histogram signal `name` at
    /// `tick`. Unreferenced names are ignored.
    pub fn observe_value(&mut self, name: &str, tick: u64, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(tick, value);
        }
    }

    fn bad_fraction(&self, rule: &BurnRateRule, now: u64, window: u64) -> f64 {
        match &rule.signal {
            SloSignal::CounterRatio { bad, total } => {
                let total = self.counters.get(total).map_or(0, |c| c.sum(now, window));
                if total == 0 {
                    0.0
                } else {
                    let bad = self.counters.get(bad).map_or(0, |c| c.sum(now, window));
                    bad as f64 / total as f64
                }
            }
            SloSignal::HistogramAbove {
                histogram,
                threshold,
            } => self
                .histograms
                .get(histogram)
                .map_or(0.0, |h| h.fraction_above(now, window, *threshold)),
        }
    }

    /// Evaluates every rule at the end of `tick`. A rule whose
    /// long **and** short windows burn at `>= factor` transitions into
    /// breach, producing one [`SloAlert`] mirrored into `events` as an
    /// `slo.alert` error event; leaving breach appends `slo.resolved`.
    /// Events are appended in rule order; journalling them is the
    /// caller's. The first call only seeds the windows.
    pub fn end_tick(&mut self, tick: u64, events: &mut Vec<Event>) -> Vec<SloAlert> {
        let mut alerts = Vec::new();
        if self.started.is_none() {
            self.started = Some(tick);
            return alerts;
        }
        for rule in &self.rules {
            let objective = rule.objective.max(1e-9);
            let long_burn = self.bad_fraction(rule, tick, rule.long_window) / objective;
            let short_burn = self.bad_fraction(rule, tick, rule.short_window) / objective;
            if let Some(trend) = self.burn_trend.get_mut(&rule.name) {
                trend.observe(long_burn);
            }
            let breached = long_burn >= rule.factor && short_burn >= rule.factor;
            let was_firing = self.firing.contains(&rule.name);
            if breached && !was_firing {
                self.firing.insert(rule.name.clone());
                let root = TraceContext::root(self.seed, &format!("slo:{}", rule.name));
                let trace = root.child_u64("alert", tick);
                events.push(
                    Event::error("slo.alert")
                        .at(tick)
                        .trace(trace)
                        .field("rule", rule.name.clone())
                        .field("long_burn", long_burn)
                        .field("short_burn", short_burn)
                        .field("factor", rule.factor),
                );
                alerts.push(SloAlert {
                    rule: rule.name.clone(),
                    at: tick,
                    long_burn,
                    short_burn,
                    trace,
                });
            } else if !breached && was_firing {
                self.firing.remove(&rule.name);
                let root = TraceContext::root(self.seed, &format!("slo:{}", rule.name));
                events.push(
                    Event::info("slo.resolved")
                        .at(tick)
                        .trace(root.child_u64("resolved", tick))
                        .field("rule", rule.name.clone()),
                );
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate_rule() -> BurnRateRule {
        BurnRateRule {
            name: "gate-pass-rate".into(),
            signal: SloSignal::CounterRatio {
                bad: "rejected".into(),
                total: "commits".into(),
            },
            objective: 0.1,
            long_window: 10,
            short_window: 2,
            factor: 2.0,
        }
    }

    fn latency_rule() -> BurnRateRule {
        BurnRateRule {
            name: "detect-p95".into(),
            signal: SloSignal::HistogramAbove {
                histogram: "latency".into(),
                threshold: 8,
            },
            objective: 0.05,
            long_window: 16,
            short_window: 4,
            factor: 2.0,
        }
    }

    #[test]
    fn latency_slo_is_a_histogram_above_rule() {
        let rule = latency_rule();
        let mut live = LiveSloEngine::new(0, vec![rule.clone()]);
        // 90 fast detections and 10 past the 8-tick threshold.
        for i in 0..100 {
            live.observe_value("latency", 3, if i < 90 { 2 } else { 20 });
        }
        assert!((live.bad_fraction(&rule, 3, rule.long_window) - 0.10).abs() < 1e-9);
        // A window that ends before them sees none.
        assert_eq!(live.bad_fraction(&rule, 2, rule.short_window), 0.0);
    }

    #[test]
    fn healthy_stream_never_alerts() {
        let mut events = Vec::new();
        let mut live = LiveSloEngine::new(0, vec![gate_rule()]);
        for t in 0..30 {
            live.incr("commits", t, 20);
            live.incr("rejected", t, 1); // 5% — half the budget
            assert!(live.end_tick(t, &mut events).is_empty(), "t={t}");
        }
        assert!(live.firing().is_empty());
        assert!(events.is_empty());
    }

    #[test]
    fn sustained_burn_fires_once_then_resolves() {
        let mut events = Vec::new();
        let mut live = LiveSloEngine::new(7, vec![gate_rule()]);
        let mut fired = 0;
        for t in 0..60 {
            live.incr("commits", t, 20);
            // 50% rejection during the burn window (5× the budget).
            live.incr("rejected", t, if (20..30).contains(&t) { 10 } else { 1 });
            let alerts = live.end_tick(t, &mut events);
            fired += alerts.len();
            for a in &alerts {
                assert!(a.long_burn >= 2.0 && a.short_burn >= 2.0);
                assert_eq!(a.rule, "gate-pass-rate");
                assert!((20..32).contains(&a.at), "fires inside the burn: {}", a.at);
            }
        }
        assert_eq!(fired, 1, "alerts fire on the breach transition only");
        assert!(live.firing().is_empty(), "resolved after the burn drains");
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["slo.alert", "slo.resolved"], "in firing order");
        assert!(events[0].trace.is_some());
        assert!(live.burn_trend("gate-pass-rate").is_some());
    }

    #[test]
    fn latency_rules_run_on_window_histograms() {
        let mut events = Vec::new();
        let mut live = LiveSloEngine::new(3, vec![latency_rule()]);
        let mut fired = 0;
        for t in 0..40 {
            for _ in 0..10 {
                live.observe_value("latency", t, 2);
            }
            if (15..25).contains(&t) {
                // 30% of this tick's observations are slow (>8 ticks).
                for _ in 0..4 {
                    live.observe_value("latency", t, 40);
                }
            }
            fired += live.end_tick(t, &mut events).len();
        }
        assert_eq!(fired, 1, "latency burn fires exactly once");
    }

    #[test]
    fn alerts_are_deterministic_per_seed_and_match_slo_event_shape() {
        let run = || {
            let mut events = Vec::new();
            let mut live = LiveSloEngine::new(3, vec![gate_rule()]);
            let mut out = Vec::new();
            for t in 0..10 {
                live.incr("commits", t, 10);
                live.incr("rejected", t, 5);
                out.extend(live.end_tick(t, &mut events));
            }
            (out, events)
        };
        let (a, events_a) = run();
        let (b, events_b) = run();
        assert_eq!(a, b);
        assert_eq!(events_a, events_b);
        assert!(!a.is_empty(), "50% rejection must breach");
        // Alert traces are minted from the seed and rule name alone.
        let expected = TraceContext::root(3, "slo:gate-pass-rate").child_u64("alert", a[0].at);
        assert_eq!(a[0].trace, expected);
    }

    #[test]
    fn unreferenced_names_and_zero_totals_are_quiet() {
        let mut events = Vec::new();
        let mut live = LiveSloEngine::new(0, vec![gate_rule()]);
        live.incr("unknown.counter", 0, 99);
        live.observe_value("unknown.histogram", 0, 99);
        assert!(live.end_tick(0, &mut events).is_empty());
        assert!(live.end_tick(1, &mut events).is_empty());
        assert!(events.is_empty());
        assert!(live.burn_trend("nope").is_none());
    }
}
