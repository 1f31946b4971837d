//! Adaptive tail-based trace sampling as a [`JournalSink`] decorator.
//!
//! At fleet scale the full-fidelity journal is the bottleneck: the
//! Debug-level telemetry firehose dwarfs the security-relevant stream
//! by orders of magnitude. [`SamplingSink`] wraps any inner sink
//! (typically the columnar [`DirWriter`](crate::colfmt::DirWriter))
//! and forwards a *sampled* stream with three guarantees the rest of
//! the workspace depends on:
//!
//! 1. **Anomalies survive whole.** Every event at or above
//!    [`SamplingPolicy::promote_at`] (default `Warn`) is kept
//!    unconditionally, and the moment a trace turns anomalous —
//!    severity promotion or a slow observation above
//!    [`SamplingPolicy::slow_threshold`] — its buffered low-severity
//!    events are flushed and the trace is kept from then on. The
//!    verdict log (`Warn`+) of a sampled journal is therefore
//!    byte-identical to the unsampled run's.
//! 2. **Roots always resolve.** Root-span events (the
//!    `requirement.ingested` anchors that incident resolution walks
//!    back to) are always kept, so 100% of incident chains still
//!    resolve to their requirement root in the sampled journal.
//! 3. **Decisions are deterministic.** Keep/drop is a pure function
//!    of the accepted `(seq, event)` stream — head decisions hash the
//!    trace id against the policy seed, and the stream itself is
//!    emitted from the engine's main thread — so equal-seed runs
//!    sample identically at any worker count, and a sampled journal
//!    still replays.
//!
//! Buffering is bounded: an undecided trace is held at most
//! [`SamplingPolicy::decide_after`] ticks from its first event, then
//! head-sampled (keep 1 in [`SamplingPolicy::keep_1_in`]). A trace
//! that turns anomalous *after* its head decision dropped it keeps
//! its root and everything from the anomaly onward — the standard
//! tail-sampling memory/completeness trade, made explicit here.
//!
//! Because the columnar writer requires strictly increasing seqs, the
//! sink forwards a kept event only once every smaller seq has been
//! decided (a watermark over the pending buffer); order is preserved
//! exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vdo_obs::hash::mix64;

use crate::journal::{Event, FieldValue, JournalSink, Severity};

/// When and how [`SamplingSink`] keeps or drops trace data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingPolicy {
    /// Head-sampling rate for traces that never turn anomalous: one
    /// trace in `keep_1_in` is kept whole (clamped to ≥ 1; 1 keeps
    /// everything).
    pub keep_1_in: u64,
    /// Seed of the head-decision hash. Decisions are a pure function
    /// of `(seed, trace_id)`, so equal seeds sample identically.
    pub seed: u64,
    /// Severity at which an event unconditionally survives and
    /// promotes its whole trace to kept.
    pub promote_at: Severity,
    /// When set, an event whose `slow_field` (u64) exceeds this value
    /// promotes its trace — the "p99-slow" hook.
    pub slow_threshold: Option<u64>,
    /// Field name consulted by `slow_threshold`.
    pub slow_field: &'static str,
    /// Ticks after a trace's *first* event at which its head decision
    /// finalizes — the buffering bound.
    pub decide_after: u64,
    /// Keep every root-span event regardless of trace decision, so
    /// incident chains always resolve to their requirement root.
    pub keep_roots: bool,
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy {
            keep_1_in: 16,
            seed: 0,
            promote_at: Severity::Warn,
            slow_threshold: None,
            slow_field: "latency",
            decide_after: 8,
            keep_roots: true,
        }
    }
}

impl SamplingPolicy {
    /// The deterministic head decision for `trace_id`: keep one trace
    /// in `keep_1_in`.
    #[must_use]
    pub fn head_keeps(&self, trace_id: u64) -> bool {
        let rate = self.keep_1_in.max(1);
        mix64(self.seed ^ trace_id).is_multiple_of(rate)
    }
}

/// Counters shared between a [`SamplingSink`] (moved into the journal)
/// and its creator, updated as decisions are made.
#[derive(Debug, Clone, Default)]
pub struct SamplingStats {
    inner: Arc<SamplingStatsInner>,
}

#[derive(Debug, Default)]
struct SamplingStatsInner {
    seen: AtomicU64,
    kept: AtomicU64,
    dropped: AtomicU64,
    promoted: AtomicU64,
}

impl SamplingStats {
    /// Events offered to the sink.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.inner.seen.load(Ordering::Relaxed)
    }

    /// Events forwarded to the inner sink.
    #[must_use]
    pub fn kept(&self) -> u64 {
        self.inner.kept.load(Ordering::Relaxed)
    }

    /// Events discarded.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Traces promoted to kept by an anomaly (severity or slowness).
    #[must_use]
    pub fn promoted(&self) -> u64 {
        self.inner.promoted.load(Ordering::Relaxed)
    }
}

/// Per-trace sampling state.
#[derive(Debug)]
enum TraceState {
    /// Undecided: events buffered, decision pending.
    Pending {
        /// Tick of the trace's first event (deadline anchor).
        first_at: u64,
        /// Seqs currently buffered for this trace.
        seqs: Vec<u64>,
    },
    /// Sticky keep — every further event forwards.
    Kept,
    /// Head-dropped — further low-severity events drop, but a later
    /// anomaly still flips the trace to [`TraceState::Kept`].
    Dropped,
}

/// The adaptive tail-sampling decorator. See the module docs for the
/// guarantees; construct with [`SamplingSink::new`], grab a
/// [`stats`](SamplingSink::stats) handle, then hand the sink to
/// [`Journal::with_sink`](crate::Journal::with_sink).
#[derive(Debug)]
pub struct SamplingSink<S: JournalSink> {
    inner: S,
    policy: SamplingPolicy,
    /// Undecided events by seq (all traces interleaved).
    pending: BTreeMap<u64, Event>,
    /// Decided-keep events not yet forwarded (waiting on the
    /// watermark so the inner sink sees strictly increasing seqs).
    ready: BTreeMap<u64, Event>,
    traces: BTreeMap<u64, TraceState>,
    stats: SamplingStats,
}

impl<S: JournalSink> SamplingSink<S> {
    /// Wraps `inner` under `policy`.
    #[must_use]
    pub fn new(inner: S, policy: SamplingPolicy) -> Self {
        SamplingSink {
            inner,
            policy,
            pending: BTreeMap::new(),
            ready: BTreeMap::new(),
            traces: BTreeMap::new(),
            stats: SamplingStats::default(),
        }
    }

    /// A cloneable handle onto the decision counters.
    #[must_use]
    pub fn stats(&self) -> SamplingStats {
        self.stats.clone()
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> &SamplingPolicy {
        &self.policy
    }

    fn is_anomalous(&self, event: &Event) -> bool {
        if event.severity >= self.policy.promote_at {
            return true;
        }
        if let Some(limit) = self.policy.slow_threshold {
            for (key, value) in &event.fields {
                if *key == self.policy.slow_field {
                    if let FieldValue::U64(v) = value {
                        return *v > limit;
                    }
                }
            }
        }
        false
    }

    /// Applies the head decision to a pending trace, moving its
    /// buffer to `ready` or discarding it.
    fn finalize(&mut self, trace_id: u64) {
        let Some(TraceState::Pending { seqs, .. }) = self.traces.get_mut(&trace_id) else {
            return;
        };
        let seqs = std::mem::take(seqs);
        let keep = self.policy.head_keeps(trace_id);
        self.traces.insert(
            trace_id,
            if keep {
                TraceState::Kept
            } else {
                TraceState::Dropped
            },
        );
        for seq in seqs {
            if let Some(event) = self.pending.remove(&seq) {
                if keep {
                    self.ready.insert(seq, event);
                } else {
                    self.stats.inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Finalizes every pending trace whose deadline has passed at
    /// logical time `now`.
    fn sweep(&mut self, now: u64) {
        let due: Vec<u64> = self
            .traces
            .iter()
            .filter_map(|(id, st)| match st {
                TraceState::Pending { first_at, .. }
                    if first_at.saturating_add(self.policy.decide_after) <= now =>
                {
                    Some(*id)
                }
                _ => None,
            })
            .collect();
        for id in due {
            self.finalize(id);
        }
    }

    /// Promotes a trace to sticky-kept, flushing its buffer.
    fn promote(&mut self, trace_id: u64) {
        match self.traces.get(&trace_id) {
            Some(TraceState::Kept) => return,
            Some(TraceState::Pending { .. }) => {
                if let Some(TraceState::Pending { seqs, .. }) = self.traces.get_mut(&trace_id) {
                    let seqs = std::mem::take(seqs);
                    for seq in seqs {
                        if let Some(event) = self.pending.remove(&seq) {
                            self.ready.insert(seq, event);
                        }
                    }
                }
            }
            Some(TraceState::Dropped) | None => {}
        }
        self.traces.insert(trace_id, TraceState::Kept);
        self.stats.inner.promoted.fetch_add(1, Ordering::Relaxed);
    }

    /// Forwards every ready event below the pending watermark, in seq
    /// order — the inner sink's strictly-increasing contract.
    fn drain(&mut self) {
        let watermark = self.pending.keys().next().copied().unwrap_or(u64::MAX);
        while let Some((&seq, _)) = self.ready.first_key_value() {
            if seq >= watermark {
                break;
            }
            let event = self.ready.remove(&seq).expect("seq just observed");
            self.inner.record(seq, &event);
            self.stats.inner.kept.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decides every still-pending trace and flushes the buffers —
    /// called from [`flush`](JournalSink::flush) (i.e. on
    /// [`Journal::sync`](crate::Journal::sync) and journal drop).
    fn finalize_all(&mut self) {
        let ids: Vec<u64> = self.traces.keys().copied().collect();
        for id in ids {
            self.finalize(id);
        }
        self.drain();
        debug_assert!(self.pending.is_empty() && self.ready.is_empty());
    }
}

impl<S: JournalSink> JournalSink for SamplingSink<S> {
    fn record(&mut self, seq: u64, event: &Event) {
        self.stats.inner.seen.fetch_add(1, Ordering::Relaxed);
        self.sweep(event.at);
        let anomalous = self.is_anomalous(event);
        match event.trace {
            None => {
                // Untraced events bypass per-trace sampling entirely.
                self.ready.insert(seq, event.clone());
            }
            Some(ctx) => {
                let trace_id = ctx.trace_id.0;
                if anomalous {
                    self.promote(trace_id);
                }
                match self.traces.get_mut(&trace_id) {
                    Some(TraceState::Kept) => {
                        self.ready.insert(seq, event.clone());
                    }
                    Some(TraceState::Dropped) => {
                        if self.policy.keep_roots && ctx.is_root() {
                            self.ready.insert(seq, event.clone());
                        } else {
                            self.stats.inner.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Some(TraceState::Pending { seqs, .. }) => {
                        if self.policy.keep_roots && ctx.is_root() {
                            // Roots are kept outright; they never ride
                            // on the trace's head decision.
                            self.ready.insert(seq, event.clone());
                        } else {
                            seqs.push(seq);
                            self.pending.insert(seq, event.clone());
                        }
                    }
                    None => {
                        if self.policy.keep_roots && ctx.is_root() {
                            self.traces.insert(
                                trace_id,
                                TraceState::Pending {
                                    first_at: event.at,
                                    seqs: Vec::new(),
                                },
                            );
                            self.ready.insert(seq, event.clone());
                        } else {
                            self.traces.insert(
                                trace_id,
                                TraceState::Pending {
                                    first_at: event.at,
                                    seqs: vec![seq],
                                },
                            );
                            self.pending.insert(seq, event.clone());
                        }
                    }
                }
            }
        }
        self.drain();
    }

    fn flush(&mut self) {
        self.finalize_all();
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TraceContext;
    use crate::journal::{Journal, JournalConfig, MemorySink};

    fn tiny_config() -> JournalConfig {
        JournalConfig {
            shards: 1,
            capacity_per_shard: 1,
            min_severity: Severity::Debug,
        }
    }

    fn sampled_journal(
        policy: SamplingPolicy,
    ) -> (Journal, crate::journal::MemoryEntries, SamplingStats) {
        let inner = MemorySink::new();
        let entries = inner.entries();
        let sink = SamplingSink::new(inner, policy);
        let stats = sink.stats();
        (
            Journal::with_sink(tiny_config(), Box::new(sink)),
            entries,
            stats,
        )
    }

    fn names(entries: &crate::journal::MemoryEntries) -> Vec<&'static str> {
        entries
            .lock()
            .unwrap()
            .iter()
            .map(|(_, e)| e.name)
            .collect()
    }

    #[test]
    fn warn_events_and_their_later_chain_always_survive() {
        let policy = SamplingPolicy {
            keep_1_in: u64::MAX, // head decision drops everything
            decide_after: 2,
            ..SamplingPolicy::default()
        };
        let (journal, entries, stats) = sampled_journal(policy);
        let root = TraceContext::root(1, "req:gate");
        journal.emit(Event::info("requirement.ingested").at(0).trace(root));
        // Chatter on another trace that will be head-dropped.
        let noise = TraceContext::root(1, "telemetry:0");
        for t in 0..20 {
            journal.emit(
                Event::debug("soc.signal")
                    .at(t)
                    .trace(noise.child_u64("sig", t)),
            );
        }
        // The anomaly arrives long after the root's buffer deadline.
        journal.emit(
            Event::warn("soc.detection")
                .at(30)
                .trace(root.child("detect")),
        );
        journal.emit(
            Event::info("soc.remediation.resolved")
                .at(31)
                .trace(root.child("fix")),
        );
        journal.sync();
        let kept = names(&entries);
        assert!(kept.contains(&"requirement.ingested"), "root always kept");
        assert!(kept.contains(&"soc.detection"));
        assert!(
            kept.contains(&"soc.remediation.resolved"),
            "post-promotion info events ride the kept trace"
        );
        assert!(!kept.contains(&"soc.signal"), "noise trace head-dropped");
        assert_eq!(stats.seen(), 23);
        assert!(stats.dropped() >= 19);
        assert!(stats.promoted() >= 1);
    }

    #[test]
    fn forwarded_seqs_stay_strictly_increasing_and_ordered() {
        let policy = SamplingPolicy {
            keep_1_in: 2,
            seed: 9,
            decide_after: 4,
            ..SamplingPolicy::default()
        };
        let (journal, entries, _) = sampled_journal(policy);
        for t in 0..40u64 {
            let trace = TraceContext::root(7, &format!("trace:{}", t % 8));
            journal.emit(Event::debug("tick").at(t).trace(trace.child_u64("e", t)));
            if t % 13 == 0 {
                journal.emit(Event::warn("spike").at(t).trace(trace.child_u64("w", t)));
            }
        }
        journal.sync();
        let seqs: Vec<u64> = entries.lock().unwrap().iter().map(|(s, _)| *s).collect();
        assert!(!seqs.is_empty());
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "inner sink saw strictly increasing seqs: {seqs:?}"
        );
    }

    #[test]
    fn head_sampling_keeps_roughly_one_trace_in_n() {
        let policy = SamplingPolicy {
            keep_1_in: 4,
            seed: 3,
            decide_after: 1,
            ..SamplingPolicy::default()
        };
        let (journal, entries, stats) = sampled_journal(policy);
        for i in 0..200u64 {
            let trace = TraceContext::root(11, &format!("quiet:{i}"));
            journal.emit(Event::debug("a").at(i).trace(trace.child("a")));
            journal.emit(Event::debug("b").at(i).trace(trace.child("b")));
        }
        journal.sync();
        let kept_events = entries.lock().unwrap().len();
        let kept_traces = kept_events / 2;
        assert!(
            (20..=80).contains(&kept_traces),
            "≈50 of 200 traces expected at 1-in-4: {kept_traces}"
        );
        assert_eq!(stats.kept() + stats.dropped(), stats.seen());
    }

    #[test]
    fn slow_observations_promote_their_trace() {
        let policy = SamplingPolicy {
            keep_1_in: u64::MAX,
            slow_threshold: Some(100),
            decide_after: 100,
            ..SamplingPolicy::default()
        };
        let (journal, entries, _) = sampled_journal(policy);
        let fast = TraceContext::root(5, "fast");
        let slow = TraceContext::root(5, "slow");
        journal.emit(
            Event::debug("req")
                .at(0)
                .trace(fast.child("r"))
                .field("latency", 10u64),
        );
        journal.emit(
            Event::debug("req")
                .at(0)
                .trace(slow.child("r"))
                .field("latency", 10u64),
        );
        journal.emit(
            Event::debug("req")
                .at(1)
                .trace(slow.child("r2"))
                .field("latency", 900u64),
        );
        journal.sync();
        let kept = entries.lock().unwrap();
        let slow_kept = kept
            .iter()
            .filter(|(_, e)| e.trace.map(|c| c.trace_id) == Some(slow.trace_id))
            .count();
        assert_eq!(slow_kept, 2, "whole slow trace kept, buffer included");
        let fast_kept = kept
            .iter()
            .filter(|(_, e)| e.trace.map(|c| c.trace_id) == Some(fast.trace_id))
            .count();
        assert_eq!(fast_kept, 0, "fast trace head-dropped");
    }

    #[test]
    fn untraced_events_bypass_sampling() {
        let (journal, entries, stats) = sampled_journal(SamplingPolicy {
            keep_1_in: u64::MAX,
            ..SamplingPolicy::default()
        });
        journal.emit(Event::debug("bare").at(0));
        journal.sync();
        assert_eq!(names(&entries), ["bare"]);
        assert_eq!(stats.kept(), 1);
    }

    #[test]
    fn keep_1_in_1_is_lossless() {
        let policy = SamplingPolicy {
            keep_1_in: 1,
            decide_after: 2,
            ..SamplingPolicy::default()
        };
        let (journal, entries, stats) = sampled_journal(policy);
        for t in 0..30u64 {
            let trace = TraceContext::root(2, &format!("t:{t}"));
            journal.emit(Event::debug("e").at(t).trace(trace.child("c")));
        }
        journal.sync();
        assert_eq!(entries.lock().unwrap().len(), 30);
        assert_eq!(stats.dropped(), 0);
    }

    #[test]
    fn decisions_are_a_pure_function_of_the_event_stream() {
        let run = || {
            let policy = SamplingPolicy {
                keep_1_in: 8,
                seed: 42,
                decide_after: 5,
                slow_threshold: Some(50),
                ..SamplingPolicy::default()
            };
            let (journal, entries, _) = sampled_journal(policy);
            for t in 0..60u64 {
                let trace = TraceContext::root(13, &format!("h:{}", t % 10));
                journal.emit(
                    Event::debug("sig")
                        .at(t)
                        .trace(trace.child_u64("s", t))
                        .field("latency", (t * 7) % 120),
                );
                if t % 17 == 0 {
                    journal.emit(Event::error("bad").at(t).trace(trace.child_u64("b", t)));
                }
            }
            journal.sync();
            let out: Vec<(u64, String)> = entries
                .lock()
                .unwrap()
                .iter()
                .map(|(s, e)| (*s, e.canonical_line()))
                .collect();
            out
        };
        assert_eq!(run(), run());
    }
}
