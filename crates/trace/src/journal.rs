//! The sharded, bounded, causally-linked event journal.
//!
//! A [`Journal`] is the per-run audit log the closed loop writes its
//! structured events into: requirement ingestions, NALABS and gate
//! verdicts, deployments, SOC detections, remediation attempts, SLO
//! alerts. It follows the two disciplines the rest of the workspace
//! already enforces:
//!
//! * **`Registry::disabled` cost model** — a journal is an
//!   `Option<Arc<_>>` handle; the disabled journal (also the
//!   `Default`) makes [`emit`](Journal::emit) a branch on `None`, so a
//!   `Journal` field costs nothing until a caller opts in.
//! * **Determinism** — event payloads carry *logical* time (ticks, or
//!   0 for the development phase) and deterministic
//!   [`TraceContext`]s; the snapshot
//!   [`fingerprint`](JournalSnapshot::fingerprint) compares the sorted
//!   canonical event multiset plus drop counts, so equal-seed runs
//!   fingerprint identically at any worker count.
//!
//! Capacity is bounded per shard (events route to shards by trace id,
//! falling back to the event name, so one trace's events stay
//! together). When a shard ring is full the **incoming** event is
//! dropped — a lossy tail — and the shard's drop counter records
//! exactly how many were lost.
//!
//! # Sequence numbers and sinks
//!
//! Every accepted event (enabled journal, severity at or above the
//! floor) is stamped with a globally unique, monotonically increasing
//! **sequence number** before any capacity check. A [`JournalSink`]
//! attached via [`Journal::with_sink`] observes that full accepted
//! stream in strictly increasing seq order — so a durable sink (e.g.
//! the columnar [`crate::colfmt::DirWriter`]) keeps every event even
//! when the in-memory ring sheds its lossy tail. Ring entries carry
//! their seq, and [`Journal::snapshot`] takes a *consistent cut*: all
//! shard locks are held at once, so for every emitter thread the
//! snapshot contains a causal prefix of its emissions, listed in
//! global seq order.
//!
//! [`Journal::emit_all`] records a batch under one sink lock and one
//! hold of every ring lock; [`Journal::emit`] is the batch of one. A
//! batch's seqs are contiguous and a snapshot sees all of a batch or
//! none of it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;
use vdo_obs::hash::{fnv1a, mix64, FNV_OFFSET};

use crate::context::{TraceContext, TraceId};

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// High-volume diagnostics (drift events, per-doc verdicts).
    Debug,
    /// Normal milestones (ingestion, deployment, resolution).
    Info,
    /// Findings that need attention (gate failures, detections).
    Warn,
    /// Failures (dead letters, SLO alerts).
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// A typed field value. `From` impls cover the primitive types the
/// loop reports, so `.field("host", 3usize)` just works.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:?}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl Serialize for FieldValue {
    fn to_value(&self) -> serde::json::Value {
        match self {
            FieldValue::U64(v) => v.to_value(),
            FieldValue::I64(v) => v.to_value(),
            FieldValue::F64(v) => v.to_value(),
            FieldValue::Bool(v) => v.to_value(),
            FieldValue::Str(v) => v.to_value(),
        }
    }
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        })*
    };
}

field_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

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

/// Typed key-value payload of one event, in emission order. The first
/// four pairs are stored inline — building and journalling an event
/// with up to four fields (every event the closed loop emits) costs no
/// heap allocation for the field list — and further pairs spill to a
/// heap vector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fields {
    inline: [Option<(&'static str, FieldValue)>; 4],
    spill: Vec<(&'static str, FieldValue)>,
}

impl Fields {
    /// An empty field list.
    #[must_use]
    pub fn new() -> Self {
        Fields::default()
    }

    /// Appends one pair, preserving emission order.
    pub fn push(&mut self, key: &'static str, value: FieldValue) {
        for slot in &mut self.inline {
            if slot.is_none() {
                *slot = Some((key, value));
                return;
            }
        }
        self.spill.push((key, value));
    }

    /// The pairs in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, FieldValue)> {
        self.inline.iter().flatten().chain(self.spill.iter())
    }

    /// Number of pairs held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inline.iter().flatten().count() + self.spill.len()
    }

    /// `true` when no pairs are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inline[0].is_none() && self.spill.is_empty()
    }
}

impl<'a> IntoIterator for &'a Fields {
    type Item = &'a (&'static str, FieldValue);
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::slice::Iter<'a, Option<(&'static str, FieldValue)>>>,
        std::slice::Iter<'a, (&'static str, FieldValue)>,
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.inline.iter().flatten().chain(self.spill.iter())
    }
}

/// One journal entry: logical time, severity, a dotted event name, an
/// optional causal context, and typed key-value fields. Built fluently:
///
/// ```
/// use vdo_trace::{Event, TraceContext};
/// let ctx = TraceContext::root(7, "V-219161");
/// let e = Event::warn("soc.detection").at(42).trace(ctx).field("host", 3u64);
/// assert_eq!(e.at, 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical timestamp: the operations tick, or 0 for development-
    /// phase events. Never wall time — fingerprints include it.
    pub at: u64,
    /// Severity level.
    pub severity: Severity,
    /// Dotted event name, e.g. `"gate.verdict"`.
    pub name: &'static str,
    /// Causal context, when the event belongs to a trace.
    pub trace: Option<TraceContext>,
    /// Typed key-value payload, in emission order.
    pub fields: Fields,
}

impl Event {
    /// A new event at severity `severity`.
    #[must_use]
    pub fn new(name: &'static str, severity: Severity) -> Self {
        Event {
            at: 0,
            severity,
            name,
            trace: None,
            fields: Fields::new(),
        }
    }

    /// A `Debug` event.
    #[must_use]
    pub fn debug(name: &'static str) -> Self {
        Event::new(name, Severity::Debug)
    }

    /// An `Info` event.
    #[must_use]
    pub fn info(name: &'static str) -> Self {
        Event::new(name, Severity::Info)
    }

    /// A `Warn` event.
    #[must_use]
    pub fn warn(name: &'static str) -> Self {
        Event::new(name, Severity::Warn)
    }

    /// An `Error` event.
    #[must_use]
    pub fn error(name: &'static str) -> Self {
        Event::new(name, Severity::Error)
    }

    /// Sets the logical timestamp (builder style).
    #[must_use]
    pub fn at(mut self, at: u64) -> Self {
        self.at = at;
        self
    }

    /// Attaches a causal context (builder style).
    #[must_use]
    pub fn trace(mut self, ctx: TraceContext) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// Appends one typed field (builder style).
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push(key, value.into());
        self
    }

    /// The canonical single-line rendering — the unit the journal
    /// fingerprint is computed over. Everything in it is deterministic
    /// for seeded workloads.
    #[must_use]
    pub fn canonical_line(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!("{:>8} {} {}", self.at, self.severity, self.name);
        if let Some(t) = &self.trace {
            let _ = write!(line, " [{t}]");
        }
        for (k, v) in &self.fields {
            let _ = write!(line, " {k}={v}");
        }
        line
    }
}

impl Serialize for Event {
    fn to_value(&self) -> serde::json::Value {
        let fields: Vec<serde::json::Value> = self
            .fields
            .iter()
            .map(|(k, v)| serde::json::object([("key", (*k).to_value()), ("value", v.to_value())]))
            .collect();
        serde::json::object([
            ("at", self.at.to_value()),
            ("severity", self.severity.to_string().to_value()),
            ("name", self.name.to_value()),
            ("trace", self.trace.to_value()),
            ("fields", fields.to_value()),
        ])
    }
}

/// A durable destination for the journal's accepted event stream.
///
/// The journal calls [`record`](JournalSink::record) exactly once per
/// accepted event (enabled journal, severity at or above the floor),
/// **before** the in-memory ring's capacity check and in strictly
/// increasing `seq` order — the sink sees the complete stream even
/// when the bounded ring sheds its lossy tail. Calls are serialized by
/// the journal's sink lock, so implementations need no internal
/// locking; `Send` is required because journals are shared across
/// worker threads.
pub trait JournalSink: Send {
    /// Observes one accepted event and its global sequence number.
    fn record(&mut self, seq: u64, event: &Event);

    /// Flushes buffered state to durable storage (called by
    /// [`Journal::sync`] and when the journal is dropped). Default:
    /// no-op.
    fn flush(&mut self) {}
}

/// Shared buffer type collected by a [`MemorySink`].
pub type MemoryEntries = Arc<Mutex<Vec<(u64, Event)>>>;

/// A [`JournalSink`] that clones every accepted `(seq, event)` pair
/// into a shared in-memory buffer — the replay engine's capture sink,
/// and a convenient test double for durable sinks.
#[derive(Debug, Default)]
pub struct MemorySink {
    entries: MemoryEntries,
}

impl MemorySink {
    /// A sink with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A handle onto the shared buffer, valid after the sink has been
    /// boxed into a journal.
    #[must_use]
    pub fn entries(&self) -> MemoryEntries {
        Arc::clone(&self.entries)
    }
}

impl JournalSink for MemorySink {
    fn record(&mut self, seq: u64, event: &Event) {
        self.entries
            .lock()
            .expect("memory sink poisoned")
            .push((seq, event.clone()));
    }
}

/// Journal sizing and filtering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Independent ring shards (>= 1).
    pub shards: usize,
    /// Bounded capacity of each shard (>= 1); an event arriving at a
    /// full shard is dropped and counted.
    pub capacity_per_shard: usize,
    /// Events below this severity are ignored (not counted as drops).
    pub min_severity: Severity,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            shards: 8,
            capacity_per_shard: 1 << 14,
            min_severity: Severity::Debug,
        }
    }
}

struct JournalInner {
    config: JournalConfig,
    /// Ring entries carry their global seq so snapshots can interleave
    /// shards back into emission order.
    shards: Vec<Mutex<Vec<(u64, Event)>>>,
    dropped: Vec<AtomicU64>,
    /// Next global sequence number; `load` = accepted events so far.
    next_seq: AtomicU64,
    sink: Option<Mutex<Box<dyn JournalSink>>>,
}

impl std::fmt::Debug for JournalInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalInner")
            .field("config", &self.config)
            .field("next_seq", &self.next_seq)
            .field("has_sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl Drop for JournalInner {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            if let Ok(mut sink) = sink.lock() {
                sink.flush();
            }
        }
    }
}

/// The journal handle. Cheap to clone (clones share state); the
/// disabled journal (also the `Default`) records nothing.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Option<Arc<JournalInner>>,
}

impl Journal {
    /// An enabled journal with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Journal::with_config(JournalConfig::default())
    }

    /// An enabled journal with explicit sizing/filter policy.
    ///
    /// # Panics
    /// When `shards` or `capacity_per_shard` is zero.
    #[must_use]
    pub fn with_config(config: JournalConfig) -> Self {
        Journal::build(config, None)
    }

    /// An enabled journal whose accepted event stream is additionally
    /// delivered to `sink` (see [`JournalSink`] for the exact
    /// contract). The ring still serves in-process queries; the sink
    /// is the durable copy.
    ///
    /// # Panics
    /// When `shards` or `capacity_per_shard` is zero.
    #[must_use]
    pub fn with_sink(config: JournalConfig, sink: Box<dyn JournalSink>) -> Self {
        Journal::build(config, Some(sink))
    }

    fn build(config: JournalConfig, sink: Option<Box<dyn JournalSink>>) -> Self {
        assert!(config.shards > 0, "journal needs at least one shard");
        assert!(
            config.capacity_per_shard > 0,
            "journal shards must hold at least one event"
        );
        // Pre-reserve a modest ring prefix so steady-state emission
        // does not pay repeated grow-and-copy cycles (full capacity
        // up front would be wasteful for short runs).
        let reserve = config.capacity_per_shard.min(1024);
        Journal {
            inner: Some(Arc::new(JournalInner {
                shards: (0..config.shards)
                    .map(|_| Mutex::new(Vec::with_capacity(reserve)))
                    .collect(),
                dropped: (0..config.shards).map(|_| AtomicU64::new(0)).collect(),
                next_seq: AtomicU64::new(0),
                sink: sink.map(Mutex::new),
                config,
            })),
        }
    }

    /// The no-op journal: emissions vanish, the snapshot is empty.
    #[must_use]
    pub fn disabled() -> Self {
        Journal { inner: None }
    }

    /// `true` when emissions are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` when an event at `severity` would clear this journal's
    /// severity floor. High-volume emitters (the SOC signal firehose)
    /// check this once and skip *constructing* telemetry events the
    /// floor would reject anyway — [`Journal::emit`] still enforces
    /// the floor per event either way.
    #[must_use]
    pub fn accepts(&self, severity: Severity) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| severity >= inner.config.min_severity)
    }

    /// The shard `event` routes to: by trace id when present (so one
    /// trace's events stay together), by name otherwise. A pure
    /// function, like the SOC bus's host→shard hash.
    fn shard_for(inner: &JournalInner, event: &Event) -> usize {
        let key = match &event.trace {
            Some(t) => t.trace_id.0,
            None => fnv1a(FNV_OFFSET, event.name.as_bytes()),
        };
        (mix64(key) % inner.config.shards as u64) as usize
    }

    /// Records `event`: the batch of one (see
    /// [`emit_all`](Journal::emit_all)). A disabled journal returns at
    /// once.
    pub fn emit(&self, event: Event) {
        self.emit_all(std::iter::once(event));
    }

    /// Records a batch of events in iteration order, skipping those
    /// below the severity floor. Each accepted event is stamped with the
    /// next global sequence number and — when a sink is attached —
    /// delivered to it *before* the capacity check, so the durable
    /// stream has no lossy tail; an event whose shard is full is dropped
    /// and counted exactly.
    ///
    /// The batch takes the sink lock once, then every ring lock in shard
    /// index order ([`snapshot`](Journal::snapshot)'s order), and holds
    /// them all until it ends: it mints its seqs as one contiguous run
    /// (every batch mints under all ring locks, so no other batch can
    /// interleave) and tallies its drops once per shard. A concurrent
    /// snapshot sees all of a batch or none of it.
    pub fn emit_all(&self, events: impl IntoIterator<Item = Event>) {
        let Some(inner) = &self.inner else { return };
        let floor = inner.config.min_severity;
        let mut events = events.into_iter().filter(|e| e.severity >= floor);
        // Take no lock for a batch the floor empties.
        let Some(first) = events.next() else { return };
        let mut sink = inner
            .sink
            .as_ref()
            .map(|sink| sink.lock().expect("journal sink poisoned"));
        let mut rings: Vec<_> = inner
            .shards
            .iter()
            .map(|s| s.lock().expect("journal shard poisoned"))
            .collect();
        let mut drops = vec![0u64; rings.len()];
        let mut seq = inner.next_seq.load(Ordering::Relaxed);
        for event in std::iter::once(first).chain(events) {
            if let Some(sink) = sink.as_mut() {
                sink.record(seq, &event);
            }
            let shard = Self::shard_for(inner, &event);
            let ring = &mut rings[shard];
            if ring.len() < inner.config.capacity_per_shard {
                ring.push((seq, event));
            } else {
                drops[shard] += 1;
            }
            seq += 1;
        }
        inner.next_seq.store(seq, Ordering::Relaxed);
        // Drops are counted while the ring locks are held, so a
        // consistent-cut snapshot sees ring contents and drop counts at
        // the same point.
        for (counter, n) in inner.dropped.iter().zip(drops) {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Flushes the attached sink's buffered state to durable storage
    /// (no-op without a sink). For the columnar
    /// [`crate::colfmt::DirWriter`] this seals the open segment, making
    /// everything recorded so far readable.
    pub fn sync(&self) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.sink {
                sink.lock().expect("journal sink poisoned").flush();
            }
        }
    }

    /// Number of events accepted so far (the next seq to be assigned);
    /// 0 when disabled. Counts ring drops — it is the length of the
    /// stream a sink observed, not the ring occupancy.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.next_seq.load(Ordering::Relaxed))
    }

    /// Events currently held (0 when disabled).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .shards
                .iter()
                .map(|s| s.lock().expect("journal shard poisoned").len())
                .sum()
        })
    }

    /// `true` when no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events dropped at full shards.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .dropped
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .sum()
        })
    }

    /// Freezes the journal into an immutable [`JournalSnapshot`]
    /// (empty when disabled).
    ///
    /// The snapshot is a **consistent cut**: every shard lock is held
    /// simultaneously while the rings and drop counters are copied, so
    /// for each emitter thread the snapshot contains a causal prefix
    /// of that thread's emissions — an event can never appear without
    /// the events the same thread emitted before it. Events are listed
    /// in global seq order (aligned with
    /// [`seqs`](JournalSnapshot::seqs)).
    #[must_use]
    pub fn snapshot(&self) -> JournalSnapshot {
        let Some(inner) = &self.inner else {
            return JournalSnapshot::default();
        };
        let guards: Vec<_> = inner
            .shards
            .iter()
            .map(|s| s.lock().expect("journal shard poisoned"))
            .collect();
        let dropped_per_shard: Vec<u64> = inner
            .dropped
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect();
        let mut entries: Vec<(u64, Event)> = guards
            .iter()
            .flat_map(|g| g.iter().cloned())
            .collect::<Vec<_>>();
        drop(guards);
        entries.sort_unstable_by_key(|(seq, _)| *seq);
        let (seqs, events) = entries.into_iter().unzip();
        JournalSnapshot {
            events,
            seqs,
            dropped_per_shard,
        }
    }
}

/// Frozen journal state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalSnapshot {
    /// All held events, in global seq order.
    pub events: Vec<Event>,
    /// Each event's global sequence number, aligned with
    /// [`events`](JournalSnapshot::events). Gaps mark accepted events
    /// the bounded ring dropped (a sink, if attached, still saw them).
    pub seqs: Vec<u64>,
    /// Exact lossy-tail drop count per shard.
    pub dropped_per_shard: Vec<u64>,
}

impl JournalSnapshot {
    /// Total events dropped.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped_per_shard.iter().sum()
    }

    /// The highest sequence number held, `None` when empty.
    #[must_use]
    pub fn last_seq(&self) -> Option<u64> {
        self.seqs.last().copied()
    }

    /// Events with the given name, in snapshot order.
    #[must_use]
    pub fn events_named(&self, name: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// Events belonging to `trace`, in snapshot order.
    #[must_use]
    pub fn events_for_trace(&self, trace: TraceId) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| e.trace.is_some_and(|t| t.trace_id == trace))
            .collect()
    }

    /// The event that *rooted* `trace` (its context has no parent) —
    /// for an incident trace, the requirement-ingestion event.
    #[must_use]
    pub fn root_event(&self, trace: TraceId) -> Option<&Event> {
        self.events
            .iter()
            .find(|e| e.trace.is_some_and(|t| t.trace_id == trace && t.is_root()))
    }

    /// The canonical order-independent digest: every event's
    /// [`canonical_line`](Event::canonical_line), sorted, plus the
    /// per-shard drop counts. Two runs that emitted the same event
    /// *multiset* (in any interleaving) fingerprint identically —
    /// which is the worker-count-independence contract the loop's
    /// engines provide.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut lines: Vec<String> = self.events.iter().map(Event::canonical_line).collect();
        lines.sort_unstable();
        let mut out = lines.join("\n");
        out.push_str(&format!("\ndropped = {:?}", self.dropped_per_shard));
        out
    }
}

impl Serialize for JournalSnapshot {
    fn to_value(&self) -> serde::json::Value {
        serde::json::object([
            ("events", self.events.to_value()),
            ("seqs", self.seqs.to_value()),
            ("dropped_per_shard", self.dropped_per_shard.to_value()),
            ("dropped", self.dropped().to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        assert!(!j.is_enabled());
        j.emit(Event::info("x"));
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.accepted(), 0);
        assert_eq!(j.snapshot(), JournalSnapshot::default());
        assert!(!Journal::default().is_enabled());
    }

    #[test]
    fn events_record_with_fields_and_traces() {
        let j = Journal::new();
        let ctx = TraceContext::root(1, "V-1");
        j.emit(
            Event::warn("soc.detection")
                .at(9)
                .trace(ctx)
                .field("host", 4u64)
                .field("rule", "V-1"),
        );
        j.emit(Event::info("deploy").at(3));
        assert_eq!(j.len(), 2);
        assert_eq!(j.accepted(), 2);
        let snap = j.snapshot();
        assert_eq!(snap.events_named("soc.detection").len(), 1);
        assert_eq!(snap.events_for_trace(ctx.trace_id).len(), 1);
        assert_eq!(snap.root_event(ctx.trace_id).unwrap().name, "soc.detection");
        let line = snap.events_named("soc.detection")[0].canonical_line();
        assert!(line.contains("warn soc.detection"));
        assert!(line.contains("host=4"));
        assert!(line.contains("rule=V-1"));
    }

    #[test]
    fn severity_floor_filters_without_counting_drops() {
        let j = Journal::with_config(JournalConfig {
            min_severity: Severity::Warn,
            ..JournalConfig::default()
        });
        j.emit(Event::debug("noise"));
        j.emit(Event::info("milestone"));
        j.emit(Event::warn("finding"));
        j.emit(Event::error("failure"));
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 0, "filtered events are not drops");
        assert_eq!(j.accepted(), 2, "filtered events take no seq");
    }

    #[test]
    fn full_shards_drop_the_tail_and_count_exactly() {
        let j = Journal::with_config(JournalConfig {
            shards: 1,
            capacity_per_shard: 3,
            min_severity: Severity::Debug,
        });
        for i in 0..10u64 {
            j.emit(Event::info("e").at(i));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        assert_eq!(j.accepted(), 10, "drops still consume seqs");
        let snap = j.snapshot();
        // Lossy tail: the *oldest* events survive.
        assert_eq!(
            snap.events.iter().map(|e| e.at).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(snap.seqs, [0, 1, 2]);
        assert_eq!(snap.dropped_per_shard, [7]);
    }

    #[test]
    fn one_traces_events_share_a_shard() {
        let j = Journal::with_config(JournalConfig {
            shards: 4,
            ..JournalConfig::default()
        });
        let ctx = TraceContext::root(5, "commit-7");
        j.emit(Event::info("a").trace(ctx));
        j.emit(Event::info("b").trace(ctx.child("gate")));
        j.emit(Event::info("c").trace(ctx.child("gate").child("deploy")));
        let inner = j.inner.as_ref().unwrap();
        let occupied: Vec<usize> = inner
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.lock().unwrap().is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(occupied.len(), 1, "same trace id ⇒ same shard");
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let make = |reversed: bool| {
            let j = Journal::new();
            let mut events: Vec<Event> = (0..20u64)
                .map(|i| Event::info("e").at(i).field("i", i))
                .collect();
            if reversed {
                events.reverse();
            }
            for e in events {
                j.emit(e);
            }
            j.snapshot().fingerprint()
        };
        assert_eq!(make(false), make(true));
    }

    #[test]
    fn fingerprint_covers_drops() {
        let emit_n = |n: u64| {
            let j = Journal::with_config(JournalConfig {
                shards: 1,
                capacity_per_shard: 2,
                min_severity: Severity::Debug,
            });
            for i in 0..n {
                j.emit(Event::info("e").at(i.min(1)));
            }
            j.snapshot().fingerprint()
        };
        assert_ne!(emit_n(3), emit_n(4), "drop counts are part of the digest");
    }

    #[test]
    fn snapshot_serialises_to_json() {
        let j = Journal::new();
        j.emit(Event::info("x").field("k", "v"));
        let json = serde::json::to_string(&j.snapshot());
        assert!(json.contains("\"events\""));
        assert!(json.contains("\"seqs\""));
        assert!(json.contains("\"dropped_per_shard\""));
    }

    #[test]
    fn concurrent_emitters_are_safe() {
        let j = Journal::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let j = j.clone();
                scope.spawn(move || {
                    for i in 0..500u64 {
                        j.emit(Event::info("shared").at(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(j.len(), 2_000);
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.accepted(), 2_000);
        let snap = j.snapshot();
        assert!(
            snap.seqs.windows(2).all(|w| w[0] < w[1]),
            "snapshot is in strictly increasing seq order"
        );
    }

    #[test]
    fn sink_sees_every_accepted_event_even_when_the_ring_drops() {
        let sink = MemorySink::new();
        let entries = sink.entries();
        let j = Journal::with_sink(
            JournalConfig {
                shards: 1,
                capacity_per_shard: 2,
                min_severity: Severity::Info,
            },
            Box::new(sink),
        );
        j.emit(Event::debug("filtered"));
        for i in 0..10u64 {
            j.emit(Event::info("e").at(i));
        }
        assert_eq!(j.len(), 2, "ring keeps only its capacity");
        assert_eq!(j.dropped(), 8);
        let got = entries.lock().unwrap();
        assert_eq!(got.len(), 10, "sink saw the full accepted stream");
        assert_eq!(
            got.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>(),
            "seqs are contiguous and in order"
        );
        assert!(
            got.iter().all(|(_, e)| e.name != "filtered"),
            "below-floor events never reach the sink"
        );
    }

    #[test]
    fn snapshot_is_a_consistent_causal_cut() {
        // Emitter threads write causally ordered events that scatter
        // across shards (distinct trace roots). A consistent cut must
        // contain, for every thread, a prefix of its emissions — the
        // old shard-by-shard copy could capture event i without i-1
        // when they landed in different shards.
        let j = Journal::new();
        let done = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let j = j.clone();
                let done = &done;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        let ctx = TraceContext::root(t, &format!("artifact-{i}"));
                        j.emit(Event::info("causal").trace(ctx).field("t", t).field("i", i));
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            while done.load(Ordering::SeqCst) < 4 {
                let snap = j.snapshot();
                let mut max_i = [None::<u64>; 4];
                let mut counts = [0u64; 4];
                for e in &snap.events {
                    let mut t = None;
                    let mut i = None;
                    for (k, v) in &e.fields {
                        if let FieldValue::U64(n) = v {
                            match *k {
                                "t" => t = Some(*n),
                                "i" => i = Some(*n),
                                _ => {}
                            }
                        }
                    }
                    let (t, i) = (t.unwrap() as usize, i.unwrap());
                    max_i[t] = Some(max_i[t].map_or(i, |m: u64| m.max(i)));
                    counts[t] += 1;
                }
                for t in 0..4 {
                    if let Some(m) = max_i[t] {
                        assert_eq!(
                            counts[t],
                            m + 1,
                            "thread {t}: event i={m} present but an earlier one missing"
                        );
                    }
                }
            }
        });
        assert_eq!(j.len(), 8_000);
        assert_eq!(j.dropped(), 0, "default capacity must hold this workload");
    }
}
