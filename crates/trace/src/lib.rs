//! # vdo-trace — causal tracing across the VeriDevOps closed loop
//!
//! The paper's closed loop (requirements → gates → deployment →
//! monitoring → remediation) is only auditable if every artifact can
//! answer *"which requirement caused you?"*. This crate supplies the
//! machinery:
//!
//! * [`TraceContext`] — deterministic trace/span identities minted as
//!   pure hashes of `(seed, artifact id)`, so equal-seed runs emit
//!   bit-identical causal trees at any worker count;
//! * [`Telemetry`] — the registry, journal and trace seed every layer
//!   of the closed loop takes as one handle;
//! * [`Journal`] — a sharded, bounded, lossy-tail event journal with
//!   severity levels, typed fields, exact drop accounting, global
//!   sequence numbers, a no-op disabled mode that costs one branch
//!   per call site (the same discipline as
//!   [`vdo_obs::Registry::disabled`]), and pluggable [`JournalSink`]s
//!   that observe the complete accepted stream;
//! * [`colfmt`] — the compact columnar on-disk segment format
//!   ([`DirWriter`] sink / [`JournalDir`] reader) with delta-encoded
//!   seqs and ticks, interned strings, per-block seq/severity indexes,
//!   and a streaming compactor that preserves incident causal chains;
//! * [`export`] — JSONL, Chrome `trace_event`, and Prometheus text
//!   exposition renderers;
//! * [`LiveSloEngine`] — multi-window burn-rate evaluation of SLO
//!   rules (detection latency, gate pass rate, remediation failures),
//!   fed per event into `vdo-obs` window rings and evaluated every
//!   tick, feeding alerts back into the journal and — via the caller —
//!   the SOC event bus;
//! * [`SamplingSink`] — adaptive tail-based sampling over any
//!   [`JournalSink`]: head-samples quiet traces, keeps anomalous
//!   causal chains whole, and stays deterministic enough that sampled
//!   journals still replay.

pub mod colfmt;
pub mod context;
pub mod export;
pub mod journal;
pub mod live;
pub mod sampling;
pub mod telemetry;

pub use colfmt::{compact, CompactionStats, DirWriter, JournalDir, SegmentReader, SegmentWriter};
pub use context::{SpanId, TraceContext, TraceId};
pub use journal::{
    Event, FieldValue, Journal, JournalConfig, JournalSink, JournalSnapshot, MemorySink, Severity,
};
pub use live::{BurnRateRule, LiveSloEngine, SloAlert, SloSignal};
pub use sampling::{SamplingPolicy, SamplingSink, SamplingStats};
pub use telemetry::Telemetry;
