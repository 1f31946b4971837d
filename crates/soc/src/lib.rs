//! # vdo-soc — event-driven security-operations engine
//!
//! The VeriDevOps operations story ("protection at operations") is a
//! monitor that *reacts* to what happens on the fleet. The polling
//! [`MonitoringLoop`](vdo_temporal::MonitoringLoop) re-checks on a
//! fixed period and therefore pays a mean detection latency of
//! `(period - 1) / 2` ticks; this crate is the event-driven
//! alternative: every host mutation becomes a typed [`SecEvent`] on a
//! sharded bus, and monitors run *per event*, detecting violations on
//! the tick they happen. The polling baseline is the same engine in
//! [`DetectionMode::Periodic`]: drift triggers no re-check and every
//! host is audited on a schedule instead, so the two differ only in
//! their detection policy.
//!
//! Four layers:
//!
//! * **bus** ([`ShardedBus`]) — one bounded, mutex-guarded FIFO per
//!   shard; hosts map to shards by a fixed hash ([`shard_of`]); every
//!   event carries a per-shard sequence number; a full queue pushes
//!   back on the publisher ([`PublishError::Backpressure`]). The engine
//!   keeps the same discipline inside its own shards: each shard owns
//!   its hosts, their monitors and open incidents, its queue and its
//!   sequence counter;
//! * **runtime** ([`with_pool`]) — a worker pool (the calling thread
//!   and persistent scoped threads) that runs each pass's shards, handed
//!   out one at a time from one atomic cursor. A worker holds one shard for a whole pass: it draws and applies the
//!   shard's drift, samples its telemetry and runs its monitors, and on
//!   ticks with due tasks a second pass runs its remediations. One
//!   shard is handled by exactly one thread at a time, which preserves
//!   per-host event order under any schedule. The server runs its
//!   tenant batches on the same pool;
//! * **monitors** — STIG catalogue re-checks, served from a per-host
//!   verdict cache that re-evaluates only the rules whose keys drift
//!   wrote since the host's last check; the owned temporal
//!   compliance monitor [`ComplianceUniversality`], and per-host TEARS
//!   guarded assertions ([`TearsHostMonitor`]);
//! * **remediation** ([`Dispatcher`]) — bounded retries with
//!   exponential backoff and a dead-letter incident queue, exercised
//!   by seeded fault injection;
//!
//! plus lock-free **metrics** ([`SocMetrics`]) with fixed-bucket
//! latency histograms that snapshot to JSON.
//!
//! Determinism contract: a fixed seed yields a byte-identical incident
//! log ([`SocReport::incident_log`]), journal and counters for *any*
//! worker count. Every random draw is a pure hash keyed by `(seed,
//! host, tick, purpose)`, so each shard draws for its own hosts and a
//! host's drift history does not depend on the fleet around it.
//!
//! ```
//! use vdo_soc::{SocConfig, SocEngine, SocMetrics, SocTracing};
//! use vdo_core::RemediationPlanner;
//! use vdo_host::UnixHost;
//!
//! let catalog = vdo_stigs::ubuntu::catalog();
//! let mut host = UnixHost::baseline_ubuntu_1804();
//! RemediationPlanner::default().run(&catalog, &mut host);
//! let mut fleet = vec![host];
//! let engine = SocEngine::new(&catalog, SocConfig {
//!     duration: 100,
//!     drift_rate: 0.1,
//!     seed: 7,
//!     ..SocConfig::default()
//! }).unwrap();
//! let report = engine.run(&mut fleet);
//! // Every detection lands on the tick its drift happened.
//! assert!(report.incidents.iter().all(|i| i.latency() == 0));
//!
//! // `run_traced` is the instrumented entry point: caller-owned metrics,
//! // and a journal whose requirement roots every incident resolves to.
//! let tracing = SocTracing::new(vdo_trace::Journal::new(), 7);
//! let traced = engine.run_traced(&mut fleet, &SocMetrics::new(), &tracing);
//! assert!(traced.incidents.iter().all(|i| i.trace.is_some()));
//! ```

pub mod bus;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod monitors;
pub mod remediation;
pub mod runtime;

pub use bus::{PublishError, ShardedBus};
pub use engine::{
    DetectionMode, SloPolicy, SocConfig, SocConfigError, SocEngine, SocHost, SocReport, SocTracing,
};
pub use event::{shard_of, Envelope, HostId, SecEvent};
pub use metrics::{MetricsSnapshot, SocMetrics};
pub use monitors::{
    ComplianceUniversality, Detection, DetectionKind, HostMonitors, TearsHostMonitor,
};
pub use remediation::{DeadLetter, Dispatcher, RemediationConfig, RemediationTask, SocIncident};
pub use runtime::{with_pool, Pool};
