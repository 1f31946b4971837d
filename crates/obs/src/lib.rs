//! # vdo-obs — unified observability for the VeriDevOps closed loop
//!
//! The DATE 2021 paper's thesis is that the VeriDevOps loop makes
//! security *observable* end to end: requirements are formalised,
//! gates enforce them at development, monitors detect violations at
//! operations with measurable latency. This crate is the one
//! vocabulary every stage reports in:
//!
//! * [`Counter`] / [`Gauge`] — relaxed-atomic load and high-water
//!   metrics;
//! * [`Histogram`] — fixed-bucket latency distributions (promoted from
//!   the formerly crate-private `vdo-soc` implementation);
//! * [`SpanGuard`] — hierarchical timing spans over a monotonic
//!   [`Clock`] that is either wall time or a simulation-advanced
//!   counter;
//! * [`Registry`] — the thread-safe namespace that owns them all and
//!   freezes into a serde-serialisable [`Snapshot`];
//! * [`hash`] — the FNV-1a and SplitMix64 primitives every
//!   deterministic id, shard route and digest in the workspace uses.
//!
//! Two properties the rest of the workspace depends on:
//!
//! 1. **Near-zero cost when disabled.** [`Registry::disabled`] (also
//!    the `Default`) hands out inert instruments whose every operation
//!    is a branch on `None` — experiment E12 bounds the overhead on
//!    the SOC fleet workload at under 5%.
//! 2. **Determinism.** Counter values, histogram observation counts,
//!    and span entry counts depend only on the instrumented workload,
//!    never on scheduling; equal-seed runs produce identical
//!    [`Snapshot::deterministic_fingerprint`]s at any worker count.
//!    Durations follow the clock — use [`Clock::simulated`] to make
//!    them reproducible too.
//!
//! ```
//! use vdo_obs::Registry;
//!
//! let obs = Registry::new();
//! let checks = obs.counter("core.checks");
//! {
//!     let _phase = obs.span("pipeline/ops");
//!     checks.add(17);
//! }
//! let snapshot = obs.snapshot();
//! assert_eq!(snapshot.counter("core.checks"), Some(17));
//! let json = serde::json::to_string(&snapshot);
//! assert!(json.contains("pipeline/ops"));
//! ```

pub mod clock;
pub mod hash;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod window;

pub use clock::Clock;
pub use metrics::{
    Counter, Exemplar, Gauge, Histogram, HistogramSnapshot, FINE_MICROS_BOUNDS, MICROS_BOUNDS,
    NANOS_BOUNDS, TICK_BOUNDS,
};
pub use registry::{Registry, Snapshot};
pub use span::{SpanGuard, SpanSnapshot};
pub use window::{Ewma, WindowCounter, WindowHistogram};
