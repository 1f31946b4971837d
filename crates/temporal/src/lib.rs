//! # vdo-temporal — temporal logic and runtime monitoring
//!
//! The linear-time half of the VeriDevOps patterns catalogue (D2.7):
//! finite traces, a three-valued finite-trace LTL, the incremental
//! [`PatternMonitor`] interface, and the [`MonitoringLoop`] that the
//! project uses for "reactive protection at operations". The catalogue
//! itself — each pattern's LTL, CTL and UPPAAL renderings, its observer
//! automaton and the monitor compiled from that observer — lives in
//! `vdo-specpat`.
//!
//! Three layers:
//!
//! 1. **Traces** ([`trace`]) — a finite, discretely-timed sequence of
//!    system states. Propositions over states are just
//!    [`vdo_core::Checkable`] values, so the same closures/requirements
//!    used for host checking work as atomic propositions here.
//! 2. **LTL** ([`ltl`]) — a formula AST and its evaluator under two
//!    semantics ([`Semantics::Complete`] and the runtime-verification
//!    prefix semantics [`Semantics::Prefix`]): the reference every
//!    catalogue monitor is property-tested against.
//! 3. **Monitoring** ([`monitor`]) — [`PatternMonitor`], fed one state
//!    per tick, and [`MonitoringLoop`], which samples an evolving
//!    environment at a fixed polling period on a simulated clock, feeds
//!    the samples to a monitor, and reports detection latency.
//!    Experiment E4/A2 sweeps the polling period.
//!
//! ```
//! use vdo_core::CheckStatus;
//! use vdo_temporal::{Formula, Interpretation, Semantics, Trace};
//!
//! // States are u32 "queue depths"; the invariant: depth < 10.
//! let invariant = Formula::globally(Formula::atom("shallow"));
//! let label = Interpretation::new(|_: &str, depth: &u32| CheckStatus::from(*depth < 10));
//! let healthy: Trace<u32> = Trace::from_states([1, 3, 2, 5]);
//! let broken: Trace<u32> = Trace::from_states([1, 3, 12, 5]);
//! assert_eq!(label.evaluate(&invariant, &healthy, 0, Semantics::Complete), CheckStatus::Pass);
//! assert_eq!(label.evaluate(&invariant, &broken, 0, Semantics::Prefix), CheckStatus::Fail);
//! ```

pub mod ltl;
pub mod monitor;
pub mod trace;

pub use ltl::{Formula, Interpretation, Semantics};
pub use monitor::{MonitorOutcome, MonitorReport, MonitoringLoop, PatternMonitor, ZeroPeriodError};
pub use trace::{Tick, Trace};
