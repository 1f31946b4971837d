//! # vdo-tears — independent guarded assertions over signal logs
//!
//! Rust reproduction of **TEARS** (the NAPKIN environment's specification
//! core): requirements written as *independent guarded assertions* (G/A)
//! of the form
//!
//! ```text
//! ga "brake response": when brake_pedal >= 0.5 then brake_pressure > 10 within 3
//! ```
//!
//! evaluated post-hoc over recorded signal traces (test-rig logs,
//! operations telemetry). Each G/A is independent: it activates at every
//! tick where its guard holds and demands the assertion within the given
//! window.
//!
//! * [`SignalTrace`] — named, per-tick sampled numeric signals;
//! * [`expr`] — the condition language: a [`vdo_core::Guard`] over
//!   [`Cmp`] comparisons (`signal op constant`), parsed by
//!   [`parse_guard`];
//! * [`GuardedAssertion`] — the G/A itself, parsed from text, evaluated
//!   to a [`GaReport`] (activations, violations, verdict);
//! * [`Session`] — a set of G/As plus a trace, producing the analysis
//!   overview the NAPKIN UI renders.
//!
//! ```
//! use vdo_tears::{GuardedAssertion, SignalTrace};
//!
//! let ga = GuardedAssertion::parse(
//!     r#"ga "resp": when load > 0.9 then throttled == 1 within 2"#,
//! ).unwrap();
//! let mut trace = SignalTrace::new();
//! trace.push_sample([("load", 0.95), ("throttled", 0.0)]);
//! trace.push_sample([("load", 0.5), ("throttled", 1.0)]);
//! let report = ga.evaluate(&trace);
//! assert_eq!(report.activations, 1);
//! assert!(report.violations.is_empty());
//! ```

pub mod assertion;
pub mod expr;
pub mod session;
pub mod signal;

pub use assertion::{GaMonitor, GaReport, GuardedAssertion, OwnedGaMonitor};
pub use expr::{parse_guard, Cmp, CmpOp};
pub use session::{Session, SessionOverview};
pub use signal::SignalTrace;
