//! # vdo-specpat — the pattern catalogue, observer automata and their
//! monitors, and a CTL model checker
//!
//! Rust reproduction of the **PROPAS** workflow in VeriDevOps (backed by
//! the PSP-UPPAAL catalogue): a requirements engineer picks a *pattern*
//! (universality, absence, existence, response, precedence, bounded
//! response, and the rqcode kinds response-until and timed universality)
//! and a *scope* (globally, before `r`, after `q`, between `q` and `r`,
//! after `q` until `r`), and the tool generates the formal property — LTL
//! for linear-time reasoning, CTL for branching-time model checking,
//! UPPAAL query syntax where expressible — plus an **observer automaton**
//! that detects violations on execution traces. The observer is also the
//! entry's runtime monitor: [`ObserverAutomaton::monitor`] binds its atoms
//! to propositions over any state type and returns a
//! [`vdo_temporal::PatternMonitor`]. This is the one catalogue: the nine
//! classes of D2.7's `rqcode.patterns.temporal` package are entries of it
//! ([`pattern::rqcode_temporal`]).
//!
//! The original toolchain hands the generated TCTL to UPPAAL. UPPAAL is
//! proprietary-ish and external, so this crate ships the substitute the
//! reproduction needs (see DESIGN.md): a discrete-time
//! [`ObserverAutomaton`] simulator for trace checking, and a full
//! fixpoint-labelling [`ctl`] model checker over finite [`Kripke`]
//! structures.
//!
//! ```
//! use vdo_specpat::{Scope, PatternKind, SpecPattern};
//!
//! let pat = SpecPattern::new(
//!     Scope::Globally,
//!     PatternKind::response("alarm_raised", "operator_notified"),
//! );
//! assert_eq!(pat.to_ltl().to_string(), "G (alarm_raised -> F operator_notified)");
//! assert_eq!(pat.to_uppaal().unwrap(), "alarm_raised --> operator_notified");
//! ```

pub mod ctl;
pub mod kripke;
pub mod observer;
pub mod pattern;
pub mod resa;

pub use ctl::{CtlFormula, ModelChecker};
pub use kripke::Kripke;
pub use observer::{ObserverAutomaton, ObserverMonitor, ObserverOutcome, UnboundAtom};
pub use pattern::{PatternKind, Scope, SpecPattern};
pub use resa::ResaRequirement;
