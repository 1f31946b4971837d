//! # vdo-analyze — cross-artifact static analysis
//!
//! VeriDevOps generates protection and prevention artifacts from
//! security requirements: catalogue entries with machine-checkable
//! specs (`vdo-core`), LTL monitor formulas (`vdo-temporal`,
//! `vdo-specpat`), behavioural test models (`vdo-gwt`), and TEARS
//! guarded assertions (`vdo-tears`). Each artifact kind has its own
//! checker, but nothing examined the artifacts *themselves*: a
//! contradictory composite, a tautological monitor, or a requirement
//! no gate and no monitor covers silently weakens the whole loop.
//!
//! This crate is that missing pass — a requirements lint engine:
//!
//! * [`Diagnostic`]s carry stable [`LintCode`]s (`VDA001`–`VDA012`)
//!   with a configurable [`LintLevel`] per code.
//! * The [`Lint`] trait and [`LintRegistry`] hold the passes; nine
//!   built-in lints span every artifact kind, including bounded
//!   tautology/contradiction search with the finite-trace evaluator
//!   and vacuity detection over every valuation of a pattern's
//!   propositional part, as a [`vdo_core::Guard`].
//! * [`Analyzer`] runs the registry over an [`ArtifactSet`] and yields
//!   a deterministic [`AnalysisReport`]; parallel analysis is
//!   bit-identical to sequential at any thread count.
//! * [`IncrementalAnalyzer`] keeps a live artifact state with content
//!   [`Fingerprint`]s, a [`DependencyGraph`], and a memo table keyed by
//!   `(lint, fingerprint closure)`, so applying an [`ArtifactDelta`]
//!   re-runs only the dirty slice — with verdicts bit-identical to a
//!   full run (property-tested).
//!
//! `vdo-pipeline` wires the analyzer in as an `AnalysisGate` next to
//! the requirements/compliance/test gates, closing the loop the paper
//! describes: requirements are not just enforced, the enforcement
//! artifacts are themselves verified.
//!
//! ```
//! use vdo_analyze::{AnalysisConfig, Analyzer, ArtifactSet, EntryArtifact, LintCode};
//! use vdo_core::Guard;
//!
//! let artifacts = ArtifactSet::new()
//!     .with_entry(EntryArtifact::new("V-1").expr(Guard::all_of([
//!         Guard::atom("sshd_disabled"),
//!         Guard::not(Guard::atom("sshd_disabled")),
//!     ])))
//!     .covered_dev_all();
//! let report = Analyzer::new(AnalysisConfig::default()).analyze(&artifacts);
//! assert_eq!(report.by_code(LintCode::ContradictoryComposite).count(), 1);
//! ```

pub mod artifact;
pub mod codec;
pub mod config;
pub mod diag;
pub mod engine;
pub mod fingerprint;
pub mod graph;
pub mod incremental;
pub mod lints;

pub use artifact::{ArtifactSet, EntryArtifact, NamedFormula};
pub use config::{
    AnalysisConfig, AnalysisConfigBuilder, ConfigError, MAX_WITNESS_ATOMS, MAX_WITNESS_TRACE_LEN,
};
pub use diag::{Diagnostic, LintCode, LintLevel, Severity};
pub use engine::{AnalysisReport, Analyzer};
pub use fingerprint::{fingerprint_set, Fingerprint};
pub use graph::{ArtifactId, ArtifactKind, DependencyGraph};
pub use incremental::{ArtifactDelta, IncrementalAnalyzer, IncrementalStats};
pub use lints::{Granularity, Lint, LintRegistry};
