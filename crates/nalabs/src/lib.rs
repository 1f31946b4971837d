//! # vdo-nalabs — bad-smell metrics for natural-language requirements
//!
//! Rust reproduction of **NALABS** (NAtural LAnguage Bad Smells), the
//! VeriDevOps tool that screens requirement documents *before* any
//! formalisation is attempted: a requirement that is vague, subjective,
//! or drowning in references cannot be turned into a checkable pattern,
//! so the pipeline's first quality gate measures these smells and rejects
//! or flags offending text.
//!
//! The metric suite mirrors the C# classes in the NALABS repository
//! (`ConjunctionMetric.cs`, `ContinuancesMetric.cs`, `ImperativesMetric.cs`,
//! `ICountMetric.cs`, `OptionalityMetric.cs`, `ReferencesMetric.cs`,
//! `SubjectivityMetric.cs`, `VaguenessMetric.cs`, `WeaknessMetric.cs`,
//! plus readability and size). Each dictionary smell is a
//! [`metrics::DictionaryMetric`] over one of the dictionaries below, and
//! an [`Analyzer`] compiles its suite's dictionaries once into one
//! matcher, so analysing a document is one pass over its text:
//!
//! | Metric | Smell |
//! |---|---|
//! | [`dictionaries::conjunctions`] | compound requirements (and/or chains) |
//! | [`dictionaries::continuances`] | nesting ("as follows:", "below:") |
//! | [`dictionaries::imperatives`] | weak or missing modal verbs |
//! | [`dictionaries::incompleteness`] | TBD/TBS placeholders |
//! | [`dictionaries::optionality`] | latitude words ("may", "if needed") |
//! | [`dictionaries::references`] | out-of-document pointers |
//! | [`dictionaries::subjectivity`] | opinion words ("user friendly") |
//! | [`dictionaries::vagueness`] | imprecise adjectives ("fast", "adequate") |
//! | [`dictionaries::weakness`] | uncertainty words ("as appropriate") |
//! | [`metrics::Readability`] | ARI `WS + 9·SW` as defined in D2.7 |
//! | [`metrics::Size`] | over-complexity (chars/words/sentences) |
//!
//! ```
//! use vdo_nalabs::{Analyzer, RequirementDoc};
//!
//! let analyzer = Analyzer::with_default_metrics();
//! let doc = RequirementDoc::new(
//!     "REQ-1",
//!     "The system may, if needed, provide adequate security and good \
//!      performance as described in section 4.2.",
//! );
//! let report = analyzer.analyze(&doc);
//! assert!(report.smell_count() >= 3); // optionality, weakness/vagueness, references
//! ```

pub mod analysis;
pub mod dictionaries;
pub mod metrics;
pub mod text;

pub use analysis::{Analyzer, CorpusReport, DocumentReport, SmellThresholds};
pub use dictionaries::Dictionary;
pub use metrics::{Metric, MetricValue};
pub use text::{RequirementDoc, TextStats};
