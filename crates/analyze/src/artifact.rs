//! The symbolic artifact model the lints run over.
//!
//! The runtime [`vdo_core::Catalog`] holds opaque boxed capabilities —
//! executable, but not inspectable. Static analysis needs *structure*,
//! so callers describe what each catalogue entry checks as a
//! [`Guard`] over named atomic checks (the workspace's one
//! propositional guard type, which TEARS conditions and observer edges
//! also use), and bundle every analysable artifact of one revision into
//! an [`ArtifactSet`].

use std::collections::BTreeSet;

use vdo_core::{Guard, RequirementSpec, WaiverSet};

/// One catalogue entry as the analyzer sees it: identity plus an
/// optional symbolic expression of what it checks.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryArtifact {
    /// Finding id (e.g. `"V-219161"`), the entry's stable identity.
    pub finding_id: String,
    /// Package path the entry lives under.
    pub package: String,
    /// Short title.
    pub title: String,
    /// STIG severity of the underlying requirement.
    pub severity: vdo_core::Severity,
    /// Symbolic check expression over named atomic checks (e.g.
    /// `"sshd.permit_root_login=no"`), when the caller can describe it.
    /// Entries without one still participate in the identity,
    /// waiver, and traceability lints.
    pub expr: Option<Guard<String>>,
}

impl EntryArtifact {
    /// Creates an entry with defaults (medium severity, no expression).
    #[must_use]
    pub fn new(finding_id: impl Into<String>) -> Self {
        EntryArtifact {
            finding_id: finding_id.into(),
            package: String::new(),
            title: String::new(),
            severity: vdo_core::Severity::Medium,
            expr: None,
        }
    }

    /// Mirrors a [`RequirementSpec`] (identity and severity; the boxed
    /// capability itself is opaque, so no expression).
    #[must_use]
    pub fn from_spec(spec: &RequirementSpec) -> Self {
        EntryArtifact {
            finding_id: spec.finding_id().to_string(),
            package: String::new(),
            title: spec.title().to_string(),
            severity: spec.severity(),
            expr: None,
        }
    }

    /// Sets the package path.
    #[must_use]
    pub fn package(mut self, package: impl Into<String>) -> Self {
        self.package = package.into();
        self
    }

    /// Sets the title.
    #[must_use]
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Sets the severity.
    #[must_use]
    pub fn severity(mut self, severity: vdo_core::Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Sets the symbolic check expression.
    #[must_use]
    pub fn expr(mut self, expr: Guard<String>) -> Self {
        self.expr = Some(expr);
        self
    }
}

/// A named LTL formula (a monitor specification under analysis).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedFormula {
    /// Formula name (the artifact id in diagnostics).
    pub name: String,
    /// The formula.
    pub formula: vdo_temporal::Formula,
}

impl NamedFormula {
    /// Creates a named formula.
    #[must_use]
    pub fn new(name: impl Into<String>, formula: vdo_temporal::Formula) -> Self {
        NamedFormula {
            name: name.into(),
            formula,
        }
    }
}

/// Everything analysable about one revision of the requirements-as-code
/// corpus: catalogue entries, waivers, monitor formulas, behavioural
/// models, guarded assertions, and the traceability record.
#[derive(Debug, Clone, Default)]
pub struct ArtifactSet {
    /// Catalogue entries.
    pub entries: Vec<EntryArtifact>,
    /// Accepted risks.
    pub waivers: WaiverSet,
    /// The current tick, against which waiver expiry is judged.
    pub now: u64,
    /// Monitor formulas.
    pub formulas: Vec<NamedFormula>,
    /// Behavioural graph models.
    pub models: Vec<vdo_gwt::GraphModel>,
    /// TEARS guarded assertions.
    pub assertions: Vec<vdo_tears::GuardedAssertion>,
    /// Finding ids checked by a dev-time gate.
    pub dev_covered: BTreeSet<String>,
    /// Finding ids watched by an ops-time monitor.
    pub ops_covered: BTreeSet<String>,
}

impl ArtifactSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        ArtifactSet::default()
    }

    /// Adds a catalogue entry.
    #[must_use]
    pub fn with_entry(mut self, entry: EntryArtifact) -> Self {
        self.entries.push(entry);
        self
    }

    /// Mirrors every entry of a runtime catalogue (identity, package,
    /// severity — the capabilities are opaque, so no expressions).
    #[must_use]
    pub fn with_catalog<E>(mut self, catalog: &vdo_core::Catalog<E>) -> Self {
        for e in catalog.iter() {
            self.entries
                .push(EntryArtifact::from_spec(e.spec()).package(e.package().to_string()));
        }
        self
    }

    /// Adds a waiver.
    #[must_use]
    pub fn with_waiver(mut self, waiver: vdo_core::Waiver) -> Self {
        self.waivers.add(waiver);
        self
    }

    /// Sets the current tick for waiver-expiry judgement.
    #[must_use]
    pub fn at_tick(mut self, now: u64) -> Self {
        self.now = now;
        self
    }

    /// Adds a named monitor formula.
    #[must_use]
    pub fn with_formula(mut self, name: impl Into<String>, f: vdo_temporal::Formula) -> Self {
        self.formulas.push(NamedFormula::new(name, f));
        self
    }

    /// Adds a behavioural model.
    #[must_use]
    pub fn with_model(mut self, model: vdo_gwt::GraphModel) -> Self {
        self.models.push(model);
        self
    }

    /// Adds a guarded assertion.
    #[must_use]
    pub fn with_assertion(mut self, ga: vdo_tears::GuardedAssertion) -> Self {
        self.assertions.push(ga);
        self
    }

    /// Records that a dev-time gate checks `finding_id`.
    #[must_use]
    pub fn covered_dev(mut self, finding_id: impl Into<String>) -> Self {
        self.dev_covered.insert(finding_id.into());
        self
    }

    /// Records that an ops-time monitor watches `finding_id`.
    #[must_use]
    pub fn covered_ops(mut self, finding_id: impl Into<String>) -> Self {
        self.ops_covered.insert(finding_id.into());
        self
    }

    /// Marks every current entry as dev-covered (e.g. the whole
    /// catalogue runs in a compliance gate).
    #[must_use]
    pub fn covered_dev_all(mut self) -> Self {
        for e in &self.entries {
            self.dev_covered.insert(e.finding_id.clone());
        }
        self
    }

    /// Total number of artifacts of all kinds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
            + self.waivers.len()
            + self.formulas.len()
            + self.models.len()
            + self.assertions.len()
    }

    /// `true` iff there is nothing to analyse.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_set_builders_accumulate() {
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-1"))
            .with_formula("f", vdo_temporal::Formula::atom("p"))
            .covered_dev("V-1")
            .at_tick(7);
        assert_eq!(set.len(), 2);
        assert_eq!(set.now, 7);
        assert!(set.dev_covered.contains("V-1"));
        assert!(!set.is_empty());
    }
}
