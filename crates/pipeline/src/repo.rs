//! The simulated repository: commits and what they change.

use std::fmt;

use vdo_host::{FileMode, HostKey, UnixHost};
use vdo_nalabs::RequirementDoc;

/// A configuration change a commit wants to apply to the deployment.
///
/// These are the commit-time counterparts of drift events: developers
/// also weaken systems, and the compliance gate exists to catch exactly
/// that before deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigChange {
    /// Install a package at a version.
    InstallPackage(String, String),
    /// Remove a package.
    RemovePackage(String),
    /// Write a `key value` directive into a config file.
    SetDirective(String, String, String),
    /// Change a file's permission bits.
    SetFileMode(String, u16),
    /// Enable (`true`) or disable (`false`) a service.
    SetService(String, bool),
}

impl ConfigChange {
    /// The one host slot this change writes.
    #[must_use]
    pub fn key(&self) -> HostKey<'_> {
        match self {
            ConfigChange::InstallPackage(name, _) | ConfigChange::RemovePackage(name) => {
                HostKey::Package(name)
            }
            ConfigChange::SetDirective(path, key, _) => HostKey::Directive(path, key),
            ConfigChange::SetFileMode(path, _) => HostKey::FileMode(path),
            ConfigChange::SetService(name, _) => HostKey::Service(name),
        }
    }

    /// Applies the change to a host.
    pub fn apply(&self, host: &mut UnixHost) {
        match self {
            ConfigChange::InstallPackage(name, version) => host.install_package(name, version),
            ConfigChange::RemovePackage(name) => {
                host.remove_package(name);
            }
            ConfigChange::SetDirective(path, key, value) => {
                host.write_directive(path, key, value);
            }
            ConfigChange::SetFileMode(path, mode) => {
                host.set_file_mode(path, FileMode::new(*mode));
            }
            ConfigChange::SetService(name, enabled) => {
                if *enabled {
                    host.enable_service(name);
                } else {
                    host.disable_service(name);
                }
            }
        }
    }
}

impl fmt::Display for ConfigChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigChange::InstallPackage(n, v) => write!(f, "install {n} {v}"),
            ConfigChange::RemovePackage(n) => write!(f, "remove {n}"),
            ConfigChange::SetDirective(p, k, v) => write!(f, "set {k}={v} in {p}"),
            ConfigChange::SetFileMode(p, m) => write!(f, "chmod {m:04o} {p}"),
            ConfigChange::SetService(n, e) => {
                write!(f, "{} {n}", if *e { "enable" } else { "disable" })
            }
        }
    }
}

/// One commit: new/changed requirement documents, configuration changes
/// for the deployment, optionally an updated behavioural test model,
/// and any monitor artifacts (LTL formulas, TEARS assertions) the
/// commit ships for the operations phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    /// Commit identifier.
    pub id: String,
    /// Requirement documents added or modified by this commit.
    pub requirements: Vec<RequirementDoc>,
    /// Deployment configuration changes.
    pub changes: Vec<ConfigChange>,
    /// Behavioural model update (checked by the test gate when present).
    pub model: Option<vdo_gwt::GraphModel>,
    /// Named LTL monitor formulas shipped by this commit (checked by
    /// the analysis gate).
    pub formulas: Vec<(String, vdo_temporal::Formula)>,
    /// TEARS guarded assertions shipped by this commit (checked by the
    /// analysis gate).
    pub assertions: Vec<vdo_tears::GuardedAssertion>,
}

impl Commit {
    /// Creates an empty commit.
    #[must_use]
    pub fn new(id: impl Into<String>) -> Self {
        Commit {
            id: id.into(),
            requirements: Vec::new(),
            changes: Vec::new(),
            model: None,
            formulas: Vec::new(),
            assertions: Vec::new(),
        }
    }

    /// Adds a requirement document (builder style).
    #[must_use]
    pub fn with_requirement(mut self, doc: RequirementDoc) -> Self {
        self.requirements.push(doc);
        self
    }

    /// Adds a configuration change (builder style).
    #[must_use]
    pub fn with_change(mut self, change: ConfigChange) -> Self {
        self.changes.push(change);
        self
    }

    /// Attaches a behavioural model update (builder style).
    #[must_use]
    pub fn with_model(mut self, model: vdo_gwt::GraphModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Adds a named LTL monitor formula (builder style).
    #[must_use]
    pub fn with_formula(mut self, name: impl Into<String>, formula: vdo_temporal::Formula) -> Self {
        self.formulas.push((name.into(), formula));
        self
    }

    /// Adds a TEARS guarded assertion (builder style).
    #[must_use]
    pub fn with_assertion(mut self, assertion: vdo_tears::GuardedAssertion) -> Self {
        self.assertions.push(assertion);
        self
    }

    /// The commit's monitor artifacts as an analyzer delta — what this
    /// commit adds to the accumulated artifact state the incremental
    /// analysis gate maintains across a commit sequence.
    #[must_use]
    pub fn artifact_delta(&self) -> vdo_analyze::ArtifactDelta {
        let mut delta = vdo_analyze::ArtifactDelta::new();
        for (name, formula) in &self.formulas {
            delta = delta.with_formula(name.clone(), formula.clone());
        }
        for ga in &self.assertions {
            delta = delta.with_assertion(ga.clone());
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changes_apply() {
        let mut host = UnixHost::new("t");
        ConfigChange::InstallPackage("nginx".into(), "1.14".into()).apply(&mut host);
        assert!(host.is_package_installed("nginx"));
        ConfigChange::SetDirective(
            "/etc/ssh/sshd_config".into(),
            "PermitRootLogin".into(),
            "no".into(),
        )
        .apply(&mut host);
        assert_eq!(
            host.directive("/etc/ssh/sshd_config", "PermitRootLogin"),
            Some("no")
        );
        ConfigChange::SetFileMode("/etc/shadow".into(), 0o600).apply(&mut host);
        assert_eq!(host.file_mode("/etc/shadow").unwrap().bits(), 0o600);
        ConfigChange::SetService("sshd".into(), true).apply(&mut host);
        assert!(host.service("sshd").unwrap().enabled);
        ConfigChange::SetService("sshd".into(), false).apply(&mut host);
        assert!(!host.service("sshd").unwrap().enabled);
        ConfigChange::RemovePackage("nginx".into()).apply(&mut host);
        assert!(!host.is_package_installed("nginx"));
    }

    #[test]
    fn commit_builder() {
        let c = Commit::new("c1")
            .with_requirement(RequirementDoc::new("R-1", "The system shall log."))
            .with_change(ConfigChange::RemovePackage("telnetd".into()));
        assert_eq!(c.id, "c1");
        assert_eq!(c.requirements.len(), 1);
        assert_eq!(c.changes.len(), 1);
    }

    #[test]
    fn artifact_delta_carries_the_monitor_artifacts() {
        let c = Commit::new("c1")
            .with_formula("m", vdo_temporal::Formula::atom("p"))
            .with_assertion(
                vdo_tears::GuardedAssertion::parse("ga \"a\": when load > 1 then ok == 1").unwrap(),
            );
        let delta = c.artifact_delta();
        assert_eq!(delta.len(), 2);
        assert_eq!(delta.upsert_formulas.len(), 1);
        assert_eq!(delta.upsert_assertions.len(), 1);
        assert!(Commit::new("empty").artifact_delta().is_empty());
    }

    #[test]
    fn change_display() {
        assert_eq!(
            ConfigChange::SetFileMode("/x".into(), 0o644).to_string(),
            "chmod 0644 /x"
        );
        assert_eq!(
            ConfigChange::SetService("a".into(), false).to_string(),
            "disable a"
        );
    }
}
