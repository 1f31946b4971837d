//! Prevention at development: CI quality gates.
//!
//! Every gate implements the common [`Gate`] trait (a name plus an
//! evaluation over a [`GateContext`]), which is how the scenario loop
//! treats them uniformly; the concrete types keep their narrower
//! inherent `evaluate` methods for direct use.

use std::fmt;
use std::sync::Mutex;

use vdo_analyze::{
    AnalysisConfig, Analyzer as StaticAnalyzer, ArtifactDelta, ArtifactSet, IncrementalAnalyzer,
};
use vdo_core::{Catalog, CatalogEntry, CheckStatus, Severity};
use vdo_host::UnixHost;
use vdo_nalabs::{Analyzer, CorpusReport};
use vdo_trace::{Event, Journal, TraceContext};

use crate::repo::Commit;

/// Everything a gate may inspect when judging a commit: the commit
/// itself and the production host, plus the causal-tracing channel —
/// the journal every verdict is recorded in and the commit's trace
/// context, of which each gate verdict becomes a child span.
///
/// Gates never write to production. On the reference path
/// (`staged_verdicts` is `None`) the compliance gate stages the commit
/// on a clone of `production`. A caller that keeps production's
/// per-rule verdicts instead stages the commit on production in place
/// with a [`Staged`](crate::Staged) guard, lends the staged host as
/// `production` and its verdicts as `staged_verdicts`, and the guard
/// rolls production back if a gate rejects the commit.
#[derive(Debug, Clone, Copy)]
pub struct GateContext<'a> {
    /// The commit under evaluation.
    pub commit: &'a Commit,
    /// The production host: as deployed, or with the commit already
    /// staged on it when `staged_verdicts` is set.
    pub production: &'a UnixHost,
    /// Event journal for `gate.verdict` records (disabled = silent).
    pub journal: &'a Journal,
    /// The commit's trace context, when tracing is on.
    pub trace: Option<TraceContext>,
    /// Logical time of the evaluation (the commit index in the
    /// scenario), stamped on emitted events.
    pub at: u64,
    /// The commit's artifact delta — what it changes in the accumulated
    /// monitor-artifact state. An incremental [`AnalysisGate`] consumes
    /// this to re-lint only the changed slice; `None` (or a batch gate)
    /// falls back to whole-commit analysis.
    pub changed: Option<&'a ArtifactDelta>,
    /// The compliance catalogue's verdicts on `production`, in
    /// catalogue order, when the caller staged the commit on it in
    /// place; the compliance gate then decides from them instead of
    /// staging the commit on a clone.
    pub staged_verdicts: Option<&'a [CheckStatus]>,
}

impl<'a> GateContext<'a> {
    /// A context without tracing: verdicts are computed but nothing is
    /// journalled and no spans are minted. The `journal` reference must
    /// outlive the context, so callers lend a disabled journal.
    #[must_use]
    pub fn untraced(commit: &'a Commit, production: &'a UnixHost, journal: &'a Journal) -> Self {
        GateContext {
            commit,
            production,
            journal,
            trace: None,
            at: 0,
            changed: None,
            staged_verdicts: None,
        }
    }

    /// Attaches the commit's artifact delta (builder style).
    #[must_use]
    pub fn with_delta(mut self, delta: &'a ArtifactDelta) -> Self {
        self.changed = Some(delta);
        self
    }
}

/// Common interface over the CI quality gates.
pub trait Gate {
    /// Stable gate name (used for counters and report attribution).
    fn name(&self) -> &'static str;

    /// Judges a commit in context.
    fn evaluate(&self, cx: &GateContext<'_>) -> GateDecision;
}

/// Outcome of one gate on one commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateDecision {
    /// Gate name.
    pub gate: &'static str,
    /// `true` iff the commit may proceed.
    pub passed: bool,
    /// Human-readable findings (empty when passed without remarks).
    pub reasons: Vec<String>,
    /// The verdict's span — a child of the commit's trace context —
    /// when the gate ran under tracing.
    pub trace: Option<TraceContext>,
}

impl GateDecision {
    fn pass(gate: &'static str) -> Self {
        GateDecision {
            gate,
            passed: true,
            reasons: Vec::new(),
            trace: None,
        }
    }

    fn fail(gate: &'static str, reasons: Vec<String>) -> Self {
        GateDecision {
            gate,
            passed: false,
            reasons,
            trace: None,
        }
    }
}

/// Stamps a decision with its verdict span (a child of the commit
/// context) and journals it: `gate.verdict` at Info when the commit may
/// proceed, Warn when it is rejected.
fn record(mut decision: GateDecision, cx: &GateContext<'_>) -> GateDecision {
    decision.trace = cx.trace.map(|t| t.child(decision.gate));
    if cx.journal.is_enabled() {
        let mut ev = if decision.passed {
            Event::info("gate.verdict")
        } else {
            Event::warn("gate.verdict")
        }
        .at(cx.at)
        .field("gate", decision.gate)
        .field("commit", cx.commit.id.as_str())
        .field("passed", decision.passed)
        .field("reasons", decision.reasons.len());
        if let Some(t) = decision.trace {
            ev = ev.trace(t);
        }
        cx.journal.emit(ev);
    }
    decision
}

impl fmt::Display for GateDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}",
            self.gate,
            if self.passed { "PASS" } else { "FAIL" }
        )?;
        for r in &self.reasons {
            write!(f, "\n  - {r}")?;
        }
        Ok(())
    }
}

/// The NALABS requirements-quality gate: rejects a commit whose new
/// requirement documents smell.
pub struct RequirementsGate {
    analyzer: Analyzer,
    /// Maximum number of smelly documents tolerated per commit.
    max_smelly: usize,
}

impl RequirementsGate {
    /// Creates the gate with the default NALABS analyzer and zero
    /// tolerance.
    #[must_use]
    pub fn new() -> Self {
        RequirementsGate {
            analyzer: Analyzer::with_default_metrics(),
            max_smelly: 0,
        }
    }

    /// Sets a tolerance (number of smelly documents allowed through).
    #[must_use]
    pub fn with_tolerance(mut self, max_smelly: usize) -> Self {
        self.max_smelly = max_smelly;
        self
    }

    /// Evaluates the gate on a commit.
    #[must_use]
    pub fn evaluate(&self, commit: &Commit) -> GateDecision {
        self.decide(&self.analyzer.analyze_corpus(&commit.requirements))
    }

    fn decide(&self, report: &CorpusReport) -> GateDecision {
        let smelly: Vec<String> = report
            .documents()
            .iter()
            .filter(|d| d.is_smelly())
            .map(|d| format!("{}: {}", d.id(), d.smells().join(", ")))
            .collect();
        if smelly.len() > self.max_smelly {
            GateDecision::fail("requirements", smelly)
        } else {
            GateDecision::pass("requirements")
        }
    }
}

impl Default for RequirementsGate {
    fn default() -> Self {
        Self::new()
    }
}

impl Gate for RequirementsGate {
    fn name(&self) -> &'static str {
        "requirements"
    }

    /// Besides the `gate.verdict` record, journals one `nalabs.verdict`
    /// event per document — Info for a clean document, Warn for a
    /// smelly one — as a child span of the commit labelled with the
    /// document id, so a rejected requirement resolves back to the
    /// commit that shipped it.
    fn evaluate(&self, cx: &GateContext<'_>) -> GateDecision {
        let report = self.analyzer.analyze_corpus(&cx.commit.requirements);
        if cx.journal.is_enabled() {
            for d in report.documents() {
                let mut ev = if d.is_smelly() {
                    Event::warn("nalabs.verdict")
                } else {
                    Event::info("nalabs.verdict")
                }
                .field("doc", d.id())
                .field("smelly", d.is_smelly())
                .field("smells", d.smell_count());
                if let Some(p) = cx.trace {
                    ev = ev.trace(p.child(d.id()));
                }
                cx.journal.emit(ev);
            }
        }
        record(self.decide(&report), cx)
    }
}

/// The RQCODE compliance gate: rejects a commit if, with its
/// configuration changes applied to the deployment, the STIG catalogue
/// reports any violation at or above the blocking severity.
///
/// [`ComplianceGate::evaluate`] is the reference path: it applies the
/// changes to a clone of production and checks the whole catalogue.
/// Through [`Gate::evaluate`] with [`GateContext::staged_verdicts`] set,
/// the commit is already staged on production in place and the gate
/// decides from the caller's verdicts. Both paths apply one verdict
/// rule.
pub struct ComplianceGate<'a> {
    catalog: &'a Catalog<UnixHost>,
    block_at: Severity,
}

impl<'a> ComplianceGate<'a> {
    /// Creates the gate over a catalogue; `block_at` is the minimum
    /// severity that blocks (e.g. [`Severity::Medium`] blocks CAT I and
    /// CAT II findings but lets CAT III through with a warning).
    #[must_use]
    pub fn new(catalog: &'a Catalog<UnixHost>, block_at: Severity) -> Self {
        ComplianceGate { catalog, block_at }
    }

    /// Evaluates the gate: clones `production` into staging, applies the
    /// commit, checks the catalogue.
    #[must_use]
    pub fn evaluate(&self, commit: &Commit, production: &UnixHost) -> GateDecision {
        let mut staging = production.clone();
        for change in &commit.changes {
            change.apply(&mut staging);
        }
        self.decide(self.catalog.check_all(&staging))
    }

    /// The verdict rule: one reason per non-passing rule at or above
    /// the blocking severity, in catalogue order.
    fn decide<'c>(
        &self,
        verdicts: impl IntoIterator<Item = (&'c CatalogEntry<UnixHost>, CheckStatus)>,
    ) -> GateDecision {
        let violations: Vec<String> = verdicts
            .into_iter()
            .filter(|(e, v)| !v.is_pass() && e.spec().severity() >= self.block_at)
            .map(|(e, v)| format!("{} [{}]: {v}", e.spec().finding_id(), e.spec().severity()))
            .collect();
        if violations.is_empty() {
            GateDecision::pass("compliance")
        } else {
            GateDecision::fail("compliance", violations)
        }
    }
}

impl Gate for ComplianceGate<'_> {
    fn name(&self) -> &'static str {
        "compliance"
    }

    fn evaluate(&self, cx: &GateContext<'_>) -> GateDecision {
        let decision = match cx.staged_verdicts {
            Some(verdicts) => {
                debug_assert_eq!(verdicts.len(), self.catalog.len());
                self.decide(self.catalog.iter().zip(verdicts.iter().copied()))
            }
            None => self.evaluate(cx.commit, cx.production),
        };
        record(decision, cx)
    }
}

/// The GWT test gate: a commit that changes the behavioural model must
/// ship a model whose generated test suite reaches the required edge
/// coverage — unreachable edges mean dead or untestable specified
/// behaviour.
pub struct TestGate {
    min_coverage: f64,
}

impl TestGate {
    /// Creates the gate; `min_coverage` is the required edge-coverage
    /// fraction in `[0, 1]` (1.0 = every specified transition testable).
    #[must_use]
    pub fn new(min_coverage: f64) -> Self {
        TestGate {
            min_coverage: min_coverage.clamp(0.0, 1.0),
        }
    }

    /// Evaluates the gate on a behavioural model: generates the
    /// coverage-guided suite and compares achieved coverage.
    #[must_use]
    pub fn evaluate(&self, model: &vdo_gwt::GraphModel) -> GateDecision {
        use vdo_gwt::generate::{AllEdges, Generator};
        let suite = AllEdges.generate(model, 0);
        let coverage = model.edge_coverage(&suite);
        if coverage + 1e-9 >= self.min_coverage {
            GateDecision::pass("tests")
        } else {
            GateDecision::fail(
                "tests",
                vec![format!(
                    "model '{}': generated suite covers {:.0}% of edges (< {:.0}% required); \
                     unreachable transitions are untestable specification",
                    model.name(),
                    100.0 * coverage,
                    100.0 * self.min_coverage
                )],
            )
        }
    }
}

impl Gate for TestGate {
    fn name(&self) -> &'static str {
        "tests"
    }

    fn evaluate(&self, cx: &GateContext<'_>) -> GateDecision {
        let decision = match &cx.commit.model {
            Some(model) => self.evaluate(model),
            None => GateDecision::pass("tests"),
        };
        record(decision, cx)
    }
}

/// The vdo-analyze static-analysis gate: lints the monitor artifacts a
/// commit ships (LTL formulas, TEARS guarded assertions) and rejects
/// the commit on any error-severity finding — a contradictory or
/// tautological monitor, a vacuous pattern, a dead guard.
///
/// It deliberately covers the artifact kinds no other gate looks at:
/// requirement *text* belongs to [`RequirementsGate`], configuration
/// changes to [`ComplianceGate`], behavioural models to [`TestGate`].
///
/// Two modes share one verdict rule (reject on any error-severity
/// finding):
///
/// * **Batch** ([`AnalysisGate::new`]) lints each commit's shipped
///   artifacts in isolation.
/// * **Incremental** ([`AnalysisGate::incremental`]) maintains the
///   accumulated artifact state across the commit sequence and applies
///   each commit's [`ArtifactDelta`] (from [`GateContext::changed`]) to
///   it, re-linting only the changed slice; a rejected commit's delta
///   is rolled back so the accumulated state only ever contains merged
///   artifacts. With unique artifact names per commit the verdicts are
///   identical to batch mode — and cross-commit interactions (say, a
///   later commit redefining an earlier monitor) are caught rather than
///   invisible.
pub struct AnalysisGate {
    analyzer: StaticAnalyzer,
    incremental: Option<Mutex<IncrementalAnalyzer>>,
    obs: vdo_obs::Registry,
}

impl AnalysisGate {
    /// Creates the batch gate with every built-in lint at the given
    /// config.
    #[must_use]
    pub fn new(config: AnalysisConfig) -> Self {
        AnalysisGate {
            analyzer: StaticAnalyzer::new(config),
            incremental: None,
            obs: vdo_obs::Registry::disabled(),
        }
    }

    /// Creates the incremental gate: accumulated artifact state, memoised
    /// lint units, O(changed) re-analysis per commit.
    #[must_use]
    pub fn incremental(config: AnalysisConfig) -> Self {
        AnalysisGate {
            analyzer: StaticAnalyzer::new(config.clone()),
            incremental: Some(Mutex::new(IncrementalAnalyzer::new(config))),
            obs: vdo_obs::Registry::disabled(),
        }
    }

    /// Records `pipeline.analysis.incr.*` cache counters in `obs`
    /// (builder style; a disabled registry is silent).
    #[must_use]
    pub fn observed(mut self, obs: vdo_obs::Registry) -> Self {
        self.obs = obs;
        self
    }

    /// `true` iff the gate keeps accumulated incremental state.
    #[must_use]
    pub fn is_incremental(&self) -> bool {
        self.incremental.is_some()
    }

    /// Judges `delta` against the accumulated incremental state:
    /// applies it, rejects (and rolls back) on any error-severity
    /// finding. Only meaningful on a gate built with
    /// [`AnalysisGate::incremental`]; a batch gate returns a pass.
    #[must_use]
    pub fn evaluate_delta(&self, delta: &ArtifactDelta) -> GateDecision {
        let Some(engine) = &self.incremental else {
            return GateDecision::pass("analysis");
        };
        let mut engine = engine.lock().expect("analysis engine lock");
        let before = engine.stats();
        let (report, undo) = engine.apply_with_undo(delta, 1);
        let decision = if report.has_errors() {
            let reasons = report.diagnostics.iter().map(ToString::to_string).collect();
            // Rejected commits never merge: roll the artifact state
            // back (cheap — every restored unit closure is memoised).
            engine.apply(&undo, 1);
            self.obs.counter("pipeline.analysis.incr.reverts").inc();
            GateDecision::fail("analysis", reasons)
        } else {
            GateDecision::pass("analysis")
        };
        let after = engine.stats();
        self.obs.counter("pipeline.analysis.incr.applies").inc();
        self.obs
            .counter("pipeline.analysis.incr.changed_artifacts")
            .add(after.changed_artifacts - before.changed_artifacts);
        self.obs
            .counter("pipeline.analysis.incr.dirty_units")
            .add(after.dirty_units - before.dirty_units);
        self.obs
            .counter("pipeline.analysis.incr.hits")
            .add(after.hits - before.hits);
        self.obs
            .counter("pipeline.analysis.incr.misses")
            .add(after.misses - before.misses);
        self.obs
            .counter("pipeline.analysis.incr.invalidations")
            .add(after.invalidations - before.invalidations);
        decision
    }

    /// Evaluates the gate on a commit's shipped artifacts.
    #[must_use]
    pub fn evaluate(&self, commit: &Commit) -> GateDecision {
        let mut artifacts = ArtifactSet::new();
        for (name, formula) in &commit.formulas {
            artifacts = artifacts.with_formula(name.clone(), formula.clone());
        }
        for ga in &commit.assertions {
            artifacts = artifacts.with_assertion(ga.clone());
        }
        let report = self.analyzer.analyze(&artifacts);
        if report.has_errors() {
            GateDecision::fail(
                "analysis",
                report.diagnostics.iter().map(ToString::to_string).collect(),
            )
        } else {
            GateDecision::pass("analysis")
        }
    }
}

impl Default for AnalysisGate {
    fn default() -> Self {
        Self::new(AnalysisConfig::default())
    }
}

impl Gate for AnalysisGate {
    fn name(&self) -> &'static str {
        "analysis"
    }

    fn evaluate(&self, cx: &GateContext<'_>) -> GateDecision {
        let decision = match (&self.incremental, cx.changed) {
            (Some(_), Some(delta)) => self.evaluate_delta(delta),
            _ => self.evaluate(cx.commit),
        };
        record(decision, cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::ConfigChange;
    use vdo_nalabs::RequirementDoc;

    #[test]
    fn test_gate_passes_connected_model() {
        let mut m = vdo_gwt::GraphModel::new("ok");
        let a = m.add_vertex("a");
        let b = m.add_vertex("b");
        m.add_edge(a, b, "go");
        m.add_edge(b, a, "back");
        m.set_start(a);
        assert!(TestGate::new(1.0).evaluate(&m).passed);
    }

    #[test]
    fn test_gate_rejects_unreachable_edges() {
        let mut m = vdo_gwt::GraphModel::new("broken");
        let a = m.add_vertex("a");
        let b = m.add_vertex("b");
        let x = m.add_vertex("island1");
        let y = m.add_vertex("island2");
        m.add_edge(a, b, "go");
        m.add_edge(x, y, "island_hop"); // unreachable from start
        m.set_start(a);
        let d = TestGate::new(1.0).evaluate(&m);
        assert!(!d.passed);
        assert!(d.reasons[0].contains("broken"));
        // A 50% floor accepts the same model.
        assert!(TestGate::new(0.5).evaluate(&m).passed);
    }

    fn clean_commit() -> Commit {
        Commit::new("c1")
            .with_requirement(RequirementDoc::new(
                "R-1",
                "The system shall lock the session after 15 minutes of inactivity.",
            ))
            .with_change(ConfigChange::SetDirective(
                "/etc/ssh/sshd_config".into(),
                "PermitRootLogin".into(),
                "no".into(),
            ))
    }

    fn smelly_commit() -> Commit {
        Commit::new("c2").with_requirement(RequirementDoc::new(
            "R-2",
            "The system may possibly be fast and easy as appropriate, TBD, see section 3.",
        ))
    }

    #[test]
    fn requirements_gate_passes_clean() {
        let gate = RequirementsGate::new();
        let d = gate.evaluate(&clean_commit());
        assert!(d.passed, "{d}");
    }

    #[test]
    fn requirements_gate_rejects_smells() {
        let gate = RequirementsGate::new();
        let d = gate.evaluate(&smelly_commit());
        assert!(!d.passed);
        assert!(d.reasons[0].contains("R-2"));
    }

    #[test]
    fn requirements_gate_tolerance() {
        let gate = RequirementsGate::new().with_tolerance(1);
        assert!(gate.evaluate(&smelly_commit()).passed);
    }

    #[test]
    fn empty_commit_passes_requirements_gate() {
        let gate = RequirementsGate::new();
        assert!(gate.evaluate(&Commit::new("c0")).passed);
    }

    #[test]
    fn compliance_gate_blocks_regressions() {
        let catalog = vdo_stigs::ubuntu::catalog();
        // Start from a compliant host.
        let mut prod = vdo_host::UnixHost::baseline_ubuntu_1804();
        let planner = vdo_core::RemediationPlanner::default();
        planner.run(&catalog, &mut prod);

        let gate = ComplianceGate::new(&catalog, Severity::Medium);
        // A harmless commit passes.
        let ok = Commit::new("ok")
            .with_change(ConfigChange::InstallPackage("htop".into(), "2.1".into()));
        assert!(gate.evaluate(&ok, &prod).passed);
        // A commit installing telnetd (CAT I finding V-219161) is blocked.
        let bad = Commit::new("bad").with_change(ConfigChange::InstallPackage(
            "telnetd".into(),
            "0.17".into(),
        ));
        let d = gate.evaluate(&bad, &prod);
        assert!(!d.passed);
        assert!(d.reasons.iter().any(|r| r.contains("V-219161")), "{d}");
        // Production itself must be untouched by staging evaluation.
        assert!(!prod.is_package_installed("telnetd"));
        assert!(!prod.is_package_installed("htop"));
    }

    #[test]
    fn analysis_gate_rejects_defective_monitor_artifacts() {
        use vdo_temporal::Formula;
        let gate = AnalysisGate::default();
        let bad = Commit::new("bad").with_formula(
            "lock-monitor",
            Formula::and(
                Formula::globally(Formula::atom("locked")),
                Formula::finally(Formula::not(Formula::atom("locked"))),
            ),
        );
        let d = gate.evaluate(&bad);
        assert!(!d.passed);
        assert!(d.reasons[0].contains("VDA006"), "{d}");

        let dead_guard = Commit::new("dead").with_assertion(
            vdo_tears::GuardedAssertion::parse(
                "ga \"dead\": when load > 1 and load < 0 then ok == 1",
            )
            .unwrap(),
        );
        let d = gate.evaluate(&dead_guard);
        assert!(!d.passed);
        assert!(d.reasons[0].contains("VDA010"), "{d}");

        let clean = Commit::new("ok").with_formula(
            "response-monitor",
            Formula::globally(Formula::implies(
                Formula::atom("request"),
                Formula::finally(Formula::atom("response")),
            )),
        );
        assert!(gate.evaluate(&clean).passed);
        assert!(gate.evaluate(&Commit::new("empty")).passed);
    }

    #[test]
    fn incremental_gate_accumulates_and_rolls_back() {
        use vdo_temporal::Formula;
        let prod = vdo_host::UnixHost::baseline_ubuntu_1804();
        let journal = Journal::default();
        let gate = AnalysisGate::incremental(AnalysisConfig::default());
        assert!(gate.is_incremental());
        assert!(!AnalysisGate::default().is_incremental());

        // A clean commit merges; its monitor stays in the state.
        let clean = Commit::new("ok").with_formula(
            "response-monitor",
            Formula::globally(Formula::implies(
                Formula::atom("request"),
                Formula::finally(Formula::atom("response")),
            )),
        );
        let d1 = clean.artifact_delta();
        let cx = GateContext::untraced(&clean, &prod, &journal).with_delta(&d1);
        assert!(Gate::evaluate(&gate, &cx).passed);

        // A defective commit bounces and its delta is rolled back...
        let bad = Commit::new("bad").with_formula(
            "lock-monitor",
            Formula::and(
                Formula::globally(Formula::atom("locked")),
                Formula::finally(Formula::not(Formula::atom("locked"))),
            ),
        );
        let d2 = bad.artifact_delta();
        let cx = GateContext::untraced(&bad, &prod, &journal).with_delta(&d2);
        let d = Gate::evaluate(&gate, &cx);
        assert!(!d.passed);
        assert!(d.reasons[0].contains("VDA006"), "{d}");

        // ...so a later clean commit still passes against clean state.
        let clean2 = Commit::new("ok2").with_formula(
            "audit-monitor",
            Formula::globally(Formula::implies(
                Formula::atom("login_failed"),
                Formula::finally(Formula::atom("audit_record")),
            )),
        );
        let d3 = clean2.artifact_delta();
        let cx = GateContext::untraced(&clean2, &prod, &journal).with_delta(&d3);
        assert!(Gate::evaluate(&gate, &cx).passed);

        // Cross-commit interaction batch mode cannot see: redefining a
        // previously merged monitor with a contradiction is caught even
        // though the commit alone would also fail — and redefining it
        // with a tautology of the *other* monitor's name is caught
        // purely through the accumulated state.
        let redefine = Commit::new("redefine").with_formula(
            "response-monitor",
            Formula::or(Formula::atom("p"), Formula::not(Formula::atom("p"))),
        );
        let d4 = redefine.artifact_delta();
        let cx = GateContext::untraced(&redefine, &prod, &journal).with_delta(&d4);
        let d = Gate::evaluate(&gate, &cx);
        assert!(!d.passed);
        assert!(d.reasons[0].contains("VDA007"), "{d}");

        // A context without a delta falls back to batch per-commit
        // analysis and leaves the accumulated state untouched.
        let cx = GateContext::untraced(&clean, &prod, &journal);
        assert!(Gate::evaluate(&gate, &cx).passed);
    }

    #[test]
    fn incremental_gate_counters_accumulate() {
        use vdo_temporal::Formula;
        let obs = vdo_obs::Registry::new();
        let gate = AnalysisGate::incremental(AnalysisConfig::default()).observed(obs.clone());
        let clean = Commit::new("ok").with_formula("m", Formula::atom("p"));
        let delta = clean.artifact_delta();
        assert!(gate.evaluate_delta(&delta).passed);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("pipeline.analysis.incr.applies"), Some(1));
        assert_eq!(
            snap.counter("pipeline.analysis.incr.changed_artifacts"),
            Some(1)
        );
        assert!(snap.counter("pipeline.analysis.incr.misses").unwrap_or(0) > 0);
    }

    #[test]
    fn every_gate_speaks_the_common_trait() {
        let catalog = vdo_stigs::ubuntu::catalog();
        let mut prod = vdo_host::UnixHost::baseline_ubuntu_1804();
        vdo_core::RemediationPlanner::default().run(&catalog, &mut prod);
        let req = RequirementsGate::new();
        let comp = ComplianceGate::new(&catalog, Severity::Medium);
        let tests = TestGate::new(1.0);
        let analysis = AnalysisGate::default();
        let gates: Vec<&dyn Gate> = vec![&req, &comp, &tests, &analysis];
        assert_eq!(
            gates.iter().map(|g| g.name()).collect::<Vec<_>>(),
            ["requirements", "compliance", "tests", "analysis"]
        );
        let commit = clean_commit();
        let journal = Journal::default();
        let cx = GateContext::untraced(&commit, &prod, &journal);
        for g in gates {
            let d = g.evaluate(&cx);
            assert_eq!(d.gate, g.name());
            assert!(d.passed, "{d}");
            assert_eq!(d.trace, None, "untraced context mints no spans");
        }
    }

    #[test]
    fn traced_gates_journal_their_verdicts_as_commit_children() {
        let catalog = vdo_stigs::ubuntu::catalog();
        let mut prod = vdo_host::UnixHost::baseline_ubuntu_1804();
        vdo_core::RemediationPlanner::default().run(&catalog, &mut prod);
        let req = RequirementsGate::new();
        let comp = ComplianceGate::new(&catalog, Severity::Medium);
        let tests = TestGate::new(1.0);
        let analysis = AnalysisGate::default();
        let gates: Vec<&dyn Gate> = vec![&req, &comp, &tests, &analysis];

        let commit = smelly_commit();
        let journal = Journal::new();
        let root = TraceContext::root(42, &commit.id);
        let cx = GateContext {
            commit: &commit,
            production: &prod,
            journal: &journal,
            trace: Some(root),
            at: 7,
            changed: None,
            staged_verdicts: None,
        };
        for g in &gates {
            let d = g.evaluate(&cx);
            let t = d.trace.expect("traced context stamps every verdict");
            assert_eq!(t, root.child(g.name()), "verdict is a commit child");
            assert_eq!(t.trace_id, root.trace_id);
        }
        let snap = journal.snapshot();
        let verdicts = snap.events_named("gate.verdict");
        assert_eq!(verdicts.len(), 4, "one verdict event per gate");
        assert!(verdicts.iter().all(|e| e.at == 7));
        // Each requirement document also produced a NALABS verdict
        // record, a child of the commit labelled with the document id.
        let docs = snap.events_named("nalabs.verdict");
        assert_eq!(docs.len(), commit.requirements.len());
        for (ev, doc) in docs.iter().zip(&commit.requirements) {
            assert_eq!(ev.trace, Some(root.child(doc.id())));
            assert_eq!(ev.severity, vdo_trace::Severity::Warn, "smelly is Warn");
        }
    }

    #[test]
    fn compliance_gate_severity_floor() {
        use crate::Staged;
        let catalog = vdo_stigs::ubuntu::shared_catalog();
        let mut prod = vdo_host::UnixHost::baseline_ubuntu_1804();
        let verdicts = vdo_core::RemediationPlanner::default().remediate(catalog, &mut prod);
        // V-219180 (PASS_MAX_DAYS 60) is CAT III: only a Low floor
        // blocks a commit that breaks it.
        let commit = Commit::new("lax-passwords").with_change(ConfigChange::SetDirective(
            "/etc/login.defs".into(),
            "PASS_MAX_DAYS".into(),
            "99999".into(),
        ));
        let journal = Journal::disabled();
        for (block_at, passes) in [
            (Severity::Low, false),
            (Severity::Medium, true),
            (Severity::High, true),
        ] {
            let gate = ComplianceGate::new(catalog, block_at);
            let reference = gate.evaluate(&commit, &prod);
            assert_eq!(reference.passed, passes, "block at {block_at}: {reference}");
            if !passes {
                assert_eq!(reference.reasons.len(), 1, "{reference}");
                assert!(reference.reasons[0].contains("V-219180"), "{reference}");
            }
            // The same commit staged on production in place gets the
            // same decision, and rolls back when the guard drops.
            let mut host = prod.clone();
            let staged = Staged::apply(&mut host, &commit.changes);
            let after = staged.recheck(catalog, &verdicts);
            let cx = GateContext {
                staged_verdicts: Some(&after),
                ..GateContext::untraced(&commit, staged.host(), &journal)
            };
            assert_eq!(Gate::evaluate(&gate, &cx), reference);
            drop(staged);
            assert_eq!(host, prod);
        }
    }
}
