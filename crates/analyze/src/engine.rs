//! The analysis engine: runs every registered lint over an artifact
//! set, applies the configured levels, and produces a deterministic
//! [`AnalysisReport`].

use serde::Serialize;

use crate::artifact::ArtifactSet;
use crate::config::AnalysisConfig;
use crate::diag::{Diagnostic, LintCode, LintLevel, Severity};
use crate::lints::LintRegistry;

/// Cross-artifact static analyzer.
///
/// Construction pairs a [`LintRegistry`] with an [`AnalysisConfig`];
/// [`analyze`](Analyzer::analyze) and friends are then pure functions
/// of the artifact set. Parallel analysis
/// ([`analyze_all`](Analyzer::analyze_all)) is bit-identical to
/// sequential at any thread count: lint results are joined in
/// registration order and the final report is sorted into the canonical
/// diagnostic order regardless of which worker produced what.
pub struct Analyzer {
    registry: LintRegistry,
    config: AnalysisConfig,
}

impl Analyzer {
    /// An analyzer with every built-in lint and the given config.
    #[must_use]
    pub fn new(config: AnalysisConfig) -> Self {
        Analyzer {
            registry: LintRegistry::with_default_lints(),
            config,
        }
    }

    /// An analyzer over a custom lint registry.
    #[must_use]
    pub fn with_registry(registry: LintRegistry, config: AnalysisConfig) -> Self {
        Analyzer { registry, config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The lint registry.
    #[must_use]
    pub fn registry(&self) -> &LintRegistry {
        &self.registry
    }

    /// Runs every lint sequentially.
    #[must_use]
    pub fn analyze(&self, artifacts: &ArtifactSet) -> AnalysisReport {
        self.analyze_all(artifacts, 1)
    }

    /// Runs every lint across `threads` workers.
    ///
    /// Lints are distributed round-robin; each worker's findings are
    /// collected per lint index, joined in registration order, and the
    /// merged list is sorted into the canonical [`Diagnostic`] order —
    /// so the report is byte-identical whatever `threads` is.
    #[must_use]
    pub fn analyze_all(&self, artifacts: &ArtifactSet, threads: usize) -> AnalysisReport {
        // Lints whose every code is allowed never run at all.
        let jobs: Vec<&dyn crate::lints::Lint> = self
            .registry
            .iter()
            .filter(|l| {
                l.codes()
                    .iter()
                    .any(|&c| self.config.level(c) != LintLevel::Allow)
            })
            .collect();

        let slots = run_striped(jobs.len(), threads, |i| {
            jobs[i].run(artifacts, &self.config)
        });
        finish_report(&self.config, slots.into_iter().flatten().collect())
    }
}

/// Runs `count` independent jobs across `threads` workers with
/// round-robin striping, collecting results into job order — the shared
/// parallel backbone of [`Analyzer::analyze_all`] and the incremental
/// engine's dirty-slice dispatch. With one thread (or one job) the
/// whole thing runs inline on the caller's stack.
pub(crate) fn run_striped<T, F>(count: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 {
        return (0..count).map(run).collect();
    }
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let run = &run;
                scope.spawn(move || {
                    let mut produced = Vec::new();
                    let mut i = t;
                    while i < count {
                        produced.push((i, run(i)));
                        i += threads;
                    }
                    produced
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("analysis worker panicked"))
            .collect::<Vec<_>>()
    });
    for (i, v) in results {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job produced a result"))
        .collect()
}

/// Applies the configured levels to raw (placeholder-severity)
/// diagnostics and sorts/dedups into the canonical report order — the
/// shared finishing path of the batch and incremental engines.
pub(crate) fn finish_report(config: &AnalysisConfig, raw: Vec<Diagnostic>) -> AnalysisReport {
    let mut diagnostics = Vec::with_capacity(raw.len());
    for mut d in raw {
        match config.level(d.code) {
            LintLevel::Allow => continue,
            LintLevel::Warn => d.severity = Severity::Warning,
            LintLevel::Deny => d.severity = Severity::Error,
        }
        diagnostics.push(d);
    }
    diagnostics.sort();
    diagnostics.dedup();
    AnalysisReport { diagnostics }
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("registry", &self.registry)
            .field("config", &self.config)
            .finish()
    }
}

/// The outcome of one analysis run: diagnostics in canonical order
/// (code, severity, artifact, message, related), deduplicated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// All findings, sorted and deduplicated.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// `true` iff no lint fired at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` iff any error-severity finding exists (what the CI gate
    /// keys on).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Findings for one lint code.
    pub fn by_code(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Deterministic one-finding-per-line listing; equal-seed runs at
    /// any thread count produce byte-identical listings.
    #[must_use]
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return writeln!(f, "analysis clean: no findings");
        }
        write!(f, "{}", self.listing())?;
        writeln!(
            f,
            "{} errors, {} warnings",
            self.error_count(),
            self.warning_count()
        )
    }
}

impl Serialize for AnalysisReport {
    fn to_value(&self) -> serde::json::Value {
        serde::json::object([
            ("diagnostics", self.diagnostics.to_value()),
            ("errors", (self.error_count() as u64).to_value()),
            ("warnings", (self.warning_count() as u64).to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{EntryArtifact, ReqExpr};
    use vdo_core::Waiver;
    use vdo_temporal::Formula;

    /// An artifact set that trips every lint class at least once.
    fn dirty_set() -> ArtifactSet {
        let mut m = vdo_gwt::GraphModel::new("m-broken");
        let a = m.add_vertex("a");
        let b = m.add_vertex("b");
        m.add_vertex("island");
        m.add_edge(a, b, "go");
        m.set_start(a);
        ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-CONTRA").expr(ReqExpr::all_of([
                ReqExpr::atom("x"),
                ReqExpr::not(ReqExpr::atom("x")),
            ])))
            .with_entry(EntryArtifact::new("V-A").expr(ReqExpr::atom("a")))
            .with_entry(EntryArtifact::new("V-A2").expr(ReqExpr::atom("a")))
            .with_waiver(Waiver {
                finding_id: "V-GHOST".into(),
                reason: "gone".into(),
                expires_at: None,
            })
            .with_formula(
                "f-contra",
                Formula::and(
                    Formula::globally(Formula::atom("p")),
                    Formula::finally(Formula::not(Formula::atom("p"))),
                ),
            )
            .with_model(m)
            .with_assertion(
                vdo_tears::GuardedAssertion::parse(
                    "ga \"dead-guard\": when load > 1 and load < 0 then ok == 1",
                )
                .unwrap(),
            )
            .covered_dev("V-CONTRA")
            .covered_dev("V-A")
            .covered_dev("V-A2")
    }

    #[test]
    fn parallel_matches_sequential_on_dirty_set() {
        let analyzer = Analyzer::new(AnalysisConfig::default());
        let set = dirty_set();
        let seq = analyzer.analyze_all(&set, 1);
        for threads in [2, 3, 4, 8] {
            let par = analyzer.analyze_all(&set, threads);
            assert_eq!(seq, par, "threads={threads}");
            assert_eq!(seq.listing(), par.listing(), "threads={threads}");
        }
        assert!(!seq.is_clean());
        assert!(seq.has_errors());
    }

    #[test]
    fn report_is_sorted_and_counts_add_up() {
        let analyzer = Analyzer::new(AnalysisConfig::default());
        let report = analyzer.analyze(&dirty_set());
        let mut sorted = report.diagnostics.clone();
        sorted.sort();
        assert_eq!(sorted, report.diagnostics);
        assert_eq!(
            report.error_count() + report.warning_count(),
            report.diagnostics.len()
        );
    }

    #[test]
    fn allow_drops_and_warn_downgrades() {
        let config = AnalysisConfig::builder()
            .allow(LintCode::DuplicateEntry)
            .warn(LintCode::ContradictoryComposite)
            .build()
            .unwrap();
        let analyzer = Analyzer::new(config);
        let report = analyzer.analyze(&dirty_set());
        assert_eq!(report.by_code(LintCode::DuplicateEntry).count(), 0);
        let contra: Vec<_> = report.by_code(LintCode::ContradictoryComposite).collect();
        assert_eq!(contra.len(), 1);
        assert_eq!(contra[0].severity, Severity::Warning);
    }

    #[test]
    fn clean_set_stays_clean() {
        let analyzer = Analyzer::new(AnalysisConfig::default());
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-1").expr(ReqExpr::atom("cfg_1")))
            .with_formula(
                "response",
                Formula::globally(Formula::implies(
                    Formula::atom("request"),
                    Formula::finally(Formula::atom("response")),
                )),
            )
            .covered_dev_all();
        let report = analyzer.analyze(&set);
        assert!(
            report.is_clean(),
            "unexpected findings:\n{}",
            report.listing()
        );
        assert_eq!(report.to_string(), "analysis clean: no findings\n");
    }

    #[test]
    fn report_serialises_to_json() {
        let analyzer = Analyzer::new(AnalysisConfig::default());
        let report = analyzer.analyze(&dirty_set());
        let json = serde::json::to_string(&report);
        assert!(json.contains("\"diagnostics\""));
        assert!(json.contains("VDA002"));
    }
}
