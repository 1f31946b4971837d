//! Planted-defect corpora for the static analyzer (experiment E13).
//!
//! NALABS precision/recall (E1) is measured against requirement smells
//! planted at known positions; this module does the same for
//! `vdo-analyze`. [`generate`] builds an [`ArtifactSet`] containing a
//! configurable number of *clean* requirements-as-code artifacts plus
//! `defects_per_class` planted defects for **every** lint class
//! `VDA001`–`VDA012`, and records the exact `(artifact, code)` pairs
//! the analyzer is expected to report. [`DefectCorpus::score`] then
//! turns an [`vdo_analyze::AnalysisReport`] into
//! per-class and overall precision/recall against that ground truth.
//!
//! The seed shuffles catalogue-entry insertion order (the analyzer's
//! output must not depend on it) but never changes which defects are
//! planted.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vdo_analyze::{AnalysisReport, ArtifactSet, EntryArtifact, LintCode};
use vdo_core::{Guard, Waiver};
use vdo_gwt::GraphModel;
use vdo_tears::{parse_guard, GuardedAssertion};
use vdo_temporal::Formula;

/// The corpus is generated at this tick; expired-waiver plants expire
/// well before it.
const NOW: u64 = 100;

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefectConfig {
    /// Number of clean catalogue entries (each dev-covered, with a
    /// satisfiable expression; every third also ships a contingent
    /// monitor formula, plus occasional clean models and assertions).
    pub clean_entries: usize,
    /// Number of defects planted *per lint class*.
    pub defects_per_class: usize,
    /// Shuffles catalogue-entry insertion order only; the planted
    /// ground truth is seed-independent.
    pub seed: u64,
}

impl Default for DefectConfig {
    fn default() -> Self {
        DefectConfig {
            clean_entries: 60,
            defects_per_class: 3,
            seed: 7,
        }
    }
}

/// A generated corpus: the artifacts plus the exact diagnostics ground
/// truth.
#[derive(Debug, Clone)]
pub struct DefectCorpus {
    /// The artifacts to analyse.
    pub artifacts: ArtifactSet,
    /// Every `(artifact id, lint code)` pair the analyzer must report —
    /// nothing more, nothing less.
    pub expected: BTreeSet<(String, LintCode)>,
}

/// Detection quality for one lint class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassScore {
    /// Expected diagnostics of this class.
    pub planted: usize,
    /// Reported diagnostics matching an expected pair.
    pub true_positives: usize,
    /// Reported diagnostics matching no expected pair.
    pub false_positives: usize,
    /// Expected pairs the analyzer missed.
    pub false_negatives: usize,
}

impl ClassScore {
    /// `tp / (tp + fp)`; `1.0` when nothing was reported.
    #[must_use]
    pub fn precision(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }

    /// `tp / (tp + fn)`; `1.0` when nothing was planted.
    #[must_use]
    pub fn recall(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_negatives,
        )
    }
}

/// Overall detection quality of one analysis run against the corpus
/// ground truth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DefectScore {
    /// Per-class breakdown, one row per [`LintCode`].
    pub per_class: BTreeMap<LintCode, ClassScore>,
    /// Reported diagnostics matching an expected pair.
    pub true_positives: usize,
    /// Reported diagnostics matching no expected pair.
    pub false_positives: usize,
    /// Expected pairs the analyzer missed.
    pub false_negatives: usize,
}

impl DefectScore {
    /// Overall precision; `1.0` when nothing was reported.
    #[must_use]
    pub fn precision(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }

    /// Overall recall; `1.0` when nothing was planted.
    #[must_use]
    pub fn recall(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_negatives,
        )
    }

    /// `true` iff every planted defect was found and nothing else was
    /// reported.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.false_positives == 0 && self.false_negatives == 0
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

impl DefectCorpus {
    /// Total number of planted `(artifact, code)` pairs.
    #[must_use]
    pub fn planted_total(&self) -> usize {
        self.expected.len()
    }

    /// Scores an analysis run of [`Self::artifacts`] against the
    /// planted ground truth.
    #[must_use]
    pub fn score(&self, report: &AnalysisReport) -> DefectScore {
        let found: BTreeSet<(String, LintCode)> = report
            .diagnostics
            .iter()
            .map(|d| (d.artifact.clone(), d.code))
            .collect();
        let mut score = DefectScore::default();
        for code in LintCode::ALL {
            score.per_class.insert(code, ClassScore::default());
        }
        for (artifact, code) in &found {
            let class = score.per_class.entry(*code).or_default();
            if self.expected.contains(&(artifact.clone(), *code)) {
                class.true_positives += 1;
                score.true_positives += 1;
            } else {
                class.false_positives += 1;
                score.false_positives += 1;
            }
        }
        for (artifact, code) in &self.expected {
            let class = score.per_class.entry(*code).or_default();
            class.planted += 1;
            if !found.contains(&(artifact.clone(), *code)) {
                class.false_negatives += 1;
                score.false_negatives += 1;
            }
        }
        score
    }
}

/// Generates a corpus with known-clean artifacts and
/// `defects_per_class` planted defects for every lint class.
#[must_use]
pub fn generate(config: &DefectConfig) -> DefectCorpus {
    let mut entries: Vec<(EntryArtifact, bool)> = Vec::new(); // (entry, dev-covered)
    let mut formulas: Vec<(String, Formula)> = Vec::new();
    let mut models: Vec<GraphModel> = Vec::new();
    let mut assertions: Vec<GuardedAssertion> = Vec::new();
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut dangling_dev: Vec<String> = Vec::new();
    let mut dangling_ops: Vec<String> = Vec::new();
    let mut expected: BTreeSet<(String, LintCode)> = BTreeSet::new();
    // Identical-expression pairs: which side gets flagged depends on
    // insertion order, so they are resolved after the shuffle.
    let mut twin_pairs: Vec<(String, String)> = Vec::new();

    for i in 0..config.clean_entries {
        let id = format!("REQ-{i:04}");
        entries.push((
            EntryArtifact::new(&id)
                .title(format!("baseline hardening requirement {i}"))
                .expr(Guard::all_of([
                    Guard::atom(format!("cfg_{i}")),
                    Guard::not(Guard::atom(format!("weak_{i}"))),
                ])),
            true,
        ));
        if i % 3 == 0 {
            // Contingent response pattern: satisfiable and falsifiable.
            formulas.push((
                format!("monitor-{id}"),
                Formula::globally(Formula::implies(
                    Formula::atom(format!("request_{i}")),
                    Formula::finally(Formula::atom(format!("response_{i}"))),
                )),
            ));
        }
        if i % 10 == 4 {
            let mut m = GraphModel::new(format!("model-{id}"));
            let idle = m.add_vertex("idle");
            let active = m.add_vertex("active");
            let done = m.add_vertex("done");
            m.add_edge(idle, active, "start");
            m.add_edge(active, done, "finish");
            m.add_edge(done, idle, "reset");
            m.set_start(idle);
            models.push(m);
        }
        if i % 10 == 7 {
            assertions.push(GuardedAssertion::new(
                format!("assert-{id}"),
                parse_guard("load > 90").expect("clean guard parses"),
                parse_guard("throttled == 1").expect("clean assertion parses"),
                5,
            ));
        }
    }

    for i in 0..config.defects_per_class {
        // VDA001 — a composite requiring an atom and its negation.
        let id = format!("DEF-VDA001-{i}");
        entries.push((
            EntryArtifact::new(&id).expr(Guard::all_of([
                Guard::atom(format!("k1_{i}")),
                Guard::not(Guard::atom(format!("k1_{i}"))),
            ])),
            true,
        ));
        expected.insert((id, LintCode::ContradictoryComposite));

        // VDA002, flavour one — the same finding id declared twice.
        let id = format!("DEF-VDA002-ID-{i}");
        entries.push((
            EntryArtifact::new(&id).expr(Guard::atom(format!("k2a_{i}"))),
            true,
        ));
        entries.push((
            EntryArtifact::new(&id).expr(Guard::atom(format!("k2b_{i}"))),
            true,
        ));
        expected.insert((id, LintCode::DuplicateEntry));

        // VDA002, flavour two — distinct ids, identical expression.
        // The later entry in insertion order is flagged, so the
        // expected pair is resolved after the shuffle below.
        let twin = Guard::all_of([
            Guard::atom(format!("k2c_{i}")),
            Guard::atom(format!("k2d_{i}")),
        ]);
        let a = format!("DEF-VDA002-EQ-{i}-a");
        let b = format!("DEF-VDA002-EQ-{i}-b");
        entries.push((EntryArtifact::new(&a).expr(twin.clone()), true));
        entries.push((EntryArtifact::new(&b).expr(twin), true));
        twin_pairs.push((a, b));

        // VDA003 — a weak entry implied by a stronger one.
        let weak = format!("DEF-VDA003-{i}-weak");
        entries.push((
            EntryArtifact::new(&weak).expr(Guard::atom(format!("k3_{i}"))),
            true,
        ));
        entries.push((
            EntryArtifact::new(format!("DEF-VDA003-{i}-strong")).expr(Guard::all_of([
                Guard::atom(format!("k3_{i}")),
                Guard::atom(format!("k3x_{i}")),
            ])),
            true,
        ));
        expected.insert((weak, LintCode::SubsumedEntry));

        // VDA004 — a waiver for a finding id no entry carries.
        let ghost = format!("GHOST-{i}");
        waivers.push(Waiver {
            finding_id: ghost.clone(),
            reason: "exception kept after the finding was retired".into(),
            expires_at: None,
        });
        expected.insert((ghost, LintCode::UnknownWaiver));

        // VDA005 — a waiver that lapsed before the current tick.
        let id = format!("DEF-VDA005-{i}");
        entries.push((
            EntryArtifact::new(&id).expr(Guard::atom(format!("k5_{i}"))),
            true,
        ));
        waivers.push(Waiver {
            finding_id: id.clone(),
            reason: "quarterly exemption".into(),
            expires_at: Some(NOW - 60),
        });
        expected.insert((id, LintCode::ExpiredWaiver));

        // VDA006 — fails on every trace: G p ∧ F ¬p.
        let name = format!("contradiction-{i}");
        formulas.push((
            name.clone(),
            Formula::and(
                Formula::globally(Formula::atom(format!("p6_{i}"))),
                Formula::finally(Formula::not(Formula::atom(format!("p6_{i}")))),
            ),
        ));
        expected.insert((name, LintCode::ContradictoryFormula));

        // VDA007 — passes on every trace: p ∨ ¬p.
        let name = format!("tautology-{i}");
        formulas.push((
            name.clone(),
            Formula::or(
                Formula::atom(format!("p7_{i}")),
                Formula::not(Formula::atom(format!("p7_{i}"))),
            ),
        ));
        expected.insert((name, LintCode::TautologicalFormula));

        // VDA008 — a response pattern whose antecedent is unsatisfiable.
        // Five atoms in total keeps the formula outside the bounded
        // witness search's atom budget, so only the vacuity lint (which
        // inspects the propositional antecedent alone) reports it.
        let name = format!("vacuous-{i}");
        let alert = |n: u32| Formula::atom(format!("alert{n}_{i}"));
        formulas.push((
            name.clone(),
            Formula::globally(Formula::implies(
                Formula::and(
                    Formula::atom(format!("a8_{i}")),
                    Formula::not(Formula::atom(format!("a8_{i}"))),
                ),
                Formula::finally(Formula::or(
                    Formula::or(alert(1), alert(2)),
                    Formula::or(alert(3), alert(4)),
                )),
            )),
        ));
        expected.insert((name, LintCode::VacuousPattern));

        // VDA009 — a model with an island the start vertex never reaches.
        let name = format!("island-{i}");
        let mut m = GraphModel::new(&name);
        let start = m.add_vertex("start");
        let up = m.add_vertex("up");
        let lost_a = m.add_vertex("lost_a");
        let lost_b = m.add_vertex("lost_b");
        m.add_edge(start, up, "boot");
        m.add_edge(up, start, "shutdown");
        m.add_edge(lost_a, lost_b, "drift");
        m.set_start(start);
        models.push(m);
        expected.insert((name, LintCode::UnreachableModel));

        // VDA010 — a guard no signal valuation satisfies.
        let name = format!("dead-guard-{i}");
        assertions.push(GuardedAssertion::new(
            &name,
            parse_guard("load > 1 and load < 0").expect("dead guard parses"),
            parse_guard("throttled == 1").expect("assertion parses"),
            5,
        ));
        expected.insert((name, LintCode::UnsatisfiableGuard));

        // VDA011 — an entry neither gated, monitored, nor waived.
        let id = format!("DEF-VDA011-{i}");
        entries.push((
            EntryArtifact::new(&id).expr(Guard::atom(format!("k11_{i}"))),
            false,
        ));
        expected.insert((id, LintCode::UntracedRequirement));

        // VDA012 — a coverage claim for a finding id no entry carries
        // (the entry was deleted, the trace link stayed behind).
        // Alternate the link kind so both dev- and ops-side dangling
        // edges appear in the corpus.
        let ghost = format!("DEF-VDA012-GHOST-{i}");
        if i % 2 == 0 {
            dangling_dev.push(ghost.clone());
        } else {
            dangling_ops.push(ghost.clone());
        }
        expected.insert((ghost, LintCode::DanglingEdge));
    }

    // Entry insertion order must not affect the analyzer's findings;
    // shuffle it so every seed exercises a different order.
    let mut rng = StdRng::seed_from_u64(config.seed);
    for i in (1..entries.len()).rev() {
        let j = rng.gen_range(0..=i);
        entries.swap(i, j);
    }
    for (a, b) in twin_pairs {
        let pos = |id: &str| {
            entries
                .iter()
                .position(|(e, _)| e.finding_id == id)
                .expect("twin entry present")
        };
        let later = if pos(&a) < pos(&b) { b } else { a };
        expected.insert((later, LintCode::DuplicateEntry));
    }

    let mut artifacts = ArtifactSet::new().at_tick(NOW);
    for (entry, covered) in entries {
        let id = entry.finding_id.clone();
        artifacts = artifacts.with_entry(entry);
        if covered {
            artifacts = artifacts.covered_dev(id);
        }
    }
    for w in waivers {
        artifacts = artifacts.with_waiver(w);
    }
    for id in dangling_dev {
        artifacts = artifacts.covered_dev(id);
    }
    for id in dangling_ops {
        artifacts = artifacts.covered_ops(id);
    }
    for (name, f) in formulas {
        artifacts = artifacts.with_formula(name, f);
    }
    for m in models {
        artifacts = artifacts.with_model(m);
    }
    for ga in assertions {
        artifacts = artifacts.with_assertion(ga);
    }

    DefectCorpus {
        artifacts,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_analyze::{AnalysisConfig, Analyzer};

    #[test]
    fn default_corpus_scores_perfectly() {
        let corpus = generate(&DefectConfig::default());
        let report = Analyzer::new(AnalysisConfig::default()).analyze(&corpus.artifacts);
        let score = corpus.score(&report);
        assert!(
            score.is_perfect(),
            "fp={} fn={} listing:\n{}",
            score.false_positives,
            score.false_negatives,
            report.listing()
        );
        assert_eq!(score.precision(), 1.0);
        assert_eq!(score.recall(), 1.0);
        assert!(score.per_class.values().all(|c| c.planted >= 1));
        assert_eq!(score.per_class.len(), LintCode::ALL.len());
    }

    #[test]
    fn every_seed_scores_perfectly() {
        for seed in [1, 2, 3, 99] {
            let corpus = generate(&DefectConfig {
                clean_entries: 20,
                defects_per_class: 2,
                seed,
            });
            let report = Analyzer::new(AnalysisConfig::default()).analyze(&corpus.artifacts);
            assert!(
                corpus.score(&report).is_perfect(),
                "seed {seed} not perfect:\n{}",
                report.listing()
            );
        }
    }

    #[test]
    fn clean_half_produces_no_diagnostics() {
        let corpus = generate(&DefectConfig {
            clean_entries: 50,
            defects_per_class: 0,
            seed: 7,
        });
        assert!(corpus.expected.is_empty());
        let report = Analyzer::new(AnalysisConfig::default()).analyze(&corpus.artifacts);
        assert!(report.is_clean(), "unexpected:\n{}", report.listing());
    }

    #[test]
    fn expected_pairs_scale_with_defect_count() {
        // 12 classes, with VDA002 planted in two flavours.
        let corpus = generate(&DefectConfig {
            clean_entries: 0,
            defects_per_class: 4,
            seed: 7,
        });
        assert_eq!(corpus.planted_total(), 13 * 4);
    }

    #[test]
    fn score_counts_misses_and_extras() {
        let corpus = generate(&DefectConfig {
            clean_entries: 5,
            defects_per_class: 1,
            seed: 7,
        });
        let empty = AnalysisReport {
            diagnostics: Vec::new(),
        };
        let score = corpus.score(&empty);
        assert_eq!(score.true_positives, 0);
        assert_eq!(score.false_negatives, corpus.planted_total());
        assert_eq!(score.recall(), 0.0);
        assert_eq!(score.precision(), 1.0);
    }
}
