//! Document and corpus analysis: run the metric suite, apply smell
//! thresholds, aggregate, and score against planted ground truth.

use std::cmp::Reverse;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::dictionaries::Matcher;
use crate::metrics::{self, Metric, MetricValue};
use crate::text::{RequirementDoc, TextStats};

/// Per-metric decision thresholds: a document *smells* of a metric when
/// its value crosses the metric's threshold.
///
/// Most smells trigger on density (hits per word); `imperatives` is
/// inverted (raw == 0 is the smell); `readability_ari` and `size_words`
/// trigger on raw value.
#[derive(Debug, Clone, PartialEq)]
pub struct SmellThresholds {
    /// Density above which a dictionary smell is flagged.
    pub density: f64,
    /// ARI above which text is flagged unreadable.
    pub max_ari: f64,
    /// Word count above which a requirement is flagged over-complex.
    pub max_words: usize,
}

impl Default for SmellThresholds {
    fn default() -> Self {
        // Note on max_ari: D2.7's formula `WS + 9·SW` sits near 9·5 = 45
        // for ordinary prose (SW ≈ 5 letters/word) before the sentence
        // term; 80 flags only genuinely long-winded text.
        SmellThresholds {
            density: 0.05,
            max_ari: 80.0,
            max_words: 60,
        }
    }
}

impl SmellThresholds {
    /// Decides whether the named metric's value constitutes a smell.
    #[must_use]
    pub fn is_smelly(&self, metric: &str, value: MetricValue, stats: &TextStats) -> bool {
        match metric {
            "imperatives" => value.raw == 0.0 && stats.word_count() > 0,
            "readability_ari" => value.raw > self.max_ari,
            "size_words" => value.raw as usize > self.max_words,
            // Incompleteness placeholders are a smell at any density.
            "incompleteness" => value.raw > 0.0,
            _ => value.density > self.density,
        }
    }
}

/// Analysis result for one requirement document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentReport {
    id: String,
    /// The suite's metric names, shared by every report of one analyzer.
    names: Arc<[&'static str]>,
    /// One value per metric, in suite order.
    values: Vec<MetricValue>,
    smells: Vec<&'static str>,
}

impl DocumentReport {
    /// Requirement id this report describes.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Metric value by name (of the last metric so named, if the suite
    /// repeats a name).
    #[must_use]
    pub fn value(&self, metric: &str) -> Option<MetricValue> {
        let at = self.names.iter().rposition(|name| *name == metric)?;
        Some(self.values[at])
    }

    /// Every metric's name and value, in suite order.
    pub fn values(&self) -> impl Iterator<Item = (&'static str, MetricValue)> + '_ {
        self.names.iter().copied().zip(self.values.iter().copied())
    }

    /// Names of metrics flagged as smells.
    #[must_use]
    pub fn smells(&self) -> &[&'static str] {
        &self.smells
    }

    /// Number of flagged smells.
    #[must_use]
    pub fn smell_count(&self) -> usize {
        self.smells.len()
    }

    /// `true` iff at least one smell was flagged.
    #[must_use]
    pub fn is_smelly(&self) -> bool {
        !self.smells.is_empty()
    }
}

/// Aggregate over a corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusReport {
    reports: Vec<DocumentReport>,
}

impl CorpusReport {
    /// Per-document reports in input order.
    #[must_use]
    pub fn documents(&self) -> &[DocumentReport] {
        &self.reports
    }

    /// Number of analysed documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// `true` iff no documents were analysed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Fraction of documents with at least one smell.
    #[must_use]
    pub fn smelly_ratio(&self) -> f64 {
        if self.reports.is_empty() {
            0.0
        } else {
            self.reports.iter().filter(|r| r.is_smelly()).count() as f64 / self.reports.len() as f64
        }
    }

    /// Count of documents flagged with the named smell.
    #[must_use]
    pub fn flagged_with(&self, metric: &str) -> usize {
        self.reports
            .iter()
            .filter(|r| r.smells.contains(&metric))
            .count()
    }

    /// Precision/recall of the smell flags against ground truth: `truth`
    /// maps document ids to "really smelly". Used by E1, where the corpus
    /// generator knows which documents it salted.
    #[must_use]
    pub fn score_against(&self, truth: &dyn Fn(&str) -> bool) -> PrecisionRecall {
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        let mut tn = 0usize;
        for r in &self.reports {
            match (r.is_smelly(), truth(r.id())) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => tn += 1,
            }
        }
        PrecisionRecall {
            true_positives: tp,
            false_positives: fp,
            false_negatives: fn_,
            true_negatives: tn,
        }
    }

    /// Renders the corpus analysis as CSV: one row per document with
    /// every metric's raw value plus the flagged-smell list. The metric
    /// columns are in alphabetical order, one per name (every document
    /// runs the same suite).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let Some(first) = self.reports.first() else {
            return String::from("req_id,smells\n");
        };
        let names = &first.names;
        let mut columns: Vec<usize> = (0..names.len()).collect();
        columns.sort_by_key(|&i| (names[i], Reverse(i)));
        columns.dedup_by_key(|i| names[*i]);
        let mut out = String::from("req_id");
        for &i in &columns {
            out.push(',');
            out.push_str(names[i]);
        }
        out.push_str(",smells\n");
        for r in &self.reports {
            out.push_str(r.id());
            for &i in &columns {
                out.push_str(&format!(",{}", r.values[i].raw));
            }
            out.push_str(&format!(",\"{}\"\n", r.smells().join(";")));
        }
        out
    }

    /// Renders a fixed-width table, one row per document: id, smell
    /// count, flagged smell names.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<16} {:>7}  {}\n", "REQ", "SMELLS", "FLAGGED"));
        for r in &self.reports {
            out.push_str(&format!(
                "{:<16} {:>7}  {}\n",
                r.id(),
                r.smell_count(),
                r.smells().join(", ")
            ));
        }
        out.push_str(&format!(
            "-- {} documents, {:.1}% smelly\n",
            self.len(),
            100.0 * self.smelly_ratio()
        ));
        out
    }
}

impl fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

/// Binary-classification counts with derived rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecisionRecall {
    /// Flagged and actually smelly.
    pub true_positives: usize,
    /// Flagged but clean.
    pub false_positives: usize,
    /// Missed smells.
    pub false_negatives: usize,
    /// Correctly unflagged.
    pub true_negatives: usize,
}

impl PrecisionRecall {
    /// `tp / (tp + fp)`; 1 when nothing was flagged.
    #[must_use]
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// `tp / (tp + fn)`; 1 when nothing was smelly.
    #[must_use]
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall (0 when both are 0).
    #[must_use]
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// A metric suite ready to run: its dictionaries compiled into one
/// matcher, whose slot `i` counts metric `i`'s dictionary, and its names
/// in suite order for the reports.
struct Suite {
    metrics: Vec<Box<dyn Metric>>,
    names: Arc<[&'static str]>,
    matcher: Matcher,
}

impl Suite {
    fn compile(metrics: Vec<Box<dyn Metric>>) -> Self {
        Suite {
            matcher: Matcher::compile(metrics.iter().map(|m| m.dictionary())),
            names: metrics.iter().map(|m| m.name()).collect(),
            metrics,
        }
    }
}

/// Runs a metric suite over documents and corpora.
pub struct Analyzer {
    suite: Arc<Suite>,
    thresholds: SmellThresholds,
}

impl Analyzer {
    /// Creates an analyzer over a custom metric suite, compiling the
    /// suite's dictionaries into one matcher.
    #[must_use]
    pub fn new(metrics: Vec<Box<dyn Metric>>, thresholds: SmellThresholds) -> Self {
        Analyzer {
            suite: Arc::new(Suite::compile(metrics)),
            thresholds,
        }
    }

    /// The default NALABS configuration: full metric suite, default
    /// thresholds. The suite is compiled once per process and shared by
    /// every analyzer made here.
    #[must_use]
    pub fn with_default_metrics() -> Self {
        static DEFAULT: OnceLock<Arc<Suite>> = OnceLock::new();
        let suite = DEFAULT.get_or_init(|| Arc::new(Suite::compile(metrics::default_suite())));
        Analyzer {
            suite: Arc::clone(suite),
            thresholds: SmellThresholds::default(),
        }
    }

    /// The thresholds in force.
    #[must_use]
    pub fn thresholds(&self) -> &SmellThresholds {
        &self.thresholds
    }

    /// Analyses one document: one pass over its lower-cased text counts
    /// every dictionary of the suite.
    #[must_use]
    pub fn analyze(&self, doc: &RequirementDoc) -> DocumentReport {
        let suite = &*self.suite;
        let mut hits = vec![0; suite.metrics.len()];
        let stats = TextStats::matched(doc.text(), &suite.matcher, &mut hits);
        let mut smells = Vec::new();
        let values = suite
            .metrics
            .iter()
            .zip(hits)
            .map(|(m, hits)| {
                let v = if m.dictionary().is_some() {
                    MetricValue::counted(hits as f64, stats.word_count())
                } else {
                    m.evaluate(&stats)
                };
                if self.thresholds.is_smelly(m.name(), v, &stats) {
                    smells.push(m.name());
                }
                v
            })
            .collect();
        DocumentReport {
            id: doc.id().to_string(),
            names: Arc::clone(&suite.names),
            values,
            smells,
        }
    }

    /// Analyses a corpus.
    #[must_use]
    pub fn analyze_corpus<'a, I>(&self, docs: I) -> CorpusReport
    where
        I: IntoIterator<Item = &'a RequirementDoc>,
    {
        CorpusReport {
            reports: docs.into_iter().map(|d| self.analyze(d)).collect(),
        }
    }

    /// Analyses a corpus on `threads` worker threads (documents are
    /// independent, so the corpus is chunked and results reassembled in
    /// input order). Produces exactly the same report as
    /// [`analyze_corpus`](Self::analyze_corpus).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn analyze_corpus_parallel(&self, docs: &[RequirementDoc], threads: usize) -> CorpusReport {
        assert!(threads > 0, "need at least one worker thread");
        if docs.is_empty() {
            return CorpusReport {
                reports: Vec::new(),
            };
        }
        let chunk = docs.len().div_ceil(threads);
        let reports = std::thread::scope(|scope| {
            let handles: Vec<_> = docs
                .chunks(chunk)
                .map(|slice| {
                    scope.spawn(move || slice.iter().map(|d| self.analyze(d)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("analysis worker panicked"))
                .collect()
        });
        CorpusReport { reports }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: &str, text: &str) -> RequirementDoc {
        RequirementDoc::new(id, text)
    }

    #[test]
    fn clean_requirement_is_clean() {
        let a = Analyzer::with_default_metrics();
        let r = a.analyze(&doc(
            "R-1",
            "The system shall lock the user session after 15 minutes of inactivity.",
        ));
        assert!(!r.is_smelly(), "flagged: {:?}", r.smells());
    }

    #[test]
    fn smelly_requirement_is_flagged() {
        let a = Analyzer::with_default_metrics();
        let r = a.analyze(&doc(
            "R-2",
            "The system may possibly provide adequate security as appropriate, \
             see section 3 and refer to table 2, TBD.",
        ));
        assert!(r.smells().contains(&"optionality"));
        assert!(r.smells().contains(&"references"));
        assert!(r.smells().contains(&"incompleteness"));
        assert!(r.smells().contains(&"imperatives"), "no modal verb present");
    }

    #[test]
    fn missing_imperative_only_flagged_for_nonempty() {
        let a = Analyzer::with_default_metrics();
        let empty = a.analyze(&doc("R-0", ""));
        assert!(!empty.smells().contains(&"imperatives"));
    }

    #[test]
    fn oversize_flagged() {
        let a = Analyzer::with_default_metrics();
        let long = "word ".repeat(100) + "shall";
        let r = a.analyze(&doc("R-3", &long));
        assert!(r.smells().contains(&"size_words"));
    }

    #[test]
    fn corpus_aggregation_and_scoring() {
        let a = Analyzer::with_default_metrics();
        let docs = vec![
            doc(
                "clean-1",
                "The system shall log every failed logon attempt.",
            ),
            doc(
                "smelly-1",
                "The system may be fast and easy, TBD, see section 9.",
            ),
            doc(
                "clean-2",
                "The device shall encrypt stored credentials with AES-256.",
            ),
        ];
        let report = a.analyze_corpus(&docs);
        assert_eq!(report.len(), 3);
        assert!((report.smelly_ratio() - 1.0 / 3.0).abs() < 1e-9);
        let pr = report.score_against(&|id: &str| id.starts_with("smelly"));
        assert_eq!(pr.true_positives, 1);
        assert_eq!(pr.false_positives, 0);
        assert_eq!(pr.false_negatives, 0);
        assert!((pr.precision() - 1.0).abs() < 1e-9);
        assert!((pr.recall() - 1.0).abs() < 1e-9);
        assert!((pr.f1() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn precision_recall_edge_cases() {
        let pr = PrecisionRecall {
            true_positives: 0,
            false_positives: 0,
            false_negatives: 0,
            true_negatives: 5,
        };
        assert_eq!(pr.precision(), 1.0);
        assert_eq!(pr.recall(), 1.0);
        let bad = PrecisionRecall {
            true_positives: 0,
            false_positives: 3,
            false_negatives: 2,
            true_negatives: 0,
        };
        assert_eq!(bad.precision(), 0.0);
        assert_eq!(bad.recall(), 0.0);
        assert_eq!(bad.f1(), 0.0);
    }

    #[test]
    fn parallel_analysis_matches_sequential() {
        let a = Analyzer::with_default_metrics();
        let docs: Vec<RequirementDoc> = (0..57)
            .map(|i| {
                doc(
                    &format!("R-{i}"),
                    if i % 3 == 0 {
                        "The system may possibly be adequate, TBD."
                    } else {
                        "The system shall log all failed logons."
                    },
                )
            })
            .collect();
        let sequential = a.analyze_corpus(&docs);
        for threads in [1, 2, 4, 7] {
            let parallel = a.analyze_corpus_parallel(&docs, threads);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
        assert!(a.analyze_corpus_parallel(&[], 4).is_empty());
    }

    #[test]
    fn csv_has_metric_columns() {
        let a = Analyzer::with_default_metrics();
        let report = a.analyze_corpus(&[doc("R-1", "The system may crash.")]);
        let csv = report.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.starts_with("req_id,"));
        assert!(header.contains("optionality"));
        assert!(header.ends_with("smells"));
        assert!(csv.lines().nth(1).unwrap().starts_with("R-1,"));
        // Empty corpus still yields a header.
        assert_eq!(a.analyze_corpus(&[]).to_csv(), "req_id,smells\n");
    }

    #[test]
    fn table_renders() {
        let a = Analyzer::with_default_metrics();
        let report = a.analyze_corpus(&[doc("R-9", "The system may crash.")]);
        let t = report.to_table();
        assert!(t.contains("R-9"));
        assert!(t.contains("documents"));
        assert_eq!(report.flagged_with("optionality"), 1);
    }
}
