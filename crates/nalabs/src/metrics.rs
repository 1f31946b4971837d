//! The metric suite.
//!
//! Every metric maps a tokenised requirement ([`TextStats`]) to a
//! [`MetricValue`]: a raw count (or score) plus a density normalised by
//! word count, so thresholds transfer between short and long
//! requirements.

use std::fmt;
use std::sync::OnceLock;

use crate::dictionaries::{self, Dictionary, Matcher};
use crate::text::TextStats;

/// A metric result: the raw value and its per-word density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricValue {
    /// Raw count or score.
    pub raw: f64,
    /// `raw / word_count` (0 for empty text).
    pub density: f64,
}

impl MetricValue {
    /// Builds a value, computing density against `words`.
    #[must_use]
    pub fn counted(raw: f64, words: usize) -> Self {
        MetricValue {
            raw,
            density: if words == 0 { 0.0 } else { raw / words as f64 },
        }
    }
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ({:.3}/word)", self.raw, self.density)
    }
}

/// A requirement-quality metric.
pub trait Metric: Send + Sync {
    /// Stable metric name (used as report column header).
    fn name(&self) -> &'static str;

    /// Evaluates the metric on a tokenised requirement.
    fn evaluate(&self, stats: &TextStats) -> MetricValue;

    /// The dictionary this metric counts, when its value is the count of
    /// that dictionary's entries, `MetricValue::counted(hits, words)`.
    /// An [`Analyzer`](crate::Analyzer) compiles the dictionaries of its
    /// whole suite into one matcher and values such a metric from that
    /// matcher's count, without calling [`evaluate`](Self::evaluate).
    fn dictionary(&self) -> Option<&Dictionary> {
        None
    }
}

/// Dictionary-count metric: raw = total occurrences of dictionary
/// entries. Covers every dictionary in [`dictionaries::all`], including
/// imperatives, whose smell is a count of zero ([`crate::SmellThresholds`]).
pub struct DictionaryMetric {
    name: &'static str,
    dictionary: Dictionary,
    /// The dictionary alone, compiled on the first direct
    /// [`evaluate`](Metric::evaluate) call.
    matcher: OnceLock<Matcher>,
}

impl DictionaryMetric {
    /// Creates a metric counting hits of `dictionary`.
    #[must_use]
    pub fn new(name: &'static str, dictionary: Dictionary) -> Self {
        DictionaryMetric {
            name,
            dictionary,
            matcher: OnceLock::new(),
        }
    }
}

impl Metric for DictionaryMetric {
    fn name(&self) -> &'static str {
        self.name
    }

    fn evaluate(&self, stats: &TextStats) -> MetricValue {
        let matcher = self
            .matcher
            .get_or_init(|| Matcher::compile([Some(&self.dictionary)]));
        let mut hits = [0];
        matcher.count(stats.lower(), &mut hits, |_| {});
        MetricValue::counted(hits[0] as f64, stats.word_count())
    }

    fn dictionary(&self) -> Option<&Dictionary> {
        Some(&self.dictionary)
    }
}

/// Automated Readability Index as defined in D2.7:
/// `ARI = WS + 9 × SW`, where `WS` is average words per sentence and
/// `SW` is average letters per word. Density is unused (0).
pub struct Readability;

impl Metric for Readability {
    fn name(&self) -> &'static str {
        "readability_ari"
    }
    fn evaluate(&self, stats: &TextStats) -> MetricValue {
        MetricValue {
            raw: stats.words_per_sentence() + 9.0 * stats.letters_per_word(),
            density: 0.0,
        }
    }
}

/// Over-complexity metric: requirement size in words (characters and
/// sentences are exposed on [`TextStats`]).
pub struct Size;

impl Metric for Size {
    fn name(&self) -> &'static str {
        "size_words"
    }
    fn evaluate(&self, stats: &TextStats) -> MetricValue {
        MetricValue {
            raw: stats.word_count() as f64,
            density: 0.0,
        }
    }
}

/// The full default metric suite, in report-column order: one
/// [`DictionaryMetric`] per dictionary of [`dictionaries::all`], named
/// after it, then readability and size.
#[must_use]
pub fn default_suite() -> Vec<Box<dyn Metric>> {
    let mut suite: Vec<Box<dyn Metric>> = dictionaries::all()
        .into_iter()
        .map(|d| Box::new(DictionaryMetric::new(d.name(), d)) as Box<dyn Metric>)
        .collect();
    suite.push(Box::new(Readability));
    suite.push(Box::new(Size));
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(text: &str) -> TextStats {
        TextStats::of(text)
    }

    fn metric(dictionary: Dictionary) -> DictionaryMetric {
        DictionaryMetric::new(dictionary.name(), dictionary)
    }

    #[test]
    fn dictionary_metric_counts_and_normalises() {
        let m = metric(dictionaries::vagueness());
        let v = m.evaluate(&stats("a fast and easy system"));
        assert_eq!(v.raw, 2.0);
        assert!((v.density - 2.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_text_is_zero_everywhere() {
        let s = stats("");
        for m in default_suite() {
            let v = m.evaluate(&s);
            assert_eq!(v.raw, 0.0, "{} must be 0 on empty text", m.name());
            assert_eq!(v.density, 0.0);
        }
    }

    #[test]
    fn imperatives_present_vs_absent() {
        let m = metric(dictionaries::imperatives());
        let with = m.evaluate(&stats("The system shall lock."));
        assert_eq!(with.raw, 1.0);
        let without = m.evaluate(&stats("The system locks quickly."));
        assert_eq!(without.raw, 0.0);
    }

    #[test]
    fn readability_formula() {
        // 2 sentences, 6 words, letters: one3 two3 three5 four4 five4 six3 = 22
        let v = Readability.evaluate(&stats("one two three. four five six."));
        let expected = 3.0 + 9.0 * (22.0 / 6.0);
        assert!((v.raw - expected).abs() < 1e-9);
    }

    #[test]
    fn size_counts_words() {
        assert_eq!(Size.evaluate(&stats("a b c d")).raw, 4.0);
    }

    #[test]
    fn suite_has_unique_names() {
        let suite = default_suite();
        let mut names: Vec<_> = suite.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(before, 11);
    }

    #[test]
    fn value_display() {
        let v = MetricValue::counted(3.0, 10);
        assert_eq!(v.to_string(), "3.00 (0.300/word)");
    }
}
