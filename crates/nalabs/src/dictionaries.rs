//! Smell dictionaries.
//!
//! NALABS metrics are dictionary-based: each smell has a curated list of
//! indicator words/phrases drawn from the requirements-quality literature
//! (Wilson et al.'s ARM quality indicators, QuARS, and the smells listed
//! in D2.7 §2.2.2). [`Dictionary`] supports deterministic shrinking for
//! the A1 ablation (recall vs dictionary size).

use crate::text::TextStats;

/// A list of indicator words/phrases for one smell category.
///
/// Entries containing a space are matched as phrases (word-boundary
/// aware); single words are matched against tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dictionary {
    name: &'static str,
    entries: Vec<&'static str>,
}

impl Dictionary {
    /// Creates a dictionary from a static entry list.
    #[must_use]
    pub fn new(name: &'static str, entries: Vec<&'static str>) -> Self {
        Dictionary { name, entries }
    }

    /// The smell category this dictionary indicates.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The entries.
    #[must_use]
    pub fn entries(&self) -> &[&'static str] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the dictionary has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of occurrences of any entry in `stats`.
    #[must_use]
    pub fn count_in(&self, stats: &TextStats) -> usize {
        self.entries
            .iter()
            .map(|e| {
                if e.contains(' ') {
                    stats.count_phrase(e)
                } else {
                    stats.count_word(e)
                }
            })
            .sum()
    }

    /// A deterministic prefix of the dictionary keeping `fraction` of the
    /// entries (at least one if the source is non-empty and
    /// `fraction > 0`). Used by the A1 ablation.
    #[must_use]
    pub fn shrunk(&self, fraction: f64) -> Dictionary {
        let f = fraction.clamp(0.0, 1.0);
        let keep = if f == 0.0 {
            0
        } else {
            ((self.entries.len() as f64 * f).round() as usize).max(1)
        };
        Dictionary {
            name: self.name,
            entries: self.entries.iter().copied().take(keep).collect(),
        }
    }
}

/// Coordinating conjunctions and connectives indicating compound
/// requirements (`ConjunctionMetric.cs`).
#[must_use]
pub fn conjunctions() -> Dictionary {
    Dictionary::new(
        "conjunctions",
        vec![
            "and",
            "or",
            "but",
            "however",
            "whereas",
            "although",
            "though",
            "meanwhile",
            "otherwise",
            "furthermore",
            "moreover",
            "also",
            "additionally",
            "besides",
            "on the other hand",
        ],
    )
}

/// Continuances indicating nested/structured requirements
/// (`ContinuancesMetric.cs`).
#[must_use]
pub fn continuances() -> Dictionary {
    Dictionary::new(
        "continuances",
        vec![
            "below",
            "as follows",
            "following",
            "listed",
            "in particular",
            "such as",
            "and so on",
            "etc",
            "in addition",
            "note that",
        ],
    )
}

/// Imperative (modal) verbs; their *presence* signals a well-formed
/// requirement, so this dictionary is scored inversely
/// (`ImperativesMetric.cs`).
#[must_use]
pub fn imperatives() -> Dictionary {
    Dictionary::new(
        "imperatives",
        vec![
            "shall",
            "must",
            "will",
            "is required to",
            "are applicable",
            "responsible for",
        ],
    )
}

/// Incompleteness placeholders (`ICountMetric.cs`).
#[must_use]
pub fn incompleteness() -> Dictionary {
    Dictionary::new(
        "incompleteness",
        vec![
            "tbd",
            "tbs",
            "tbe",
            "tbc",
            "tbr",
            "to be decided",
            "to be defined",
            "to be determined",
            "not defined",
            "not determined",
            "as a minimum",
        ],
    )
}

/// Optionality words giving developers latitude (`OptionalityMetric.cs`).
#[must_use]
pub fn optionality() -> Dictionary {
    Dictionary::new(
        "optionality",
        vec![
            "may",
            "can",
            "optionally",
            "as appropriate",
            "if needed",
            "if necessary",
            "possibly",
            "at the discretion of",
            "in case of",
            "as desired",
            "eventually",
        ],
    )
}

/// Out-of-document reference markers (`ReferencesMetric.cs`,
/// `References2.cs`).
#[must_use]
pub fn references() -> Dictionary {
    Dictionary::new(
        "references",
        vec![
            "see",
            "refer to",
            "as defined in",
            "as specified in",
            "according to",
            "in accordance with",
            "section",
            "paragraph",
            "clause",
            "figure",
            "table",
            "appendix",
            "annex",
            "document",
        ],
    )
}

/// Subjective / opinion words (`SubjectivityMetric.cs`).
#[must_use]
pub fn subjectivity() -> Dictionary {
    Dictionary::new(
        "subjectivity",
        vec![
            "similar",
            "better",
            "worse",
            "best",
            "worst",
            "take into account",
            "as far as possible",
            "user friendly",
            "user-friendly",
            "easy to use",
            "having in mind",
            "to the extent practical",
            "state of the art",
            "intuitive",
        ],
    )
}

/// Vague adjectives and quantifiers (the `Vagueness` smell).
#[must_use]
pub fn vagueness() -> Dictionary {
    Dictionary::new(
        "vagueness",
        vec![
            "clear",
            "easy",
            "strong",
            "good",
            "bad",
            "efficient",
            "useful",
            "significant",
            "fast",
            "slow",
            "recent",
            "some",
            "several",
            "many",
            "few",
            "about",
            "almost",
            "approximately",
            "roughly",
            "sufficient",
            "flexible",
            "robust",
            "seamless",
            "minimal",
            "reasonable",
        ],
    )
}

/// Weak words leaving room for interpretation (`WeaknessMetric.cs`).
#[must_use]
pub fn weakness() -> Dictionary {
    Dictionary::new(
        "weakness",
        vec![
            "adequate",
            "as appropriate",
            "be able to",
            "capable of",
            "effective",
            "as required",
            "normal",
            "provide for",
            "timely",
            "easy to",
            "if practical",
            "when necessary",
            "where applicable",
            "as applicable",
            "as a goal",
        ],
    )
}

/// Every smell dictionary, in a stable order.
#[must_use]
pub fn all() -> Vec<Dictionary> {
    vec![
        conjunctions(),
        continuances(),
        imperatives(),
        incompleteness(),
        optionality(),
        references(),
        subjectivity(),
        vagueness(),
        weakness(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_dictionaries_nonempty_and_lowercase() {
        for d in all() {
            assert!(!d.is_empty(), "{} is empty", d.name());
            for e in d.entries() {
                assert_eq!(*e, e.to_lowercase(), "{e} must be stored lower-case");
            }
        }
    }

    #[test]
    fn counting_words_and_phrases() {
        let stats = TextStats::of("The system shall be able to respond as appropriate and fast.");
        assert_eq!(weakness().count_in(&stats), 2); // "be able to", "as appropriate"
        assert_eq!(imperatives().count_in(&stats), 1); // "shall"
        assert_eq!(conjunctions().count_in(&stats), 1); // "and"
        assert_eq!(vagueness().count_in(&stats), 1); // "fast"
    }

    #[test]
    fn custom_entries_with_multibyte_first_char() {
        let d = Dictionary::new("custom", vec!["ä b", "öl"]);
        assert_eq!(d.count_in(&TextStats::of("Ä b, xä b, ä b; Öl")), 3);
    }

    #[test]
    fn shrunk_keeps_prefix() {
        let d = vagueness();
        let half = d.shrunk(0.5);
        assert_eq!(half.len(), (d.len() as f64 / 2.0).round() as usize);
        assert_eq!(&d.entries()[..half.len()], half.entries());
        assert_eq!(d.shrunk(0.0).len(), 0);
        assert_eq!(d.shrunk(1.0).len(), d.len());
        assert_eq!(
            d.shrunk(0.0001).len(),
            1,
            "nonzero fraction keeps at least one entry"
        );
    }

    #[test]
    fn shrunk_clamps_out_of_range() {
        let d = optionality();
        assert_eq!(d.shrunk(7.0).len(), d.len());
        assert_eq!(d.shrunk(-1.0).len(), 0);
    }
}
