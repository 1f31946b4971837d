//! Smell dictionaries.
//!
//! NALABS metrics are dictionary-based: each smell has a curated list of
//! indicator words/phrases drawn from the requirements-quality literature
//! (Wilson et al.'s ARM quality indicators, QuARS, and the smells listed
//! in D2.7 §2.2.2). [`Dictionary`] supports deterministic shrinking for
//! the A1 ablation (recall vs dictionary size). An
//! [`Analyzer`](crate::Analyzer) compiles its suite's dictionaries once
//! into one matcher and counts them all in one pass over a document.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::text::scan;

/// A list of indicator words/phrases for one smell category.
///
/// Entries containing a space are matched as phrases (word-boundary
/// aware); single words are matched against tokens. A dictionary is
/// only its entries: an [`Analyzer`](crate::Analyzer) compiles its whole
/// suite's dictionaries into one matcher that does the counting.
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

/// The dictionaries of a suite compiled into one matcher, so that
/// counting every entry in a document is one pass over its lower-cased
/// text, at a cost that grows with the text and not with the
/// dictionaries.
///
/// Each dictionary counts into one *slot*: its position in the suite
/// given to [`compile`](Self::compile). Entries are lower-cased once,
/// here, and an entry that occurs twice counts twice.
///
/// - A word entry (no space) is a key of one hash table, listing the
///   slots it counts for. A token counts for every slot listed under
///   it.
/// - A phrase entry (with a space) is filed under its first four bytes.
///   At every offset where a phrase may start (offset 0, or after a
///   non-alphanumeric char) the phrases filed under the next four bytes,
///   and those shorter than four bytes, are compared with the text; one
///   counts when no alphanumeric char follows it. Matches may overlap.
#[derive(Default)]
pub(crate) struct Matcher {
    words: HashMap<Box<str>, Vec<usize>, Fx>,
    phrases: HashMap<u32, Vec<(Box<str>, usize)>, Fx>,
    short: Vec<(Box<str>, usize)>,
}

impl Matcher {
    /// Compiles a suite: slot `i` counts the `i`-th item's entries, and
    /// a `None` item's slot counts nothing.
    pub(crate) fn compile<'a>(suite: impl IntoIterator<Item = Option<&'a Dictionary>>) -> Self {
        let mut matcher = Matcher::default();
        for (slot, dictionary) in suite.into_iter().enumerate() {
            for entry in dictionary.into_iter().flat_map(Dictionary::entries) {
                let phrase = entry.contains(' ');
                let entry = entry.to_lowercase().into_boxed_str();
                if !phrase {
                    matcher.words.entry(entry).or_default().push(slot);
                } else if let Some(head) = entry.as_bytes().first_chunk() {
                    let head = u32::from_ne_bytes(*head);
                    matcher.phrases.entry(head).or_default().push((entry, slot));
                } else {
                    matcher.short.push((entry, slot));
                }
            }
        }
        matcher
    }

    /// Adds every entry's occurrences in `lower` (a lower-cased text) to
    /// its slot of `hits`, and calls `token` with every word token, in
    /// order, in the same pass.
    pub(crate) fn count(&self, lower: &str, hits: &mut [usize], mut token: impl FnMut(&str)) {
        let hits = Cell::from_mut(hits).as_slice_of_cells();
        let hit = |slot: usize| hits[slot].set(hits[slot].get() + 1);
        scan(
            lower,
            |word| {
                token(word);
                for &slot in self.words.get(word).into_iter().flatten() {
                    hit(slot);
                }
            },
            |at| {
                let rest = &lower[at..];
                let filed = rest
                    .as_bytes()
                    .first_chunk()
                    .and_then(|head| self.phrases.get(&u32::from_ne_bytes(*head)));
                for (phrase, slot) in filed.into_iter().flatten().chain(&self.short) {
                    if rest.starts_with(&**phrase)
                        && !rest[phrase.len()..]
                            .chars()
                            .next()
                            .is_some_and(char::is_alphanumeric)
                    {
                        hit(*slot);
                    }
                }
            },
        );
    }
}

/// A fixed-cost hasher for the matcher's tables: the multiply-rotate of
/// rustc's `FxHasher`, eight bytes a step. Only dictionary entries are
/// inserted; a document's tokens are only looked up, and a lookup's
/// probes are bounded by the chains the entries make, so crafted text
/// cannot slow it down.
#[derive(Default)]
struct FxHasher(u64);

type Fx = BuildHasherDefault<FxHasher>;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    fn finish(&self) -> u64 {
        // Buckets are picked by the low bits, which the multiply mixes least.
        self.0.rotate_left(26)
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

    /// Occurrences of `dictionary`'s entries in `text`.
    fn count(dictionary: &Dictionary, text: &str) -> usize {
        let mut hits = [0];
        Matcher::compile([Some(dictionary)]).count(&text.to_lowercase(), &mut hits, |_| {});
        hits[0]
    }

    fn custom(entries: Vec<&'static str>) -> Dictionary {
        Dictionary::new("custom", entries)
    }

    #[test]
    fn counting_words_and_phrases() {
        let text = "The system shall be able to respond as appropriate and fast.";
        assert_eq!(count(&weakness(), text), 2); // "be able to", "as appropriate"
        assert_eq!(count(&imperatives(), text), 1); // "shall"
        assert_eq!(count(&conjunctions(), text), 1); // "and"
        assert_eq!(count(&vagueness(), text), 1); // "fast"
    }

    #[test]
    fn words_match_whole_tokens_in_any_case() {
        let text = "may or may not, MAY be";
        assert_eq!(count(&custom(vec!["may"]), text), 3);
        assert_eq!(count(&custom(vec!["or"]), text), 1);
        assert_eq!(count(&custom(vec!["absent", ""]), text), 0);
        assert_eq!(
            count(&custom(vec!["May", "may"]), text),
            6,
            "duplicates count twice"
        );
    }

    #[test]
    fn phrases_respect_word_boundaries() {
        let text = "As appropriate, do X. Inappropriate things happen as appropriate.";
        assert_eq!(count(&custom(vec!["as appropriate"]), text), 2);
        assert_eq!(
            count(
                &custom(vec!["appropriate x"]),
                "inappropriate x, appropriate xy"
            ),
            0,
            "neither a word before nor after may run on"
        );
        assert_eq!(count(&custom(vec!["a a"]), "a a a"), 2, "overlaps count");
    }

    #[test]
    fn custom_entries_with_multibyte_first_char() {
        assert_eq!(count(&custom(vec!["ä b", "öl"]), "Ä b, xä b, ä b; Öl"), 3);
        assert_eq!(count(&custom(vec!["é x"]), "é x"), 1);
        assert_eq!(count(&custom(vec!["É X"]), "é x"), 1);
        assert_eq!(count(&custom(vec!["ä b"]), "Ä b, xä b, ä bc; ä b"), 2);
    }

    #[test]
    fn one_matcher_counts_each_dictionary_into_its_slot() {
        let suite = [Some(optionality()), None, Some(weakness())];
        let matcher = Matcher::compile(suite.iter().map(Option::as_ref));
        let mut hits = [0; 3];
        let mut tokens = Vec::new();
        let text = "it may, as appropriate, be adequate";
        matcher.count(text, &mut hits, |t| tokens.push(t.to_string()));
        assert_eq!(hits, [2, 0, 2], "\"as appropriate\" counts in both");
        assert_eq!(tokens, ["it", "may", "as", "appropriate", "be", "adequate"]);
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
