//! Requirement documents and basic text statistics.

use std::fmt;

use crate::dictionaries::Matcher;

/// One natural-language requirement: an identifier plus its text, the
/// shape NALABS reads from the "REQ ID" and "Text" columns of a
/// requirements spreadsheet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequirementDoc {
    id: String,
    text: String,
}

impl RequirementDoc {
    /// Creates a requirement document.
    #[must_use]
    pub fn new(id: impl Into<String>, text: impl Into<String>) -> Self {
        RequirementDoc {
            id: id.into(),
            text: text.into(),
        }
    }

    /// The requirement identifier.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The requirement text.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for RequirementDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.id, self.text)
    }
}

/// Tokenised view of a requirement's text with the counts every metric
/// needs: the lower-cased text and its word, sentence, letter and char
/// counts. Computing it once per document and sharing it across metrics
/// is what makes corpus analysis linear in corpus size (experiment E2).
///
/// An [`Analyzer`](crate::Analyzer) builds it in the same pass over the
/// lower-cased text that counts its suite's dictionary entries.
#[derive(Debug, Clone, PartialEq)]
pub struct TextStats {
    lower: String,
    words: usize,
    word_chars: usize,
    sentences: usize,
    letters: usize,
    chars: usize,
}

impl TextStats {
    /// Tokenises `text`: words are maximal alphanumeric (plus `-`/`'`)
    /// runs, lower-cased; sentences are split on `.`, `!`, `?`, `;`.
    #[must_use]
    pub fn of(text: &str) -> Self {
        Self::matched(text, &Matcher::default(), &mut [])
    }

    /// [`of`](Self::of), with `matcher` adding its entries' occurrences
    /// to `hits` in the same pass over the lower-cased text.
    pub(crate) fn matched(text: &str, matcher: &Matcher, hits: &mut [usize]) -> Self {
        let lower = text.to_lowercase();
        let (mut words, mut word_chars) = (0, 0);
        matcher.count(&lower, hits, |word| {
            words += 1;
            word_chars += word.chars().count();
        });

        let (mut sentences, mut letters, mut chars) = (0, 0, 0);
        let mut in_sentence = false;
        for c in text.chars() {
            chars += 1;
            if c.is_alphanumeric() {
                letters += 1;
                in_sentence = true;
            } else if matches!(c, '.' | '!' | '?' | ';') {
                sentences += usize::from(in_sentence);
                in_sentence = false;
            }
        }
        sentences += usize::from(in_sentence);
        TextStats {
            lower,
            words,
            word_chars,
            sentences,
            letters,
            chars,
        }
    }

    /// Lower-cased full text (for phrase matching).
    #[must_use]
    pub fn lower(&self) -> &str {
        &self.lower
    }

    /// The word tokens, lower-cased, in order (tokenised afresh on each
    /// call; no metric needs them).
    #[must_use]
    pub fn words(&self) -> Vec<&str> {
        let mut words = Vec::with_capacity(self.words);
        scan(&self.lower, |word| words.push(word), |_| {});
        words
    }

    /// Word count.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.words
    }

    /// Sentence count (at least 1 for non-empty text is *not*
    /// guaranteed — text without alphanumerics has zero sentences).
    #[must_use]
    pub fn sentence_count(&self) -> usize {
        self.sentences
    }

    /// Count of alphanumeric characters.
    #[must_use]
    pub fn letter_count(&self) -> usize {
        self.letters
    }

    /// Total character count.
    #[must_use]
    pub fn char_count(&self) -> usize {
        self.chars
    }

    /// Average words per sentence (`WS` in the D2.7 ARI formula);
    /// 0 for empty text.
    #[must_use]
    pub fn words_per_sentence(&self) -> f64 {
        if self.sentences == 0 {
            0.0
        } else {
            self.words as f64 / self.sentences as f64
        }
    }

    /// Average letters per word (`SW` in the D2.7 ARI formula);
    /// 0 for empty text.
    #[must_use]
    pub fn letters_per_word(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            self.word_chars as f64 / self.words as f64
        }
    }
}

/// One pass over `lower`. Calls `token` with every word token, in order
/// (trailing `-`/`'` excluded), and `start` with offset 0 and every
/// offset whose previous char is not alphanumeric: the offsets where a
/// phrase may start.
pub(crate) fn scan<'a>(
    lower: &'a str,
    mut token: impl FnMut(&'a str),
    mut start: impl FnMut(usize),
) {
    let mut open = None;
    let mut end = 0;
    let mut prev_alnum = false;
    for (i, c) in lower.char_indices() {
        if !prev_alnum {
            start(i);
        }
        let alnum = c.is_alphanumeric();
        if alnum {
            open.get_or_insert(i);
            end = i + c.len_utf8();
        } else if c != '-' && c != '\'' {
            if let Some(s) = open.take() {
                token(&lower[s..end]);
            }
        }
        prev_alnum = alnum;
    }
    if let Some(s) = open {
        token(&lower[s..end]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenisation_basics() {
        let s = TextStats::of("The system SHALL lock the session. See section 4-2!");
        assert_eq!(s.word_count(), 9);
        assert_eq!(s.sentence_count(), 2);
        assert!(s.words().contains(&"shall"));
        assert!(s.words().contains(&"4-2"));
    }

    #[test]
    fn empty_and_punctuation_only() {
        let s = TextStats::of("");
        assert_eq!(s.word_count(), 0);
        assert_eq!(s.sentence_count(), 0);
        assert_eq!(s.words_per_sentence(), 0.0);
        assert_eq!(s.letters_per_word(), 0.0);
        let p = TextStats::of("... !!! ???");
        assert_eq!(p.word_count(), 0);
        assert_eq!(p.sentence_count(), 0);
    }

    #[test]
    fn averages() {
        let s = TextStats::of("one two three. four five six.");
        assert!((s.words_per_sentence() - 3.0).abs() < 1e-9);
        // letters per word: (3+3+5+4+4+3)/6 = 22/6
        assert!((s.letters_per_word() - 22.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn apostrophes_and_hyphens_inside_words() {
        let s = TextStats::of("user's log-in shan't fail-");
        assert_eq!(s.words(), ["user's", "log-in", "shan't", "fail"]);
    }

    #[test]
    fn document_display() {
        let d = RequirementDoc::new("R-1", "text");
        assert_eq!(d.to_string(), "R-1: text");
        assert_eq!(d.id(), "R-1");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Tokenisation is total and its counts are mutually
            /// consistent on arbitrary (including non-ASCII) input.
            #[test]
            fn stats_invariants(s in "\\PC{0,200}") {
                let stats = TextStats::of(&s);
                prop_assert!(stats.letter_count() <= stats.char_count());
                if stats.word_count() == 0 {
                    prop_assert_eq!(stats.letters_per_word(), 0.0);
                } else {
                    prop_assert!(stats.letters_per_word() > 0.0);
                }
            }

            /// Words joined by spaces come back as the tokens.
            #[test]
            fn words_round_trip(words in prop::collection::vec("[a-z]{1,6}", 0..20)) {
                let text = words.join(" ");
                let stats = TextStats::of(&text);
                prop_assert_eq!(stats.word_count(), words.len());
                prop_assert_eq!(stats.words(), words);
            }
        }
    }
}
