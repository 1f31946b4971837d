//! Requirement documents and basic text statistics.

use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

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
/// needs. Computing it once per document and sharing it across metrics is
/// what makes corpus analysis linear in corpus size (experiment E2).
///
/// Besides the counts it holds two small per-document indexes that make
/// every dictionary lookup a binary search instead of a scan: the word
/// tokens sorted by first four bytes and length
/// ([`count_word`](Self::count_word)), and the offsets where a phrase
/// may start, sorted by their first four bytes
/// ([`count_phrase`](Self::count_phrase)).
#[derive(Debug, Clone)]
pub struct TextStats {
    lower: String,
    /// `(prefix_key, len, offset)` of every word token in `lower`, sorted.
    tokens: Vec<(u32, usize, usize)>,
    /// `(prefix_key, offset)` for offset 0 and every offset in `lower`
    /// whose previous char is not alphanumeric, sorted.
    starts: Vec<(u32, usize)>,
    word_chars: usize,
    sentences: usize,
    letters: usize,
    chars: usize,
    /// The tokens as owned strings in text order, built on the first
    /// [`words`](Self::words) call; no metric needs them.
    words: OnceLock<Vec<String>>,
}

impl TextStats {
    /// Tokenises `text`: words are maximal alphanumeric (plus `-`/`'`)
    /// runs, lower-cased; sentences are split on `.`, `!`, `?`, `;`.
    #[must_use]
    pub fn of(text: &str) -> Self {
        let lower = text.to_lowercase();
        // Room for typical prose (about five bytes a word) without regrowing.
        let mut tokens = Vec::with_capacity(lower.len() / 4);
        let mut starts = Vec::with_capacity(lower.len() / 3);
        let mut word_chars = 0;
        scan(
            &lower,
            |s, e| {
                word_chars += lower[s..e].chars().count();
                tokens.push((prefix_key(&lower.as_bytes()[s..e]), e - s, s));
            },
            |at| starts.push((prefix_key(&lower.as_bytes()[at..]), at)),
        );
        tokens.sort_unstable();
        starts.sort_unstable();

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
            tokens,
            starts,
            word_chars,
            sentences,
            letters,
            chars,
            words: OnceLock::new(),
        }
    }

    /// Lower-cased full text (for phrase matching).
    #[must_use]
    pub fn lower(&self) -> &str {
        &self.lower
    }

    /// The word tokens, lower-cased, in order.
    #[must_use]
    pub fn words(&self) -> &[String] {
        self.words.get_or_init(|| {
            let mut words = Vec::with_capacity(self.tokens.len());
            scan(
                &self.lower,
                |s, e| words.push(self.lower[s..e].to_string()),
                |_| {},
            );
            words
        })
    }

    /// Word count.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.tokens.len()
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
            self.tokens.len() as f64 / self.sentences as f64
        }
    }

    /// Average letters per word (`SW` in the D2.7 ARI formula);
    /// 0 for empty text.
    #[must_use]
    pub fn letters_per_word(&self) -> f64 {
        if self.tokens.is_empty() {
            0.0
        } else {
            self.word_chars as f64 / self.tokens.len() as f64
        }
    }

    /// Number of occurrences of `word` among the tokens (compared
    /// lower-cased). The token index is sorted by first four bytes and
    /// length, so a lookup is a binary search plus a byte comparison per
    /// token that shares both: O(log words), with no allocation unless
    /// `word` is not lower-case ASCII.
    #[must_use]
    pub fn count_word(&self, word: &str) -> usize {
        let w = lowered(word);
        let w = w.as_bytes();
        let key = (prefix_key(w), w.len());
        let first = self.tokens.partition_point(|&(k, len, _)| (k, len) < key);
        self.tokens[first..]
            .iter()
            .take_while(|&&(k, len, _)| (k, len) == key)
            .filter(|&&(_, len, at)| &self.lower.as_bytes()[at..at + len] == w)
            .count()
    }

    /// Number of (possibly overlapping) occurrences of `phrase`
    /// (compared lower-cased) in the text, matched on word boundaries:
    /// an occurrence counts when the char before it (if any) and the
    /// char after it (if any) are both non-alphanumeric.
    ///
    /// Only offsets whose previous char is non-alphanumeric can start an
    /// occurrence, and the index holds exactly those, sorted by their
    /// first four bytes. A lookup binary-searches the phrase's first
    /// four bytes and checks only the offsets that share them: O(log n)
    /// in the number n of such offsets, plus one comparison per offset
    /// that shares the phrase's first four bytes. It allocates only when
    /// `phrase` is not lower-case ASCII.
    #[must_use]
    pub fn count_phrase(&self, phrase: &str) -> usize {
        let p = lowered(phrase);
        let p = p.as_bytes();
        if p.is_empty() {
            return 0;
        }
        let lo = prefix_key(p);
        // A phrase shorter than four bytes is a prefix of a range of keys.
        let hi = match p.len() {
            1..=3 => lo | u32::MAX >> (8 * p.len()),
            _ => lo,
        };
        let first = self.starts.partition_point(|&(k, _)| k < lo);
        self.starts[first..]
            .iter()
            .take_while(|&&(k, _)| k <= hi)
            .filter(|&&(_, at)| {
                let end = at + p.len();
                self.lower.as_bytes()[at..].starts_with(p)
                    && !self.lower[end..]
                        .chars()
                        .next()
                        .is_some_and(char::is_alphanumeric)
            })
            .count()
    }
}

/// Equal when built from texts with the same lower-cased form and the
/// same sentence, letter and char counts (everything else derives from
/// the lower-cased text).
impl PartialEq for TextStats {
    fn eq(&self, other: &Self) -> bool {
        self.lower == other.lower
            && self.sentences == other.sentences
            && self.letters == other.letters
            && self.chars == other.chars
    }
}

/// One pass over `lower`. Calls `token` with the byte span of every
/// word token, in order (trailing `-`/`'` excluded), and `start` with
/// offset 0 and every offset whose previous char is not alphanumeric.
fn scan(lower: &str, mut token: impl FnMut(usize, usize), mut start: impl FnMut(usize)) {
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
                token(s, end);
            }
        }
        prev_alnum = alnum;
    }
    if let Some(s) = open {
        token(s, end);
    }
}

/// The first four bytes of `bytes`, zero-padded, as a big-endian key:
/// sorting by key sorts by those bytes.
fn prefix_key(bytes: &[u8]) -> u32 {
    if let Some(head) = bytes.first_chunk() {
        return u32::from_be_bytes(*head);
    }
    let mut key = [0; 4];
    key[..bytes.len()].copy_from_slice(bytes);
    u32::from_be_bytes(key)
}

/// `probe` as [`str::to_lowercase`] returns it, borrowed when it is
/// lower-case ASCII, as every built-in dictionary entry is.
fn lowered(probe: &str) -> Cow<'_, str> {
    if probe
        .bytes()
        .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
    {
        Cow::Borrowed(probe)
    } else {
        Cow::Owned(probe.to_lowercase())
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
        assert!(s.words().contains(&"shall".to_string()));
        assert!(s.words().contains(&"4-2".to_string()));
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
    fn word_counting() {
        let s = TextStats::of("may or may not, MAY be");
        assert_eq!(s.count_word("may"), 3);
        assert_eq!(s.count_word("or"), 1);
        assert_eq!(s.count_word("absent"), 0);
    }

    #[test]
    fn phrase_counting_respects_boundaries() {
        let s = TextStats::of("As appropriate, do X. Inappropriate things happen as appropriate.");
        assert_eq!(s.count_phrase("as appropriate"), 2);
        assert_eq!(
            s.count_phrase("appropriate"),
            2,
            "'Inappropriate' must not match"
        );
    }

    #[test]
    fn phrase_starting_with_multibyte_char() {
        let s = TextStats::of("é x");
        assert_eq!(s.count_phrase("é x"), 1);
        assert_eq!(s.count_phrase("É X"), 1);
        let s = TextStats::of("Ä b, xä b, ä bc; ä b");
        assert_eq!(s.count_phrase("ä b"), 2);
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
        assert!(s.words().contains(&"user's".to_string()));
        assert!(s.words().contains(&"log-in".to_string()));
        assert!(
            s.words().contains(&"fail".to_string()),
            "trailing hyphen stripped"
        );
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
                // Phrase counting with any single word never exceeds the
                // raw substring count bound and never panics.
                let _ = stats.count_phrase("the");
                let _ = stats.count_word("the");
            }

            /// A word occurs among tokens at most as many times as its
            /// pattern appears in the text.
            #[test]
            fn count_word_bounded_by_tokens(words in prop::collection::vec("[a-z]{1,6}", 0..20)) {
                let text = words.join(" ");
                let stats = TextStats::of(&text);
                prop_assert_eq!(stats.word_count(), words.len());
                for w in &words {
                    let expected = words.iter().filter(|x| *x == w).count();
                    prop_assert_eq!(stats.count_word(w), expected);
                }
            }
        }
    }
}
