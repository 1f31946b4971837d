//! The compiled matcher behind `Analyzer` counts exactly what the
//! straightforward implementation it replaced counts: a `str::find` loop
//! per phrase, and a linear scan of owned, lower-cased tokens per word,
//! summed per dictionary. That implementation is kept here as the
//! reference, and checked against the default suite, A1's shrunk
//! dictionaries, and suites built from the probes themselves.

use proptest::prelude::*;
use vdo_nalabs::metrics::{DictionaryMetric, MetricValue, Readability, Size};
use vdo_nalabs::{
    dictionaries, Analyzer, Dictionary, Metric, RequirementDoc, SmellThresholds, TextStats,
};

/// The tokeniser and lookups the kernel replaced.
struct Reference {
    lower: String,
    words: Vec<String>,
    sentences: usize,
    letters: usize,
    chars: usize,
}

impl Reference {
    fn of(text: &str) -> Self {
        let lower = text.to_lowercase();
        let mut words = Vec::new();
        let mut current = String::new();
        for c in lower.chars() {
            if c.is_alphanumeric() || (c == '-' || c == '\'') && !current.is_empty() {
                current.push(c);
            } else if !current.is_empty() {
                words.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            words.push(current);
        }
        for w in &mut words {
            while w.ends_with(['-', '\'']) {
                w.pop();
            }
        }
        words.retain(|w| !w.is_empty());
        let sentences = text
            .split(['.', '!', '?', ';'])
            .filter(|s| s.chars().any(char::is_alphanumeric))
            .count();
        let letters = text.chars().filter(|c| c.is_alphanumeric()).count();
        let chars = text.chars().count();
        Reference {
            lower,
            words,
            sentences,
            letters,
            chars,
        }
    }

    fn words_per_sentence(&self) -> f64 {
        if self.sentences == 0 {
            0.0
        } else {
            self.words.len() as f64 / self.sentences as f64
        }
    }

    fn letters_per_word(&self) -> f64 {
        if self.words.is_empty() {
            0.0
        } else {
            self.words.iter().map(|w| w.chars().count()).sum::<usize>() as f64
                / self.words.len() as f64
        }
    }

    fn count_word(&self, word: &str) -> usize {
        let w = word.to_lowercase();
        self.words.iter().filter(|t| **t == w).count()
    }

    /// The replaced implementation stepped to `at + 1` after a match,
    /// which panics when the match starts with a multi-byte char; this
    /// copy steps to the next char boundary instead. A match starts on a
    /// char boundary, so the counts are the same.
    fn count_phrase(&self, phrase: &str) -> usize {
        let p = phrase.to_lowercase();
        if p.is_empty() {
            return 0;
        }
        let bytes = self.lower.as_bytes();
        let mut count = 0;
        let mut start = 0;
        while let Some(pos) = self.lower[start..].find(&p) {
            let at = start + pos;
            let before_ok = at == 0
                || !self.lower[..at]
                    .chars()
                    .next_back()
                    .is_some_and(char::is_alphanumeric);
            let end = at + p.len();
            let after_ok = end >= bytes.len()
                || !self.lower[end..]
                    .chars()
                    .next()
                    .is_some_and(char::is_alphanumeric);
            if before_ok && after_ok {
                count += 1;
            }
            start = at + self.lower[at..].chars().next().map_or(1, char::len_utf8);
        }
        count
    }

    /// The values of `suite`'s analyzer (see [`analyzer`]), in suite
    /// order, computed with the reference lookups.
    fn values(&self, suite: &[Dictionary]) -> Vec<(&'static str, MetricValue)> {
        let mut values: Vec<_> = suite
            .iter()
            .map(|d| {
                let hits: usize = d
                    .entries()
                    .iter()
                    .map(|e| {
                        if e.contains(' ') {
                            self.count_phrase(e)
                        } else {
                            self.count_word(e)
                        }
                    })
                    .sum();
                (
                    d.name(),
                    MetricValue::counted(hits as f64, self.words.len()),
                )
            })
            .collect();
        let raw = self.words_per_sentence() + 9.0 * self.letters_per_word();
        values.push(("readability_ari", MetricValue { raw, density: 0.0 }));
        let raw = self.words.len() as f64;
        values.push(("size_words", MetricValue { raw, density: 0.0 }));
        values
    }
}

/// An analyzer over one dictionary metric per dictionary of `suite`,
/// named after it, then readability and size: the default suite's shape.
fn analyzer(suite: &[Dictionary]) -> Analyzer {
    let metrics = suite
        .iter()
        .map(|d| Box::new(DictionaryMetric::new(d.name(), d.clone())) as Box<dyn Metric>)
        .chain([Box::new(Readability) as Box<dyn Metric>, Box::new(Size)])
        .collect();
    Analyzer::new(metrics, SmellThresholds::default())
}

/// A1's suite: every dictionary but imperatives, shrunk to `fraction`.
fn ablation_suite(fraction: f64) -> Vec<Dictionary> {
    dictionaries::all()
        .iter()
        .filter(|d| d.name() != "imperatives")
        .map(|d| d.shrunk(fraction))
        .collect()
}

/// A suite made of `entries`: one dictionary per entry, so each is
/// checked on its own, then one holding all of them twice and the empty
/// entry, so duplicates count within and across dictionaries.
fn entry_suite(entries: &[String]) -> Vec<Dictionary> {
    let entries: Vec<&'static str> = entries
        .iter()
        .map(|e| &*Box::leak(e.clone().into_boxed_str()))
        .collect();
    let mut suite: Vec<Dictionary> = entries
        .iter()
        .map(|&e| Dictionary::new("entry", vec![e]))
        .collect();
    let mut all = entries.repeat(2);
    all.push("");
    suite.push(Dictionary::new("entries", all));
    suite
}

/// Chars whose lower-case form has a different byte length, a
/// combining mark, a digit, and plain separators: boundaries are
/// decided around them.
const SEPARATORS: [&str; 17] = [
    " ", "  ", ", ", ". ", "; ", "-", "'", "", "x", "7", "İ", "Ⱥ ", "ẞ", " é ", "?! ", "\u{307}",
    "Σ ",
];

fn all_entries() -> Vec<&'static str> {
    dictionaries::all()
        .iter()
        .flat_map(|d| d.entries().to_vec())
        .collect()
}

/// `s` unchanged (mode 0), upper-cased (1), with only its non-ASCII
/// chars upper-cased (2), or with its first char upper-cased (3).
fn recase(s: &str, mode: u8) -> String {
    match mode {
        0 => s.to_string(),
        1 => s.to_uppercase(),
        2 => s
            .chars()
            .map(|c| {
                if c.is_ascii() {
                    c.to_string()
                } else {
                    c.to_uppercase().collect()
                }
            })
            .collect(),
        _ => {
            let mut cs = s.chars();
            cs.next()
                .map(|c| c.to_uppercase().chain(cs).collect())
                .unwrap_or_default()
        }
    }
}

/// Dictionary entries in mixed case, glued by `SEPARATORS`.
fn entry_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (
            prop::sample::select(all_entries()),
            0u8..4,
            prop::sample::select(SEPARATORS.to_vec()),
        ),
        0..12,
    )
    .prop_map(|parts| {
        parts
            .into_iter()
            .map(|(entry, mode, sep)| recase(entry, mode) + sep)
            .collect()
    })
}

/// A slice of `text`, lower-cased, between two char boundaries picked
/// by `a` and `b`, then re-cased: a phrase that often occurs in the text.
fn slice_of(text: &str, a: usize, b: usize, mode: u8) -> String {
    let chars: Vec<char> = text.to_lowercase().chars().collect();
    let (i, j) = (a % (chars.len() + 1), b % (chars.len() + 1));
    recase(&chars[i.min(j)..i.max(j)].iter().collect::<String>(), mode)
}

/// `analyzer`'s report on `text` equals the reference's values for
/// `suite`, bit for bit, and the smells those values give.
fn check_suite(
    text: &str,
    reference: &Reference,
    suite: &[Dictionary],
    analyzer: &Analyzer,
) -> Result<(), TestCaseError> {
    let report = analyzer.analyze(&RequirementDoc::new("R", text));
    let expected = reference.values(suite);
    let bits = |values: &mut dyn Iterator<Item = (&str, MetricValue)>| -> Vec<(String, u64, u64)> {
        values
            .map(|(k, v)| (k.to_string(), v.raw.to_bits(), v.density.to_bits()))
            .collect()
    };
    prop_assert_eq!(
        bits(&mut report.values()),
        bits(&mut expected.iter().copied()),
        "values of {:?}",
        text
    );
    let stats = TextStats::of(text);
    let smells: Vec<&str> = expected
        .iter()
        .filter(|(name, v)| analyzer.thresholds().is_smelly(name, *v, &stats))
        .map(|(name, _)| *name)
        .collect();
    prop_assert_eq!(report.smells(), smells.as_slice(), "smells of {:?}", text);
    Ok(())
}

fn check(text: &str, probes: &[String]) -> Result<(), TestCaseError> {
    let stats = TextStats::of(text);
    let reference = Reference::of(text);
    prop_assert_eq!(stats.lower(), reference.lower.as_str());
    prop_assert_eq!(stats.words(), reference.words.as_slice());
    prop_assert_eq!(stats.word_count(), reference.words.len());
    prop_assert_eq!(stats.sentence_count(), reference.sentences);
    prop_assert_eq!(stats.letter_count(), reference.letters);
    prop_assert_eq!(stats.char_count(), reference.chars);
    prop_assert_eq!(
        stats.letters_per_word().to_bits(),
        reference.letters_per_word().to_bits()
    );

    let default = Analyzer::with_default_metrics();
    check_suite(text, &reference, &dictionaries::all(), &default)?;
    for fraction in [0.0, 0.1, 0.5, 1.0] {
        let suite = ablation_suite(fraction);
        check_suite(text, &reference, &suite, &analyzer(&suite))?;
    }
    // Every dictionary entry, the probes, and the text's words re-cased.
    let recased_words = reference
        .words
        .iter()
        .flat_map(|w| [recase(w, 1), recase(w, 2)]);
    let entries: Vec<String> = all_entries()
        .into_iter()
        .map(String::from)
        .chain(probes.iter().cloned())
        .chain(recased_words)
        .collect();
    let suite = entry_suite(&entries);
    check_suite(text, &reference, &suite, &analyzer(&suite))
}

proptest! {
    /// Arbitrary printable text, probed with every dictionary entry,
    /// arbitrary strings and slices of the text itself.
    #[test]
    fn kernel_matches_reference_on_arbitrary_text(
        text in "\\PC{0,200}",
        probe in "\\PC{0,12}",
        cut in (0usize..1000, 0usize..1000, 0u8..4),
    ) {
        let slice = slice_of(&text, cut.0, cut.1, cut.2);
        check(&text, &[probe, slice])?;
    }

    /// Dictionary entries joined with mixed case and boundary-sensitive
    /// separators, so every entry both matches and nearly matches.
    #[test]
    fn kernel_matches_reference_on_dictionary_text(
        text in entry_text(),
        cut in (0usize..1000, 0usize..1000, 0u8..4),
        other in (0usize..1000, 0usize..1000, 0u8..4),
    ) {
        let probes = [
            slice_of(&text, cut.0, cut.1, cut.2),
            slice_of(&text, other.0, other.1, other.2),
        ];
        check(&text, &probes)?;
    }
}
