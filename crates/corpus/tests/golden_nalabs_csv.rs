//! Golden-file test for NALABS scoring: the CSV report of a fixed
//! generated corpus under the default metric suite must match
//! `tests/golden/nalabs_seed7.csv` byte for byte, so any drift in a
//! metric value or smell flag fails the build. Regenerate after an
//! intentional scoring change with
//! `BLESS_GOLDEN=1 cargo test -p vdo-corpus --test golden_nalabs_csv`.

use vdo_corpus::requirements::{generate, CorpusConfig};
use vdo_nalabs::Analyzer;

#[test]
fn nalabs_csv_matches_golden_file() {
    let corpus = generate(&CorpusConfig {
        size: 500,
        smell_rate: 0.25,
        seed: 7,
    });
    let actual = Analyzer::with_default_metrics()
        .analyze_corpus(&corpus.documents)
        .to_csv();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/nalabs_seed7.csv");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &actual).expect("write golden file");
    }
    let expected = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        actual, expected,
        "NALABS CSV drifted from tests/golden/nalabs_seed7.csv; \
         re-bless with BLESS_GOLDEN=1 if the change is intentional"
    );
}
