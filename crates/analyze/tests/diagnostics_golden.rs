//! Golden file for the analyzer over the planted-defect corpora (E13).
//!
//! For each corpus — `DefectConfig::default()` and the same shape at two
//! more seeds — the file holds:
//! - the FNV-1a digest of the corpus's `encode_set` JSON (the codec's
//!   wire form of every artifact);
//! - the whole-set fingerprint, then every artifact's content
//!   fingerprint in insertion order (entries also with the fingerprint
//!   of their normalised expression, the duplicate lint's bucket key);
//! - the analyzer's `listing()`, which must be byte-identical at 1, 2
//!   and 4 threads.
//!
//! A change that alters a line must be intentional. Re-bless with
//! `BLESS_GOLDEN=1 cargo test -p vdo-analyze --test diagnostics_golden`.

use std::fmt::Write as _;

use vdo_analyze::codec::encode_set;
use vdo_analyze::fingerprint::{
    fingerprint_assertion, fingerprint_entry, fingerprint_expr, fingerprint_model,
    fingerprint_named_formula, fingerprint_waiver,
};
use vdo_analyze::{fingerprint_set, AnalysisConfig, Analyzer, ArtifactSet};
use vdo_corpus::defects::{self, DefectConfig};
use vdo_obs::hash::{fnv1a, FNV_OFFSET};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/diagnostics.txt");

fn corpora() -> Vec<DefectConfig> {
    let base = DefectConfig::default();
    vec![
        base,
        DefectConfig { seed: 13, ..base },
        DefectConfig {
            seed: 33101,
            ..base
        },
    ]
}

fn section(out: &mut String, set: &ArtifactSet) {
    let json = serde::json::to_string(&encode_set(set));
    writeln!(
        out,
        "encode_set {:016x}",
        fnv1a(FNV_OFFSET, json.as_bytes())
    )
    .unwrap();
    writeln!(out, "set {}", fingerprint_set(set)).unwrap();
    for e in &set.entries {
        let normal = e.expr.as_ref().map_or_else(
            || "none".to_string(),
            |x| fingerprint_expr(&x.normalize()).to_string(),
        );
        writeln!(
            out,
            "entry {} {} {normal}",
            e.finding_id,
            fingerprint_entry(e)
        )
        .unwrap();
    }
    for w in set.waivers.iter() {
        writeln!(out, "waiver {} {}", w.finding_id, fingerprint_waiver(w)).unwrap();
    }
    for nf in &set.formulas {
        writeln!(out, "formula {} {}", nf.name, fingerprint_named_formula(nf)).unwrap();
    }
    for m in &set.models {
        writeln!(out, "model {} {}", m.name(), fingerprint_model(m)).unwrap();
    }
    for a in &set.assertions {
        writeln!(out, "assertion {} {}", a.name(), fingerprint_assertion(a)).unwrap();
    }
    let analyzer = Analyzer::new(AnalysisConfig::default());
    let listings: Vec<String> = [1, 2, 4]
        .iter()
        .map(|&t| analyzer.analyze_all(set, t).listing())
        .collect();
    assert!(
        listings.iter().all(|l| *l == listings[0]),
        "listings differ across thread counts"
    );
    out.push_str(&listings[0]);
}

fn golden() -> String {
    let mut out = String::new();
    for config in corpora() {
        writeln!(out, "== corpus seed {}", config.seed).unwrap();
        section(&mut out, &defects::generate(&config).artifacts);
    }
    out
}

#[test]
fn diagnostics_match_golden() {
    let actual = golden();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("golden file present");
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "golden line count differs; re-bless with BLESS_GOLDEN=1 if the change is intentional"
    );
}
