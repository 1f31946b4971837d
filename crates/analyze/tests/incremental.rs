//! The incremental engine's load-bearing guarantee, property-tested:
//! after every delta in a random commit sequence, at any thread count,
//! [`IncrementalAnalyzer::report`] is bit-identical to a fresh batch
//! [`Analyzer::analyze_all`] over the materialised artifact state —
//! memoisation, dirty-set propagation, and undo included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vdo_analyze::{
    AnalysisConfig, Analyzer, ArtifactDelta, EntryArtifact, IncrementalAnalyzer, LintCode,
    LintLevel,
};
use vdo_core::{Guard, Waiver};
use vdo_tears::{parse_guard, GuardedAssertion};
use vdo_temporal::Formula;

/// Small id pools so deltas collide: upserts overwrite, removals hit,
/// waivers and trace links dangle and re-attach.
fn entry_id(rng: &mut StdRng) -> String {
    format!("R-{}", rng.gen_range(0u32..8))
}

fn formula_name(rng: &mut StdRng) -> String {
    format!("f-{}", rng.gen_range(0u32..4))
}

fn random_entry(rng: &mut StdRng, id: &str) -> EntryArtifact {
    let n = rng.gen_range(0u32..100);
    let expr = match rng.gen_range(0u32..5) {
        0 => Guard::all_of([
            Guard::atom(format!("a_{n}")),
            Guard::not(Guard::atom(format!("b_{n}"))),
        ]),
        1 => Guard::all_of([
            Guard::atom(format!("c_{n}")),
            Guard::not(Guard::atom(format!("c_{n}"))),
        ]),
        2 => Guard::atom("shared"),
        3 => Guard::all_of([Guard::atom("shared"), Guard::atom(format!("x_{n}"))]),
        _ => Guard::any_of([Guard::atom(format!("d_{n}")), Guard::atom(format!("e_{n}"))]),
    };
    EntryArtifact::new(id).title(format!("req {n}")).expr(expr)
}

fn random_formula(rng: &mut StdRng) -> Formula {
    let n = rng.gen_range(0u32..50);
    let p = || Formula::atom(format!("p_{n}"));
    let q = || Formula::atom(format!("q_{n}"));
    match rng.gen_range(0u32..4) {
        0 => Formula::globally(Formula::implies(p(), Formula::finally(q()))),
        1 => Formula::and(Formula::globally(p()), Formula::finally(Formula::not(p()))),
        2 => Formula::or(p(), Formula::not(p())),
        _ => Formula::globally(Formula::implies(
            Formula::and(p(), Formula::not(p())),
            Formula::finally(q()),
        )),
    }
}

fn random_model(rng: &mut StdRng, name: &str) -> vdo_gwt::GraphModel {
    let mut m = vdo_gwt::GraphModel::new(name);
    let a = m.add_vertex("a");
    let b = m.add_vertex("b");
    m.add_edge(a, b, "go");
    if rng.gen_bool(0.5) {
        let c = m.add_vertex("island");
        m.add_edge(c, c, "spin");
    }
    if rng.gen_bool(0.8) {
        m.set_start(a);
    }
    m
}

fn random_assertion(rng: &mut StdRng, name: &str) -> GuardedAssertion {
    let guard = if rng.gen_bool(0.5) {
        "load > 1 and load < 0"
    } else {
        "load > 90"
    };
    GuardedAssertion::new(
        name,
        parse_guard(guard).expect("guard parses"),
        parse_guard("ok == 1").expect("assertion parses"),
        5,
    )
}

/// One random commit: 1–5 artifact touches of arbitrary kind, with a
/// clock move thrown in occasionally.
fn random_delta(rng: &mut StdRng) -> ArtifactDelta {
    let mut delta = ArtifactDelta::new();
    for _ in 0..rng.gen_range(1usize..6) {
        delta = match rng.gen_range(0u32..13) {
            0 | 1 => {
                let id = entry_id(rng);
                let e = random_entry(rng, &id);
                delta.with_entry(e)
            }
            2 => delta.remove_entry(entry_id(rng)),
            3 => {
                let target = if rng.gen_bool(0.7) {
                    entry_id(rng)
                } else {
                    format!("GHOST-{}", rng.gen_range(0u32..3))
                };
                delta.with_waiver(Waiver {
                    finding_id: target,
                    reason: "random".into(),
                    expires_at: if rng.gen_bool(0.6) {
                        Some(rng.gen_range(0u64..200))
                    } else {
                        None
                    },
                })
            }
            4 => delta.remove_waiver(entry_id(rng)),
            5 => {
                let name = formula_name(rng);
                let f = random_formula(rng);
                delta.with_formula(name, f)
            }
            6 => delta.remove_formula(formula_name(rng)),
            7 => {
                let name = format!("m-{}", rng.gen_range(0u32..2));
                let m = random_model(rng, &name);
                delta.with_model(m)
            }
            8 => {
                let name = format!("ga-{}", rng.gen_range(0u32..2));
                let a = random_assertion(rng, &name);
                delta.with_assertion(a)
            }
            9 => delta.cover_dev(entry_id(rng)),
            10 => delta.uncover_dev(entry_id(rng)),
            11 => delta.cover_ops(if rng.gen_bool(0.7) {
                entry_id(rng)
            } else {
                format!("GHOST-{}", rng.gen_range(0u32..3))
            }),
            _ => delta.uncover_ops(entry_id(rng)),
        };
    }
    if rng.gen_bool(0.3) {
        delta = delta.set_now(rng.gen_range(0u64..200));
    }
    delta
}

proptest! {
    /// Incremental == full after every commit of a random sequence, at
    /// any thread count, under a rotating lint-level config.
    #[test]
    fn incremental_equals_full_at_every_step(seed in 0u64..2_000, threads in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let codes = LintCode::ALL;
        let config = AnalysisConfig::builder()
            .level(codes[(seed as usize) % codes.len()], LintLevel::Warn)
            .level(codes[(seed as usize + 3) % codes.len()], LintLevel::Allow)
            .build()
            .expect("valid config");
        let mut inc = IncrementalAnalyzer::new(config.clone());
        let batch = Analyzer::new(config);
        for step in 0..rng.gen_range(2usize..8) {
            let delta = random_delta(&mut rng);
            let report = inc.apply(&delta, threads);
            let full = batch.analyze_all(&inc.artifacts(), 1);
            prop_assert_eq!(
                &report.diagnostics, &full.diagnostics,
                "divergence at step {} (seed {})", step, seed
            );
            prop_assert_eq!(report.listing(), full.listing());
        }
    }

    /// Undo really undoes: applying a delta and its undo lands on the
    /// pre-delta report, and the revert is served from the memo table.
    #[test]
    fn undo_restores_the_previous_verdict(seed in 0u64..2_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut inc = IncrementalAnalyzer::new(AnalysisConfig::default());
        for _ in 0..rng.gen_range(1usize..4) {
            let delta = random_delta(&mut rng);
            inc.apply(&delta, 2);
        }
        let before = inc.report();
        let fp_before = vdo_analyze::fingerprint_set(&inc.artifacts());
        let delta = random_delta(&mut rng);
        let (_, undo) = inc.apply_with_undo(&delta, 2);
        let misses_after_apply = inc.stats().misses;
        let reverted = inc.apply(&undo, 2);
        prop_assert_eq!(&reverted.diagnostics, &before.diagnostics);
        prop_assert_eq!(vdo_analyze::fingerprint_set(&inc.artifacts()), fp_before);
        // Every per-artifact unit closure the revert lands on was
        // computed before, so it is served from the memo table. The one
        // legitimate exception is a list-granularity unit whose
        // pre-delta closure predates its first dirtying (e.g. the
        // entry-list unit when the delta created the first entries) —
        // at most one such unit per list-level lint.
        prop_assert!(
            inc.stats().misses - misses_after_apply <= 1,
            "reverting to a seen state must be (almost) all memo hits: {} extra misses",
            inc.stats().misses - misses_after_apply
        );
    }

    /// The cache works: replaying the same delta sequence into a second
    /// engine after a warm-up run performs zero lint executions beyond
    /// the first engine's, and a no-op delta dirties nothing.
    #[test]
    fn noop_deltas_dirty_nothing(seed in 0u64..2_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
        let mut inc = IncrementalAnalyzer::new(AnalysisConfig::default());
        let delta = random_delta(&mut rng);
        inc.apply(&delta, 1);
        let before = inc.stats();
        let report = inc.apply(&ArtifactDelta::new(), 1);
        prop_assert_eq!(inc.stats().dirty_units, before.dirty_units);
        prop_assert_eq!(inc.stats().misses, before.misses);
        prop_assert_eq!(&report.diagnostics, &inc.report().diagnostics);
    }
}

/// Deterministic large-scale spot check: a 500-entry catalogue, then 20
/// single-entry commits; every step compares to full, and the total
/// dirty-unit work stays O(changed), not O(catalogue).
#[test]
fn large_catalogue_commits_stay_small() {
    let mut seed = ArtifactDelta::new();
    for i in 0..500 {
        let id = format!("REQ-{i:04}");
        seed = seed
            .with_entry(EntryArtifact::new(&id).expr(Guard::all_of([
                Guard::atom(format!("cfg_{i}")),
                Guard::not(Guard::atom(format!("weak_{i}"))),
            ])))
            .cover_dev(&id);
    }
    let mut inc = IncrementalAnalyzer::new(AnalysisConfig::default());
    let batch = Analyzer::new(AnalysisConfig::default());
    inc.apply(&seed, 4);
    assert_eq!(
        inc.report().diagnostics,
        batch.analyze_all(&inc.artifacts(), 1).diagnostics
    );
    let after_seed = inc.stats();
    let mut rng = StdRng::seed_from_u64(11);
    for step in 0..20 {
        let delta = random_delta(&mut rng);
        let report = inc.apply(&delta, 4);
        let full = batch.analyze_all(&inc.artifacts(), 1);
        assert_eq!(report.diagnostics, full.diagnostics, "step {step}");
    }
    let dirty = inc.stats().dirty_units - after_seed.dirty_units;
    assert!(
        dirty < 500,
        "20 small commits against 500 entries dirtied {dirty} units — not O(changed)"
    );
}
