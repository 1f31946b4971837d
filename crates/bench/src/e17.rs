//! E17: incremental cross-artifact analysis at catalogue scale.
//!
//! One invocation seeds catalogues of growing size into the
//! [`IncrementalAnalyzer`], replays a stream of small commits (each
//! touching about 1% of the requirement entries plus a slice of their
//! monitor formulas), and reports:
//!
//! * the latency curve: the full batch gate (a fresh
//!   [`Analyzer::analyze_all`] over the whole catalogue) against the
//!   mean incremental re-gate at each size, with the speedup and the
//!   memo-table hit/miss traffic;
//! * the equivalence check: after every commit the incremental report
//!   must be bit-identical (diagnostics and rendered listing) to a
//!   batch run over the materialised state;
//! * the `smoke` subsection, the CI gate: at the pinned catalogue size
//!   a 1%-touch commit must re-gate in at most
//!   [`SMOKE_LATENCY_FRACTION_BUDGET`] of the full-run latency.
//!
//! [`IncrementalAnalyzer`]: vdo_analyze::IncrementalAnalyzer
//! [`Analyzer::analyze_all`]: vdo_analyze::Analyzer::analyze_all

use std::time::Instant;

use serde::json::Value;
use vdo_analyze::{
    AnalysisConfig, Analyzer, ArtifactDelta, EntryArtifact, IncrementalAnalyzer, ReqExpr,
};
use vdo_temporal::Formula;

use crate::budget::{verdict, Budget};

/// The pinned smoke budget: the mean incremental re-gate after a
/// 1%-touch commit must cost at most this fraction of one full batch
/// analysis over the same catalogue. The dirty slice is two orders of
/// magnitude smaller than the catalogue, so 10% absorbs the list-level
/// lints that legitimately rescan every entry id.
pub const SMOKE_LATENCY_FRACTION_BUDGET: f64 = 0.10;

/// Knobs that scale E17 between the full experiment, the CI shape, and
/// a fast test shape. All runs keep the same structure — only catalogue
/// sizes and commit counts change.
#[derive(Debug, Clone)]
pub struct E17Scale {
    /// Catalogue sizes (requirement entries) for the latency curve.
    pub curve_entries: Vec<usize>,
    /// Commits replayed against each curve catalogue.
    pub commits: usize,
    /// Entries in the budget smoke run (the CI gate).
    pub smoke_entries: usize,
    /// Commits in the smoke run.
    pub smoke_commits: usize,
}

impl E17Scale {
    /// The full experiment: the curve tops out at ten thousand
    /// requirements and the smoke gate runs at that size.
    #[must_use]
    pub fn full() -> Self {
        E17Scale {
            curve_entries: vec![1_000, 2_500, 5_000, 10_000],
            commits: 20,
            smoke_entries: 10_000,
            smoke_commits: 20,
        }
    }

    /// The CI shape: a shorter curve, but the smoke gate still runs at
    /// the headline ten-thousand-requirement size.
    #[must_use]
    pub fn ci() -> Self {
        E17Scale {
            curve_entries: vec![1_000, 2_500],
            commits: 10,
            smoke_entries: 10_000,
            smoke_commits: 10,
        }
    }

    /// A reduced shape for tests: hundreds of entries, identical
    /// structure and assertions.
    #[must_use]
    pub fn tiny() -> Self {
        E17Scale {
            curve_entries: vec![200, 600],
            commits: 4,
            smoke_entries: 1_000,
            smoke_commits: 4,
        }
    }
}

/// The `rev`-th edition of requirement `i`: a clean entry whose atoms
/// are unique to the (entry, revision) pair, so every edit moves the
/// fingerprint and no two entries ever share an expression.
fn clean_entry(i: usize, rev: usize) -> EntryArtifact {
    EntryArtifact::new(format!("REQ-{i:05}"))
        .package(format!("pkg{}", i % 7))
        .title(format!("requirement {i} rev {rev}"))
        .expr(ReqExpr::all_of([
            ReqExpr::atom(format!("cfg_{i}_{rev}")),
            ReqExpr::not(ReqExpr::atom(format!("weak_{i}_{rev}"))),
        ]))
}

/// The `rev`-th edition of the monitor formula attached to requirement
/// `i`: a clean response property, never contradictory or vacuous.
fn clean_formula(i: usize, rev: usize) -> Formula {
    Formula::globally(Formula::implies(
        Formula::atom(format!("p_{i}_{rev}")),
        Formula::finally(Formula::atom(format!("q_{i}_{rev}"))),
    ))
}

/// Seeds a clean catalogue: `entries` dev-covered requirements with
/// distinct expressions, a monitor formula on every third entry, and a
/// sparse sprinkling of behaviour models and guarded assertions.
pub fn catalogue(entries: usize) -> ArtifactDelta {
    let mut delta = ArtifactDelta::new();
    for i in 0..entries {
        let e = clean_entry(i, 0);
        let id = e.finding_id.clone();
        delta = delta.with_entry(e).cover_dev(id);
        if i.is_multiple_of(3) {
            delta = delta.with_formula(format!("f-{i}"), clean_formula(i, 0));
        }
        if i.is_multiple_of(251) {
            let mut m = vdo_gwt::GraphModel::new(format!("m-{i}"));
            let a = m.add_vertex("given");
            let b = m.add_vertex("then");
            m.add_edge(a, b, "when");
            m.set_start(a);
            delta = delta.with_model(m);
        }
        if i.is_multiple_of(173) {
            delta = delta.with_assertion(vdo_tears::GuardedAssertion::new(
                format!("ga-{i}"),
                vdo_tears::Expr::parse("load > 90").expect("guard parses"),
                vdo_tears::Expr::parse("throttled == 1").expect("assertion parses"),
                5,
            ));
        }
    }
    delta
}

/// One commit against an `entries`-sized catalogue: `touched` entries
/// revised round-robin (so successive commits hit different slices),
/// and the monitor formula of every revised third entry revised with
/// it.
pub fn commit(entries: usize, touched: usize, step: usize) -> ArtifactDelta {
    let mut delta = ArtifactDelta::new();
    for j in 0..touched {
        let i = (step * touched + j) % entries;
        delta = delta.with_entry(clean_entry(i, step + 1));
        if i.is_multiple_of(3) {
            delta = delta.with_formula(format!("f-{i}"), clean_formula(i, step + 1));
        }
    }
    delta
}

/// The measured outcome at one catalogue size.
struct SizeRun {
    entries: usize,
    artifacts: usize,
    touched: usize,
    commits: usize,
    full_millis: f64,
    incr_mean_millis: f64,
    incr_max_millis: f64,
    speedup: f64,
    mean_dirty_units: f64,
    hits: u64,
    misses: u64,
    reports_identical: bool,
}

/// Seeds a catalogue, measures one full batch gate (best of three
/// single-thread runs), then replays `commits` 1%-touch commits through
/// the incremental engine, timing each apply and checking bit-identity
/// against a fresh batch run after every step.
fn measure(entries: usize, commits: usize) -> SizeRun {
    let config = AnalysisConfig::default();
    let mut inc = IncrementalAnalyzer::new(config.clone());
    let batch = Analyzer::new(config);
    inc.apply(&catalogue(entries), 4);
    let set = inc.artifacts();
    let artifacts =
        set.entries.len() + set.formulas.len() + set.models.len() + set.assertions.len();

    let mut full_millis = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let report = batch.analyze_all(&set, 1);
        full_millis = full_millis.min(t.elapsed().as_secs_f64() * 1e3);
        assert!(report.is_clean(), "the seeded catalogue must be clean");
    }
    drop(set);

    let touched = (entries / 100).max(1);
    let before = inc.stats();
    let mut tick_millis = Vec::with_capacity(commits);
    let mut identical = true;
    for step in 0..commits {
        let delta = commit(entries, touched, step);
        let t = Instant::now();
        let report = inc.apply(&delta, 1);
        tick_millis.push(t.elapsed().as_secs_f64() * 1e3);
        let full = batch.analyze_all(&inc.artifacts(), 1);
        identical = identical
            && report.diagnostics == full.diagnostics
            && report.listing() == full.listing();
    }
    let stats = inc.stats();
    let incr_mean_millis = tick_millis.iter().sum::<f64>() / tick_millis.len().max(1) as f64;
    let incr_max_millis = tick_millis.iter().copied().fold(0.0, f64::max);
    #[allow(clippy::cast_precision_loss)]
    SizeRun {
        entries,
        artifacts,
        touched,
        commits,
        full_millis,
        incr_mean_millis,
        incr_max_millis,
        speedup: full_millis / incr_mean_millis.max(f64::EPSILON),
        mean_dirty_units: (stats.dirty_units - before.dirty_units) as f64 / commits.max(1) as f64,
        hits: stats.hits - before.hits,
        misses: stats.misses - before.misses,
        reports_identical: identical,
    }
}

/// Runs the E17 incremental-analysis experiment and returns the
/// section JSON with the smoke run's budget row: a re-gate within
/// [`SMOKE_LATENCY_FRACTION_BUDGET`] of the full batch latency.
///
/// Prints the latency table along the way and asserts the headline
/// claim in-function: the incremental report is bit-identical to the
/// batch report after every commit, at every size and in the smoke run.
#[must_use]
pub fn section(scale: &E17Scale) -> (Value, Vec<Budget>) {
    crate::say!("== E17: incremental cross-artifact analysis at catalogue scale ==\n");
    crate::say!(
        "{:>8} {:>10} {:>6} {:>10} {:>11} {:>10} {:>8} {:>12} {:>7} {:>7}",
        "ENTRIES",
        "ARTIFACTS",
        "TOUCH",
        "FULL(ms)",
        "INCR(ms)",
        "MAX(ms)",
        "SPEEDUP",
        "DIRTY/COMMIT",
        "HITS",
        "MISSES"
    );
    let mut curve = Vec::new();
    for &entries in &scale.curve_entries {
        let run = measure(entries, scale.commits);
        crate::say!(
            "{:>8} {:>10} {:>6} {:>10.3} {:>11.3} {:>10.3} {:>7.0}x {:>12.1} {:>7} {:>7}",
            run.entries,
            run.artifacts,
            run.touched,
            run.full_millis,
            run.incr_mean_millis,
            run.incr_max_millis,
            run.speedup,
            run.mean_dirty_units,
            run.hits,
            run.misses
        );
        assert!(
            run.reports_identical,
            "incremental and batch reports diverged at {entries} entries"
        );
        curve.push(run);
    }

    // ---- Smoke: the CI budget gate ----
    let smoke = measure(scale.smoke_entries, scale.smoke_commits);
    let fraction = smoke.incr_mean_millis / smoke.full_millis.max(f64::EPSILON);
    assert!(
        smoke.reports_identical,
        "incremental and batch reports diverged in the smoke run"
    );
    let budgets = vec![Budget::at_most(
        "e17_incremental_analysis.smoke.latency_fraction",
        fraction,
        SMOKE_LATENCY_FRACTION_BUDGET,
    )];
    let within_budget = verdict(&budgets).is_ok();
    crate::say!(
        "\nsmoke: {} entries, {} commits touching {} each | full {:.3} ms, incremental \
         {:.3} ms mean ({:.1}% of full, budget {:.0}%) | reports identical: {} -> \
         within_budget={}",
        smoke.entries,
        smoke.commits,
        smoke.touched,
        smoke.full_millis,
        smoke.incr_mean_millis,
        100.0 * fraction,
        100.0 * SMOKE_LATENCY_FRACTION_BUDGET,
        smoke.reports_identical,
        within_budget
    );
    crate::say!();

    let row_value = |r: &SizeRun| {
        #[allow(clippy::cast_precision_loss)]
        serde::json::object([
            ("entries", Value::UInt(r.entries as u64)),
            ("artifacts", Value::UInt(r.artifacts as u64)),
            ("touched_per_commit", Value::UInt(r.touched as u64)),
            ("commits", Value::UInt(r.commits as u64)),
            ("full_millis", Value::Float(r.full_millis)),
            ("incr_mean_millis", Value::Float(r.incr_mean_millis)),
            ("incr_max_millis", Value::Float(r.incr_max_millis)),
            ("speedup", Value::Float(r.speedup)),
            ("mean_dirty_units", Value::Float(r.mean_dirty_units)),
            ("hits", Value::UInt(r.hits)),
            ("misses", Value::UInt(r.misses)),
            ("reports_identical", Value::Bool(r.reports_identical)),
        ])
    };
    let json = serde::json::object([
        ("curve", Value::Array(curve.iter().map(row_value).collect())),
        (
            "smoke",
            serde::json::object([
                ("entries", Value::UInt(smoke.entries as u64)),
                ("commits", Value::UInt(smoke.commits as u64)),
                ("touched_per_commit", Value::UInt(smoke.touched as u64)),
                ("full_millis", Value::Float(smoke.full_millis)),
                ("incr_mean_millis", Value::Float(smoke.incr_mean_millis)),
                ("speedup", Value::Float(smoke.speedup)),
                ("latency_fraction", Value::Float(fraction)),
                (
                    "fraction_budget",
                    Value::Float(SMOKE_LATENCY_FRACTION_BUDGET),
                ),
                ("reports_identical", Value::Bool(smoke.reports_identical)),
                ("within_budget", Value::Bool(within_budget)),
            ]),
        ),
    ]);
    (json, budgets)
}
