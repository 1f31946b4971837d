//! Property tests for the analyzer's two load-bearing guarantees:
//! parallel analysis is bit-identical to sequential on arbitrary
//! artifact sets, and the known-clean seed catalogues produce zero
//! findings (no false positives on real input).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vdo_analyze::{AnalysisConfig, Analyzer, ArtifactSet, EntryArtifact, LintCode, LintLevel};
use vdo_core::Guard;
use vdo_tears::{parse_guard, GuardedAssertion};
use vdo_temporal::Formula;

/// A randomly shaped artifact set mixing clean and defective artifacts
/// of every kind the lints inspect.
fn random_artifacts(seed: u64) -> ArtifactSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = ArtifactSet::new().at_tick(rng.gen_range(0u64..200));

    for i in 0..rng.gen_range(0usize..24) {
        let id = format!("R-{i}");
        let expr = match rng.gen_range(0u32..5) {
            // Clean conjunction over entry-local atoms.
            0 => Guard::all_of([
                Guard::atom(format!("a_{i}")),
                Guard::not(Guard::atom(format!("b_{i}"))),
            ]),
            // Contradiction.
            1 => Guard::all_of([
                Guard::atom(format!("c_{i}")),
                Guard::not(Guard::atom(format!("c_{i}"))),
            ]),
            // Shared atoms: may duplicate or subsume a sibling entry.
            2 => Guard::atom("shared"),
            3 => Guard::all_of([Guard::atom("shared"), Guard::atom(format!("extra_{i}"))]),
            _ => Guard::any_of([Guard::atom(format!("d_{i}")), Guard::atom(format!("e_{i}"))]),
        };
        set = set.with_entry(EntryArtifact::new(&id).expr(expr));
        if rng.gen_bool(0.7) {
            set = set.covered_dev(&id);
        }
    }
    // Waivers for known and unknown ids, expired or not.
    for i in 0..rng.gen_range(0usize..4) {
        set = set.with_waiver(vdo_core::Waiver {
            finding_id: if rng.gen_bool(0.5) {
                "R-0".to_string()
            } else {
                format!("GHOST-{i}")
            },
            reason: "random".into(),
            expires_at: if rng.gen_bool(0.5) {
                Some(rng.gen_range(0u64..200))
            } else {
                None
            },
        });
    }
    for i in 0..rng.gen_range(0usize..6) {
        let p = || Formula::atom(format!("p_{i}"));
        let q = || Formula::atom(format!("q_{i}"));
        let f = match rng.gen_range(0u32..4) {
            0 => Formula::globally(Formula::implies(p(), Formula::finally(q()))),
            1 => Formula::and(Formula::globally(p()), Formula::finally(Formula::not(p()))),
            2 => Formula::or(p(), Formula::not(p())),
            _ => Formula::globally(Formula::implies(
                Formula::and(p(), Formula::not(p())),
                Formula::finally(q()),
            )),
        };
        set = set.with_formula(format!("f-{i}"), f);
    }
    for i in 0..rng.gen_range(0usize..3) {
        let mut m = vdo_gwt::GraphModel::new(format!("m-{i}"));
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
        set = set.with_model(m);
    }
    for i in 0..rng.gen_range(0usize..3) {
        let guard = if rng.gen_bool(0.5) {
            "load > 1 and load < 0"
        } else {
            "load > 90"
        };
        set = set.with_assertion(GuardedAssertion::new(
            format!("ga-{i}"),
            parse_guard(guard).expect("guard parses"),
            parse_guard("ok == 1").expect("assertion parses"),
            5,
        ));
    }
    set
}

proptest! {
    /// `analyze_all` at any worker count returns exactly the sequential
    /// result — same diagnostics, same order, same rendered listing —
    /// for arbitrary artifact sets and configs.
    #[test]
    fn parallel_equals_sequential(seed in 0u64..5_000, threads in 2usize..9) {
        let artifacts = random_artifacts(seed);
        let mut builder = AnalysisConfig::builder();
        // Vary the config too: demote one rotating lint, allow another.
        let codes = LintCode::ALL;
        builder = builder
            .level(codes[(seed as usize) % codes.len()], LintLevel::Warn)
            .level(codes[(seed as usize + 3) % codes.len()], LintLevel::Allow);
        let analyzer = Analyzer::new(builder.build().expect("valid config"));
        let sequential = analyzer.analyze_all(&artifacts, 1);
        let parallel = analyzer.analyze_all(&artifacts, threads);
        prop_assert_eq!(&sequential.diagnostics, &parallel.diagnostics);
        prop_assert_eq!(sequential.listing(), parallel.listing());
    }

    /// The default-deny analyzer never crashes and stays deterministic
    /// across repeated runs of the same input.
    #[test]
    fn repeated_runs_are_identical(seed in 0u64..5_000) {
        let artifacts = random_artifacts(seed);
        let analyzer = Analyzer::new(AnalysisConfig::default());
        let a = analyzer.analyze(&artifacts);
        let b = analyzer.analyze(&artifacts);
        prop_assert_eq!(a.diagnostics, b.diagnostics);
    }
}

/// The seed STIG catalogues are known-clean: mirroring them into an
/// artifact set (fully dev-covered, as `ci.sh` runs them) must produce
/// zero findings. Any diagnostic here is a false positive by
/// construction.
#[test]
fn seed_catalogues_produce_no_findings() {
    let analyzer = Analyzer::new(AnalysisConfig::default());
    for (name, artifacts) in [
        (
            "ubuntu",
            ArtifactSet::new()
                .with_catalog(&vdo_stigs::ubuntu::catalog())
                .covered_dev_all(),
        ),
        (
            "win10",
            ArtifactSet::new()
                .with_catalog(&vdo_stigs::win10::catalog())
                .covered_dev_all(),
        ),
    ] {
        let report = analyzer.analyze(&artifacts);
        assert!(
            report.is_clean(),
            "false positives on the clean {name} catalogue:\n{}",
            report.listing()
        );
    }
}

/// A real enforced host round-trip stays clean too: the catalogue the
/// compliance gate runs is the one the analyzer vets.
#[test]
fn enforced_host_catalogue_stays_clean() {
    let catalog = vdo_stigs::ubuntu::catalog();
    let mut host = vdo_host::UnixHost::baseline_ubuntu_1804();
    vdo_core::RemediationPlanner::default().run(&catalog, &mut host);
    let artifacts = ArtifactSet::new().with_catalog(&catalog).covered_dev_all();
    let report = Analyzer::new(AnalysisConfig::default()).analyze(&artifacts);
    assert!(report.is_clean(), "{}", report.listing());
}
