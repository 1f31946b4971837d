//! Integration: the RQCODE compliance stack — catalogue × host × planner
//! × drift — across `vdo-core`, `vdo-host`, and `vdo-stigs`.

use veridevops::core::{CheckStatus, PlannerConfig, PlannerOutcome, RemediationPlanner, Severity};
use veridevops::host::{DriftInjector, FleetConfig, FleetStore, Platform, UnixHost, WindowsHost};
use veridevops::stigs::{ubuntu, win10};

#[test]
fn annex_findings_are_present_with_metadata() {
    let cat = ubuntu::catalog();
    for id in [
        "V-219157", "V-219158", "V-219161", "V-219177", "V-219304", "V-219318", "V-219319",
        "V-219343",
    ] {
        let e = cat.find(id).unwrap_or_else(|| panic!("{id} missing"));
        assert!(!e.spec().title().is_empty());
        assert!(!e.spec().description().is_empty());
        assert!(!e.spec().check_text().is_empty());
        assert!(!e.spec().fix_text().is_empty());
        assert_eq!(e.spec().stig(), "Canonical Ubuntu 18.04 LTS STIG");
        // The documents render for auditors.
        assert!(e.spec().to_document().contains(id));
    }
}

#[test]
fn d27_annex_fidelity() {
    // The deliverable's annex enumerates these concrete classes; their
    // Rust counterparts must exist with the documented behaviour.
    let wcat = win10::catalog();
    for id in [
        "V-63447", "V-63449", "V-63463", "V-63467", "V-63483", "V-63487",
    ] {
        let e = wcat.find(id).unwrap_or_else(|| panic!("{id} missing"));
        assert!(
            e.is_enforceable(),
            "{id} must be enforceable (auditpol pattern)"
        );
        assert!(e.spec().description().contains("audit trail"));
    }
    // The temporal package's nine classes are catalogue entries, each
    // with its query rendering and an observer-compiled monitor that the
    // loop runs:
    use veridevops::specpat::pattern::rqcode_temporal;
    use veridevops::specpat::ObserverAutomaton;
    use veridevops::temporal::MonitoringLoop;
    let classes = rqcode_temporal(5);
    assert_eq!(classes.len(), 9);
    let tctl = |name: &str| {
        let (_, entry) = classes.iter().find(|(n, _)| *n == name).expect(name);
        entry.to_uppaal().unwrap_or_default()
    };
    assert_eq!(tctl("GlobalUniversality"), "A[] p");
    assert_eq!(tctl("Eventually"), "A<> p");
    assert!(tctl("GlobalResponseTimed").contains("x <= 5"));
    assert!(tctl("GlobalResponseUntil").contains("q || r"));
    assert!(tctl("GlobalUniversalityTimed").contains("x <= 5 imply p"));
    for (name, entry) in &classes {
        assert!(
            ObserverAutomaton::for_pattern(entry).is_some(),
            "{name} has no monitor"
        );
    }
    let _loop = MonitoringLoop::new(1).expect("nonzero period");
    // And the PROPAS matrix is complete.
    assert_eq!(veridevops::specpat::pattern::full_matrix().len(), 30);
}

#[test]
fn fleet_compliance_scales_with_drift_rate() {
    let cat = ubuntu::catalog();
    let planner = RemediationPlanner::new(PlannerConfig::default());
    let mut failing_counts = Vec::new();
    for drift_probability in [0.0, 0.5, 1.0] {
        let fleet = FleetStore::generate(
            &FleetConfig::builder()
                .size(10)
                .drift_probability(drift_probability)
                .drift_events_per_host(5)
                .seed(42)
                .build()
                .expect("valid fleet config"),
        );
        let mut failing = 0usize;
        for i in 0..fleet.len() {
            let mut host = fleet.materialize_unix(i);
            failing += cat
                .check_all(&host)
                .iter()
                .filter(|(_, v)| v.is_fail())
                .count();
            // Remediate every host.
            let run = planner.run(&cat, &mut host);
            assert_eq!(run.outcome, PlannerOutcome::Compliant);
        }
        failing_counts.push(failing);
    }
    // The baseline image itself is non-compliant, so drift monotonically
    // adds on top of a non-zero floor.
    assert!(failing_counts[0] <= failing_counts[1]);
    assert!(failing_counts[1] <= failing_counts[2]);
}

#[test]
fn windows_and_unix_catalogs_are_independent() {
    // Requirement types are statically bound to their host class —
    // enforcing the Ubuntu catalogue cannot touch a Windows host and
    // vice versa (this is the type-parameterised `Checkable<E>` design).
    let ucat = ubuntu::catalog();
    let wcat = win10::catalog();
    let mut uhost = UnixHost::baseline_ubuntu_1804();
    let mut whost = WindowsHost::baseline_win10();
    let planner = RemediationPlanner::default();
    let urun = planner.run(&ucat, &mut uhost);
    let wrun = planner.run(&wcat, &mut whost);
    assert_eq!(urun.outcome, PlannerOutcome::Compliant);
    assert_eq!(wrun.outcome, PlannerOutcome::Compliant);
}

#[test]
fn check_only_assessment_does_not_mutate() {
    let cat = ubuntu::catalog();
    let host = UnixHost::baseline_ubuntu_1804();
    let snapshot = host.clone();
    let results = cat.check_all(&host);
    assert_eq!(host, snapshot, "checking must be side-effect free");
    assert!(results.iter().any(|(_, v)| v.is_fail()));
}

#[test]
fn severity_rollup_matches_catalog_inventory() {
    let cat = ubuntu::catalog();
    let mut host = UnixHost::baseline_ubuntu_1804();
    // Break everything breakable, then assess.
    DriftInjector::new(3).drift(&mut host, Platform::Unix, 25);
    let run = RemediationPlanner::default().run(&cat, &mut host);
    let summary = run.report.summary();
    assert_eq!(summary.total, cat.len());
    assert_eq!(summary.failing, 0);
    assert_eq!(summary.open_high, 0);
    // Every CAT I in the inventory is accounted for in the report.
    let high_in_catalog: usize = cat
        .iter()
        .filter(|e| e.spec().severity() == Severity::High)
        .count();
    let high_in_report = run
        .report
        .results()
        .iter()
        .filter(|r| r.severity == Severity::High)
        .count();
    assert_eq!(high_in_catalog, high_in_report);
}

#[test]
fn incomplete_checks_surface_not_crash() {
    // A fresh host lacks /etc/shadow mode records; the file-mode finding
    // reports Incomplete and the planner enforces it to a known state.
    let cat = ubuntu::catalog();
    let mut host = UnixHost::new("fresh");
    let before = cat
        .check_all(&host)
        .iter()
        .filter(|(_, v)| *v == CheckStatus::Incomplete)
        .count();
    assert!(before > 0, "fresh host must have undecidable findings");
    let planner = RemediationPlanner::new(PlannerConfig {
        enforce_incomplete: true,
        ..PlannerConfig::default()
    });
    let run = planner.run(&cat, &mut host);
    assert_eq!(run.outcome, PlannerOutcome::Compliant);
}
