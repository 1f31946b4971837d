//! Integration: the WP2 formalisation chain across crates.
//!
//! One security property, a `vdo-specpat` catalogue entry, is checked two
//! ways — through its observer automaton's incremental monitor, and as
//! its LTL formula under the `vdo-temporal` evaluator — and must agree
//! with itself on concrete behaviours; a CTL rendering is checked over a
//! Kripke model.

use std::collections::BTreeSet;

use veridevops::core::{CheckStatus, Checkable};
use veridevops::specpat::{
    CtlFormula, Kripke, ModelChecker, ObserverAutomaton, PatternKind, Scope, SpecPattern,
};
use veridevops::temporal::{Interpretation, PatternMonitor, Semantics, Trace};

type St = (bool, bool); // (intrusion, alert)

/// The Complete verdicts of the bounded-response entry on `states`:
/// through its monitor, then through its LTL formula.
fn monitor_and_ltl_verdicts(states: &[St], bound: u64) -> (CheckStatus, CheckStatus) {
    let pattern = SpecPattern::new(
        Scope::Globally,
        PatternKind::bounded_response("p", "s", bound),
    );
    let trace = Trace::from_states(states.iter().copied());

    // 1. The observer automaton's monitor.
    let observer = ObserverAutomaton::for_pattern(&pattern).expect("bounded response observer");
    let (p, s) = (
        |st: &St| CheckStatus::from(st.0),
        |st: &St| CheckStatus::from(st.1),
    );
    let binding: [(&str, &dyn Checkable<St>); 2] = [("p", &p), ("s", &s)];
    let v1 = observer
        .monitor(&binding)
        .expect("bound")
        .evaluate(&trace, Semantics::Complete);

    // 2. The formula evaluated by the vdo-temporal LTL engine.
    let interp = Interpretation::new(|name: &str, st: &St| match name {
        "p" => CheckStatus::from(st.0),
        "s" => CheckStatus::from(st.1),
        _ => CheckStatus::Incomplete,
    });
    let v2 = interp.evaluate(&pattern.to_ltl(), &trace, 0, Semantics::Complete);

    (v1, v2)
}

#[test]
fn monitor_and_ltl_agree_on_satisfied_behaviour() {
    let states = [
        (true, false),
        (false, false),
        (false, true), // answered within 2
        (false, false),
    ];
    let (a, b) = monitor_and_ltl_verdicts(&states, 2);
    assert_eq!(a, CheckStatus::Pass);
    assert_eq!(b, CheckStatus::Pass);
}

#[test]
fn monitor_and_ltl_agree_on_violating_behaviour() {
    let states = [
        (true, false),
        (false, false),
        (false, false),
        (false, true), // one tick late
    ];
    let (a, b) = monitor_and_ltl_verdicts(&states, 2);
    assert_eq!(a, CheckStatus::Fail);
    assert_eq!(b, CheckStatus::Fail);
}

#[test]
fn monitor_and_ltl_agree_exhaustively_on_short_traces() {
    // All (p, s) traces of length ≤ 6 against bounds 0..3 — a brute-force
    // equivalence check of the monitor and the formula.
    for bound in 0..3u64 {
        for len in 0..=6usize {
            for mask in 0..(1u32 << (2 * len)) {
                let states: Vec<St> = (0..len)
                    .map(|i| {
                        let bits = (mask >> (2 * i)) & 0b11;
                        (bits & 1 != 0, bits & 2 != 0)
                    })
                    .collect();
                let (a, b) = monitor_and_ltl_verdicts(&states, bound);
                assert_eq!(a, b, "monitor vs LTL on {states:?} bound {bound}");
            }
        }
    }
}

#[test]
fn boilerplate_text_to_runtime_detection() {
    // The whole WP2→WP3 chain: constrained-NL requirement → specification
    // pattern → observer automaton → violation detected on telemetry.
    use veridevops::specpat::resa::ResaRequirement;

    let req = ResaRequirement::parse(
        "Globally, the intrusion detector shall respond to intrusion with alert \
         within 3 time units",
    )
    .expect("boilerplate parses");
    let observer =
        ObserverAutomaton::for_pattern(req.pattern()).expect("globally-scoped observer exists");

    // Telemetry: intrusion at tick 2, alert too late at tick 7.
    let telemetry: Vec<_> = (0..10)
        .map(|t: u64| {
            let mut set = BTreeSet::new();
            if t == 2 {
                set.insert("intrusion".to_string());
            }
            if t == 7 {
                set.insert("alert".to_string());
            }
            set
        })
        .collect();
    let outcome = observer.run(&telemetry);
    assert_eq!(outcome.prefix, CheckStatus::Fail);
    assert_eq!(
        outcome.violation_at,
        Some(5),
        "deadline 2+3 missed at tick 5"
    );

    // The same requirement over compliant telemetry passes.
    let ok: Vec<_> = (0..10)
        .map(|t: u64| {
            let mut set = BTreeSet::new();
            if t == 2 {
                set.insert("intrusion".to_string());
            }
            if t == 4 {
                set.insert("alert".to_string());
            }
            set
        })
        .collect();
    assert_eq!(observer.run(&ok).complete, CheckStatus::Pass);
}

#[test]
fn ops_incident_forensics_with_host_diff() {
    // Protection at operations plus forensic diffing: snapshot the
    // known-good host, let drift break it, and verify the diff names the
    // change that the compliance check flagged.
    use veridevops::core::RemediationPlanner;
    use veridevops::host::{diff_hosts, DriftInjector, Platform, UnixHost};
    use veridevops::stigs::ubuntu;

    let catalog = ubuntu::catalog();
    let mut host = UnixHost::baseline_ubuntu_1804();
    RemediationPlanner::default().run(&catalog, &mut host);
    let known_good = host.clone();

    DriftInjector::new(5).drift(&mut host, Platform::Unix, 3);
    let failing: Vec<_> = catalog
        .check_all(&host)
        .into_iter()
        .filter(|(_, v)| !v.is_pass())
        .map(|(e, _)| e.spec().finding_id().to_string())
        .collect();
    let deltas = diff_hosts(&known_good, &host);
    if !failing.is_empty() {
        assert!(
            !deltas.is_empty(),
            "compliance broke ({failing:?}) but the diff saw nothing"
        );
    }
    // Repair and confirm the diff against known-good is empty again for
    // everything the catalogue governs.
    RemediationPlanner::default().run(&catalog, &mut host);
    let after_repair = catalog.check_all(&host);
    assert!(after_repair.iter().all(|(_, v)| v.is_pass()));
}

#[test]
fn ctl_check_agrees_with_linear_verdict_on_lasso_models() {
    // A design where every intrusion state transitions straight to an
    // alert state satisfies AG(p → AF s); one with an escape loop does
    // not.
    let mut good = Kripke::new();
    let n0 = good.add_state(Vec::<String>::new());
    let n1 = good.add_state(["p"]);
    let n2 = good.add_state(["s"]);
    good.add_transition(n0, n0);
    good.add_transition(n0, n1);
    good.add_transition(n1, n2);
    good.add_transition(n2, n0);
    good.set_initial(n0);
    let response = CtlFormula::ag(CtlFormula::implies(
        CtlFormula::atom("p"),
        CtlFormula::af(CtlFormula::atom("s")),
    ));
    assert!(ModelChecker::new(&good).holds(&response));

    let mut bad = good.clone();
    let n3 = bad.add_state(["p"]);
    bad.add_transition(n3, n3); // intrusion state that loops forever
    bad.add_transition(n0, n3);
    assert!(!ModelChecker::new(&bad).holds(&response));
}
