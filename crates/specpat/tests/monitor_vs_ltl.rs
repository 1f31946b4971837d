//! The catalogue's oracle: every entry with an observer automaton,
//! monitored through that observer, agrees with the `vdo-temporal` LTL
//! evaluator on the entry's `to_ltl()`, after every prefix and under both
//! semantics. On traces with Incomplete atoms the monitor gives exactly
//! the verdict that every resolution of those atoms agrees on.
//!
//! `ci.sh` also runs these properties with `PROPTEST_CASES=4096`.

use proptest::prelude::*;
use vdo_core::{CheckStatus, Checkable};
use vdo_specpat::pattern::{full_matrix, rqcode_temporal};
use vdo_specpat::{ObserverAutomaton, SpecPattern};
use vdo_temporal::{Interpretation, PatternMonitor, Semantics, Trace};

const ATOMS: [&str; 4] = ["p", "s", "q", "r"];

/// The verdicts of atoms `p`, `s`, `q`, `r`.
type St = [CheckStatus; 4];

/// After every prefix `k = 0..=len`: `(prefix, complete)` verdicts.
type Verdicts = Vec<(CheckStatus, CheckStatus)>;

/// Every catalogue entry with an observer, timed ones at deadline `t`.
fn observed_entries(t: u64) -> Vec<(SpecPattern, ObserverAutomaton)> {
    full_matrix()
        .into_iter()
        .chain(rqcode_temporal(t).into_iter().map(|(_, e)| e))
        .filter_map(|e| ObserverAutomaton::for_pattern(&e).map(|o| (e, o)))
        .collect()
}

fn monitor_verdicts(observer: &ObserverAutomaton, states: &[St]) -> Verdicts {
    let props: Vec<_> = (0..ATOMS.len()).map(|i| move |s: &St| s[i]).collect();
    let binding: Vec<(&str, &dyn Checkable<St>)> = ATOMS
        .iter()
        .zip(&props)
        .map(|(&a, p)| (a, p as &dyn Checkable<St>))
        .collect();
    let monitor = || observer.monitor(&binding).expect("bound");
    let complete = |k: usize| {
        monitor().evaluate(
            &Trace::from_states(states[..k].iter().copied()),
            Semantics::Complete,
        )
    };
    let mut m = monitor();
    let mut out = vec![(m.verdict(), complete(0))];
    for (k, s) in states.iter().enumerate() {
        out.push((m.observe(s), complete(k + 1)));
    }
    out
}

fn ltl_verdicts(entry: &SpecPattern, states: &[St]) -> Verdicts {
    let formula = entry.to_ltl();
    let interp = Interpretation::new(|name: &str, s: &St| {
        s[ATOMS
            .iter()
            .position(|a| *a == name)
            .expect("catalogue atom")]
    });
    (0..=states.len())
        .map(|k| {
            let prefix = Trace::from_states(states[..k].iter().copied());
            let eval = |mode| interp.evaluate(&formula, &prefix, 0, mode);
            (eval(Semantics::Prefix), eval(Semantics::Complete))
        })
        .collect()
}

/// `verdicts` lifted to Incomplete atoms: after each prefix, the verdict
/// every resolution of the Incomplete slots agrees on, else Incomplete.
fn lifted(states: &[St], verdicts: impl Fn(&[St]) -> Verdicts) -> Verdicts {
    let slots: Vec<(usize, usize)> = (0..states.len())
        .flat_map(|t| (0..ATOMS.len()).map(move |a| (t, a)))
        .filter(|&(t, a)| states[t][a].is_incomplete())
        .collect();
    let agree = |a: CheckStatus, b: CheckStatus| if a == b { a } else { CheckStatus::Incomplete };
    (0..1u32 << slots.len())
        .map(|mask| {
            let mut resolved = states.to_vec();
            for (i, &(t, a)) in slots.iter().enumerate() {
                resolved[t][a] = CheckStatus::from(mask >> i & 1 == 1);
            }
            verdicts(&resolved)
        })
        .reduce(|x, y| {
            x.into_iter()
                .zip(y)
                .map(|((p, c), (q, d))| (agree(p, q), agree(c, d)))
                .collect()
        })
        .expect("at least one resolution")
}

fn decided_trace(len: usize) -> impl Strategy<Value = Vec<St>> {
    prop::collection::vec(
        (
            prop::bool::ANY,
            prop::bool::ANY,
            prop::bool::ANY,
            prop::bool::ANY,
        ),
        0..len,
    )
    .prop_map(|bits| {
        bits.into_iter()
            .map(|(p, s, q, r)| [p.into(), s.into(), q.into(), r.into()])
            .collect()
    })
}

/// Decided traces with up to five Incomplete slots.
fn unknown_trace() -> impl Strategy<Value = Vec<St>> {
    (
        decided_trace(10),
        prop::collection::vec((0usize..10, 0usize..4), 0..6),
    )
        .prop_map(|(mut states, unknown)| {
            for (t, a) in unknown {
                if let Some(s) = states.get_mut(t) {
                    s[a] = CheckStatus::Incomplete;
                }
            }
            states
        })
}

proptest! {
    #[test]
    fn every_observed_entry_matches_its_ltl(states in decided_trace(16), t in 0u64..6) {
        for (entry, observer) in observed_entries(t) {
            let expected = ltl_verdicts(&entry, &states);
            prop_assert_eq!(
                monitor_verdicts(&observer, &states),
                expected.clone(),
                "{} ({}) on {:?}",
                entry,
                entry.to_ltl(),
                states
            );
            // `run` over true-atom sets loops the same step function.
            let observations: Vec<_> = states
                .iter()
                .map(|s| {
                    ATOMS
                        .iter()
                        .zip(s)
                        .filter(|(_, v)| v.is_pass())
                        .map(|(a, _)| a.to_string())
                        .collect()
                })
                .collect();
            let outcome = observer.run(&observations);
            let last = expected[states.len()];
            prop_assert_eq!((outcome.prefix, outcome.complete), last, "{} run", entry);
            let first_fail = expected.iter().position(|v| v.0.is_fail()).map(|k| k - 1);
            prop_assert_eq!(outcome.violation_at, first_fail, "{} violation tick", entry);
        }
    }

    #[test]
    fn incomplete_atoms_give_the_verdict_every_resolution_agrees_on(
        states in unknown_trace(),
        t in 0u64..6,
    ) {
        for (entry, observer) in observed_entries(t) {
            prop_assert_eq!(
                monitor_verdicts(&observer, &states),
                lifted(&states, |s| monitor_verdicts(&observer, s)),
                "{} on {:?}",
                entry,
                states
            );
        }
    }
}
