//! Golden file for the pattern catalogue: one line per entry with its
//! renderings, its observer's shape and a digest of its verdicts.
//!
//! Rows: every `full_matrix()` entry, then the entries that formalise
//! the nine D2.7 `rqcode.patterns.temporal` classes. Each line holds the
//! LTL rendering, the CTL and UPPAAL/TCTL renderings (or `unsupported`),
//! the observer's `locations/edges` (or `none`), and an FNV-1a digest of
//! the Complete and Prefix verdicts on every trace of length ≤ 3 over the
//! row's atoms. Atoms range over Pass, Fail and Incomplete, except on the
//! grid rows an observer checks, whose traces are sets of true atoms.
//! Observer rows are checked through the observer (`run` on grid rows,
//! the monitor on class rows), the rest through the LTL evaluator.
//!
//! A catalogue change that alters a line must be intentional. Re-bless
//! with `BLESS_GOLDEN=1 cargo test -p vdo-specpat --test catalogue_golden`.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

use vdo_core::{CheckStatus, Checkable};
use vdo_obs::hash::{fnv1a, FNV_OFFSET};
use vdo_specpat::pattern::{full_matrix, rqcode_temporal};
use vdo_specpat::{ObserverAutomaton, SpecPattern};
use vdo_temporal::{Interpretation, PatternMonitor, Semantics, Trace};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/catalogue.txt");

/// The deadline the timed class entries are instantiated with: traces
/// of length 3 see both sides of it.
const BOUND: u64 = 1;

/// A state: atom `i`'s verdict is base-3 digit `i` (0 Pass, 1 Fail,
/// 2 Incomplete).
type State = u32;

fn atom(s: State, i: usize) -> CheckStatus {
    match s / 3u32.pow(i as u32) % 3 {
        0 => CheckStatus::Pass,
        1 => CheckStatus::Fail,
        _ => CheckStatus::Incomplete,
    }
}

fn code(v: CheckStatus) -> u8 {
    match v {
        CheckStatus::Pass => b'P',
        CheckStatus::Fail => b'F',
        CheckStatus::Incomplete => b'I',
    }
}

/// Digest of `(complete, prefix)` over every trace of length 0..=3
/// whose states give each of `atoms` atoms one of the first `values`
/// verdicts (2: Pass and Fail; 3: all three), in a fixed order.
fn digest(
    atoms: usize,
    values: u32,
    verdicts: impl Fn(&Trace<State>) -> (CheckStatus, CheckStatus),
) -> String {
    let states: Vec<State> = (0..values.pow(atoms as u32))
        .map(|mut c| {
            (0..atoms as u32).fold(0, |s, i| {
                let digit = c % values;
                c /= values;
                s + digit * 3u32.pow(i)
            })
        })
        .collect();
    let mut h = FNV_OFFSET;
    for len in 0..=3u32 {
        for mut c in 0..(states.len() as u32).pow(len) {
            let trace: Trace<State> = (0..len)
                .map(|_| {
                    let s = states[(c % states.len() as u32) as usize];
                    c /= states.len() as u32;
                    s
                })
                .collect();
            let (complete, prefix) = verdicts(&trace);
            h = fnv1a(h, &[code(complete), code(prefix)]);
        }
    }
    format!("{h:016x}")
}

/// The row of catalogue entry `pattern`, labelled `label`. On class rows
/// an observer is checked through its monitor over three-valued atoms.
/// `ltl_digests` caches the LTL rows' digests by formula: several grid
/// entries share one formula.
fn row(
    label: &str,
    pattern: &SpecPattern,
    class: bool,
    ltl_digests: &mut HashMap<String, String>,
) -> String {
    let ltl = pattern.to_ltl();
    let atoms: Vec<String> = ltl.atoms().iter().map(|a| a.to_string()).collect();
    let index = |name: &str| atoms.iter().position(|a| a == name).expect("atom");
    let ctl = pattern
        .to_ctl()
        .map_or_else(|_| "unsupported".to_string(), |f| f.to_string());
    let uppaal = pattern
        .to_uppaal()
        .unwrap_or_else(|_| "unsupported".to_string());
    let (shape, verdicts) = match ObserverAutomaton::for_pattern(pattern) {
        Some(observer) if class => {
            let props: Vec<_> = (0..atoms.len())
                .map(|i| move |&s: &State| atom(s, i))
                .collect();
            let binding: Vec<(&str, &dyn Checkable<State>)> = atoms
                .iter()
                .zip(&props)
                .map(|(a, p)| (a.as_str(), p as &dyn Checkable<State>))
                .collect();
            let monitor = || observer.monitor(&binding).expect("bound");
            (
                format!("{}/{}", observer.location_count(), observer.edge_count()),
                digest(atoms.len(), 3, |t| {
                    (
                        monitor().evaluate(t, Semantics::Complete),
                        monitor().evaluate(t, Semantics::Prefix),
                    )
                }),
            )
        }
        Some(observer) => (
            format!("{}/{}", observer.location_count(), observer.edge_count()),
            digest(atoms.len(), 2, |t| {
                let obs: Vec<BTreeSet<String>> = t
                    .states()
                    .iter()
                    .map(|&s| {
                        (0..atoms.len())
                            .filter(|&i| atom(s, i).is_pass())
                            .map(|i| atoms[i].clone())
                            .collect()
                    })
                    .collect();
                let outcome = observer.run(&obs);
                (outcome.complete, outcome.prefix)
            }),
        ),
        None => {
            let verdicts = ltl_digests.entry(ltl.to_string()).or_insert_with(|| {
                let interp = Interpretation::new(|name: &str, &s: &State| atom(s, index(name)));
                digest(atoms.len(), 3, |t| {
                    (
                        interp.evaluate(&ltl, t, 0, Semantics::Complete),
                        interp.evaluate(&ltl, t, 0, Semantics::Prefix),
                    )
                })
            });
            ("none".to_string(), verdicts.clone())
        }
    };
    format!("{label} | ltl {ltl} | ctl {ctl} | uppaal {uppaal} | observer {shape} | verdicts {verdicts}")
}

fn catalogue() -> String {
    let mut out = String::new();
    let mut ltl_digests = HashMap::new();
    for pattern in full_matrix() {
        let label = format!("grid {pattern}");
        writeln!(out, "{}", row(&label, &pattern, false, &mut ltl_digests)).unwrap();
    }
    for (name, pattern) in rqcode_temporal(BOUND) {
        let label = format!("class {name}");
        writeln!(out, "{}", row(&label, &pattern, true, &mut ltl_digests)).unwrap();
    }
    out
}

#[test]
fn catalogue_matches_golden() {
    let actual = catalogue();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("golden file present");
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "catalogue row {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "catalogue row count differs; re-bless with BLESS_GOLDEN=1 if the change is intentional"
    );
}
