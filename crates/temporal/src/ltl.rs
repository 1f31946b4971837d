//! A small LTL (with discrete-time bounds) abstract syntax tree and
//! finite-trace evaluator.
//!
//! `vdo-specpat` renders every catalogue entry to a [`Formula`], and its
//! observer monitors are property-tested against this module's
//! *reference semantics*.
//!
//! Evaluation is three-valued ([`CheckStatus`]) under two finite-trace
//! interpretations:
//!
//! * [`Semantics::Complete`] — the trace is the whole behaviour
//!   (classic finite-trace LTL: `G p` passes if `p` held at every
//!   observed tick, strong `X` fails at the last tick);
//! * [`Semantics::Prefix`] — the trace is a prefix of an unknown
//!   infinite behaviour (impartial runtime-verification semantics:
//!   verdicts are only `Pass`/`Fail` when *every* continuation agrees,
//!   `Incomplete` otherwise).

use std::fmt;

use vdo_core::CheckStatus;

use crate::trace::{Tick, Trace};

/// How a finite trace is interpreted during evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// The trace is the complete behaviour: `G p` passes if `p` held at
    /// every observed tick; `F p` fails if `p` never held.
    Complete,
    /// The trace is a prefix of an unknown infinite behaviour: verdicts
    /// are `Pass`/`Fail` only when every continuation agrees
    /// (impartial runtime-verification semantics).
    Prefix,
}

/// An LTL formula over named atomic propositions.
///
/// ```
/// use vdo_temporal::Formula;
/// let f = Formula::globally(Formula::implies(
///     Formula::atom("request"),
///     Formula::finally_within(5, Formula::atom("response")),
/// ));
/// assert_eq!(f.to_string(), "G (request -> F<=5 response)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// Named atomic proposition.
    Atom(String),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Strong next.
    Next(Box<Formula>),
    /// Always (`G`).
    Globally(Box<Formula>),
    /// Eventually (`F`).
    Finally(Box<Formula>),
    /// Until (`p U q`).
    Until(Box<Formula>, Box<Formula>),
    /// Time-bounded always: `G<=T f`.
    GloballyWithin(Tick, Box<Formula>),
    /// Time-bounded eventually: `F<=T f`.
    FinallyWithin(Tick, Box<Formula>),
}

impl Formula {
    /// Atomic proposition.
    #[must_use]
    pub fn atom(name: impl Into<String>) -> Formula {
        Formula::Atom(name.into())
    }

    /// Negation.
    #[must_use]
    // An `ops::Not` impl would move the operand; the builder-style
    // associated function is the intended API.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// Conjunction.
    #[must_use]
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }

    /// Disjunction.
    #[must_use]
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }

    /// Implication.
    #[must_use]
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// Strong next.
    #[must_use]
    pub fn next(f: Formula) -> Formula {
        Formula::Next(Box::new(f))
    }

    /// `G f`.
    #[must_use]
    pub fn globally(f: Formula) -> Formula {
        Formula::Globally(Box::new(f))
    }

    /// `F f`.
    #[must_use]
    pub fn finally(f: Formula) -> Formula {
        Formula::Finally(Box::new(f))
    }

    /// `a U b`.
    #[must_use]
    pub fn until(a: Formula, b: Formula) -> Formula {
        Formula::Until(Box::new(a), Box::new(b))
    }

    /// `G<=bound f`.
    #[must_use]
    pub fn globally_within(bound: Tick, f: Formula) -> Formula {
        Formula::GloballyWithin(bound, Box::new(f))
    }

    /// `F<=bound f`.
    #[must_use]
    pub fn finally_within(bound: Tick, f: Formula) -> Formula {
        Formula::FinallyWithin(bound, Box::new(f))
    }

    /// Names of all atoms occurring in the formula, in first-occurrence
    /// order, without duplicates.
    #[must_use]
    pub fn atoms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => {
                if !out.contains(&a.as_str()) {
                    out.push(a);
                }
            }
            Formula::Not(f)
            | Formula::Next(f)
            | Formula::Globally(f)
            | Formula::Finally(f)
            | Formula::GloballyWithin(_, f)
            | Formula::FinallyWithin(_, f) => f.collect_atoms(out),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Until(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }

    /// Syntactic size (number of AST nodes).
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::Not(f)
            | Formula::Next(f)
            | Formula::Globally(f)
            | Formula::Finally(f)
            | Formula::GloballyWithin(_, f)
            | Formula::FinallyWithin(_, f) => 1 + f.size(),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Until(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn paren(f: &Formula) -> bool {
            matches!(
                f,
                Formula::And(..) | Formula::Or(..) | Formula::Implies(..) | Formula::Until(..)
            )
        }
        fn wrap(x: &Formula, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if paren(x) {
                write!(f, "({x})")
            } else {
                write!(f, "{x}")
            }
        }
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Not(x) => {
                write!(f, "!")?;
                wrap(x, f)
            }
            Formula::And(a, b) => {
                wrap(a, f)?;
                write!(f, " && ")?;
                wrap(b, f)
            }
            Formula::Or(a, b) => {
                wrap(a, f)?;
                write!(f, " || ")?;
                wrap(b, f)
            }
            Formula::Implies(a, b) => {
                wrap(a, f)?;
                write!(f, " -> ")?;
                wrap(b, f)
            }
            Formula::Next(x) => {
                write!(f, "X ")?;
                wrap(x, f)
            }
            Formula::Globally(x) => {
                write!(f, "G ")?;
                wrap(x, f)
            }
            Formula::Finally(x) => {
                write!(f, "F ")?;
                wrap(x, f)
            }
            Formula::Until(a, b) => {
                wrap(a, f)?;
                write!(f, " U ")?;
                wrap(b, f)
            }
            Formula::GloballyWithin(t, x) => {
                write!(f, "G<={t} ")?;
                wrap(x, f)
            }
            Formula::FinallyWithin(t, x) => {
                write!(f, "F<={t} ")?;
                wrap(x, f)
            }
        }
    }
}

/// Binds a formula's atoms to propositions over trace states, providing
/// evaluation.
///
/// The labelling function may return [`CheckStatus::Incomplete`] for
/// atoms it cannot decide in a given state (e.g. a sensor that was not
/// sampled); incompleteness propagates through the Kleene connectives.
pub struct Interpretation<'a, S> {
    label: LabelFn<'a, S>,
}

/// The labelling function type: `(atom name, state) → verdict`.
type LabelFn<'a, S> = Box<dyn Fn(&str, &S) -> CheckStatus + 'a>;

impl<'a, S> Interpretation<'a, S> {
    /// Creates an interpretation from a labelling function
    /// `(atom name, state) → verdict`.
    #[must_use]
    pub fn new(label: impl Fn(&str, &S) -> CheckStatus + 'a) -> Self {
        Interpretation {
            label: Box::new(label),
        }
    }

    /// Evaluates `formula` at position `at` of `trace` under `mode`.
    ///
    /// Positions past the end of the trace yield `Fail` under
    /// [`Semantics::Complete`] (there is no such state) and
    /// `Incomplete` under [`Semantics::Prefix`].
    #[must_use]
    pub fn evaluate(
        &self,
        formula: &Formula,
        trace: &Trace<S>,
        at: Tick,
        mode: Semantics,
    ) -> CheckStatus {
        let n = trace.len() as Tick;
        let beyond = |mode: Semantics| match mode {
            Semantics::Complete => CheckStatus::Fail,
            Semantics::Prefix => CheckStatus::Incomplete,
        };
        match formula {
            Formula::True => CheckStatus::Pass,
            Formula::False => CheckStatus::Fail,
            Formula::Atom(a) => match trace.state_at(at) {
                Some(s) => (self.label)(a, s),
                None => beyond(mode),
            },
            Formula::Not(f) => self.evaluate(f, trace, at, mode).negate(),
            Formula::And(a, b) => self
                .evaluate(a, trace, at, mode)
                .and(self.evaluate(b, trace, at, mode)),
            Formula::Or(a, b) => self
                .evaluate(a, trace, at, mode)
                .or(self.evaluate(b, trace, at, mode)),
            Formula::Implies(a, b) => self
                .evaluate(a, trace, at, mode)
                .negate()
                .or(self.evaluate(b, trace, at, mode)),
            Formula::Next(f) => {
                if at + 1 < n {
                    self.evaluate(f, trace, at + 1, mode)
                } else {
                    beyond(mode)
                }
            }
            Formula::Globally(f) => {
                let mut acc = match mode {
                    Semantics::Complete => CheckStatus::Pass,
                    Semantics::Prefix => CheckStatus::Incomplete, // future unknown
                };
                for j in (at..n).rev() {
                    acc = self.evaluate(f, trace, j, mode).and(acc);
                }
                acc
            }
            Formula::Finally(f) => {
                let mut acc = match mode {
                    Semantics::Complete => CheckStatus::Fail,
                    Semantics::Prefix => CheckStatus::Incomplete,
                };
                for j in (at..n).rev() {
                    acc = self.evaluate(f, trace, j, mode).or(acc);
                }
                acc
            }
            Formula::Until(p, q) => {
                // p U q  ≡  q ∨ (p ∧ X(p U q)); evaluate right-to-left.
                let mut acc = beyond(mode);
                for j in (at..n).rev() {
                    let qj = self.evaluate(q, trace, j, mode);
                    let pj = self.evaluate(p, trace, j, mode);
                    acc = qj.or(pj.and(acc));
                }
                acc
            }
            Formula::GloballyWithin(bound, f) => {
                if at >= n {
                    // Empty window: vacuously true when the trace is
                    // complete, undecided while more states may arrive.
                    return match mode {
                        Semantics::Complete => CheckStatus::Pass,
                        Semantics::Prefix => CheckStatus::Incomplete,
                    };
                }
                // The window is [at, at+bound]; it may extend past the trace.
                let hi = at.saturating_add(*bound);
                let window_complete = hi < n;
                let mut acc = CheckStatus::Pass;
                for j in at..=hi.min(n - 1) {
                    acc = acc.and(self.evaluate(f, trace, j, mode));
                }
                if !window_complete && mode == Semantics::Prefix {
                    acc = acc.and(CheckStatus::Incomplete);
                }
                acc
            }
            Formula::FinallyWithin(bound, f) => {
                if at >= n {
                    // Empty window: nothing can ever satisfy `f` when the
                    // trace is complete.
                    return beyond(mode);
                }
                let hi = at.saturating_add(*bound);
                let window_complete = hi < n;
                let mut acc = CheckStatus::Fail;
                for j in at..=hi.min(n - 1) {
                    acc = acc.or(self.evaluate(f, trace, j, mode));
                }
                if !window_complete && mode == Semantics::Prefix && acc == CheckStatus::Fail {
                    acc = CheckStatus::Incomplete;
                }
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CheckStatus::{Fail, Incomplete, Pass};

    /// States are (bool, bool) = (p, q).
    fn interp() -> Interpretation<'static, (bool, bool)> {
        Interpretation::new(|name, s: &(bool, bool)| match name {
            "p" => CheckStatus::from(s.0),
            "q" => CheckStatus::from(s.1),
            _ => Incomplete,
        })
    }

    fn tr(bits: &[(bool, bool)]) -> Trace<(bool, bool)> {
        Trace::from_states(bits.iter().copied())
    }

    #[test]
    fn atoms_and_connectives() {
        let i = interp();
        let t = tr(&[(true, false)]);
        assert_eq!(
            i.evaluate(&Formula::atom("p"), &t, 0, Semantics::Complete),
            Pass
        );
        assert_eq!(
            i.evaluate(&Formula::atom("q"), &t, 0, Semantics::Complete),
            Fail
        );
        let f = Formula::and(Formula::atom("p"), Formula::not(Formula::atom("q")));
        assert_eq!(i.evaluate(&f, &t, 0, Semantics::Complete), Pass);
        let unk = Formula::atom("r");
        assert_eq!(i.evaluate(&unk, &t, 0, Semantics::Complete), Incomplete);
        assert_eq!(
            i.evaluate(
                &Formula::or(Formula::atom("p"), unk),
                &t,
                0,
                Semantics::Complete
            ),
            Pass,
            "Pass dominates disjunction with unknown"
        );
    }

    #[test]
    fn globally_complete_vs_prefix() {
        let i = interp();
        let all_p = tr(&[(true, false), (true, false)]);
        let g = Formula::globally(Formula::atom("p"));
        assert_eq!(i.evaluate(&g, &all_p, 0, Semantics::Complete), Pass);
        assert_eq!(
            i.evaluate(&g, &all_p, 0, Semantics::Prefix),
            Incomplete,
            "prefix semantics cannot confirm G"
        );
        let broken = tr(&[(true, false), (false, false)]);
        assert_eq!(i.evaluate(&g, &broken, 0, Semantics::Complete), Fail);
        assert_eq!(i.evaluate(&g, &broken, 0, Semantics::Prefix), Fail);
    }

    #[test]
    fn finally_complete_vs_prefix() {
        let i = interp();
        let f = Formula::finally(Formula::atom("q"));
        let with_q = tr(&[(false, false), (false, true)]);
        assert_eq!(i.evaluate(&f, &with_q, 0, Semantics::Complete), Pass);
        assert_eq!(i.evaluate(&f, &with_q, 0, Semantics::Prefix), Pass);
        let without = tr(&[(false, false), (false, false)]);
        assert_eq!(i.evaluate(&f, &without, 0, Semantics::Complete), Fail);
        assert_eq!(i.evaluate(&f, &without, 0, Semantics::Prefix), Incomplete);
    }

    #[test]
    fn next_at_end() {
        let i = interp();
        let t = tr(&[(true, true)]);
        let x = Formula::next(Formula::atom("p"));
        assert_eq!(i.evaluate(&x, &t, 0, Semantics::Complete), Fail);
        assert_eq!(i.evaluate(&x, &t, 0, Semantics::Prefix), Incomplete);
    }

    #[test]
    fn until_semantics() {
        let i = interp();
        let u = Formula::until(Formula::atom("p"), Formula::atom("q"));
        // p holds until q appears.
        let good = tr(&[(true, false), (true, false), (false, true)]);
        assert_eq!(i.evaluate(&u, &good, 0, Semantics::Complete), Pass);
        assert_eq!(i.evaluate(&u, &good, 0, Semantics::Prefix), Pass);
        // p breaks before q.
        let bad = tr(&[(true, false), (false, false), (false, true)]);
        assert_eq!(
            i.evaluate(&bad_formula(&u), &bad, 0, Semantics::Complete),
            Pass
        );
        assert_eq!(i.evaluate(&u, &bad, 0, Semantics::Complete), Fail);
        assert_eq!(i.evaluate(&u, &bad, 0, Semantics::Prefix), Fail);
        // q never arrives but p holds throughout: undecided prefix.
        let open = tr(&[(true, false), (true, false)]);
        assert_eq!(i.evaluate(&u, &open, 0, Semantics::Complete), Fail);
        assert_eq!(i.evaluate(&u, &open, 0, Semantics::Prefix), Incomplete);
    }

    fn bad_formula(u: &Formula) -> Formula {
        Formula::not(u.clone())
    }

    #[test]
    fn bounded_finally() {
        let i = interp();
        let f = Formula::finally_within(2, Formula::atom("q"));
        let hit = tr(&[
            (false, false),
            (false, false),
            (false, true),
            (false, false),
        ]);
        assert_eq!(i.evaluate(&f, &hit, 0, Semantics::Complete), Pass);
        let miss = tr(&[
            (false, false),
            (false, false),
            (false, false),
            (false, true),
        ]);
        assert_eq!(i.evaluate(&f, &miss, 0, Semantics::Complete), Fail);
        assert_eq!(
            i.evaluate(&f, &miss, 0, Semantics::Prefix),
            Fail,
            "window fully observed ⇒ decided even under prefix semantics"
        );
        // Window extends past the trace end and q not yet seen.
        let short = tr(&[(false, false), (false, false)]);
        assert_eq!(i.evaluate(&f, &short, 0, Semantics::Prefix), Incomplete);
        assert_eq!(i.evaluate(&f, &short, 0, Semantics::Complete), Fail);
    }

    #[test]
    fn bounded_globally() {
        let i = interp();
        let g = Formula::globally_within(1, Formula::atom("p"));
        let ok = tr(&[(true, false), (true, false), (false, false)]);
        assert_eq!(i.evaluate(&g, &ok, 0, Semantics::Complete), Pass);
        assert_eq!(
            i.evaluate(&g, &ok, 0, Semantics::Prefix),
            Pass,
            "bounded G decides Pass once the window closes"
        );
        let bad = tr(&[(true, false), (false, false)]);
        assert_eq!(i.evaluate(&g, &bad, 0, Semantics::Prefix), Fail);
        let short = tr(&[(true, false)]);
        assert_eq!(i.evaluate(&g, &short, 0, Semantics::Prefix), Incomplete);
    }

    #[test]
    fn display_and_atoms() {
        let f = Formula::globally(Formula::implies(
            Formula::atom("p"),
            Formula::finally_within(3, Formula::atom("q")),
        ));
        assert_eq!(f.to_string(), "G (p -> F<=3 q)");
        assert_eq!(f.atoms(), vec!["p", "q"]);
        assert_eq!(f.size(), 5);
    }

    #[test]
    fn empty_trace() {
        let i = interp();
        let t = tr(&[]);
        assert_eq!(
            i.evaluate(&Formula::atom("p"), &t, 0, Semantics::Prefix),
            Incomplete
        );
        assert_eq!(
            i.evaluate(&Formula::atom("p"), &t, 0, Semantics::Complete),
            Fail
        );
    }
}
