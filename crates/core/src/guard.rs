//! One propositional guard type, generic over its atom.
//!
//! Every specification artifact guards on a propositional condition: a
//! catalogue entry's check expression over named checks (`vdo-analyze`),
//! an observer edge over named propositions (`vdo-specpat`), a TEARS
//! guard or assertion over `signal op constant` comparisons
//! (`vdo-tears`). [`Guard`] is that condition for all of them; only the
//! atom differs. Evaluation is Kleene's three-valued logic over
//! [`CheckStatus`], so an atom whose value is unknown decides the result
//! only when no other operand does.

use std::fmt;

use crate::CheckStatus;

/// A propositional condition over atoms `A`: `True`, atoms, negation
/// and n-ary conjunction and disjunction.
///
/// The derived `Ord` (True < Atom < Not < And < Or, then by operands)
/// is the operand order [`normalize`](Guard::normalize) sorts by.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Guard<A> {
    /// Always holds.
    True,
    /// An atomic condition.
    Atom(A),
    /// Negation.
    Not(Box<Guard<A>>),
    /// Conjunction: every operand must hold (`True` when empty).
    And(Vec<Guard<A>>),
    /// Disjunction: some operand must hold (false when empty).
    Or(Vec<Guard<A>>),
}

impl<A> Guard<A> {
    /// An atomic condition.
    #[must_use]
    pub fn atom(a: impl Into<A>) -> Guard<A> {
        Guard::Atom(a.into())
    }

    /// Negation.
    #[must_use]
    // Mirrors the builder-style constructors of the `composite`
    // requirements; an `ops::Not` impl would move the operand.
    #[allow(clippy::should_implement_trait)]
    pub fn not(g: Guard<A>) -> Guard<A> {
        Guard::Not(Box::new(g))
    }

    /// Conjunction.
    #[must_use]
    pub fn all_of(gs: impl IntoIterator<Item = Guard<A>>) -> Guard<A> {
        Guard::And(gs.into_iter().collect())
    }

    /// Disjunction.
    #[must_use]
    pub fn any_of(gs: impl IntoIterator<Item = Guard<A>>) -> Guard<A> {
        Guard::Or(gs.into_iter().collect())
    }

    /// Evaluates the guard in Kleene's three-valued logic, `value`
    /// giving each atom's verdict. A connective stops at its first
    /// deciding operand (`Fail` for a conjunction, `Pass` for a
    /// disjunction).
    #[inline]
    pub fn eval<F>(&self, value: &F) -> CheckStatus
    where
        F: Fn(&A) -> CheckStatus + ?Sized,
    {
        match self {
            Guard::True => CheckStatus::Pass,
            Guard::Atom(a) => value(a),
            Guard::Not(g) => g.eval(value).negate(),
            Guard::And(gs) => {
                let mut acc = CheckStatus::Pass;
                for g in gs {
                    match g.eval(value) {
                        CheckStatus::Fail => return CheckStatus::Fail,
                        v => acc = acc.and(v),
                    }
                }
                acc
            }
            Guard::Or(gs) => {
                let mut acc = CheckStatus::Fail;
                for g in gs {
                    match g.eval(value) {
                        CheckStatus::Pass => return CheckStatus::Pass,
                        v => acc = acc.or(v),
                    }
                }
                acc
            }
        }
    }

    /// The atoms the guard reads, in first-occurrence order without
    /// duplicates.
    #[must_use]
    pub fn atoms(&self) -> Vec<&A>
    where
        A: PartialEq,
    {
        fn collect<'a, A: PartialEq>(g: &'a Guard<A>, out: &mut Vec<&'a A>) {
            match g {
                Guard::True => {}
                Guard::Atom(a) => {
                    if !out.contains(&a) {
                        out.push(a);
                    }
                }
                Guard::Not(g) => collect(g, out),
                Guard::And(gs) | Guard::Or(gs) => gs.iter().for_each(|g| collect(g, out)),
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }

    /// The same guard with every atom mapped through `f`, e.g. signal
    /// names resolved once to what a hot loop reads without comparing
    /// strings.
    #[must_use]
    pub fn map<B>(&self, f: &impl Fn(&A) -> B) -> Guard<B> {
        match self {
            Guard::True => Guard::True,
            Guard::Atom(a) => Guard::Atom(f(a)),
            Guard::Not(g) => Guard::not(g.map(f)),
            Guard::And(gs) => Guard::And(gs.iter().map(|g| g.map(f)).collect()),
            Guard::Or(gs) => Guard::Or(gs.iter().map(|g| g.map(f)).collect()),
        }
    }

    /// Disjunctive normal form over `(atom, polarity)` literals
    /// (`polarity` is `false` for a negated atom): the guard holds iff
    /// every literal of some conjunct does. Operands keep their order;
    /// nothing is deduplicated. `None` once any subterm's form exceeds
    /// `cap` conjuncts.
    #[must_use]
    pub fn dnf(&self, cap: usize) -> Option<Vec<Vec<(&A, bool)>>> {
        self.signed_dnf(true, cap)
    }

    /// [`dnf`](Self::dnf) of the guard, or of its negation when
    /// `positive` is false.
    fn signed_dnf(&self, positive: bool, cap: usize) -> Option<Vec<Vec<(&A, bool)>>> {
        let (gs, conjunction) = match self {
            Guard::True if positive => return Some(vec![Vec::new()]),
            Guard::True => return Some(Vec::new()),
            Guard::Atom(a) => return Some(vec![vec![(a, positive)]]),
            Guard::Not(g) => return g.signed_dnf(!positive, cap),
            Guard::And(gs) => (gs, positive),
            Guard::Or(gs) => (gs, !positive),
        };
        let mut out = if conjunction {
            vec![Vec::new()]
        } else {
            Vec::new()
        };
        for g in gs {
            let operand = g.signed_dnf(positive, cap)?;
            if conjunction {
                out = out
                    .iter()
                    .flat_map(|l| operand.iter().map(move |r| [&l[..], &r[..]].concat()))
                    .collect();
            } else {
                out.extend(operand);
            }
            if out.len() > cap {
                return None;
            }
        }
        Some(out)
    }
}

impl<A: Ord + Clone> Guard<A> {
    /// Canonical form: negation normal form (negations pushed to the
    /// atoms and `True`, double negations elided), nested conjunctions
    /// and disjunctions flattened, operands sorted and deduplicated,
    /// singletons unwrapped. It evaluates as the guard does, and two
    /// guards that differ only in operand order, nesting or repetition
    /// have equal forms.
    #[must_use]
    pub fn normalize(&self) -> Guard<A> {
        self.nnf(false)
    }

    fn nnf(&self, negated: bool) -> Guard<A> {
        match self {
            Guard::True | Guard::Atom(_) if negated => Guard::not(self.clone()),
            Guard::True | Guard::Atom(_) => self.clone(),
            Guard::Not(g) => g.nnf(!negated),
            Guard::And(gs) => Self::flatten(gs, negated, !negated),
            Guard::Or(gs) => Self::flatten(gs, negated, negated),
        }
    }

    /// Normalises the operands (each negated iff `negate`), flattens
    /// same-shaped children, sorts, dedupes, and unwraps singletons.
    fn flatten(gs: &[Guard<A>], negate: bool, conjunction: bool) -> Guard<A> {
        let mut out = Vec::new();
        for g in gs {
            match g.nnf(negate) {
                Guard::And(inner) if conjunction => out.extend(inner),
                Guard::Or(inner) if !conjunction => out.extend(inner),
                other => out.push(other),
            }
        }
        out.sort();
        out.dedup();
        if out.len() == 1 {
            return out.pop().expect("len checked");
        }
        if conjunction {
            Guard::And(out)
        } else {
            Guard::Or(out)
        }
    }
}

/// TEARS syntax: `not (g)`, `(a) and (b)`, `(a) or (b)`; the empty
/// conjunction is `true` and the empty disjunction `false`.
impl<A: fmt::Display> fmt::Display for Guard<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (gs, connective) = match self {
            Guard::True => return f.write_str("true"),
            Guard::Atom(a) => return write!(f, "{a}"),
            Guard::Not(g) => return write!(f, "not ({g})"),
            Guard::And(gs) if gs.is_empty() => return f.write_str("true"),
            Guard::Or(gs) if gs.is_empty() => return f.write_str("false"),
            Guard::And(gs) => (gs, " and "),
            Guard::Or(gs) => (gs, " or "),
        };
        for (i, g) in gs.iter().enumerate() {
            if i > 0 {
                f.write_str(connective)?;
            }
            write!(f, "({g})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(name: &str) -> Guard<String> {
        Guard::atom(name)
    }

    #[test]
    fn normalize_flattens_and_sorts() {
        let e = Guard::all_of([atom("b"), Guard::all_of([atom("a"), atom("b")])]);
        assert_eq!(e.normalize(), Guard::And(vec![atom("a"), atom("b")]));
    }

    #[test]
    fn normalize_pushes_negation_down() {
        // ¬(a ∧ ¬b) = ¬a ∨ b
        let e = Guard::not(Guard::all_of([atom("a"), Guard::not(atom("b"))]));
        assert_eq!(
            e.normalize(),
            Guard::Or(vec![atom("b"), Guard::not(atom("a"))])
        );
        // Double negation cancels.
        assert_eq!(Guard::not(Guard::not(atom("x"))).normalize(), atom("x"));
    }

    #[test]
    fn singleton_composites_unwrap() {
        assert_eq!(Guard::all_of([atom("only")]).normalize(), atom("only"));
    }

    #[test]
    fn display_is_tears_syntax() {
        let e = Guard::all_of([atom("a"), Guard::not(atom("b"))]);
        assert_eq!(e.to_string(), "(a) and (not (b))");
        let d = Guard::any_of([atom("a"), Guard::True, Guard::And(vec![])]);
        assert_eq!(d.to_string(), "(a) or (true) or (true)");
        assert_eq!(Guard::<String>::Or(vec![]).to_string(), "false");
    }

    #[test]
    fn dnf_tracks_polarity_and_caps() {
        // ¬(a ∨ ¬b) ∧ (c ∨ d) = (¬a ∧ b ∧ c) ∨ (¬a ∧ b ∧ d)
        let e = Guard::all_of([
            Guard::not(Guard::any_of([atom("a"), Guard::not(atom("b"))])),
            Guard::any_of([atom("c"), atom("d")]),
        ]);
        let a = "a".to_string();
        let (b, c, d) = ("b".to_string(), "c".to_string(), "d".to_string());
        assert_eq!(
            e.dnf(2),
            Some(vec![
                vec![(&a, false), (&b, true), (&c, true)],
                vec![(&a, false), (&b, true), (&d, true)],
            ])
        );
        assert_eq!(e.dnf(1), None);
        assert_eq!(Guard::<String>::True.dnf(1), Some(vec![vec![]]));
        assert_eq!(Guard::<String>::not(Guard::True).dnf(1), Some(vec![]));
    }
}
