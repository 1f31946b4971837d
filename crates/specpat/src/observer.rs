//! Observer automata: violation detectors compiled from specification
//! patterns, and the catalogue's incremental monitors.
//!
//! PROPAS's catalogue ships each pattern with an *observer timed
//! automaton* template; composed with the system model in UPPAAL, the
//! observer reaches a BAD location exactly when the property is violated.
//! This module reproduces the observers as discrete-time monitors that
//! run directly over propositional traces (the UPPAAL substitution of
//! DESIGN.md): locations, guarded edges over atoms, one integer clock.
//!
//! Within one observation, enabled edges fire as a chain (the analogue of
//! UPPAAL's committed locations), so e.g. a trigger and a zero-bound
//! deadline are processed in the same tick. The clock advances once per
//! observation and resets on edges that request it. BAD and ACCEPTING
//! locations are absorbing: once one is entered the verdict is decided.
//!
//! One step function advances the observer by one observation.
//! [`ObserverAutomaton::run`] loops it over a trace of true-atom sets,
//! and [`ObserverAutomaton::monitor`] binds the guards' atoms to
//! [`Checkable`] propositions over any state type, giving the entry's
//! incremental [`PatternMonitor`]. A proposition may answer
//! [`CheckStatus::Incomplete`]; guards are then evaluated in three-valued
//! logic, and an edge whose guard is Incomplete may or may not fire, so
//! the monitor follows both. A verdict is decided only when every
//! location the observer may be in agrees on it: an Incomplete guard
//! caps a Pass unless each way it could resolve also passes.

use std::collections::BTreeSet;
use std::fmt;

use vdo_core::{CheckStatus, Checkable};
use vdo_temporal::PatternMonitor;

use crate::pattern::{PatternKind, Scope, SpecPattern};

/// A Boolean guard over atomic propositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoolExpr {
    /// Always true.
    True,
    /// The named atom holds in the current observation.
    Atom(String),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
}

impl BoolExpr {
    /// Atom guard.
    #[must_use]
    pub fn atom(name: impl Into<String>) -> BoolExpr {
        BoolExpr::Atom(name.into())
    }
    /// Negation.
    #[must_use]
    // An `ops::Not` impl would move the operand; the builder-style
    // associated function is the intended API.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: BoolExpr) -> BoolExpr {
        BoolExpr::Not(Box::new(e))
    }
    /// Conjunction.
    #[must_use]
    pub fn and(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        BoolExpr::And(Box::new(a), Box::new(b))
    }
    /// Disjunction.
    #[must_use]
    pub fn or(a: BoolExpr, b: BoolExpr) -> BoolExpr {
        BoolExpr::Or(Box::new(a), Box::new(b))
    }

    /// Evaluates the guard in three-valued (Kleene) logic, `value`
    /// giving each atom's verdict in the current observation.
    #[must_use]
    pub fn eval(&self, value: &impl Fn(&str) -> CheckStatus) -> CheckStatus {
        match self {
            BoolExpr::True => CheckStatus::Pass,
            BoolExpr::Atom(a) => value(a),
            BoolExpr::Not(e) => e.eval(value).negate(),
            // Kleene connectives, short-circuiting on a deciding operand.
            BoolExpr::And(a, b) => match a.eval(value) {
                CheckStatus::Fail => CheckStatus::Fail,
                v => v.and(b.eval(value)),
            },
            BoolExpr::Or(a, b) => match a.eval(value) {
                CheckStatus::Pass => CheckStatus::Pass,
                v => v.or(b.eval(value)),
            },
        }
    }

    fn collect_atoms(&self, out: &mut Vec<String>) {
        match self {
            BoolExpr::True => {}
            BoolExpr::Atom(a) => {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
            BoolExpr::Not(e) => e.collect_atoms(out),
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }
}

/// Clock constraint on an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockGuard {
    /// Fires only while `x <= bound`.
    AtMost(u64),
    /// Fires only once `x >= bound`.
    AtLeast(u64),
}

impl ClockGuard {
    fn eval(self, x: u64) -> bool {
        match self {
            ClockGuard::AtMost(b) => x <= b,
            ClockGuard::AtLeast(b) => x >= b,
        }
    }
}

/// Classification of an observer location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocationKind {
    /// No outstanding obligation; cannot conclude Pass at runtime.
    Safe,
    /// An obligation is outstanding (complete-trace end here = Fail).
    Pending,
    /// The property is conclusively satisfied (prefix Pass).
    Accepting,
    /// The property is violated (prefix Fail).
    Bad,
}

impl LocationKind {
    /// `(prefix, complete)` verdicts of a run that ends here.
    fn verdicts(self) -> (CheckStatus, CheckStatus) {
        match self {
            LocationKind::Safe => (CheckStatus::Incomplete, CheckStatus::Pass),
            LocationKind::Pending => (CheckStatus::Incomplete, CheckStatus::Fail),
            LocationKind::Accepting => (CheckStatus::Pass, CheckStatus::Pass),
            LocationKind::Bad => (CheckStatus::Fail, CheckStatus::Fail),
        }
    }

    fn is_absorbing(self) -> bool {
        matches!(self, LocationKind::Accepting | LocationKind::Bad)
    }
}

/// One guarded edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    from: usize,
    to: usize,
    guard: BoolExpr,
    clock_guard: Option<ClockGuard>,
    reset_clock: bool,
}

/// Outcome of running an observer over a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserverOutcome {
    /// Prefix-semantics verdict after the last observation.
    pub prefix: CheckStatus,
    /// Complete-semantics verdict (trace treated as whole behaviour).
    pub complete: CheckStatus,
    /// Index of the observation at which BAD was entered, if any.
    pub violation_at: Option<usize>,
}

/// A location the observer may be in, with its clock.
type Config = (usize, u64);

/// A deterministic discrete-time observer automaton.
pub struct ObserverAutomaton {
    name: String,
    locations: Vec<(String, LocationKind)>,
    edges: Vec<Edge>,
    initial: usize,
    /// The atoms the guards read, in first-occurrence order.
    atoms: Vec<String>,
}

/// Error from [`ObserverAutomaton::monitor`]: a guard reads an atom the
/// binding does not name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnboundAtom(pub String);

impl fmt::Display for UnboundAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "the binding has no proposition for atom '{}'", self.0)
    }
}

impl std::error::Error for UnboundAtom {}

impl ObserverAutomaton {
    /// Starts building an observer with the given name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ObserverBuilder {
        ObserverBuilder {
            name: name.into(),
            locations: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The observer's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of locations.
    #[must_use]
    pub fn location_count(&self) -> usize {
        self.locations.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Compiles the observer template for a pattern, if one exists.
    ///
    /// Supported: every `Globally`-scoped kind, `After`-scoped
    /// universality/absence, and `AfterUntil`-scoped universality/absence
    /// — the templates the PSP-UPPAAL catalogue ships, plus the two
    /// rqcode kinds. Returns `None` for the rest (checked via their LTL
    /// formula instead).
    #[must_use]
    pub fn for_pattern(pattern: &SpecPattern) -> Option<ObserverAutomaton> {
        use PatternKind::*;
        let atom = BoolExpr::atom;
        let not = BoolExpr::not;
        let and = BoolExpr::and;
        match (pattern.scope(), pattern.kind()) {
            (Scope::Globally, Universality(p)) => Some(
                Self::builder("obs_universality")
                    .location("OK", LocationKind::Safe)
                    .location("BAD", LocationKind::Bad)
                    .edge("OK", "BAD", not(atom(p)))
                    .initial("OK")
                    .build(),
            ),
            (Scope::Globally, Absence(p)) => Some(
                Self::builder("obs_absence")
                    .location("OK", LocationKind::Safe)
                    .location("BAD", LocationKind::Bad)
                    .edge("OK", "BAD", atom(p))
                    .initial("OK")
                    .build(),
            ),
            (Scope::Globally, Existence(p)) => Some(
                Self::builder("obs_existence")
                    .location("WAIT", LocationKind::Pending)
                    .location("DONE", LocationKind::Accepting)
                    .edge("WAIT", "DONE", atom(p))
                    .initial("WAIT")
                    .build(),
            ),
            (Scope::Globally, Response(p, s)) => Some(
                Self::builder("obs_response")
                    .location("OK", LocationKind::Safe)
                    .location("WAIT", LocationKind::Pending)
                    .edge("OK", "WAIT", and(atom(p), not(atom(s))))
                    .edge("WAIT", "OK", atom(s))
                    .initial("OK")
                    .build(),
            ),
            (Scope::Globally, ResponseUntil(p, q, r)) => {
                let discharged = || BoolExpr::or(atom(q), atom(r));
                Some(
                    Self::builder("obs_response_until")
                        .location("OK", LocationKind::Safe)
                        .location("WAIT", LocationKind::Pending)
                        .edge("OK", "WAIT", and(atom(p), not(discharged())))
                        .edge("WAIT", "OK", discharged())
                        .initial("OK")
                        .build(),
                )
            }
            (Scope::Globally, BoundedResponse(p, s, t)) => Some(
                Self::builder("obs_bounded_response")
                    .location("OK", LocationKind::Safe)
                    .location("WAIT", LocationKind::Pending)
                    .location("BAD", LocationKind::Bad)
                    .edge_reset("OK", "WAIT", and(atom(p), not(atom(s))))
                    .edge("WAIT", "OK", atom(s))
                    .edge_clocked("WAIT", "BAD", not(atom(s)), ClockGuard::AtLeast(*t))
                    .initial("OK")
                    .build(),
            ),
            (Scope::Globally, TimedUniversality(p, t)) => Some(
                Self::builder("obs_timed_universality")
                    .location("WAIT", LocationKind::Safe)
                    .location("DONE", LocationKind::Accepting)
                    .location("BAD", LocationKind::Bad)
                    .edge("WAIT", "BAD", not(atom(p)))
                    .edge_clocked("WAIT", "DONE", BoolExpr::True, ClockGuard::AtLeast(*t))
                    .initial("WAIT")
                    .build(),
            ),
            (Scope::Globally, Precedence(p, s)) => Some(
                Self::builder("obs_precedence")
                    .location("WAIT", LocationKind::Safe)
                    .location("DONE", LocationKind::Accepting)
                    .location("BAD", LocationKind::Bad)
                    .edge("WAIT", "DONE", atom(s))
                    .edge("WAIT", "BAD", and(atom(p), not(atom(s))))
                    .initial("WAIT")
                    .build(),
            ),
            (Scope::After(q), Universality(p)) => Some(
                Self::builder("obs_after_universality")
                    .location("IDLE", LocationKind::Safe)
                    .location("ACTIVE", LocationKind::Safe)
                    .location("BAD", LocationKind::Bad)
                    .edge("IDLE", "BAD", and(atom(q), not(atom(p))))
                    .edge("IDLE", "ACTIVE", atom(q))
                    .edge("ACTIVE", "BAD", not(atom(p)))
                    .initial("IDLE")
                    .build(),
            ),
            (Scope::After(q), Absence(p)) => Some(
                Self::builder("obs_after_absence")
                    .location("IDLE", LocationKind::Safe)
                    .location("ACTIVE", LocationKind::Safe)
                    .location("BAD", LocationKind::Bad)
                    .edge("IDLE", "BAD", and(atom(q), atom(p)))
                    .edge("IDLE", "ACTIVE", atom(q))
                    .edge("ACTIVE", "BAD", atom(p))
                    .initial("IDLE")
                    .build(),
            ),
            (Scope::AfterUntil(q, r), Universality(p)) => Some(
                Self::builder("obs_after_until_universality")
                    .location("IDLE", LocationKind::Safe)
                    .location("ACTIVE", LocationKind::Safe)
                    .location("BAD", LocationKind::Bad)
                    .edge("IDLE", "BAD", and(and(atom(q), not(atom(r))), not(atom(p))))
                    .edge("IDLE", "ACTIVE", and(atom(q), not(atom(r))))
                    .edge("ACTIVE", "IDLE", atom(r))
                    .edge("ACTIVE", "BAD", not(atom(p)))
                    .initial("IDLE")
                    .build(),
            ),
            (Scope::AfterUntil(q, r), Absence(p)) => Some(
                Self::builder("obs_after_until_absence")
                    .location("IDLE", LocationKind::Safe)
                    .location("ACTIVE", LocationKind::Safe)
                    .location("BAD", LocationKind::Bad)
                    .edge("IDLE", "BAD", and(and(atom(q), not(atom(r))), atom(p)))
                    .edge("IDLE", "ACTIVE", and(atom(q), not(atom(r))))
                    .edge("ACTIVE", "IDLE", atom(r))
                    .edge("ACTIVE", "BAD", atom(p))
                    .initial("IDLE")
                    .build(),
            ),
            _ => None,
        }
    }

    /// Renders the automaton in Graphviz DOT format (BAD locations are
    /// double circles, the initial location gets an entry arrow).
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{}\" {{\n", self.name));
        out.push_str("  rankdir=LR;\n  __start [shape=point];\n");
        for (i, (name, kind)) in self.locations.iter().enumerate() {
            let shape = match kind {
                LocationKind::Bad => "doublecircle",
                LocationKind::Accepting => "circle, peripheries=2, color=green",
                LocationKind::Pending => "circle, style=dashed",
                LocationKind::Safe => "circle",
            };
            out.push_str(&format!("  n{i} [label=\"{name}\", shape={shape}];\n"));
        }
        out.push_str(&format!("  __start -> n{};\n", self.initial));
        for e in &self.edges {
            let mut label = format!("{:?}", e.guard);
            if let Some(c) = e.clock_guard {
                label.push_str(&format!(" / {c:?}"));
            }
            if e.reset_clock {
                label.push_str(" / x:=0");
            }
            out.push_str(&format!(
                "  n{} -> n{} [label=\"{}\"];\n",
                e.from,
                e.to,
                label.replace('"', "'")
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Advances every location in `configs` by one observation, `value`
    /// giving each atom's verdict. The one step function behind both
    /// [`run`](Self::run) and [`monitor`](Self::monitor).
    fn step(
        &self,
        configs: &mut Vec<Config>,
        next: &mut Vec<Config>,
        value: &impl Fn(&str) -> CheckStatus,
    ) {
        next.clear();
        for &config in configs.iter() {
            self.chain(config, 0, value, next);
        }
        next.sort_unstable();
        next.dedup();
        std::mem::swap(configs, next);
    }

    /// Fires edges from `(loc, clock)` as a chain within one observation
    /// (bounded by the location count), pushing every location the
    /// observer may end it in. An Incomplete guard both fires and does
    /// not.
    fn chain(
        &self,
        (loc, clock): Config,
        fired: usize,
        value: &impl Fn(&str) -> CheckStatus,
        out: &mut Vec<Config>,
    ) {
        if self.locations[loc].1.is_absorbing() {
            out.push((loc, 0));
            return;
        }
        if fired <= self.locations.len() {
            // A plain loop: an iterator `filter` over the edges here cost
            // E6 about a third of its throughput.
            for e in &self.edges {
                if e.from != loc {
                    continue;
                }
                if !e.clock_guard.is_none_or(|g| g.eval(clock)) {
                    continue;
                }
                let guard = e.guard.eval(value);
                if guard.is_fail() {
                    continue;
                }
                let clock = if e.reset_clock { 0 } else { clock };
                self.chain((e.to, clock), fired + 1, value, out);
                if guard.is_pass() {
                    return;
                }
            }
        }
        out.push((loc, clock.saturating_add(1)));
    }

    /// `(prefix, complete)` verdicts over every location the observer
    /// may be in: a verdict they all agree on, else Incomplete.
    fn verdicts(&self, configs: &[Config]) -> (CheckStatus, CheckStatus) {
        let agree =
            |a: CheckStatus, b: CheckStatus| if a == b { a } else { CheckStatus::Incomplete };
        configs
            .iter()
            .map(|&(loc, _)| self.locations[loc].1.verdicts())
            .reduce(|(p, c), (q, d)| (agree(p, q), agree(c, d)))
            .expect("an observer is always somewhere")
    }

    /// Runs the observer over a trace of observations (the atoms true at
    /// each tick), stopping at the first decided prefix verdict.
    #[must_use]
    pub fn run(&self, trace: &[BTreeSet<String>]) -> ObserverOutcome {
        let mut configs = vec![(self.initial, 0)];
        let mut next = Vec::with_capacity(1);
        let mut violation_at = None;
        for (i, atoms) in trace.iter().enumerate() {
            self.step(&mut configs, &mut next, &|a| {
                CheckStatus::from(atoms.contains(a))
            });
            match self.verdicts(&configs).0 {
                CheckStatus::Fail => {
                    violation_at = Some(i);
                    break;
                }
                CheckStatus::Pass => break,
                CheckStatus::Incomplete => {}
            }
        }
        let (prefix, complete) = self.verdicts(&configs);
        ObserverOutcome {
            prefix,
            complete,
            violation_at,
        }
    }

    /// The incremental monitor of this observer over states `S`, each
    /// guard atom read through the proposition `binding` names it with.
    ///
    /// ```
    /// use vdo_core::CheckStatus;
    /// use vdo_specpat::{ObserverAutomaton, PatternKind, Scope, SpecPattern};
    /// use vdo_temporal::{MonitorOutcome, MonitoringLoop, PatternMonitor, Trace};
    ///
    /// let pattern = SpecPattern::new(Scope::Globally, PatternKind::universality("up"));
    /// let observer = ObserverAutomaton::for_pattern(&pattern).unwrap();
    /// let up = |s: &bool| CheckStatus::from(*s);
    /// let mut monitor = observer.monitor(&[("up", &up)]).unwrap();
    /// assert_eq!(monitor.observe(&true), CheckStatus::Incomplete);
    /// assert_eq!(monitor.observe(&false), CheckStatus::Fail);
    ///
    /// // Ground truth: healthy until tick 6, then down; polled every 2 ticks.
    /// let trace: Trace<bool> = (0..10).map(|t| t < 6).collect();
    /// let monitor = observer.monitor(&[("up", &up)]).unwrap();
    /// let report = MonitoringLoop::new(2).unwrap().run(monitor, &trace);
    /// assert_eq!(report.outcome, MonitorOutcome::ViolationDetected(6));
    /// assert_eq!(report.detection_latency(6), Some(0));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`UnboundAtom`] if a guard reads an atom `binding` does
    /// not name.
    pub fn monitor<'a, S: ?Sized>(
        &'a self,
        binding: &[(&str, &'a dyn Checkable<S>)],
    ) -> Result<ObserverMonitor<'a, S>, UnboundAtom> {
        let props = self
            .atoms
            .iter()
            .map(|a| {
                binding
                    .iter()
                    .find(|(name, _)| name == a)
                    .map(|&(_, prop)| prop)
                    .ok_or_else(|| UnboundAtom(a.clone()))
            })
            .collect::<Result<_, _>>()?;
        Ok(ObserverMonitor {
            observer: self,
            props,
            values: vec![CheckStatus::Incomplete; self.atoms.len()],
            configs: vec![(self.initial, 0)],
            next: Vec::with_capacity(1),
        })
    }
}

/// An [`ObserverAutomaton`]'s incremental monitor over states `S`: the
/// catalogue's [`PatternMonitor`] for every entry with an observer.
/// Build one with [`ObserverAutomaton::monitor`].
pub struct ObserverMonitor<'a, S: ?Sized> {
    observer: &'a ObserverAutomaton,
    /// The proposition bound to each of the observer's atoms.
    props: Vec<&'a dyn Checkable<S>>,
    /// Each atom's verdict in the current observation.
    values: Vec<CheckStatus>,
    /// Every location the observer may be in.
    configs: Vec<Config>,
    next: Vec<Config>,
}

impl<S: ?Sized> PatternMonitor<S> for ObserverMonitor<'_, S> {
    fn observe(&mut self, state: &S) -> CheckStatus {
        if self.verdict().is_decided() {
            return self.verdict();
        }
        for (v, prop) in self.values.iter_mut().zip(&self.props) {
            *v = prop.check(state);
        }
        let (atoms, values) = (&self.observer.atoms, &self.values);
        let value = |a: &str| values[atoms.iter().position(|x| x == a).expect("bound atom")];
        self.observer
            .step(&mut self.configs, &mut self.next, &value);
        self.verdict()
    }

    fn verdict(&self) -> CheckStatus {
        self.observer.verdicts(&self.configs).0
    }

    fn finish(&mut self) -> CheckStatus {
        self.observer.verdicts(&self.configs).1
    }
}

impl fmt::Debug for ObserverAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObserverAutomaton")
            .field("name", &self.name)
            .field("locations", &self.locations.len())
            .field("edges", &self.edges.len())
            .finish()
    }
}

/// Builder for [`ObserverAutomaton`].
pub struct ObserverBuilder {
    name: String,
    locations: Vec<(String, LocationKind)>,
    edges: Vec<(String, String, BoolExpr, Option<ClockGuard>, bool)>,
}

impl ObserverBuilder {
    /// Declares a location.
    #[must_use]
    pub fn location(mut self, name: &str, kind: LocationKind) -> Self {
        self.locations.push((name.to_string(), kind));
        self
    }

    /// Adds an edge with a propositional guard.
    #[must_use]
    pub fn edge(mut self, from: &str, to: &str, guard: BoolExpr) -> Self {
        self.edges
            .push((from.to_string(), to.to_string(), guard, None, false));
        self
    }

    /// Adds an edge that also resets the clock.
    #[must_use]
    pub fn edge_reset(mut self, from: &str, to: &str, guard: BoolExpr) -> Self {
        self.edges
            .push((from.to_string(), to.to_string(), guard, None, true));
        self
    }

    /// Adds an edge with both a propositional and a clock guard.
    #[must_use]
    pub fn edge_clocked(
        mut self,
        from: &str,
        to: &str,
        guard: BoolExpr,
        clock: ClockGuard,
    ) -> Self {
        self.edges
            .push((from.to_string(), to.to_string(), guard, Some(clock), false));
        self
    }

    /// Finalises with the given initial location.
    ///
    /// # Panics
    ///
    /// Panics if an edge references an undeclared location or the initial
    /// location is unknown.
    #[must_use]
    pub fn initial(self, name: &str) -> FinishedObserverBuilder {
        FinishedObserverBuilder {
            inner: self,
            initial: name.to_string(),
        }
    }
}

/// Builder terminal state produced by [`ObserverBuilder::initial`].
pub struct FinishedObserverBuilder {
    inner: ObserverBuilder,
    initial: String,
}

impl FinishedObserverBuilder {
    /// Builds the automaton.
    ///
    /// # Panics
    ///
    /// Panics on dangling location references.
    #[must_use]
    pub fn build(self) -> ObserverAutomaton {
        let find = |n: &str| {
            self.inner
                .locations
                .iter()
                .position(|(name, _)| name == n)
                .unwrap_or_else(|| panic!("unknown location '{n}'"))
        };
        let initial = find(&self.initial);
        let edges = self
            .inner
            .edges
            .iter()
            .map(|(f, t, g, c, r)| Edge {
                from: find(f),
                to: find(t),
                guard: g.clone(),
                clock_guard: *c,
                reset_clock: *r,
            })
            .collect();
        let mut atoms = Vec::new();
        for (_, _, guard, _, _) in &self.inner.edges {
            guard.collect_atoms(&mut atoms);
        }
        ObserverAutomaton {
            name: self.inner.name,
            locations: self.inner.locations,
            edges,
            initial,
            atoms,
        }
    }
}

/// Convenience: turns slices of `&str` atom lists into trace
/// observations.
#[must_use]
pub fn obs(atoms: &[&str]) -> BTreeSet<String> {
    atoms.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdo_temporal::{MonitorOutcome, MonitoringLoop, Semantics, Trace};

    fn trace(rows: &[&[&str]]) -> Vec<BTreeSet<String>> {
        rows.iter().map(|r| obs(r)).collect()
    }

    fn pat(scope: Scope, kind: PatternKind) -> ObserverAutomaton {
        ObserverAutomaton::for_pattern(&SpecPattern::new(scope, kind)).expect("observer exists")
    }

    #[test]
    fn universality_observer() {
        let o = pat(Scope::Globally, PatternKind::universality("p"));
        let good = o.run(&trace(&[&["p"], &["p"]]));
        assert_eq!(good.prefix, CheckStatus::Incomplete);
        assert_eq!(good.complete, CheckStatus::Pass);
        let bad = o.run(&trace(&[&["p"], &[]]));
        assert_eq!(bad.prefix, CheckStatus::Fail);
        assert_eq!(bad.violation_at, Some(1));
    }

    #[test]
    fn absence_observer() {
        let o = pat(Scope::Globally, PatternKind::absence("alarm"));
        let ok = o.run(&trace(&[&[], &["x"]]));
        assert_eq!(ok.complete, CheckStatus::Pass);
        let ko = o.run(&trace(&[&[], &["alarm"]]));
        assert_eq!(ko.prefix, CheckStatus::Fail);
    }

    #[test]
    fn existence_observer_accepts() {
        let o = pat(Scope::Globally, PatternKind::existence("done"));
        let hit = o.run(&trace(&[&[], &["done"], &[]]));
        assert_eq!(hit.prefix, CheckStatus::Pass);
        assert_eq!(hit.complete, CheckStatus::Pass);
        let miss = o.run(&trace(&[&[], &[]]));
        assert_eq!(miss.prefix, CheckStatus::Incomplete);
        assert_eq!(miss.complete, CheckStatus::Fail);
    }

    #[test]
    fn response_observer() {
        let o = pat(Scope::Globally, PatternKind::response("req", "ack"));
        let answered = o.run(&trace(&[&["req"], &[], &["ack"]]));
        assert_eq!(answered.complete, CheckStatus::Pass);
        let open = o.run(&trace(&[&["req"], &[]]));
        assert_eq!(open.complete, CheckStatus::Fail);
        assert_eq!(open.prefix, CheckStatus::Incomplete);
        // Same-tick response never creates an obligation.
        let instant = o.run(&trace(&[&["req", "ack"]]));
        assert_eq!(instant.complete, CheckStatus::Pass);
    }

    #[test]
    fn bounded_response_observer_deadline() {
        let o = pat(
            Scope::Globally,
            PatternKind::bounded_response("req", "ack", 2),
        );
        // ack exactly at deadline: fine.
        let just = o.run(&trace(&[&["req"], &[], &["ack"]]));
        assert_eq!(just.prefix, CheckStatus::Incomplete);
        assert_eq!(just.complete, CheckStatus::Pass);
        // One tick late: BAD at the deadline tick.
        let late = o.run(&trace(&[&["req"], &[], &[], &["ack"]]));
        assert_eq!(late.prefix, CheckStatus::Fail);
        assert_eq!(late.violation_at, Some(2));
    }

    #[test]
    fn bounded_response_zero_bound() {
        let o = pat(
            Scope::Globally,
            PatternKind::bounded_response("req", "ack", 0),
        );
        let ok = o.run(&trace(&[&["req", "ack"]]));
        assert_eq!(ok.complete, CheckStatus::Pass);
        let ko = o.run(&trace(&[&["req"]]));
        assert_eq!(ko.prefix, CheckStatus::Fail);
        assert_eq!(
            ko.violation_at,
            Some(0),
            "zero-bound violation fires same tick"
        );
    }

    #[test]
    fn precedence_observer() {
        let o = pat(Scope::Globally, PatternKind::precedence("p", "s"));
        let ok = o.run(&trace(&[&["s"], &["p"]]));
        assert_eq!(ok.prefix, CheckStatus::Pass);
        let ko = o.run(&trace(&[&["p"]]));
        assert_eq!(ko.prefix, CheckStatus::Fail);
        // Neither ever: weak-until passes on completion.
        let neither = o.run(&trace(&[&[], &[]]));
        assert_eq!(neither.complete, CheckStatus::Pass);
    }

    #[test]
    fn after_universality_observer() {
        let o = pat(Scope::after("q"), PatternKind::universality("p"));
        // Before q, p unconstrained.
        let ok = o.run(&trace(&[&[], &["q", "p"], &["p"]]));
        assert_eq!(ok.complete, CheckStatus::Pass);
        // p must hold at the q tick itself (G(q -> G p)).
        let at_q = o.run(&trace(&[&["q"]]));
        assert_eq!(at_q.prefix, CheckStatus::Fail);
        let later = o.run(&trace(&[&["q", "p"], &[]]));
        assert_eq!(later.prefix, CheckStatus::Fail);
    }

    #[test]
    fn after_until_universality_observer() {
        let o = pat(Scope::after_until("q", "r"), PatternKind::universality("p"));
        let closes = o.run(&trace(&[&["q", "p"], &["p"], &["r"], &[]]));
        // At the r tick the scope closes; p not required there or after.
        assert_eq!(closes.complete, CheckStatus::Pass);
        let reopens = o.run(&trace(&[&["q", "p"], &["r"], &[], &["q", "p"], &[]]));
        assert_eq!(reopens.prefix, CheckStatus::Fail);
        // q with simultaneous r: scope never opens (q ∧ ¬r guard).
        let qr = o.run(&trace(&[&["q", "r"], &[]]));
        assert_eq!(qr.complete, CheckStatus::Pass);
    }

    #[test]
    fn dot_export_contains_structure() {
        let o = pat(
            Scope::Globally,
            PatternKind::bounded_response("req", "ack", 2),
        );
        let dot = o.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("doublecircle"), "BAD location rendered");
        assert!(dot.contains("x:=0"), "clock reset rendered");
        assert!(dot.contains("__start ->"));
    }

    #[test]
    fn unsupported_patterns_have_no_observer() {
        assert!(ObserverAutomaton::for_pattern(&SpecPattern::new(
            Scope::between("q", "r"),
            PatternKind::universality("p")
        ))
        .is_none());
    }

    #[test]
    fn builder_panics_on_dangling_location() {
        let b = ObserverAutomaton::builder("x")
            .location("A", LocationKind::Safe)
            .edge("A", "NOPE", BoolExpr::True)
            .initial("A");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.build()));
        assert!(r.is_err());
    }

    /// States for monitor tests: the verdicts of `p`, `s` (or `q`) and
    /// `r`.
    type St = [CheckStatus; 3];
    const P: CheckStatus = CheckStatus::Pass;
    const F: CheckStatus = CheckStatus::Fail;
    const I: CheckStatus = CheckStatus::Incomplete;

    fn with_monitor<R>(
        scope: Scope,
        kind: PatternKind,
        f: impl FnOnce(ObserverMonitor<'_, St>) -> R,
    ) -> R {
        let observer = pat(scope, kind);
        let (p, s, r) = (|x: &St| x[0], |x: &St| x[1], |x: &St| x[2]);
        let binding: [(&str, &dyn Checkable<St>); 4] = [("p", &p), ("s", &s), ("q", &s), ("r", &r)];
        f(observer.monitor(&binding).expect("bound"))
    }

    /// `(prefix, complete)` verdicts of a globally-scoped `kind`.
    fn verdicts(kind: PatternKind, states: &[St]) -> (CheckStatus, CheckStatus) {
        let trace = Trace::from_states(states.iter().copied());
        let eval = |mode| with_monitor(Scope::Globally, kind.clone(), |m| m.evaluate(&trace, mode));
        (eval(Semantics::Prefix), eval(Semantics::Complete))
    }

    #[test]
    fn monitor_latches_fail() {
        with_monitor(Scope::Globally, PatternKind::universality("p"), |mut m| {
            assert_eq!(m.observe(&[P, F, F]), I);
            assert_eq!(m.observe(&[F, F, F]), CheckStatus::Fail);
            assert_eq!(m.observe(&[P, F, F]), CheckStatus::Fail, "latched");
            assert_eq!(m.finish(), CheckStatus::Fail);
        });
        // The empty trace: vacuous when complete, open as a prefix.
        assert_eq!(verdicts(PatternKind::universality("p"), &[]), (I, P));
    }

    #[test]
    fn incomplete_propositions_cap_pass() {
        let maybe = [I, F, F];
        assert_eq!(verdicts(PatternKind::universality("p"), &[maybe]), (I, I));
        assert_eq!(verdicts(PatternKind::existence("p"), &[maybe]), (I, I));
        // Each resolution of the unknown still leads to the later `p`.
        assert_eq!(
            verdicts(PatternKind::existence("p"), &[maybe, [P, F, F]]),
            (P, P)
        );
        // A definite violation is decided whatever the unknowns resolve to.
        assert_eq!(
            verdicts(PatternKind::universality("p"), &[maybe, [F, F, F]]),
            (F, F)
        );
        // An unknown response leaves a definite trigger's obligation open.
        let response = PatternKind::bounded_response("p", "s", 1);
        assert_eq!(verdicts(response.clone(), &[[P, F, F], [F, I, F]]), (I, I));
        assert_eq!(verdicts(response, &[[P, F, F], [F, F, F]]), (F, F));
    }

    #[test]
    fn unbound_atom_is_a_typed_error() {
        let observer = pat(Scope::Globally, PatternKind::response("req", "ack"));
        let req = |_: &u8| P;
        let err = observer
            .monitor(&[("req", &req as &dyn Checkable<u8>)])
            .err()
            .expect("ack is unbound");
        assert_eq!(err, UnboundAtom("ack".to_string()));
        assert!(err.to_string().contains("'ack'"));
    }

    #[test]
    fn bounded_response_open_obligation_at_end() {
        let pending = [[P, F, F], [F, F, F]];
        assert_eq!(
            verdicts(PatternKind::bounded_response("p", "s", 10), &pending),
            (I, F),
            "the deadline is ahead, but a complete trace ends the obligation unmet"
        );
    }

    #[test]
    fn response_until_fulfilment_and_release() {
        let kind = || PatternKind::response_until("p", "q", "r");
        assert_eq!(
            verdicts(kind(), &[[P, F, F], [F, P, F]]),
            (I, P),
            "fulfilled"
        );
        assert_eq!(
            verdicts(kind(), &[[P, F, F], [F, F, P]]),
            (I, P),
            "released"
        );
        assert_eq!(verdicts(kind(), &[[P, F, F], [F, F, F]]), (I, F), "open");
        assert_eq!(
            verdicts(kind(), &[[P, P, F]]),
            (I, P),
            "same-tick fulfilment"
        );
    }

    #[test]
    fn timed_universality_passes_conclusively() {
        with_monitor(
            Scope::Globally,
            PatternKind::timed_universality("p", 2),
            |mut m| {
                assert_eq!(m.observe(&[P, F, F]), I);
                assert_eq!(m.observe(&[P, F, F]), I);
                assert_eq!(m.observe(&[P, F, F]), P, "window [0, 2] held");
                assert_eq!(m.observe(&[F, F, F]), P, "latched");
            },
        );
        let kind = |t| PatternKind::timed_universality("p", t);
        let late = [[P, F, F], [P, F, F], [F, F, F]];
        assert_eq!(
            verdicts(kind(1), &late),
            (P, P),
            "violation outside the window"
        );
        assert_eq!(verdicts(kind(1), &[[F, F, F]]), (F, F));
        assert_eq!(
            verdicts(kind(5), &[[P, F, F]; 2]),
            (I, P),
            "window clamps to a complete trace"
        );
        assert_eq!(
            verdicts(kind(0), &[[P, F, F]]),
            (P, P),
            "zero bound reads tick 0 only"
        );
    }

    #[test]
    fn after_until_never_opened_is_vacuous() {
        let o = pat(Scope::after_until("q", "r"), PatternKind::universality("p"));
        assert_eq!(o.run(&trace(&[&[], &[], &[]])).complete, CheckStatus::Pass);
    }

    #[test]
    fn monitoring_loop_runs_catalogue_monitors() {
        let sampled = |kind: PatternKind, period: u64, states: &[St]| {
            let trace = Trace::from_states(states.iter().copied());
            with_monitor(Scope::Globally, kind, |m| {
                MonitoringLoop::new(period).expect("nonzero").run(m, &trace)
            })
        };
        let up = [[P, F, F]; 20];
        let report = sampled(PatternKind::timed_universality("p", 4), 1, &up);
        assert_eq!(report.outcome, MonitorOutcome::ConclusivePass(4));
        assert_eq!(report.polls, 5);

        let mut once = [[F, F, F]; 10];
        once[6] = [P, F, F];
        let report = sampled(PatternKind::existence("p"), 3, &once);
        assert_eq!(report.outcome, MonitorOutcome::ConclusivePass(6));

        // Under sampling the monitor's clock counts polls: a bound of 2
        // polls at period 5 spans 10 ticks, and the response at tick 5 is
        // the second poll.
        let mut answered = [[F, F, F]; 6];
        answered[0] = [P, F, F];
        answered[5] = [F, P, F];
        let report = sampled(PatternKind::bounded_response("p", "s", 2), 5, &answered);
        assert_eq!(report.outcome, MonitorOutcome::EndOfTrace);
        assert_eq!(report.final_verdict, I);
    }
}
