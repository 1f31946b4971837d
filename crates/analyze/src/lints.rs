//! The [`Lint`] trait, the registry, and the concrete lints.
//!
//! Every lint is a pure function from an [`ArtifactSet`] to a list of
//! [`Diagnostic`]s; lints share no state, which is what lets the engine
//! run them on worker threads without changing the result. The
//! temporal lints lean on the existing checkers instead of reinventing
//! them: the tautology/contradiction search enumerates bounded witness
//! traces through [`vdo_temporal::Interpretation`]. Every propositional
//! question (a catalogue entry's expression, a pattern's antecedent or
//! consequent, a TEARS guard) is asked of one [`Guard`]: its normal
//! form, its DNF, or its evaluation under each valuation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use vdo_core::{CheckStatus, Guard};
use vdo_tears::{Cmp, CmpOp};
use vdo_temporal::{Formula, Interpretation, Semantics, Trace};

use crate::artifact::{ArtifactSet, EntryArtifact};
use crate::config::AnalysisConfig;
use crate::diag::{Diagnostic, LintCode};
use crate::graph::DependencyGraph;

/// How the incremental engine may slice a lint's work.
///
/// Each variant names the unit of independence: a lint declaring
/// `PerEntry` promises that its diagnostics for one entry depend only
/// on that entry's closure (as defined in `crate::incremental`) and
/// that the union over all units equals a whole-set run. [`Whole`] is
/// the conservative default for custom lints: the incremental engine
/// re-runs the lint on the full set whenever anything changes.
///
/// [`Whole`]: Granularity::Whole
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// No declared independence; re-run on the whole set when dirty.
    Whole,
    /// Depends on the full ordered entry list (identity/duplicate
    /// analysis), but on no other artifact kind.
    EntryList,
    /// Depends on *groups* of entries that share a join key (an
    /// identical normalised expression, a common literal). The lint
    /// declares each entry's keys via [`Lint::entry_buckets`] and
    /// answers per-bucket queries via [`Lint::run_bucket`]; the
    /// incremental engine re-runs only the buckets a changed entry
    /// enters or leaves, so cross-entry analysis stays O(changed)
    /// instead of O(catalogue).
    EntryBucket,
    /// Independent per catalogue entry (plus that entry's waiver,
    /// coverage bits, and the clock where relevant).
    PerEntry,
    /// Independent per waiver (plus its target's existence and the
    /// clock).
    PerWaiver,
    /// Independent per named formula.
    PerFormula,
    /// Independent per behavioural model.
    PerModel,
    /// Independent per guarded assertion.
    PerAssertion,
    /// Independent per dev/ops trace link (plus its target's
    /// existence).
    PerTraceLink,
}

/// One static check over an [`ArtifactSet`].
///
/// Implementations must be pure (same input ⇒ same diagnostics, in the
/// same order) and thread-safe; the engine relies on both to make
/// parallel analysis bit-identical to sequential.
pub trait Lint: Send + Sync {
    /// The lint codes this pass can emit (a pass may own several
    /// related codes, e.g. duplicate *and* subsumed entries).
    fn codes(&self) -> &'static [LintCode];

    /// Short human-readable name.
    fn name(&self) -> &'static str {
        self.codes()[0].name()
    }

    /// One-line description of what the lint catches.
    fn description(&self) -> &'static str;

    /// Runs the lint. Diagnostics carry a placeholder severity; the
    /// engine substitutes the configured level afterwards.
    fn run(&self, artifacts: &ArtifactSet, config: &AnalysisConfig) -> Vec<Diagnostic>;

    /// The finest unit the incremental engine may slice this lint
    /// into. The default ([`Granularity::Whole`]) is always sound:
    /// the lint re-runs on the full set whenever any artifact changes.
    /// Overriding is a *promise* that per-unit runs over the unit
    /// closures union to exactly the whole-set result.
    fn granularity(&self) -> Granularity {
        Granularity::Whole
    }

    /// For [`Granularity::EntryBucket`] lints: the join keys `entry`
    /// participates in. Two entries can influence each other's
    /// diagnostics only if they share a key, and the bucket that
    /// *owns* a diagnostic must be derivable from the flagged entry
    /// alone — that is what lets the engine re-check only the buckets
    /// a changed entry enters or leaves. Lints of other granularities
    /// ignore this.
    fn entry_buckets(&self, entry: &EntryArtifact) -> Vec<String> {
        let _ = entry;
        Vec::new()
    }

    /// For [`Granularity::EntryBucket`] lints: runs the lint on one
    /// bucket. `artifacts` holds exactly the bucket's member entries in
    /// canonical (sorted finding-id) order; the implementation must
    /// emit only the diagnostics this bucket owns, so the union over
    /// all buckets equals [`run`](Lint::run) on a unique-id set. The
    /// default falls back to a whole-slice run.
    fn run_bucket(
        &self,
        bucket: &str,
        artifacts: &ArtifactSet,
        config: &AnalysisConfig,
    ) -> Vec<Diagnostic> {
        let _ = bucket;
        self.run(artifacts, config)
    }
}

/// An ordered collection of lints. Registration order is the engine's
/// scheduling order (not the output order — diagnostics are sorted).
#[derive(Default)]
pub struct LintRegistry {
    lints: Vec<Box<dyn Lint>>,
}

impl LintRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        LintRegistry::default()
    }

    /// The registry with every built-in lint.
    #[must_use]
    pub fn with_default_lints() -> Self {
        let mut r = LintRegistry::new();
        r.register(Box::new(CompositeLint));
        r.register(Box::new(CatalogueIdentityLint));
        r.register(Box::new(WaiverLint));
        r.register(Box::new(FormulaLint));
        r.register(Box::new(VacuityLint));
        r.register(Box::new(ModelLint));
        r.register(Box::new(GuardLint));
        r.register(Box::new(TraceabilityLint));
        r.register(Box::new(DanglingEdgeLint));
        r
    }

    /// Appends a lint.
    pub fn register(&mut self, lint: Box<dyn Lint>) {
        self.lints.push(lint);
    }

    /// Number of registered lints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lints.len()
    }

    /// `true` iff no lints are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lints.is_empty()
    }

    /// Iterates the lints in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Lint> {
        self.lints.iter().map(Box::as_ref)
    }
}

impl std::fmt::Debug for LintRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LintRegistry")
            .field(
                "lints",
                &self.lints.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

// ---------------------------------------------------------------------
// VDA001 — contradictory composites
// ---------------------------------------------------------------------

/// Flags `all_of` composites that require both `x` and `not(x)`.
pub struct CompositeLint;

impl Lint for CompositeLint {
    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::ContradictoryComposite]
    }

    fn description(&self) -> &'static str {
        "an all_of composite requires both a check and its negation; the entry can never pass"
    }

    fn granularity(&self) -> Granularity {
        Granularity::PerEntry
    }

    fn run(&self, artifacts: &ArtifactSet, _config: &AnalysisConfig) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for entry in &artifacts.entries {
            let Some(expr) = &entry.expr else { continue };
            if let Some(atom) = first_conflicting_atom(&expr.normalize()) {
                out.push(Diagnostic::new(
                    LintCode::ContradictoryComposite,
                    &entry.finding_id,
                    format!(
                        "all_of requires both '{atom}' and not('{atom}'); \
                         the entry can never pass"
                    ),
                ));
            }
        }
        out
    }
}

/// Searches a normalised expression for an `all_of` whose direct
/// operands contain a literal and its negation; returns the atom.
fn first_conflicting_atom(expr: &Guard<String>) -> Option<String> {
    match expr {
        Guard::True | Guard::Atom(_) => None,
        Guard::Not(e) => first_conflicting_atom(e),
        Guard::And(es) => {
            let mut pos = BTreeSet::new();
            let mut neg = BTreeSet::new();
            for (a, positive) in es.iter().filter_map(literal) {
                if positive {
                    pos.insert(a);
                } else {
                    neg.insert(a);
                }
            }
            if let Some(a) = pos.intersection(&neg).next() {
                return Some(a.clone());
            }
            es.iter().find_map(first_conflicting_atom)
        }
        Guard::Or(es) => es.iter().find_map(first_conflicting_atom),
    }
}

/// An atom or a negated atom, as `(atom, polarity)`.
fn literal(e: &Guard<String>) -> Option<(String, bool)> {
    match e {
        Guard::Atom(a) => Some((a.clone(), true)),
        Guard::Not(inner) => match inner.as_ref() {
            Guard::Atom(a) => Some((a.clone(), false)),
            _ => None,
        },
        _ => None,
    }
}

/// If the normalised expression is a pure conjunction of literals
/// (atoms or negated atoms), the literal set; `None` otherwise. The
/// subsumption check compares these.
fn conjunctive_literals(e: &Guard<String>) -> Option<BTreeSet<(String, bool)>> {
    match e.normalize() {
        Guard::And(es) => es.iter().map(literal).collect(),
        other => literal(&other).map(|l| BTreeSet::from([l])),
    }
}

// ---------------------------------------------------------------------
// VDA002 / VDA003 — duplicate and subsumed catalogue entries
// ---------------------------------------------------------------------

/// Flags entries that duplicate another (same finding id or identical
/// normalised expression) or are subsumed by a strictly stronger entry.
///
/// Incrementally this lint runs at [`Granularity::EntryBucket`]: two
/// entries interact only if they share a normalised expression (the
/// duplicate check) or a conjunctive literal (the subsumption check),
/// so each entry joins one `x:` bucket keyed by its normalised
/// expression's fingerprint plus one `s:` bucket per literal. The
/// duplicate diagnostics are owned by the `x:` bucket; a subsumption
/// diagnostic is owned by the `s:` bucket of the flagged entry's
/// *first* (smallest) literal — the same candidate index the batch
/// pass probes — so buckets partition the whole-set result exactly.
pub struct CatalogueIdentityLint;

/// Diagnostics for finding ids declared more than once. Only the batch
/// pass can see these: the incremental engine's keyed store holds one
/// entry per id by construction.
fn duplicate_id_diags(entries: &[EntryArtifact]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut by_id: BTreeMap<&str, usize> = BTreeMap::new();
    for e in entries {
        *by_id.entry(e.finding_id.as_str()).or_default() += 1;
    }
    for (id, n) in &by_id {
        if *n > 1 {
            out.push(Diagnostic::new(
                LintCode::DuplicateEntry,
                *id,
                format!("finding id declared {n} times in the catalogue"),
            ));
        }
    }
    out
}

/// Diagnostics for identical normalised expressions under different
/// ids: every group member after the first is flagged against it.
fn duplicate_expr_diags(entries: &[EntryArtifact]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut by_expr: BTreeMap<Guard<String>, Vec<usize>> = BTreeMap::new();
    for (i, e) in entries.iter().enumerate() {
        if let Some(expr) = &e.expr {
            by_expr.entry(expr.normalize()).or_default().push(i);
        }
    }
    for group in by_expr.values() {
        let first = &entries[group[0]].finding_id;
        for &i in &group[1..] {
            if &entries[i].finding_id != first {
                out.push(
                    Diagnostic::new(
                        LintCode::DuplicateEntry,
                        &entries[i].finding_id,
                        format!("identical check expression to entry '{first}'"),
                    )
                    .with_related(first.clone()),
                );
            }
        }
    }
    out
}

/// Subsumption: an entry whose conjunctive literal set is a strict
/// subset of another's is implied by it. Candidates are indexed by
/// literal so clean catalogues (disjoint atoms) stay linear; each
/// entry probes the index under its first (smallest) literal. With
/// `owner` set, only entries whose first literal equals it are
/// checked — the bucket that literal keys owns their diagnostics.
fn subsumption_diags(entries: &[EntryArtifact], owner: Option<&(String, bool)>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let literal_sets: Vec<Option<BTreeSet<(String, bool)>>> = entries
        .iter()
        .map(|e| e.expr.as_ref().and_then(conjunctive_literals))
        .collect();
    let mut by_literal: BTreeMap<&(String, bool), Vec<usize>> = BTreeMap::new();
    for (i, lits) in literal_sets.iter().enumerate() {
        if let Some(lits) = lits {
            for lit in lits {
                by_literal.entry(lit).or_default().push(i);
            }
        }
    }
    for (a, lits_a) in literal_sets.iter().enumerate() {
        let Some(lits_a) = lits_a else { continue };
        let Some(first_lit) = lits_a.iter().next() else {
            continue;
        };
        if owner.is_some_and(|lit| lit != first_lit) {
            continue;
        }
        let candidates = by_literal.get(first_lit).map_or(&[][..], Vec::as_slice);
        let stronger = candidates.iter().copied().find(|&b| {
            b != a
                && entries[b].finding_id != entries[a].finding_id
                && literal_sets[b]
                    .as_ref()
                    .is_some_and(|lits_b| lits_a.len() < lits_b.len() && lits_a.is_subset(lits_b))
        });
        if let Some(b) = stronger {
            out.push(
                Diagnostic::new(
                    LintCode::SubsumedEntry,
                    &entries[a].finding_id,
                    format!(
                        "implied by stronger entry '{}'; it adds no checking power",
                        entries[b].finding_id
                    ),
                )
                .with_related(entries[b].finding_id.clone()),
            );
        }
    }
    out
}

impl Lint for CatalogueIdentityLint {
    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::DuplicateEntry, LintCode::SubsumedEntry]
    }

    fn description(&self) -> &'static str {
        "duplicate finding ids / identical check expressions, and entries implied by stronger ones"
    }

    fn granularity(&self) -> Granularity {
        Granularity::EntryBucket
    }

    fn entry_buckets(&self, entry: &EntryArtifact) -> Vec<String> {
        let Some(expr) = &entry.expr else {
            return Vec::new();
        };
        let mut keys = vec![format!(
            "x:{:016x}",
            crate::fingerprint::fingerprint_expr(&expr.normalize()).0
        )];
        if let Some(lits) = conjunctive_literals(expr) {
            for (atom, positive) in &lits {
                keys.push(format!("s:{}{atom}", if *positive { '+' } else { '-' }));
            }
        }
        keys
    }

    fn run_bucket(
        &self,
        bucket: &str,
        artifacts: &ArtifactSet,
        _config: &AnalysisConfig,
    ) -> Vec<Diagnostic> {
        if bucket.starts_with("x:") {
            // Grouping by the actual normalised expression (not the
            // bucket's fingerprint) keeps a hash collision from fusing
            // two distinct groups.
            duplicate_expr_diags(&artifacts.entries)
        } else if let Some(lit) = bucket.strip_prefix("s:") {
            let positive = lit.starts_with('+');
            let owner = (lit[1..].to_string(), positive);
            subsumption_diags(&artifacts.entries, Some(&owner))
        } else {
            Vec::new()
        }
    }

    fn run(&self, artifacts: &ArtifactSet, _config: &AnalysisConfig) -> Vec<Diagnostic> {
        let entries = &artifacts.entries;
        let mut out = duplicate_id_diags(entries);
        out.extend(duplicate_expr_diags(entries));
        out.extend(subsumption_diags(entries, None));
        out
    }
}

// ---------------------------------------------------------------------
// VDA004 / VDA005 — waiver hygiene
// ---------------------------------------------------------------------

/// Flags waivers that reference unknown finding ids or have expired.
pub struct WaiverLint;

impl Lint for WaiverLint {
    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::UnknownWaiver, LintCode::ExpiredWaiver]
    }

    fn description(&self) -> &'static str {
        "waivers referencing unknown finding ids, and waivers past their expiry tick"
    }

    fn granularity(&self) -> Granularity {
        Granularity::PerWaiver
    }

    fn run(&self, artifacts: &ArtifactSet, _config: &AnalysisConfig) -> Vec<Diagnostic> {
        let known: BTreeSet<&str> = artifacts
            .entries
            .iter()
            .map(|e| e.finding_id.as_str())
            .collect();
        let mut out = Vec::new();
        for w in artifacts.waivers.iter() {
            if !known.contains(w.finding_id.as_str()) {
                out.push(Diagnostic::new(
                    LintCode::UnknownWaiver,
                    &w.finding_id,
                    "waiver references a finding id no catalogue entry carries",
                ));
            }
            if let Some(t) = w.expires_at {
                if t < artifacts.now {
                    out.push(Diagnostic::new(
                        LintCode::ExpiredWaiver,
                        &w.finding_id,
                        format!(
                            "waiver expired at tick {t} (now {}); the accepted risk \
                             is no longer accepted",
                            artifacts.now
                        ),
                    ));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// VDA006 / VDA007 — contradictory / tautological formulas
// ---------------------------------------------------------------------

/// Flags monitor formulas that fail — or pass — on *every* complete
/// trace within the configured witness bounds.
///
/// Syntactic constant folding runs first; what survives goes through an
/// exhaustive small-witness search with the finite-trace evaluator
/// ([`Interpretation`], [`Semantics::Complete`]). Formulas with more
/// atoms than the budget are skipped, never half-checked.
pub struct FormulaLint;

impl Lint for FormulaLint {
    fn codes(&self) -> &'static [LintCode] {
        &[
            LintCode::ContradictoryFormula,
            LintCode::TautologicalFormula,
        ]
    }

    fn description(&self) -> &'static str {
        "LTL formulas unsatisfiable or valid over all bounded complete traces"
    }

    fn granularity(&self) -> Granularity {
        Granularity::PerFormula
    }

    fn run(&self, artifacts: &ArtifactSet, config: &AnalysisConfig) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for nf in &artifacts.formulas {
            let folded = fold(&nf.formula);
            let verdict = match folded {
                Formula::True => Some((true, false)),
                Formula::False => Some((false, true)),
                ref f => witness_search(f, config.witness_max_atoms(), config.witness_trace_len()),
            };
            let Some((all_pass, all_fail)) = verdict else {
                continue;
            };
            if all_fail {
                out.push(Diagnostic::new(
                    LintCode::ContradictoryFormula,
                    &nf.name,
                    format!(
                        "'{}' fails on every complete trace up to length {} over its atoms; \
                         its monitor would page on every run",
                        nf.formula,
                        config.witness_trace_len()
                    ),
                ));
            } else if all_pass {
                out.push(Diagnostic::new(
                    LintCode::TautologicalFormula,
                    &nf.name,
                    format!(
                        "'{}' passes on every complete trace up to length {} over its atoms; \
                         its monitor can never fire",
                        nf.formula,
                        config.witness_trace_len()
                    ),
                ));
            }
        }
        out
    }
}

/// Syntactic normalisation: folds boolean constants through every
/// connective (e.g. `p ∧ false ⇒ false`, `G true ⇒ true`).
#[must_use]
pub fn fold(f: &Formula) -> Formula {
    use Formula::{
        And, Atom, False, Finally, FinallyWithin, Globally, GloballyWithin, Implies, Next, Not, Or,
        True, Until,
    };
    match f {
        True | False | Atom(_) => f.clone(),
        Not(x) => match fold(x) {
            True => False,
            False => True,
            Not(inner) => *inner,
            other => Formula::not(other),
        },
        And(a, b) => match (fold(a), fold(b)) {
            (False, _) | (_, False) => False,
            (True, x) | (x, True) => x,
            (x, y) => Formula::and(x, y),
        },
        Or(a, b) => match (fold(a), fold(b)) {
            (True, _) | (_, True) => True,
            (False, x) | (x, False) => x,
            (x, y) => Formula::or(x, y),
        },
        Implies(a, b) => match (fold(a), fold(b)) {
            (False, _) | (_, True) => True,
            (True, x) => x,
            (x, False) => Formula::not(x),
            (x, y) => Formula::implies(x, y),
        },
        // `X true` still requires a successor tick to exist, so `Next`
        // is not foldable to a constant on finite traces.
        Next(x) => Formula::next(fold(x)),
        Globally(x) => match fold(x) {
            True => True,
            other => Formula::globally(other),
        },
        Finally(x) => match fold(x) {
            False => False,
            other => Formula::finally(other),
        },
        Until(a, b) => match (fold(a), fold(b)) {
            (_, False) => False,
            (x, y) => Formula::until(x, y),
        },
        GloballyWithin(t, x) => match fold(x) {
            True => True,
            other => Formula::globally_within(*t, other),
        },
        FinallyWithin(t, x) => match fold(x) {
            False => False,
            other => Formula::finally_within(*t, other),
        },
    }
}

/// Maximum nesting depth of strong-next operators.
fn x_depth(f: &Formula) -> usize {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => 0,
        Formula::Not(x)
        | Formula::Globally(x)
        | Formula::Finally(x)
        | Formula::GloballyWithin(_, x)
        | Formula::FinallyWithin(_, x) => x_depth(x),
        Formula::Next(x) => 1 + x_depth(x),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Until(a, b) => {
            x_depth(a).max(x_depth(b))
        }
    }
}

/// Exhaustively evaluates `f` on every complete trace of length
/// `1..=max_len` over all valuations of its atoms, returning
/// `(all_pass, all_fail)` — or `None` when the formula exceeds the atom
/// budget (no half-checked verdicts) or nests `X` deeper than any
/// searched trace.
fn witness_search(f: &Formula, max_atoms: usize, max_len: usize) -> Option<(bool, bool)> {
    let atoms: Vec<String> = f.atoms().into_iter().map(str::to_string).collect();
    let k = atoms.len();
    if k > max_atoms || x_depth(f) >= max_len {
        return None;
    }
    let states: u64 = 1 << k;
    let interp = Interpretation::new(move |name: &str, s: &u64| {
        match atoms.iter().position(|a| a == name) {
            Some(i) => CheckStatus::from((s >> i) & 1 == 1),
            None => CheckStatus::Incomplete,
        }
    });
    let mut all_pass = true;
    let mut all_fail = true;
    for len in 1..=max_len {
        let total = states.pow(len as u32);
        for mut idx in 0..total {
            let mut trace_states = Vec::with_capacity(len);
            for _ in 0..len {
                trace_states.push(idx % states);
                idx /= states;
            }
            let trace = Trace::from_states(trace_states);
            match interp.evaluate(f, &trace, 0, Semantics::Complete) {
                CheckStatus::Pass => all_fail = false,
                CheckStatus::Fail => all_pass = false,
                CheckStatus::Incomplete => {
                    all_pass = false;
                    all_fail = false;
                }
            }
            if !all_pass && !all_fail {
                return Some((false, false));
            }
        }
    }
    Some((all_pass, all_fail))
}

// ---------------------------------------------------------------------
// VDA008 — vacuous patterns
// ---------------------------------------------------------------------

/// Flags `G (a -> b)`-shaped patterns whose propositional antecedent is
/// unsatisfiable (the obligation never triggers) or whose propositional
/// consequent is a tautology (the obligation is trivially met).
///
/// Satisfiability is decided by evaluating the formula, as a [`Guard`],
/// under every valuation of its atoms.
pub struct VacuityLint;

impl Lint for VacuityLint {
    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::VacuousPattern]
    }

    fn description(&self) -> &'static str {
        "G(a -> b) patterns whose antecedent can never hold or whose consequent always holds"
    }

    fn granularity(&self) -> Granularity {
        Granularity::PerFormula
    }

    fn run(&self, artifacts: &ArtifactSet, config: &AnalysisConfig) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for nf in &artifacts.formulas {
            let body = match &nf.formula {
                Formula::Globally(x) | Formula::GloballyWithin(_, x) => x.as_ref(),
                f @ Formula::Implies(..) => f,
                _ => continue,
            };
            let Formula::Implies(antecedent, consequent) = body else {
                continue;
            };
            if let Some(false) = prop_satisfiable(antecedent, config.witness_max_atoms()) {
                out.push(Diagnostic::new(
                    LintCode::VacuousPattern,
                    &nf.name,
                    format!(
                        "antecedent '{antecedent}' is propositionally unsatisfiable; \
                         the pattern can never be triggered"
                    ),
                ));
                continue;
            }
            if let Some(false) = prop_satisfiable(
                &Formula::not((**consequent).clone()),
                config.witness_max_atoms(),
            ) {
                out.push(Diagnostic::new(
                    LintCode::VacuousPattern,
                    &nf.name,
                    format!(
                        "consequent '{consequent}' is a propositional tautology; \
                         the pattern is trivially satisfied"
                    ),
                ));
            }
        }
        out
    }
}

/// Decides satisfiability of a *propositional* formula by evaluating
/// it under every valuation of its atoms. `None` when the formula is
/// temporal or exceeds the atom budget.
fn prop_satisfiable(f: &Formula, max_atoms: usize) -> Option<bool> {
    let guard = prop_guard(f)?;
    let atoms = guard.atoms();
    if atoms.len() > max_atoms {
        return None;
    }
    let index = |a: &str| atoms.iter().position(|&&b| b == a).expect("own atom");
    Some((0u64..1 << atoms.len()).any(|v| {
        guard
            .eval(&|&a: &&str| CheckStatus::from((v >> index(a)) & 1 == 1))
            .is_pass()
    }))
}

/// The propositional [`Formula`] `f` as a [`Guard`] over its atom
/// names; `None` on any temporal operator.
fn prop_guard(f: &Formula) -> Option<Guard<&str>> {
    Some(match f {
        Formula::True => Guard::True,
        Formula::False => Guard::not(Guard::True),
        Formula::Atom(a) => Guard::Atom(a.as_str()),
        Formula::Not(x) => Guard::not(prop_guard(x)?),
        Formula::And(a, b) => Guard::all_of([prop_guard(a)?, prop_guard(b)?]),
        Formula::Or(a, b) => Guard::any_of([prop_guard(a)?, prop_guard(b)?]),
        Formula::Implies(a, b) => Guard::any_of([Guard::not(prop_guard(a)?), prop_guard(b)?]),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// VDA009 — unreachable model structure
// ---------------------------------------------------------------------

/// Flags behavioural models with no start vertex, or with vertices and
/// edges unreachable from it.
pub struct ModelLint;

impl Lint for ModelLint {
    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::UnreachableModel]
    }

    fn description(&self) -> &'static str {
        "graph models with a missing start vertex or unreachable vertices/dead edges"
    }

    fn granularity(&self) -> Granularity {
        Granularity::PerModel
    }

    fn run(&self, artifacts: &ArtifactSet, _config: &AnalysisConfig) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for model in &artifacts.models {
            if model.vertex_count() == 0 {
                continue;
            }
            let Some(start) = model.start() else {
                out.push(Diagnostic::new(
                    LintCode::UnreachableModel,
                    model.name(),
                    "model has no start vertex; no generated test can begin",
                ));
                continue;
            };
            let mut reachable = vec![false; model.vertex_count()];
            reachable[start] = true;
            let mut queue = VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for &e in model.out_edges(v) {
                    let (_, to) = model.edge_endpoints(e);
                    if !reachable[to] {
                        reachable[to] = true;
                        queue.push_back(to);
                    }
                }
            }
            let unreachable: Vec<&str> = (0..model.vertex_count())
                .filter(|&v| !reachable[v])
                .map(|v| model.vertex_name(v))
                .collect();
            let dead_edges: Vec<&str> = (0..model.edge_count())
                .filter(|&e| !reachable[model.edge_endpoints(e).0])
                .map(|e| model.edge_action(e))
                .collect();
            if !unreachable.is_empty() || !dead_edges.is_empty() {
                out.push(Diagnostic::new(
                    LintCode::UnreachableModel,
                    model.name(),
                    format!(
                        "{} unreachable vertices ({}) and {} dead edges ({}); \
                         the specified behaviour is untestable",
                        unreachable.len(),
                        preview(&unreachable),
                        dead_edges.len(),
                        preview(&dead_edges),
                    ),
                ));
            }
        }
        out
    }
}

/// First three names, comma-separated, with an ellipsis beyond that.
fn preview(names: &[&str]) -> String {
    if names.is_empty() {
        return "none".to_string();
    }
    let head = names[..names.len().min(3)].join(", ");
    if names.len() > 3 {
        format!("{head}, …")
    } else {
        head
    }
}

// ---------------------------------------------------------------------
// VDA010 — unsatisfiable TEARS guards
// ---------------------------------------------------------------------

/// Flags guarded assertions whose `when` guard no signal valuation can
/// satisfy — the assertion can never activate.
pub struct GuardLint;

impl Lint for GuardLint {
    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::UnsatisfiableGuard]
    }

    fn description(&self) -> &'static str {
        "TEARS assertions whose guard condition is unsatisfiable"
    }

    fn granularity(&self) -> Granularity {
        Granularity::PerAssertion
    }

    fn run(&self, artifacts: &ArtifactSet, _config: &AnalysisConfig) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for ga in &artifacts.assertions {
            if let Some(false) = guard_satisfiable(ga.guard()) {
                out.push(Diagnostic::new(
                    LintCode::UnsatisfiableGuard,
                    ga.name(),
                    format!(
                        "guard '{}' is unsatisfiable; the assertion can never activate",
                        ga.guard()
                    ),
                ));
            }
        }
        out
    }
}

/// Interval analysis over the guard's disjunctive normal form: each
/// conjunct constrains every signal to an interval (plus `!=` point
/// exclusions); the guard is satisfiable iff some conjunct leaves every
/// signal a non-empty set. `None` when the DNF explodes past the cap
/// (skip rather than guess).
fn guard_satisfiable(e: &Guard<Cmp>) -> Option<bool> {
    const DNF_CAP: usize = 128;
    let conjuncts = e.dnf(DNF_CAP)?;
    Some(conjuncts.iter().any(|c| conjunct_satisfiable(c)))
}

/// Whether one conjunction of comparison literals has a satisfying
/// valuation; a negated literal holds where its comparison fails, so it
/// constrains the signal as the opposite operator does.
fn conjunct_satisfiable(literals: &[(&Cmp, bool)]) -> bool {
    #[derive(Clone)]
    struct Range {
        lo: f64,
        lo_strict: bool,
        hi: f64,
        hi_strict: bool,
        excluded: Vec<f64>,
    }
    impl Range {
        fn new() -> Self {
            Range {
                lo: f64::NEG_INFINITY,
                lo_strict: false,
                hi: f64::INFINITY,
                hi_strict: false,
                excluded: Vec::new(),
            }
        }
        fn tighten_lo(&mut self, k: f64, strict: bool) {
            if k > self.lo || (k == self.lo && strict) {
                self.lo = k;
                self.lo_strict = strict || (k == self.lo && self.lo_strict);
            }
        }
        fn tighten_hi(&mut self, k: f64, strict: bool) {
            if k < self.hi || (k == self.hi && strict) {
                self.hi = k;
                self.hi_strict = strict || (k == self.hi && self.hi_strict);
            }
        }
        fn non_empty(&self) -> bool {
            if self.lo < self.hi {
                // A real interval always has points besides finitely
                // many exclusions.
                return true;
            }
            self.lo == self.hi
                && !self.lo_strict
                && !self.hi_strict
                && !self.excluded.contains(&self.lo)
        }
    }

    let mut ranges: BTreeMap<&str, Range> = BTreeMap::new();
    for &(c, positive) in literals {
        let r = ranges.entry(c.signal.as_str()).or_insert_with(Range::new);
        let k = c.constant;
        match (c.op, positive) {
            (CmpOp::Gt, true) | (CmpOp::Le, false) => r.tighten_lo(k, true),
            (CmpOp::Ge, true) | (CmpOp::Lt, false) => r.tighten_lo(k, false),
            (CmpOp::Lt, true) | (CmpOp::Ge, false) => r.tighten_hi(k, true),
            (CmpOp::Le, true) | (CmpOp::Gt, false) => r.tighten_hi(k, false),
            (CmpOp::Eq, true) | (CmpOp::Ne, false) => {
                r.tighten_lo(k, false);
                r.tighten_hi(k, false);
            }
            (CmpOp::Ne, true) | (CmpOp::Eq, false) => r.excluded.push(k),
        }
    }
    ranges.values().all(Range::non_empty)
}

// ---------------------------------------------------------------------
// VDA011 — untraced requirements
// ---------------------------------------------------------------------

/// Flags catalogue entries covered by neither a dev-time gate nor an
/// ops-time monitor (and not under an active waiver).
pub struct TraceabilityLint;

impl Lint for TraceabilityLint {
    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::UntracedRequirement]
    }

    fn description(&self) -> &'static str {
        "catalogue requirements with neither dev-gate nor ops-monitor coverage"
    }

    fn granularity(&self) -> Granularity {
        Granularity::PerEntry
    }

    fn run(&self, artifacts: &ArtifactSet, _config: &AnalysisConfig) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        for e in &artifacts.entries {
            if artifacts.dev_covered.contains(&e.finding_id)
                || artifacts.ops_covered.contains(&e.finding_id)
                || artifacts.waivers.is_waived(&e.finding_id, artifacts.now)
                || !seen.insert(&e.finding_id)
            {
                continue;
            }
            out.push(Diagnostic::new(
                LintCode::UntracedRequirement,
                &e.finding_id,
                "requirement is checked by no dev-time gate and watched by no \
                 ops-time monitor; violations would go unnoticed",
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// VDA012 — dangling dependency edges
// ---------------------------------------------------------------------

/// Flags trace links (dev/ops coverage claims) whose target finding id
/// no catalogue entry carries: a dangling edge in the artifact
/// dependency graph. A coverage record for a retired requirement means
/// the traceability matrix has drifted from the catalogue — the claim
/// is vacuous, and renaming an entry silently orphans its coverage.
///
/// Waivers with unknown targets are the same graph defect but remain
/// VDA004's finding to avoid double-reporting.
pub struct DanglingEdgeLint;

impl Lint for DanglingEdgeLint {
    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::DanglingEdge]
    }

    fn description(&self) -> &'static str {
        "dev/ops trace links claiming coverage of finding ids absent from the catalogue"
    }

    fn granularity(&self) -> Granularity {
        Granularity::PerTraceLink
    }

    fn run(&self, artifacts: &ArtifactSet, _config: &AnalysisConfig) -> Vec<Diagnostic> {
        let graph = DependencyGraph::build(artifacts);
        graph
            .dangling()
            .into_iter()
            .map(|link| {
                Diagnostic::new(
                    LintCode::DanglingEdge,
                    &link.name,
                    format!(
                        "{} trace link claims coverage of a finding id no \
                         catalogue entry carries; the coverage record has \
                         drifted from the catalogue",
                        link.kind.label()
                    ),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::EntryArtifact;
    use vdo_core::Waiver;

    fn run_lint(lint: &dyn Lint, artifacts: &ArtifactSet) -> Vec<Diagnostic> {
        lint.run(artifacts, &AnalysisConfig::default())
    }

    // -- VDA001 -------------------------------------------------------

    #[test]
    fn composite_flags_direct_contradiction() {
        let set = ArtifactSet::new().with_entry(EntryArtifact::new("V-1").expr(Guard::all_of([
            Guard::atom("x"),
            Guard::not(Guard::atom("x")),
        ])));
        let d = run_lint(&CompositeLint, &set);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::ContradictoryComposite);
        assert_eq!(d[0].artifact, "V-1");
    }

    #[test]
    fn composite_sees_through_nesting() {
        // all_of(x, all_of(y, not(x))) flattens to a conflict.
        let set = ArtifactSet::new().with_entry(EntryArtifact::new("V-2").expr(Guard::all_of([
            Guard::atom("x"),
            Guard::all_of([Guard::atom("y"), Guard::not(Guard::atom("x"))]),
        ])));
        assert_eq!(run_lint(&CompositeLint, &set).len(), 1);
    }

    #[test]
    fn composite_clean_on_consistent_entries() {
        let set = ArtifactSet::new().with_entry(EntryArtifact::new("V-3").expr(Guard::all_of([
            Guard::atom("x"),
            Guard::not(Guard::atom("y")),
            Guard::any_of([Guard::atom("y"), Guard::atom("z")]),
        ])));
        assert!(run_lint(&CompositeLint, &set).is_empty());
    }

    // -- VDA002 / VDA003 ----------------------------------------------

    #[test]
    fn duplicate_id_flagged_once() {
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-1"))
            .with_entry(EntryArtifact::new("V-1"));
        let d = run_lint(&CatalogueIdentityLint, &set);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::DuplicateEntry);
        assert!(d[0].message.contains("2 times"));
    }

    #[test]
    fn duplicate_expression_flags_later_entry() {
        let e = Guard::all_of([Guard::atom("a"), Guard::atom("b")]);
        // Same normal form despite different operand order.
        let e2 = Guard::all_of([Guard::atom("b"), Guard::atom("a")]);
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-1").expr(e))
            .with_entry(EntryArtifact::new("V-2").expr(e2));
        let d = run_lint(&CatalogueIdentityLint, &set);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].artifact, "V-2");
        assert_eq!(d[0].related, vec!["V-1".to_string()]);
    }

    #[test]
    fn subsumed_entry_flagged_with_stronger_related() {
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-WEAK").expr(Guard::atom("a")))
            .with_entry(
                EntryArtifact::new("V-STRONG")
                    .expr(Guard::all_of([Guard::atom("a"), Guard::atom("b")])),
            );
        let d = run_lint(&CatalogueIdentityLint, &set);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::SubsumedEntry);
        assert_eq!(d[0].artifact, "V-WEAK");
        assert_eq!(d[0].related, vec!["V-STRONG".to_string()]);
    }

    #[test]
    fn identity_clean_on_distinct_entries() {
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-1").expr(Guard::atom("a")))
            .with_entry(EntryArtifact::new("V-2").expr(Guard::atom("b")));
        assert!(run_lint(&CatalogueIdentityLint, &set).is_empty());
    }

    // -- VDA004 / VDA005 ----------------------------------------------

    #[test]
    fn waiver_lints_fire_on_ghost_and_expired() {
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-1"))
            .with_waiver(Waiver {
                finding_id: "V-GHOST".into(),
                reason: "typo".into(),
                expires_at: None,
            })
            .with_waiver(Waiver {
                finding_id: "V-1".into(),
                reason: "lab".into(),
                expires_at: Some(10),
            })
            .at_tick(11);
        let d = run_lint(&WaiverLint, &set);
        assert_eq!(d.len(), 2);
        assert!(d
            .iter()
            .any(|x| x.code == LintCode::UnknownWaiver && x.artifact == "V-GHOST"));
        assert!(d
            .iter()
            .any(|x| x.code == LintCode::ExpiredWaiver && x.artifact == "V-1"));
    }

    #[test]
    fn waiver_clean_when_known_and_current() {
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-1"))
            .with_waiver(Waiver {
                finding_id: "V-1".into(),
                reason: "vendor".into(),
                expires_at: Some(10),
            })
            .at_tick(10); // expiry is inclusive
        assert!(run_lint(&WaiverLint, &set).is_empty());
    }

    // -- VDA006 / VDA007 ----------------------------------------------

    #[test]
    fn contradictory_formula_detected() {
        let f = Formula::and(
            Formula::globally(Formula::atom("p")),
            Formula::finally(Formula::not(Formula::atom("p"))),
        );
        let set = ArtifactSet::new().with_formula("always-and-never", f);
        let d = run_lint(&FormulaLint, &set);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::ContradictoryFormula);
    }

    #[test]
    fn tautological_formula_detected() {
        let f = Formula::or(Formula::atom("p"), Formula::not(Formula::atom("p")));
        let set = ArtifactSet::new().with_formula("excluded-middle", f);
        let d = run_lint(&FormulaLint, &set);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::TautologicalFormula);
    }

    #[test]
    fn contingent_formula_clean() {
        let f = Formula::globally(Formula::implies(
            Formula::atom("request"),
            Formula::finally(Formula::atom("response")),
        ));
        let set = ArtifactSet::new().with_formula("response", f);
        assert!(run_lint(&FormulaLint, &set).is_empty());
    }

    #[test]
    fn over_budget_formula_skipped() {
        // Five atoms exceed the default budget of three: no verdict at
        // all, even though the disjunction is tautological.
        let wide = Formula::or(
            Formula::or(
                Formula::or(Formula::atom("a"), Formula::not(Formula::atom("a"))),
                Formula::or(Formula::atom("b"), Formula::atom("c")),
            ),
            Formula::or(Formula::atom("d"), Formula::atom("e")),
        );
        let set = ArtifactSet::new().with_formula("wide", wide);
        assert!(run_lint(&FormulaLint, &set).is_empty());
    }

    #[test]
    fn constant_folding_shortcuts_search() {
        let f = Formula::and(Formula::atom("p"), Formula::False);
        assert_eq!(fold(&f), Formula::False);
        let set = ArtifactSet::new().with_formula("folded", f);
        let d = run_lint(&FormulaLint, &set);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::ContradictoryFormula);
        assert_eq!(fold(&Formula::globally(Formula::True)), Formula::True);
        assert_eq!(
            fold(&Formula::implies(Formula::False, Formula::atom("p"))),
            Formula::True
        );
    }

    // -- VDA008 -------------------------------------------------------

    #[test]
    fn vacuous_antecedent_detected() {
        let f = Formula::globally(Formula::implies(
            Formula::and(Formula::atom("p"), Formula::not(Formula::atom("p"))),
            Formula::finally(Formula::atom("alert")),
        ));
        let set = ArtifactSet::new().with_formula("dead-trigger", f);
        let d = run_lint(&VacuityLint, &set);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::VacuousPattern);
        assert!(d[0].message.contains("never be triggered"));
    }

    #[test]
    fn tautological_consequent_detected() {
        let f = Formula::globally(Formula::implies(
            Formula::atom("p"),
            Formula::or(Formula::atom("q"), Formula::not(Formula::atom("q"))),
        ));
        let set = ArtifactSet::new().with_formula("trivial-obligation", f);
        let d = run_lint(&VacuityLint, &set);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("trivially satisfied"));
    }

    #[test]
    fn meaningful_pattern_clean() {
        let f = Formula::globally(Formula::implies(
            Formula::atom("request"),
            Formula::finally_within(5, Formula::atom("response")),
        ));
        let set = ArtifactSet::new().with_formula("bounded-response", f);
        assert!(run_lint(&VacuityLint, &set).is_empty());
    }

    // -- VDA009 -------------------------------------------------------

    #[test]
    fn unreachable_model_detected() {
        let mut m = vdo_gwt::GraphModel::new("broken");
        let a = m.add_vertex("a");
        let b = m.add_vertex("b");
        let x = m.add_vertex("island1");
        let y = m.add_vertex("island2");
        m.add_edge(a, b, "go");
        m.add_edge(x, y, "island_hop");
        m.set_start(a);
        let set = ArtifactSet::new().with_model(m);
        let d = run_lint(&ModelLint, &set);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("2 unreachable vertices"));
        assert!(d[0].message.contains("1 dead edges"));
        assert!(d[0].message.contains("island1"));
    }

    #[test]
    fn missing_start_detected() {
        let mut m = vdo_gwt::GraphModel::new("startless");
        m.add_vertex("a");
        let set = ArtifactSet::new().with_model(m);
        let d = run_lint(&ModelLint, &set);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("no start vertex"));
    }

    #[test]
    fn connected_model_clean() {
        let mut m = vdo_gwt::GraphModel::new("ok");
        let a = m.add_vertex("a");
        let b = m.add_vertex("b");
        m.add_edge(a, b, "go");
        m.add_edge(b, a, "back");
        m.set_start(a);
        let set = ArtifactSet::new().with_model(m);
        assert!(run_lint(&ModelLint, &set).is_empty());
    }

    // -- VDA010 -------------------------------------------------------

    #[test]
    fn unsat_guard_detected() {
        let ga = vdo_tears::GuardedAssertion::parse(
            "ga \"dead\": when load > 1 and load < 0 then ok == 1",
        )
        .unwrap();
        let set = ArtifactSet::new().with_assertion(ga);
        let d = run_lint(&GuardLint, &set);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::UnsatisfiableGuard);
        assert_eq!(d[0].artifact, "dead");
    }

    #[test]
    fn boundary_guards_judged_exactly() {
        // x >= 1 and x <= 1 has exactly one solution: satisfiable.
        let ok = vdo_tears::parse_guard("x >= 1 and x <= 1").unwrap();
        assert_eq!(guard_satisfiable(&ok), Some(true));
        // Adding x != 1 removes it.
        let dead = vdo_tears::parse_guard("x >= 1 and x <= 1 and x != 1").unwrap();
        assert_eq!(guard_satisfiable(&dead), Some(false));
        // Strict bounds meeting at a point are empty.
        let strict = vdo_tears::parse_guard("x > 1 and x < 1").unwrap();
        assert_eq!(guard_satisfiable(&strict), Some(false));
        // not() distributes: not (x > 0 or x < 0) == x == 0.
        let zero = vdo_tears::parse_guard("not (x > 0 or x < 0)").unwrap();
        assert_eq!(guard_satisfiable(&zero), Some(true));
    }

    #[test]
    fn disjunctive_guard_clean_if_any_branch_lives() {
        let ga = vdo_tears::GuardedAssertion::parse(
            "ga \"alive\": when (load > 1 and load < 0) or cpu > 0.5 then ok == 1",
        )
        .unwrap();
        let set = ArtifactSet::new().with_assertion(ga);
        assert!(run_lint(&GuardLint, &set).is_empty());
    }

    // -- VDA011 -------------------------------------------------------

    #[test]
    fn untraced_requirement_detected() {
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-COVERED"))
            .with_entry(EntryArtifact::new("V-ORPHAN"))
            .with_entry(EntryArtifact::new("V-WATCHED"))
            .covered_dev("V-COVERED")
            .covered_ops("V-WATCHED");
        let d = run_lint(&TraceabilityLint, &set);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].artifact, "V-ORPHAN");
    }

    #[test]
    fn active_waiver_exempts_traceability() {
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-1"))
            .with_waiver(Waiver {
                finding_id: "V-1".into(),
                reason: "accepted risk".into(),
                expires_at: None,
            });
        assert!(run_lint(&TraceabilityLint, &set).is_empty());
    }

    // -- registry -----------------------------------------------------

    #[test]
    fn default_registry_covers_every_code() {
        let r = LintRegistry::with_default_lints();
        assert_eq!(r.len(), 9);
        let covered: BTreeSet<LintCode> =
            r.iter().flat_map(|l| l.codes().iter().copied()).collect();
        assert_eq!(
            covered.len(),
            LintCode::ALL.len(),
            "all codes owned by a lint"
        );
        for l in r.iter() {
            assert!(!l.description().is_empty());
            assert!(!l.name().is_empty());
        }
    }
}
