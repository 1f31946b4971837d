//! The incremental analysis engine: commit-to-verdict in O(changed).
//!
//! [`IncrementalAnalyzer`] keeps one *live* artifact-set revision in
//! id-keyed maps plus, per `(lint, unit)`, the raw diagnostics that
//! unit last produced. Applying an [`ArtifactDelta`] marks dirty only
//! the units whose *fingerprint closure* could have changed — the
//! changed artifacts themselves plus their dependency-graph
//! neighbourhood (waiver ↔ entry, trace link ↔ entry, clock ↔ expiring
//! waivers) — and re-runs only those units, consulting a memo table
//! keyed by `(lint, closure fingerprint)` first. Everything else is
//! reused verbatim, so a commit touching k artifacts costs O(k · slice)
//! instead of O(catalogue).
//!
//! # Units and closures
//!
//! Each lint declares a [`Granularity`]; the engine slices its work
//! into units accordingly. A unit's *closure* is a fingerprint over
//! every input that can influence that unit's diagnostics:
//!
//! | granularity  | unit        | closure fingerprint over |
//! |--------------|-------------|--------------------------|
//! | `PerEntry`   | one entry   | entry + dev/ops bits + waived bit |
//! | `PerWaiver`  | one waiver  | waiver + target-exists bit + expired bit (+ clock when expired) |
//! | `PerFormula` | one formula | the named formula |
//! | `PerModel`   | one model   | the model (scenarios excluded) |
//! | `PerAssertion` | one assertion | the assertion |
//! | `PerTraceLink` | one dev/ops link | kind + target id + target-exists bit |
//! | `EntryBucket` | one join-key bucket | bucket key + member entry fingerprints |
//! | `EntryList`  | all entries | ordered entry fingerprints |
//! | `Whole`      | everything  | the whole-set fingerprint |
//!
//! `EntryBucket` lints (catalogue identity) declare per-entry join
//! keys; the engine maintains a `key → member ids` index per lint and
//! dirties exactly the buckets a changed entry enters or leaves, so
//! even cross-entry duplicate/subsumption analysis costs O(changed)
//! per commit instead of one full catalogue rescan.
//!
//! Equal closure ⇒ equal diagnostics (lints are pure), which is what
//! makes the memo sound; `tests/incremental.rs` property-tests that
//! every reachable state reports bit-identically to a fresh
//! [`Analyzer::analyze_all`](crate::Analyzer::analyze_all) over
//! [`IncrementalAnalyzer::artifacts`].
//!
//! # Canonical state
//!
//! The live revision is *map-backed*: one entry per finding id, one
//! waiver per target, one formula/model/assertion per name — upserts
//! replace. [`artifacts`](IncrementalAnalyzer::artifacts) materialises
//! it in sorted-key order, and that materialisation is the reference
//! input for equivalence. (Duplicate-id defects are a repository-shape
//! problem the batch analyzer still covers; a keyed store cannot hold
//! two artifacts under one id.)

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use vdo_core::Waiver;
use vdo_gwt::GraphModel;
use vdo_tears::GuardedAssertion;
use vdo_temporal::Formula;

use crate::artifact::{ArtifactSet, EntryArtifact, NamedFormula};
use crate::config::AnalysisConfig;
use crate::diag::{Diagnostic, LintLevel};
use crate::engine::{finish_report, run_striped, AnalysisReport};
use crate::fingerprint::{
    fingerprint_assertion, fingerprint_entry, fingerprint_model, fingerprint_named_formula,
    fingerprint_set, fingerprint_waiver, Fingerprint, Hasher,
};
use crate::lints::{Granularity, LintRegistry};

/// A batch of artifact changes — what one commit touches.
///
/// Upserts replace by key (finding id / name); removals of absent keys
/// and coverage flips that change nothing are no-ops. Build with the
/// `with_*` / `remove_*` / `cover_*` methods, or mirror an entire
/// [`ArtifactSet`] with [`ArtifactDelta::from_set`].
#[derive(Debug, Clone, Default)]
pub struct ArtifactDelta {
    /// Entries to insert or replace.
    pub upsert_entries: Vec<EntryArtifact>,
    /// Finding ids whose entries to remove.
    pub remove_entries: Vec<String>,
    /// Waivers to insert or replace (keyed by target finding id).
    pub upsert_waivers: Vec<Waiver>,
    /// Target finding ids whose waivers to remove.
    pub remove_waivers: Vec<String>,
    /// Formulas to insert or replace (keyed by name).
    pub upsert_formulas: Vec<NamedFormula>,
    /// Formula names to remove.
    pub remove_formulas: Vec<String>,
    /// Models to insert or replace (keyed by name).
    pub upsert_models: Vec<GraphModel>,
    /// Model names to remove.
    pub remove_models: Vec<String>,
    /// Assertions to insert or replace (keyed by name).
    pub upsert_assertions: Vec<GuardedAssertion>,
    /// Assertion names to remove.
    pub remove_assertions: Vec<String>,
    /// Finding ids gaining dev-gate coverage.
    pub cover_dev: Vec<String>,
    /// Finding ids losing dev-gate coverage.
    pub uncover_dev: Vec<String>,
    /// Finding ids gaining ops-monitor coverage.
    pub cover_ops: Vec<String>,
    /// Finding ids losing ops-monitor coverage.
    pub uncover_ops: Vec<String>,
    /// New clock value, if the commit advances time.
    pub set_now: Option<u64>,
}

impl ArtifactDelta {
    /// An empty delta.
    #[must_use]
    pub fn new() -> Self {
        ArtifactDelta::default()
    }

    /// A delta that recreates `set` from scratch (the initial
    /// catalogue load).
    #[must_use]
    pub fn from_set(set: &ArtifactSet) -> Self {
        ArtifactDelta {
            upsert_entries: set.entries.clone(),
            upsert_waivers: set.waivers.iter().cloned().collect(),
            upsert_formulas: set.formulas.clone(),
            upsert_models: set.models.clone(),
            upsert_assertions: set.assertions.clone(),
            cover_dev: set.dev_covered.iter().cloned().collect(),
            cover_ops: set.ops_covered.iter().cloned().collect(),
            set_now: Some(set.now),
            ..ArtifactDelta::default()
        }
    }

    /// Adds or replaces an entry.
    #[must_use]
    pub fn with_entry(mut self, entry: EntryArtifact) -> Self {
        self.upsert_entries.push(entry);
        self
    }

    /// Removes an entry by finding id.
    #[must_use]
    pub fn remove_entry(mut self, id: impl Into<String>) -> Self {
        self.remove_entries.push(id.into());
        self
    }

    /// Adds or replaces a waiver.
    #[must_use]
    pub fn with_waiver(mut self, waiver: Waiver) -> Self {
        self.upsert_waivers.push(waiver);
        self
    }

    /// Removes the waiver targeting `id`.
    #[must_use]
    pub fn remove_waiver(mut self, id: impl Into<String>) -> Self {
        self.remove_waivers.push(id.into());
        self
    }

    /// Adds or replaces a named formula.
    #[must_use]
    pub fn with_formula(mut self, name: impl Into<String>, f: Formula) -> Self {
        self.upsert_formulas.push(NamedFormula::new(name, f));
        self
    }

    /// Removes a formula by name.
    #[must_use]
    pub fn remove_formula(mut self, name: impl Into<String>) -> Self {
        self.remove_formulas.push(name.into());
        self
    }

    /// Adds or replaces a model.
    #[must_use]
    pub fn with_model(mut self, model: GraphModel) -> Self {
        self.upsert_models.push(model);
        self
    }

    /// Removes a model by name.
    #[must_use]
    pub fn remove_model(mut self, name: impl Into<String>) -> Self {
        self.remove_models.push(name.into());
        self
    }

    /// Adds or replaces a guarded assertion.
    #[must_use]
    pub fn with_assertion(mut self, ga: GuardedAssertion) -> Self {
        self.upsert_assertions.push(ga);
        self
    }

    /// Removes an assertion by name.
    #[must_use]
    pub fn remove_assertion(mut self, name: impl Into<String>) -> Self {
        self.remove_assertions.push(name.into());
        self
    }

    /// Marks `id` as dev-gate covered.
    #[must_use]
    pub fn cover_dev(mut self, id: impl Into<String>) -> Self {
        self.cover_dev.push(id.into());
        self
    }

    /// Drops `id`'s dev-gate coverage.
    #[must_use]
    pub fn uncover_dev(mut self, id: impl Into<String>) -> Self {
        self.uncover_dev.push(id.into());
        self
    }

    /// Marks `id` as ops-monitor covered.
    #[must_use]
    pub fn cover_ops(mut self, id: impl Into<String>) -> Self {
        self.cover_ops.push(id.into());
        self
    }

    /// Drops `id`'s ops-monitor coverage.
    #[must_use]
    pub fn uncover_ops(mut self, id: impl Into<String>) -> Self {
        self.uncover_ops.push(id.into());
        self
    }

    /// Advances (or rewinds) the clock.
    #[must_use]
    pub fn set_now(mut self, now: u64) -> Self {
        self.set_now = Some(now);
        self
    }

    /// `true` iff the delta changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.set_now.is_none()
    }

    /// Number of artifact touches (upserts + removals + coverage
    /// flips), excluding the clock.
    #[must_use]
    pub fn len(&self) -> usize {
        self.upsert_entries.len()
            + self.remove_entries.len()
            + self.upsert_waivers.len()
            + self.remove_waivers.len()
            + self.upsert_formulas.len()
            + self.remove_formulas.len()
            + self.upsert_models.len()
            + self.remove_models.len()
            + self.upsert_assertions.len()
            + self.remove_assertions.len()
            + self.cover_dev.len()
            + self.uncover_dev.len()
            + self.cover_ops.len()
            + self.uncover_ops.len()
    }
}

/// Cumulative cache behaviour of one [`IncrementalAnalyzer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Deltas applied.
    pub applies: u64,
    /// Units examined because their closure could have changed.
    pub dirty_units: u64,
    /// Dirty units whose closure was found in the memo table.
    pub hits: u64,
    /// Dirty units that had to run their lint.
    pub misses: u64,
    /// Live unit results replaced or dropped (the unit's previous
    /// diagnostics became stale).
    pub invalidations: u64,
    /// Artifact touches summed over all applied deltas.
    pub changed_artifacts: u64,
}

/// One unit of lint work: which lint (registry index) on which subject.
type UnitKey = (usize, String);

/// The incremental cross-artifact analyzer.
///
/// Holds the live revision, the per-unit result table, and the memo
/// table. [`apply`](IncrementalAnalyzer::apply) is the only way state
/// changes; [`report`](IncrementalAnalyzer::report) is always equal to
/// `Analyzer::analyze_all(&self.artifacts(), _)` with the same
/// registry and config.
pub struct IncrementalAnalyzer {
    registry: LintRegistry,
    config: AnalysisConfig,
    // -- live revision, keyed ------------------------------------------
    entries: BTreeMap<String, EntryArtifact>,
    waivers: BTreeMap<String, Waiver>,
    formulas: BTreeMap<String, NamedFormula>,
    models: BTreeMap<String, GraphModel>,
    assertions: BTreeMap<String, GuardedAssertion>,
    dev_covered: BTreeSet<String>,
    ops_covered: BTreeSet<String>,
    now: u64,
    /// `expires_at → waiver target ids`, for O(affected) clock changes.
    expiry_index: BTreeMap<u64, BTreeSet<String>>,
    /// Per `EntryBucket` lint: `bucket key → member entry ids`, so a
    /// changed entry dirties only the buckets it enters or leaves.
    bucket_index: HashMap<usize, BTreeMap<String, BTreeSet<String>>>,
    // -- caches --------------------------------------------------------
    /// Per-unit raw (pre-level) diagnostics; empty results are kept so
    /// hit/miss accounting stays meaningful, the report concat skips
    /// them for free.
    live: BTreeMap<UnitKey, (Fingerprint, Arc<Vec<Diagnostic>>)>,
    /// Keys in `live` whose diagnostics are non-empty, so `report()`
    /// concatenates O(diagnostics) units instead of scanning every
    /// live unit of a clean catalogue.
    nonempty: BTreeSet<UnitKey>,
    /// `(lint, closure) → raw diagnostics`, shared across revisions.
    memo: HashMap<(usize, u64), Arc<Vec<Diagnostic>>>,
    stats: IncrementalStats,
}

impl IncrementalAnalyzer {
    /// An empty engine with every built-in lint.
    #[must_use]
    pub fn new(config: AnalysisConfig) -> Self {
        IncrementalAnalyzer::with_registry(LintRegistry::with_default_lints(), config)
    }

    /// An empty engine over a custom registry.
    #[must_use]
    pub fn with_registry(registry: LintRegistry, config: AnalysisConfig) -> Self {
        IncrementalAnalyzer {
            registry,
            config,
            entries: BTreeMap::new(),
            waivers: BTreeMap::new(),
            formulas: BTreeMap::new(),
            models: BTreeMap::new(),
            assertions: BTreeMap::new(),
            dev_covered: BTreeSet::new(),
            ops_covered: BTreeSet::new(),
            now: 0,
            expiry_index: BTreeMap::new(),
            bucket_index: HashMap::new(),
            live: BTreeMap::new(),
            nonempty: BTreeSet::new(),
            memo: HashMap::new(),
            stats: IncrementalStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Cumulative cache statistics.
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Number of live `(lint, unit)` results.
    #[must_use]
    pub fn live_units(&self) -> usize {
        self.live.len()
    }

    /// Number of memoised `(lint, closure)` results.
    #[must_use]
    pub fn memo_entries(&self) -> usize {
        self.memo.len()
    }

    /// Materialises the live revision in canonical (sorted-key) order —
    /// the reference input for `incremental == full` equivalence.
    #[must_use]
    pub fn artifacts(&self) -> ArtifactSet {
        let mut set = ArtifactSet::new().at_tick(self.now);
        set.entries = self.entries.values().cloned().collect();
        for w in self.waivers.values() {
            set.waivers.add(w.clone());
        }
        set.formulas = self.formulas.values().cloned().collect();
        set.models = self.models.values().cloned().collect();
        set.assertions = self.assertions.values().cloned().collect();
        set.dev_covered = self.dev_covered.clone();
        set.ops_covered = self.ops_covered.clone();
        set
    }

    /// [`apply`](IncrementalAnalyzer::apply), also returning a delta
    /// that undoes this one (for rejected-commit rollback). Reverting
    /// is cheap: every un-done unit closure is already memoised.
    pub fn apply_with_undo(
        &mut self,
        delta: &ArtifactDelta,
        threads: usize,
    ) -> (AnalysisReport, ArtifactDelta) {
        let undo = self.undo_of(delta);
        let report = self.apply(delta, threads);
        (report, undo)
    }

    /// Builds the delta that would undo `delta` against the *current*
    /// state (must be computed before applying).
    fn undo_of(&self, delta: &ArtifactDelta) -> ArtifactDelta {
        let mut undo = ArtifactDelta::new();
        // Keys mentioned twice in one delta undo to their pre-delta
        // value once, so dedup as we go.
        let mut seen_entries = BTreeSet::new();
        for id in delta
            .upsert_entries
            .iter()
            .map(|e| e.finding_id.as_str())
            .chain(delta.remove_entries.iter().map(String::as_str))
        {
            if !seen_entries.insert(id.to_string()) {
                continue;
            }
            match self.entries.get(id) {
                Some(prev) => undo.upsert_entries.push(prev.clone()),
                None => undo.remove_entries.push(id.to_string()),
            }
        }
        let mut seen_waivers = BTreeSet::new();
        for id in delta
            .upsert_waivers
            .iter()
            .map(|w| w.finding_id.as_str())
            .chain(delta.remove_waivers.iter().map(String::as_str))
        {
            if !seen_waivers.insert(id.to_string()) {
                continue;
            }
            match self.waivers.get(id) {
                Some(prev) => undo.upsert_waivers.push(prev.clone()),
                None => undo.remove_waivers.push(id.to_string()),
            }
        }
        let mut seen_formulas = BTreeSet::new();
        for name in delta
            .upsert_formulas
            .iter()
            .map(|f| f.name.as_str())
            .chain(delta.remove_formulas.iter().map(String::as_str))
        {
            if !seen_formulas.insert(name.to_string()) {
                continue;
            }
            match self.formulas.get(name) {
                Some(prev) => undo.upsert_formulas.push(prev.clone()),
                None => undo.remove_formulas.push(name.to_string()),
            }
        }
        let mut seen_models = BTreeSet::new();
        for name in delta
            .upsert_models
            .iter()
            .map(GraphModel::name)
            .chain(delta.remove_models.iter().map(String::as_str))
        {
            if !seen_models.insert(name.to_string()) {
                continue;
            }
            match self.models.get(name) {
                Some(prev) => undo.upsert_models.push(prev.clone()),
                None => undo.remove_models.push(name.to_string()),
            }
        }
        let mut seen_assertions = BTreeSet::new();
        for name in delta
            .upsert_assertions
            .iter()
            .map(GuardedAssertion::name)
            .chain(delta.remove_assertions.iter().map(String::as_str))
        {
            if !seen_assertions.insert(name.to_string()) {
                continue;
            }
            match self.assertions.get(name) {
                Some(prev) => undo.upsert_assertions.push(prev.clone()),
                None => undo.remove_assertions.push(name.to_string()),
            }
        }
        for id in &delta.cover_dev {
            if !self.dev_covered.contains(id) {
                undo.uncover_dev.push(id.clone());
            }
        }
        for id in &delta.uncover_dev {
            if self.dev_covered.contains(id) {
                undo.cover_dev.push(id.clone());
            }
        }
        for id in &delta.cover_ops {
            if !self.ops_covered.contains(id) {
                undo.uncover_ops.push(id.clone());
            }
        }
        for id in &delta.uncover_ops {
            if self.ops_covered.contains(id) {
                undo.cover_ops.push(id.clone());
            }
        }
        if let Some(n) = delta.set_now {
            if n != self.now {
                undo.set_now = Some(self.now);
            }
        }
        undo
    }

    /// Applies one delta and returns the post-change report, re-running
    /// only dirty units across `threads` workers.
    pub fn apply(&mut self, delta: &ArtifactDelta, threads: usize) -> AnalysisReport {
        self.stats.applies += 1;
        self.stats.changed_artifacts += delta.len() as u64;

        // ---- 1. Which ids change, per kind (before mutating). --------
        let changed_entries: BTreeSet<String> = delta
            .upsert_entries
            .iter()
            .map(|e| e.finding_id.clone())
            .chain(delta.remove_entries.iter().cloned())
            .collect();
        let changed_waivers: BTreeSet<String> = delta
            .upsert_waivers
            .iter()
            .map(|w| w.finding_id.clone())
            .chain(delta.remove_waivers.iter().cloned())
            .collect();
        let changed_formulas: BTreeSet<String> = delta
            .upsert_formulas
            .iter()
            .map(|f| f.name.clone())
            .chain(delta.remove_formulas.iter().cloned())
            .collect();
        let changed_models: BTreeSet<String> = delta
            .upsert_models
            .iter()
            .map(|m| m.name().to_string())
            .chain(delta.remove_models.iter().cloned())
            .collect();
        let changed_assertions: BTreeSet<String> = delta
            .upsert_assertions
            .iter()
            .map(|a| a.name().to_string())
            .chain(delta.remove_assertions.iter().cloned())
            .collect();
        let changed_dev: BTreeSet<String> = delta
            .cover_dev
            .iter()
            .chain(delta.uncover_dev.iter())
            .cloned()
            .collect();
        let changed_ops: BTreeSet<String> = delta
            .cover_ops
            .iter()
            .chain(delta.uncover_ops.iter())
            .cloned()
            .collect();

        // Clock change: expired waivers embed `now` in their message
        // and the waived-bit of entries flips at the expiry boundary.
        let old_now = self.now;
        let new_now = delta.set_now.unwrap_or(old_now);
        let mut clock_dirty_waivers: BTreeSet<String> = BTreeSet::new();
        let mut clock_flipped_targets: BTreeSet<String> = BTreeSet::new();
        if new_now != old_now {
            let hi = old_now.max(new_now);
            let lo = old_now.min(new_now);
            for ids in self.expiry_index.range(..hi).map(|(_, ids)| ids) {
                clock_dirty_waivers.extend(ids.iter().cloned());
            }
            for ids in self.expiry_index.range(lo..hi).map(|(_, ids)| ids) {
                clock_flipped_targets.extend(ids.iter().cloned());
            }
        }

        // Bucket lints: a changed entry dirties every bucket it leaves
        // (computed against the pre-delta state) and every bucket it
        // enters (computed after mutation, below).
        let bucket_lints: Vec<usize> = self
            .registry
            .iter()
            .enumerate()
            .filter(|(_, l)| l.granularity() == Granularity::EntryBucket)
            .map(|(i, _)| i)
            .collect();
        let mut dirty_buckets: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
        for &lint_idx in &bucket_lints {
            let old_keys: Vec<(String, Vec<String>)> = changed_entries
                .iter()
                .filter_map(|id| {
                    let lint = self.registry.iter().nth(lint_idx).expect("lint in range");
                    self.entries
                        .get(id)
                        .map(|old| (id.clone(), lint.entry_buckets(old)))
                })
                .collect();
            let index = self.bucket_index.entry(lint_idx).or_default();
            let dirty = dirty_buckets.entry(lint_idx).or_default();
            for (id, keys) in old_keys {
                for key in keys {
                    if let Some(members) = index.get_mut(&key) {
                        members.remove(&id);
                        if members.is_empty() {
                            index.remove(&key);
                        }
                    }
                    dirty.insert(key);
                }
            }
        }

        // ---- 2. Mutate the live revision. ----------------------------
        for e in &delta.upsert_entries {
            self.entries.insert(e.finding_id.clone(), e.clone());
        }
        for id in &delta.remove_entries {
            self.entries.remove(id);
        }
        for w in &delta.upsert_waivers {
            if let Some(prev) = self.waivers.insert(w.finding_id.clone(), w.clone()) {
                self.unindex_expiry(&prev);
            }
            self.index_expiry(w);
        }
        for id in &delta.remove_waivers {
            if let Some(prev) = self.waivers.remove(id) {
                self.unindex_expiry(&prev);
            }
        }
        for f in &delta.upsert_formulas {
            self.formulas.insert(f.name.clone(), f.clone());
        }
        for name in &delta.remove_formulas {
            self.formulas.remove(name);
        }
        for m in &delta.upsert_models {
            self.models.insert(m.name().to_string(), m.clone());
        }
        for name in &delta.remove_models {
            self.models.remove(name);
        }
        for a in &delta.upsert_assertions {
            self.assertions.insert(a.name().to_string(), a.clone());
        }
        for name in &delta.remove_assertions {
            self.assertions.remove(name);
        }
        for id in &delta.cover_dev {
            self.dev_covered.insert(id.clone());
        }
        for id in &delta.uncover_dev {
            self.dev_covered.remove(id);
        }
        for id in &delta.cover_ops {
            self.ops_covered.insert(id.clone());
        }
        for id in &delta.uncover_ops {
            self.ops_covered.remove(id);
        }
        self.now = new_now;

        // Re-index the changed entries' post-delta bucket memberships.
        for &lint_idx in &bucket_lints {
            let new_keys: Vec<(String, Vec<String>)> = changed_entries
                .iter()
                .filter_map(|id| {
                    let lint = self.registry.iter().nth(lint_idx).expect("lint in range");
                    self.entries
                        .get(id)
                        .map(|now| (id.clone(), lint.entry_buckets(now)))
                })
                .collect();
            let index = self.bucket_index.entry(lint_idx).or_default();
            let dirty = dirty_buckets.entry(lint_idx).or_default();
            for (id, keys) in new_keys {
                for key in keys {
                    index.entry(key.clone()).or_default().insert(id.clone());
                    dirty.insert(key);
                }
            }
        }

        // ---- 3. Propagate dirtiness along the dependency edges. ------
        // Entry units: the entry itself, waiver flips at the clock
        // boundary, waiver edits, and coverage edits all feed the
        // per-entry closure.
        let dirty_entry_ids: BTreeSet<String> = changed_entries
            .iter()
            .chain(changed_waivers.iter())
            .chain(clock_flipped_targets.iter())
            .chain(changed_dev.iter())
            .chain(changed_ops.iter())
            .cloned()
            .collect();
        // Waiver units: the waiver itself, its target's existence, and
        // the clock (for expired ones).
        let dirty_waiver_ids: BTreeSet<String> = changed_waivers
            .iter()
            .chain(changed_entries.iter())
            .chain(clock_dirty_waivers.iter())
            .cloned()
            .collect();
        // Trace-link units: the link itself and its target's existence.
        let dirty_dev_links: BTreeSet<String> = changed_dev
            .iter()
            .chain(changed_entries.iter())
            .cloned()
            .collect();
        let dirty_ops_links: BTreeSet<String> = changed_ops
            .iter()
            .chain(changed_entries.iter())
            .cloned()
            .collect();
        let anything_changed = !delta.is_empty();
        let entries_changed = !changed_entries.is_empty();

        // ---- 4. Collect dirty units for every enabled lint. ----------
        // A unit is (re)examined iff its subject exists; units whose
        // subject vanished are dropped from the live table.
        let mut jobs: Vec<(UnitKey, Fingerprint, ArtifactSet)> = Vec::new();
        let lints: Vec<(usize, Granularity)> = self
            .registry
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.codes()
                    .iter()
                    .any(|&c| self.config.level(c) != LintLevel::Allow)
            })
            .map(|(i, l)| (i, l.granularity()))
            .collect();

        for &(lint_idx, gran) in &lints {
            let dirty_units: Vec<(String, bool)> = match gran {
                Granularity::Whole => {
                    if anything_changed || new_now != old_now {
                        vec![(String::new(), true)]
                    } else {
                        Vec::new()
                    }
                }
                Granularity::EntryList => {
                    if entries_changed {
                        vec![(String::new(), true)]
                    } else {
                        Vec::new()
                    }
                }
                Granularity::EntryBucket => dirty_buckets
                    .get(&lint_idx)
                    .map(|keys| {
                        keys.iter()
                            .map(|k| {
                                let alive = self
                                    .bucket_index
                                    .get(&lint_idx)
                                    .is_some_and(|ix| ix.contains_key(k));
                                (k.clone(), alive)
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
                Granularity::PerEntry => dirty_entry_ids
                    .iter()
                    .map(|id| (id.clone(), self.entries.contains_key(id)))
                    .collect(),
                Granularity::PerWaiver => dirty_waiver_ids
                    .iter()
                    .map(|id| (id.clone(), self.waivers.contains_key(id)))
                    .collect(),
                Granularity::PerFormula => changed_formulas
                    .iter()
                    .map(|n| (n.clone(), self.formulas.contains_key(n)))
                    .collect(),
                Granularity::PerModel => changed_models
                    .iter()
                    .map(|n| (n.clone(), self.models.contains_key(n)))
                    .collect(),
                Granularity::PerAssertion => changed_assertions
                    .iter()
                    .map(|n| (n.clone(), self.assertions.contains_key(n)))
                    .collect(),
                Granularity::PerTraceLink => dirty_dev_links
                    .iter()
                    .map(|id| (format!("d:{id}"), self.dev_covered.contains(id)))
                    .chain(
                        dirty_ops_links
                            .iter()
                            .map(|id| (format!("o:{id}"), self.ops_covered.contains(id))),
                    )
                    .collect(),
            };

            for (unit, alive) in dirty_units {
                self.stats.dirty_units += 1;
                let key = (lint_idx, unit);
                if !alive {
                    if self.live.remove(&key).is_some() {
                        self.nonempty.remove(&key);
                        self.stats.invalidations += 1;
                    }
                    continue;
                }
                let closure = self.closure_of(lint_idx, gran, &key.1);
                match self.live.get(&key) {
                    Some((prev, _)) if *prev == closure => continue,
                    Some(_) => self.stats.invalidations += 1,
                    None => {}
                }
                if let Some(cached) = self.memo.get(&(lint_idx, closure.0)) {
                    self.stats.hits += 1;
                    if cached.is_empty() {
                        self.nonempty.remove(&key);
                    } else {
                        self.nonempty.insert(key.clone());
                    }
                    self.live.insert(key, (closure, Arc::clone(cached)));
                } else {
                    self.stats.misses += 1;
                    let slice = self.slice_of(lint_idx, gran, &key.1);
                    jobs.push((key, closure, slice));
                }
            }
        }

        // ---- 5. Run the cache misses on the shared striped pool. -----
        if !jobs.is_empty() {
            let registry = &self.registry;
            let config = &self.config;
            let results: Vec<Vec<Diagnostic>> = run_striped(jobs.len(), threads, |i| {
                let (ref key, _, ref slice) = jobs[i];
                let lint = registry.iter().nth(key.0).expect("lint index in range");
                if lint.granularity() == Granularity::EntryBucket {
                    lint.run_bucket(&key.1, slice, config)
                } else {
                    lint.run(slice, config)
                }
            });
            for ((key, closure, _), diags) in jobs.into_iter().zip(results) {
                let diags = Arc::new(diags);
                self.memo.insert((key.0, closure.0), Arc::clone(&diags));
                if diags.is_empty() {
                    self.nonempty.remove(&key);
                } else {
                    self.nonempty.insert(key.clone());
                }
                self.live.insert(key, (closure, diags));
            }
        }

        self.report()
    }

    /// The report for the current revision, assembled from live unit
    /// results through the same finishing path as the batch engine.
    #[must_use]
    pub fn report(&self) -> AnalysisReport {
        let raw: Vec<Diagnostic> = self
            .nonempty
            .iter()
            .filter_map(|key| self.live.get(key))
            .flat_map(|(_, diags)| diags.iter().cloned())
            .collect();
        finish_report(&self.config, raw)
    }

    fn index_expiry(&mut self, w: &Waiver) {
        if let Some(t) = w.expires_at {
            self.expiry_index
                .entry(t)
                .or_default()
                .insert(w.finding_id.clone());
        }
    }

    fn unindex_expiry(&mut self, w: &Waiver) {
        if let Some(t) = w.expires_at {
            if let Some(ids) = self.expiry_index.get_mut(&t) {
                ids.remove(&w.finding_id);
                if ids.is_empty() {
                    self.expiry_index.remove(&t);
                }
            }
        }
    }

    /// The closure fingerprint of one unit — covering exactly the
    /// inputs that can influence its diagnostics (see the module docs).
    fn closure_of(&self, lint_idx: usize, gran: Granularity, unit: &str) -> Fingerprint {
        let mut h = Hasher::new();
        match gran {
            Granularity::Whole => return fingerprint_set(&self.artifacts()),
            Granularity::EntryList => {
                h.write_tag(b'L');
                for e in self.entries.values() {
                    h.write_u64(fingerprint_entry(e).0);
                }
            }
            Granularity::EntryBucket => {
                // The bucket key is part of the closure: run_bucket's
                // ownership filter makes the diagnostics depend on the
                // key, not just on the member entries.
                h.write_tag(b'B');
                h.write_str(unit);
                let members = self
                    .bucket_index
                    .get(&lint_idx)
                    .and_then(|ix| ix.get(unit))
                    .expect("dirty unit exists");
                for id in members {
                    let e = self.entries.get(id).expect("bucket member exists");
                    h.write_u64(fingerprint_entry(e).0);
                }
            }
            Granularity::PerEntry => {
                h.write_tag(b'e');
                let e = self.entries.get(unit).expect("dirty unit exists");
                h.write_u64(fingerprint_entry(e).0);
                h.write_bool(self.dev_covered.contains(unit));
                h.write_bool(self.ops_covered.contains(unit));
                h.write_bool(self.is_waived(unit));
            }
            Granularity::PerWaiver => {
                h.write_tag(b'w');
                let w = self.waivers.get(unit).expect("dirty unit exists");
                h.write_u64(fingerprint_waiver(w).0);
                h.write_bool(self.entries.contains_key(unit));
                let expired = w.expires_at.is_some_and(|t| t < self.now);
                h.write_bool(expired);
                if expired {
                    // The VDA005 message embeds the clock.
                    h.write_u64(self.now);
                }
            }
            Granularity::PerFormula => {
                h.write_tag(b'f');
                let f = self.formulas.get(unit).expect("dirty unit exists");
                h.write_u64(fingerprint_named_formula(f).0);
            }
            Granularity::PerModel => {
                h.write_tag(b'm');
                let m = self.models.get(unit).expect("dirty unit exists");
                h.write_u64(fingerprint_model(m).0);
            }
            Granularity::PerAssertion => {
                h.write_tag(b'a');
                let a = self.assertions.get(unit).expect("dirty unit exists");
                h.write_u64(fingerprint_assertion(a).0);
            }
            Granularity::PerTraceLink => {
                h.write_tag(b't');
                let (kind, id) = unit.split_once(':').expect("trace unit key");
                h.write_str(kind);
                h.write_str(id);
                h.write_bool(self.entries.contains_key(id));
            }
        }
        h.finish()
    }

    fn is_waived(&self, id: &str) -> bool {
        self.waivers
            .get(id)
            .is_some_and(|w| w.expires_at.is_none_or(|t| self.now <= t))
    }

    /// The minimal artifact set a dirty unit's lint runs over — just
    /// enough context for the lint to reproduce its whole-set verdict
    /// for this unit.
    fn slice_of(&self, lint_idx: usize, gran: Granularity, unit: &str) -> ArtifactSet {
        let mut slice = ArtifactSet::new().at_tick(self.now);
        match gran {
            Granularity::Whole => return self.artifacts(),
            Granularity::EntryList => {
                slice.entries = self.entries.values().cloned().collect();
            }
            Granularity::EntryBucket => {
                let members = self
                    .bucket_index
                    .get(&lint_idx)
                    .and_then(|ix| ix.get(unit))
                    .expect("dirty unit exists");
                // BTreeSet iteration keeps the members in canonical
                // sorted-id order, matching the batch entry list.
                slice.entries = members
                    .iter()
                    .map(|id| self.entries.get(id).expect("bucket member exists").clone())
                    .collect();
            }
            Granularity::PerEntry => {
                let e = self.entries.get(unit).expect("dirty unit exists");
                slice.entries.push(e.clone());
                if self.dev_covered.contains(unit) {
                    slice.dev_covered.insert(unit.to_string());
                }
                if self.ops_covered.contains(unit) {
                    slice.ops_covered.insert(unit.to_string());
                }
                if let Some(w) = self.waivers.get(unit) {
                    slice.waivers.add(w.clone());
                }
            }
            Granularity::PerWaiver => {
                let w = self.waivers.get(unit).expect("dirty unit exists");
                slice.waivers.add(w.clone());
                if let Some(e) = self.entries.get(unit) {
                    slice.entries.push(e.clone());
                }
            }
            Granularity::PerFormula => {
                let f = self.formulas.get(unit).expect("dirty unit exists");
                slice.formulas.push(f.clone());
            }
            Granularity::PerModel => {
                let m = self.models.get(unit).expect("dirty unit exists");
                slice.models.push(m.clone());
            }
            Granularity::PerAssertion => {
                let a = self.assertions.get(unit).expect("dirty unit exists");
                slice.assertions.push(a.clone());
            }
            Granularity::PerTraceLink => {
                let (kind, id) = unit.split_once(':').expect("trace unit key");
                if kind == "d" {
                    slice.dev_covered.insert(id.to_string());
                } else {
                    slice.ops_covered.insert(id.to_string());
                }
                if let Some(e) = self.entries.get(id) {
                    slice.entries.push(e.clone());
                }
            }
        }
        slice
    }
}

impl std::fmt::Debug for IncrementalAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalAnalyzer")
            .field("entries", &self.entries.len())
            .field("waivers", &self.waivers.len())
            .field("formulas", &self.formulas.len())
            .field("models", &self.models.len())
            .field("assertions", &self.assertions.len())
            .field("now", &self.now)
            .field("live_units", &self.live.len())
            .field("memo_entries", &self.memo.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ReqExpr;
    use crate::engine::Analyzer;

    fn full_report(inc: &IncrementalAnalyzer) -> AnalysisReport {
        Analyzer::new(inc.config().clone()).analyze_all(&inc.artifacts(), 1)
    }

    #[test]
    fn empty_delta_on_empty_engine_is_clean() {
        let mut inc = IncrementalAnalyzer::new(AnalysisConfig::default());
        let report = inc.apply(&ArtifactDelta::new(), 1);
        assert!(report.is_clean());
        assert_eq!(inc.stats().dirty_units, 0);
    }

    #[test]
    fn single_entry_lifecycle_matches_full() {
        let mut inc = IncrementalAnalyzer::new(AnalysisConfig::default());
        // Add an uncovered entry → VDA011.
        let r = inc.apply(
            &ArtifactDelta::new().with_entry(EntryArtifact::new("V-1").expr(ReqExpr::atom("a"))),
            1,
        );
        assert_eq!(r, full_report(&inc));
        assert!(!r.is_clean());
        // Cover it → clean.
        let r = inc.apply(&ArtifactDelta::new().cover_dev("V-1"), 1);
        assert_eq!(r, full_report(&inc));
        assert!(r.is_clean());
        // Remove the entry → dangling trace link (VDA012).
        let r = inc.apply(&ArtifactDelta::new().remove_entry("V-1"), 1);
        assert_eq!(r, full_report(&inc));
        assert_eq!(
            r.by_code(crate::diag::LintCode::DanglingEdge).count(),
            1,
            "{r}"
        );
    }

    #[test]
    fn memo_hits_on_revert() {
        let mut inc = IncrementalAnalyzer::new(AnalysisConfig::default());
        let seed = ArtifactDelta::new()
            .with_entry(EntryArtifact::new("V-1").expr(ReqExpr::all_of([
                ReqExpr::atom("x"),
                ReqExpr::not(ReqExpr::atom("x")),
            ])))
            .cover_dev("V-1");
        let first = inc.apply(&seed, 1);
        let miss0 = inc.stats().misses;
        // Mutate, then undo; the revert should be all memo hits.
        let (mutated, undo) = inc.apply_with_undo(
            &ArtifactDelta::new().with_entry(EntryArtifact::new("V-1").expr(ReqExpr::atom("fine"))),
            1,
        );
        assert_ne!(first, mutated);
        let miss1 = inc.stats().misses;
        assert!(miss1 > miss0);
        let reverted = inc.apply(&undo, 1);
        assert_eq!(reverted, first);
        assert_eq!(inc.stats().misses, miss1, "revert must not re-run lints");
        assert!(inc.stats().hits > 0);
        assert_eq!(reverted, full_report(&inc));
    }

    #[test]
    fn clock_advance_expires_waivers() {
        let mut inc = IncrementalAnalyzer::new(AnalysisConfig::default());
        let seed = ArtifactDelta::new()
            .with_entry(EntryArtifact::new("V-1"))
            .with_waiver(Waiver {
                finding_id: "V-1".into(),
                reason: "temp".into(),
                expires_at: Some(10),
            })
            .set_now(5);
        let r = inc.apply(&seed, 1);
        assert_eq!(r, full_report(&inc));
        assert!(r.is_clean(), "waived and unexpired:\n{r}");
        // Tick past the expiry: VDA005 fires and V-1 loses its waiver
        // cover, so VDA011 fires too.
        let r = inc.apply(&ArtifactDelta::new().set_now(11), 1);
        assert_eq!(r, full_report(&inc));
        assert_eq!(r.by_code(crate::diag::LintCode::ExpiredWaiver).count(), 1);
        assert_eq!(
            r.by_code(crate::diag::LintCode::UntracedRequirement)
                .count(),
            1
        );
        // Advancing further re-prints the expired message with the new
        // clock value.
        let r = inc.apply(&ArtifactDelta::new().set_now(12), 1);
        assert_eq!(r, full_report(&inc));
        assert!(r.listing().contains("now 12"), "{r}");
    }

    #[test]
    fn from_set_seed_matches_batch() {
        let set = ArtifactSet::new()
            .with_entry(EntryArtifact::new("V-A").expr(ReqExpr::atom("a")))
            .with_entry(EntryArtifact::new("V-B").expr(ReqExpr::atom("a")))
            .with_formula(
                "taut",
                Formula::Or(
                    Box::new(Formula::atom("p")),
                    Box::new(Formula::Not(Box::new(Formula::atom("p")))),
                ),
            )
            .covered_dev("V-A")
            .covered_dev("V-B")
            .covered_ops("GONE");
        let mut inc = IncrementalAnalyzer::new(AnalysisConfig::default());
        let r = inc.apply(&ArtifactDelta::from_set(&set), 4);
        assert_eq!(
            r,
            Analyzer::new(AnalysisConfig::default()).analyze_all(&set, 1)
        );
        assert!(!r.is_clean());
    }

    #[test]
    fn untouched_units_are_not_rerun() {
        let mut inc = IncrementalAnalyzer::new(AnalysisConfig::default());
        let mut seed = ArtifactDelta::new();
        for i in 0..50 {
            seed = seed
                .with_entry(
                    EntryArtifact::new(format!("V-{i:03}")).expr(ReqExpr::atom(format!("cfg_{i}"))),
                )
                .cover_dev(format!("V-{i:03}"));
        }
        inc.apply(&seed, 2);
        let dirty_before = inc.stats().dirty_units;
        // Touch one entry: only its own units plus the identity
        // buckets it leaves and enters may be re-examined.
        inc.apply(
            &ArtifactDelta::new()
                .with_entry(EntryArtifact::new("V-007").expr(ReqExpr::atom("cfg_new"))),
            2,
        );
        let dirty = inc.stats().dirty_units - dirty_before;
        assert!(
            dirty <= 12,
            "one-entry delta dirtied {dirty} units (expected ≤ 12, not O(catalogue))"
        );
        assert_eq!(inc.report(), full_report(&inc));
    }
}
