//! Requirement catalogues.
//!
//! The Java prototype organises requirements in a package tree
//! (`rqcode.patterns.temporal`, `rqcode.stigs.ubuntu`, …) and ships a
//! `Windows10SecurityTechnicalImplementationGuide` class that aggregates
//! "all STIGs". [`Catalog`] is the Rust counterpart: a registry of
//! requirement entries, each carrying its [`RequirementSpec`]
//! metadata, a package path for grouping, and the executable
//! check/enforce capability.
//!
//! The catalogue also indexes its entries by the keys they read
//! ([`Checkable::read_set`]), once, at registration. A caller that
//! knows which keys a write touched marks the entries reading them in
//! a [`RuleSet`] ([`Catalog::mark_readers`]) and re-checks only those
//! ([`Catalog::recheck`]), at O(keys written + entries hit) rather
//! than O(entries).

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::{
    CheckEnforce, CheckStatus, Checkable, Enforceable, EnforcementStatus, RequirementSpec, Severity,
};

/// Dot-separated package path used to group catalogue entries, mirroring
/// the Java package tree (`"rqcode.stigs.ubuntu"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackagePath(String);

impl PackagePath {
    /// Creates a package path. Empty segments are not validated here;
    /// paths are opaque grouping keys.
    #[must_use]
    pub fn new(path: impl Into<String>) -> Self {
        PackagePath(path.into())
    }

    /// The full dot-separated path.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterates over the dot-separated segments.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.0.split('.')
    }

    /// `true` iff `self` equals `prefix` or lies beneath it.
    #[must_use]
    pub fn starts_with(&self, prefix: &PackagePath) -> bool {
        self.0 == prefix.0
            || (self.0.starts_with(&prefix.0)
                && self.0.as_bytes().get(prefix.0.len()) == Some(&b'.'))
    }
}

impl fmt::Display for PackagePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PackagePath {
    fn from(s: &str) -> Self {
        PackagePath::new(s)
    }
}

/// Executable capability of a catalogue entry.
enum Capability<E: ?Sized> {
    /// Check-only requirement.
    Check(Box<dyn Checkable<E> + Send + Sync>),
    /// Requirement that can also self-remediate.
    CheckEnforce(Box<dyn CheckEnforce<E> + Send + Sync>),
}

/// One registered requirement: metadata + package + capability.
pub struct CatalogEntry<E: ?Sized> {
    spec: RequirementSpec,
    package: PackagePath,
    capability: Capability<E>,
    /// The capability's [`Checkable::read_set`].
    reads: Option<Vec<u64>>,
    /// The catalogue's reader lists for `reads`, so an enforcement finds
    /// the entries sharing its keys without hashing them.
    slots: Vec<usize>,
}

impl<E: ?Sized> CatalogEntry<E> {
    /// The structured specification.
    #[must_use]
    pub fn spec(&self) -> &RequirementSpec {
        &self.spec
    }

    /// The grouping package.
    #[must_use]
    pub fn package(&self) -> &PackagePath {
        &self.package
    }

    /// The ids of the keys the entry's check reads; `None` counts as
    /// every key.
    #[must_use]
    pub fn read_set(&self) -> Option<&[u64]> {
        self.reads.as_deref()
    }

    /// `true` iff the entry can enforce as well as check.
    #[must_use]
    pub fn is_enforceable(&self) -> bool {
        matches!(self.capability, Capability::CheckEnforce(_))
    }

    /// Checks this entry against `env`.
    pub fn check(&self, env: &E) -> CheckStatus {
        match &self.capability {
            Capability::Check(c) => c.check(env),
            Capability::CheckEnforce(c) => c.check(env),
        }
    }

    /// Enforces this entry on `env`.
    ///
    /// Check-only entries return [`EnforcementStatus::Incomplete`] —
    /// they must be remediated manually.
    pub fn enforce(&self, env: &mut E) -> EnforcementStatus {
        match &self.capability {
            Capability::Check(_) => EnforcementStatus::Incomplete,
            Capability::CheckEnforce(c) => c.enforce(env),
        }
    }
}

impl<E: ?Sized> Checkable<E> for CatalogEntry<E> {
    fn check(&self, env: &E) -> CheckStatus {
        CatalogEntry::check(self, env)
    }
}

impl<E: ?Sized> Enforceable<E> for CatalogEntry<E> {
    fn enforce(&self, env: &mut E) -> EnforcementStatus {
        CatalogEntry::enforce(self, env)
    }
}

/// A registry of requirements for environments of type `E`.
///
/// ```
/// use vdo_core::{Catalog, CheckStatus, RequirementSpec, Severity};
///
/// let mut cat: Catalog<bool> = Catalog::new();
/// cat.register(
///     "demo.flags",
///     RequirementSpec::builder("V-1").title("flag must be set").severity(Severity::High).build(),
///     |e: &bool| CheckStatus::from(*e),
/// );
/// assert_eq!(cat.len(), 1);
/// assert_eq!(cat.check_all(&true).iter().filter(|r| r.1.is_pass()).count(), 1);
/// ```
pub struct Catalog<E: ?Sized> {
    entries: Vec<CatalogEntry<E>>,
    /// Key id → its list in `readers`.
    slots: HashMap<u64, usize>,
    /// Per key, the entries whose read-set names it, ascending.
    readers: Vec<Vec<usize>>,
    /// The entries without a read-set, which count as reading every key.
    unscoped: Vec<usize>,
}

impl<E: ?Sized> Catalog<E> {
    /// Creates an empty catalogue.
    #[must_use]
    pub fn new() -> Self {
        Catalog {
            entries: Vec::new(),
            slots: HashMap::new(),
            readers: Vec::new(),
            unscoped: Vec::new(),
        }
    }

    /// Appends `entry` and indexes its read-set. Returns its index.
    fn push(&mut self, mut entry: CatalogEntry<E>) -> usize {
        let index = self.entries.len();
        match &entry.reads {
            Some(keys) => {
                for &key in keys {
                    let fresh = self.readers.len();
                    let slot = *self.slots.entry(key).or_insert(fresh);
                    if slot == fresh {
                        self.readers.push(Vec::new());
                    }
                    if self.readers[slot].last() != Some(&index) {
                        self.readers[slot].push(index);
                        entry.slots.push(slot);
                    }
                }
            }
            None => self.unscoped.push(index),
        }
        self.entries.push(entry);
        index
    }

    /// Registers a check-only requirement. Returns the entry index.
    pub fn register<C>(
        &mut self,
        package: impl Into<PackagePath>,
        spec: RequirementSpec,
        checkable: C,
    ) -> usize
    where
        C: Checkable<E> + Send + Sync + 'static,
    {
        self.push(CatalogEntry {
            spec,
            package: package.into(),
            reads: checkable.read_set(),
            slots: Vec::new(),
            capability: Capability::Check(Box::new(checkable)),
        })
    }

    /// Registers a requirement that can also enforce. Returns the entry
    /// index.
    pub fn register_enforceable<C>(
        &mut self,
        package: impl Into<PackagePath>,
        spec: RequirementSpec,
        requirement: C,
    ) -> usize
    where
        C: CheckEnforce<E> + Send + Sync + 'static,
    {
        self.push(CatalogEntry {
            spec,
            package: package.into(),
            reads: requirement.read_set(),
            slots: Vec::new(),
            capability: Capability::CheckEnforce(Box::new(requirement)),
        })
    }

    /// Number of registered requirements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = &CatalogEntry<E>> {
        self.entries.iter()
    }

    /// Entry by index.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&CatalogEntry<E>> {
        self.entries.get(index)
    }

    /// Looks an entry up by its finding id.
    #[must_use]
    pub fn find(&self, finding_id: &str) -> Option<&CatalogEntry<E>> {
        self.entries
            .iter()
            .find(|e| e.spec.finding_id() == finding_id)
    }

    /// Entries whose package equals or lies beneath `prefix`.
    pub fn in_package<'a>(
        &'a self,
        prefix: &'a PackagePath,
    ) -> impl Iterator<Item = &'a CatalogEntry<E>> + 'a {
        self.entries
            .iter()
            .filter(move |e| e.package.starts_with(prefix))
    }

    /// Checks every entry against `env`, returning `(entry, verdict)`
    /// pairs in registration order.
    pub fn check_all<'a>(&'a self, env: &E) -> Vec<(&'a CatalogEntry<E>, CheckStatus)> {
        self.entries
            .iter()
            .map(|e| {
                let v = e.check(env);
                (e, v)
            })
            .collect()
    }

    /// Every entry's verdict on `env`, in registration order.
    pub fn verdicts(&self, env: &E) -> Vec<CheckStatus> {
        self.entries.iter().map(|e| e.check(env)).collect()
    }

    /// Adds to `set` every entry a write to the key with id `key` can
    /// change: the entries whose read-set names it, and every entry
    /// without a read-set.
    pub fn mark_readers(&self, key: u64, set: &mut RuleSet) {
        let slot = self.slots.get(&key).copied();
        self.mark_slots(slot.as_slice(), set);
    }

    /// Adds to `set` every entry that enforcing entry `index` can
    /// change: the entries sharing a key with it, or all of them when
    /// `index` has no read-set (its writes are unknown).
    pub fn mark_sharing(&self, index: usize, set: &mut RuleSet) {
        let entry = &self.entries[index];
        match entry.reads {
            Some(_) => self.mark_slots(&entry.slots, set),
            None => (0..self.entries.len()).for_each(|i| set.insert(i)),
        }
    }

    /// Adds the readers of the keys at `slots`, and every entry without
    /// a read-set, to `set`.
    fn mark_slots(&self, slots: &[usize], set: &mut RuleSet) {
        for &slot in slots {
            for &i in &self.readers[slot] {
                set.insert(i);
            }
        }
        for &i in &self.unscoped {
            set.insert(i);
        }
    }

    /// Re-checks the entries in `stale` against `env`, writes their
    /// verdicts into `verdicts` (one per entry, in registration order)
    /// and empties `stale`. When `verdicts` held a full check of `env`
    /// before the writes that made `stale`, it holds one again after.
    /// Returns how many verdicts changed.
    pub fn recheck(&self, env: &E, verdicts: &mut [CheckStatus], stale: &mut RuleSet) -> usize {
        let mut changed = 0;
        for i in stale.iter() {
            let status = self.entries[i].check(env);
            if status != verdicts[i] {
                verdicts[i] = status;
                changed += 1;
            }
        }
        stale.clear();
        changed
    }

    /// Inventory: entry counts per package, as used to regenerate the
    /// D2.7 catalogue tables (experiment T1).
    #[must_use]
    pub fn inventory(&self) -> BTreeMap<PackagePath, PackageStats> {
        let mut map: BTreeMap<PackagePath, PackageStats> = BTreeMap::new();
        for e in &self.entries {
            let s = map.entry(e.package.clone()).or_default();
            s.total += 1;
            if e.is_enforceable() {
                s.enforceable += 1;
            }
            match e.spec.severity() {
                Severity::High => s.high += 1,
                Severity::Medium => s.medium += 1,
                Severity::Low => s.low += 1,
            }
        }
        map
    }
}

impl<E: ?Sized> Default for Catalog<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: ?Sized> fmt::Debug for Catalog<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog")
            .field("entries", &self.entries.len())
            .finish()
    }
}

/// A set of catalogue entry indices, one bit per entry: the entries a
/// write made stale, or that an enforcement may have changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleSet {
    words: Vec<u64>,
}

impl RuleSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// The set of entries `0..n`.
    #[must_use]
    pub fn all(n: usize) -> Self {
        let mut words = vec![u64::MAX; n / 64];
        if !n.is_multiple_of(64) {
            words.push((1 << (n % 64)) - 1);
        }
        RuleSet { words }
    }

    /// Adds entry `i`.
    pub fn insert(&mut self, i: usize) {
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Number of entries in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` iff the set holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The entries in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// Per-package counts produced by [`Catalog::inventory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackageStats {
    /// Total requirements registered under the package.
    pub total: usize,
    /// Of which enforceable (check + fix).
    pub enforceable: usize,
    /// CAT I count.
    pub high: usize,
    /// CAT II count.
    pub medium: usize,
    /// CAT III count.
    pub low: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &str, sev: Severity) -> RequirementSpec {
        RequirementSpec::builder(id).title(id).severity(sev).build()
    }

    struct SetTo(u32);
    impl Checkable<u32> for SetTo {
        fn check(&self, env: &u32) -> CheckStatus {
            CheckStatus::from(*env == self.0)
        }
    }
    impl Enforceable<u32> for SetTo {
        fn enforce(&self, env: &mut u32) -> EnforcementStatus {
            *env = self.0;
            EnforcementStatus::Success
        }
    }

    fn sample_catalog() -> Catalog<u32> {
        let mut cat = Catalog::new();
        cat.register(
            "rqcode.stigs.ubuntu",
            spec("V-1", Severity::High),
            |e: &u32| CheckStatus::from(*e > 0),
        );
        cat.register_enforceable(
            "rqcode.stigs.win10",
            spec("V-2", Severity::Medium),
            SetTo(7),
        );
        cat.register_enforceable("rqcode.stigs.win10", spec("V-3", Severity::Low), SetTo(7));
        cat
    }

    #[test]
    fn register_and_lookup() {
        let cat = sample_catalog();
        assert_eq!(cat.len(), 3);
        assert!(cat.find("V-2").is_some());
        assert!(cat.find("V-99").is_none());
        assert!(!cat.get(0).unwrap().is_enforceable());
        assert!(cat.get(1).unwrap().is_enforceable());
    }

    #[test]
    fn package_filtering() {
        let cat = sample_catalog();
        let win = PackagePath::new("rqcode.stigs.win10");
        assert_eq!(cat.in_package(&win).count(), 2);
        let root = PackagePath::new("rqcode");
        assert_eq!(cat.in_package(&root).count(), 3);
        let other = PackagePath::new("rqcode.stigs.win");
        assert_eq!(
            cat.in_package(&other).count(),
            0,
            "prefix must respect segment boundaries"
        );
    }

    #[test]
    fn check_all_reports_each_entry() {
        let cat = sample_catalog();
        let results = cat.check_all(&7);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|(_, v)| v.is_pass()));
        let results = cat.check_all(&0);
        assert_eq!(results.iter().filter(|(_, v)| v.is_fail()).count(), 3);
    }

    #[test]
    fn check_only_entry_cannot_enforce() {
        let cat = sample_catalog();
        let mut env = 0;
        assert_eq!(
            cat.get(0).unwrap().enforce(&mut env),
            EnforcementStatus::Incomplete
        );
        assert_eq!(
            cat.get(1).unwrap().enforce(&mut env),
            EnforcementStatus::Success
        );
        assert_eq!(env, 7);
    }

    #[test]
    fn inventory_counts_per_package() {
        let cat = sample_catalog();
        let inv = cat.inventory();
        let win = &inv[&PackagePath::new("rqcode.stigs.win10")];
        assert_eq!(win.total, 2);
        assert_eq!(win.enforceable, 2);
        assert_eq!(win.medium, 1);
        assert_eq!(win.low, 1);
        let ubu = &inv[&PackagePath::new("rqcode.stigs.ubuntu")];
        assert_eq!(ubu.total, 1);
        assert_eq!(ubu.high, 1);
        assert_eq!(ubu.enforceable, 0);
    }

    /// Reads and writes `env[slot]`, and says so.
    struct Keyed(usize);
    impl Checkable<Vec<u32>> for Keyed {
        fn check(&self, env: &Vec<u32>) -> CheckStatus {
            CheckStatus::from(env[self.0] > 0)
        }
        fn read_set(&self) -> Option<Vec<u64>> {
            Some(vec![self.0 as u64])
        }
    }

    #[test]
    fn the_key_index_marks_readers_and_every_unscoped_entry() {
        let mut cat: Catalog<Vec<u32>> = Catalog::new();
        cat.register("p", spec("K-0", Severity::Low), Keyed(0));
        cat.register("p", spec("K-1", Severity::Low), Keyed(1));
        cat.register("p", spec("ALL", Severity::Low), |e: &Vec<u32>| {
            CheckStatus::from(e.iter().all(|&v| v > 0))
        });
        cat.register("p", spec("K-0b", Severity::Low), Keyed(0));
        let marked = |key| {
            let mut set = RuleSet::new();
            cat.mark_readers(key, &mut set);
            set.iter().collect::<Vec<_>>()
        };
        assert_eq!(marked(0), vec![0, 2, 3]);
        assert_eq!(marked(1), vec![1, 2]);
        assert_eq!(
            marked(7),
            vec![2],
            "an unread key still meets the unscoped entry"
        );
        let sharing = |entry| {
            let mut set = RuleSet::new();
            cat.mark_sharing(entry, &mut set);
            set.iter().collect::<Vec<_>>()
        };
        assert_eq!(sharing(3), vec![0, 2, 3]);
        assert_eq!(
            sharing(2),
            vec![0, 1, 2, 3],
            "unknown writes touch everything"
        );

        let mut env = vec![0, 1];
        let mut verdicts = cat.verdicts(&env);
        env[0] = 5;
        let mut stale = RuleSet::new();
        cat.mark_readers(0, &mut stale);
        assert_eq!(cat.recheck(&env, &mut verdicts, &mut stale), 3);
        assert!(stale.is_empty());
        assert_eq!(verdicts, cat.verdicts(&env));
    }

    #[test]
    fn rule_sets_hold_indices_in_order() {
        let mut set = RuleSet::new();
        assert!(set.is_empty());
        for i in [130, 3, 64, 3, 0] {
            set.insert(i);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 3, 64, 130]);
        assert_eq!(set.len(), 4);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(RuleSet::all(66).iter().count(), 66);
        assert_eq!(RuleSet::all(64).len(), 64);
        assert!(RuleSet::all(0).is_empty());
    }

    #[test]
    fn package_path_segments() {
        let p = PackagePath::new("a.b.c");
        assert_eq!(p.segments().collect::<Vec<_>>(), vec!["a", "b", "c"]);
        assert_eq!(p.to_string(), "a.b.c");
    }
}
